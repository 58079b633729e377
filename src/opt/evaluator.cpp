#include "opt/evaluator.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>

#include "obs/metrics.h"
#include "opt/sizer.h"
#include "util/check.h"
#include "util/guard.h"

namespace minergy::opt {
namespace {

// Every arrival/delay must be finite and non-negative. NaN cannot be relied
// on to reach critical_delay (max-comparisons silently drop NaN operands),
// so the whole report is scanned; the isfinite sweep is trivial next to the
// per-gate transregional current evaluations STA just performed.
void check_finite_report(const netlist::Netlist& nl,
                         const timing::TimingReport& report) {
  for (netlist::GateId id : nl.combinational()) {
    const double d = report.gate_delay[id];
    const double a = report.arrival[id];
    if (!std::isfinite(d) || d < 0.0) {
      throw util::NumericError(d, "STA delay of gate '" + nl.gate(id).name +
                                      "'");
    }
    if (!std::isfinite(a) || a < 0.0) {
      throw util::NumericError(
          a, "STA arrival time at gate '" + nl.gate(id).name + "'");
    }
  }
  if (!std::isfinite(report.critical_delay) || report.critical_delay < 0.0) {
    throw util::NumericError(report.critical_delay, "STA critical delay");
  }
}

// Rejects a corrupt technology before any derived model (device, wires,
// delay, energy) is built from it.
const tech::Technology& validated(const tech::Technology& tech) {
  tech.validate();
  return tech;
}

// Same idea for the settings: members like the EnergyModel consume the
// clock frequency during construction, so a bad value must be rejected in
// the init list, before any of them is built.
const EvalSettings& validated(const EvalSettings& settings) {
  if (!std::isfinite(settings.clock_frequency) ||
      settings.clock_frequency <= 0.0) {
    throw util::NumericError(settings.clock_frequency, "clock frequency");
  }
  if (!std::isfinite(settings.vts_tolerance) ||
      settings.vts_tolerance < 0.0 || settings.vts_tolerance >= 1.0) {
    throw util::NumericError(settings.vts_tolerance,
                             "Vts process-variation tolerance");
  }
  if (!std::isfinite(settings.input_slew) || settings.input_slew < 0.0) {
    throw util::NumericError(settings.input_slew, "primary-input slew");
  }
  return settings;
}

}  // namespace

CircuitEvaluator::CircuitEvaluator(const netlist::Netlist& nl,
                                   const tech::Technology& tech,
                                   const activity::ActivityProfile& profile,
                                   const EvalSettings& settings)
    : nl_(nl),
      tech_(validated(tech)),
      settings_(validated(settings)),
      dev_(tech_),
      own_wires_(std::in_place, tech_, nl_),
      wires_(&*own_wires_),
      act_(activity::estimate_activity(nl_, profile)),
      delay_(nl_, dev_, *wires_),
      energy_(nl_, dev_, *wires_, act_, settings_.clock_frequency),
      budgeter_(nl_) {
  validate_inputs();
}

CircuitEvaluator::CircuitEvaluator(const netlist::Netlist& nl,
                                   const tech::Technology& tech,
                                   const activity::ActivityProfile& profile,
                                   const EvalSettings& settings,
                                   const interconnect::WireLoads& wires)
    : nl_(nl),
      tech_(validated(tech)),
      settings_(validated(settings)),
      dev_(tech_),
      wires_(&wires),
      act_(activity::estimate_activity(nl_, profile)),
      delay_(nl_, dev_, *wires_),
      energy_(nl_, dev_, *wires_, act_, settings_.clock_frequency),
      budgeter_(nl_) {
  validate_inputs();
}

void CircuitEvaluator::validate_inputs() const {
  // Settings were vetted by validated() in the init list; the netlist is
  // the one remaining precondition.
  MINERGY_CHECK_MSG(nl_.finalized(),
                    "netlist must be finalized before evaluation");
}

timing::TimingReport CircuitEvaluator::sta(const CircuitState& state,
                                           double cycle_limit) const {
  static obs::Counter& c_calls = obs::counter("opt.eval.sta_calls");
  c_calls.add();
  std::vector<double> vts_corner(state.vts.size());
  for (std::size_t i = 0; i < state.vts.size(); ++i) {
    vts_corner[i] = delay_vts(state.vts[i]);
  }
  timing::TimingReport report =
      timing::run_sta(delay_, state.widths, state.vdd,
                      std::span<const double>(vts_corner), cycle_limit);
  check_finite_report(nl_, report);
  return report;
}

double CircuitEvaluator::critical_delay(const CircuitState& state) const {
  return sta(state, cycle_time()).critical_delay;
}

power::EnergyBreakdown CircuitEvaluator::energy(
    const CircuitState& state, std::span<const double> gate_delay) const {
  static obs::Counter& c_calls = obs::counter("opt.eval.energy_calls");
  static obs::Counter& c_evals = obs::counter("power.energy.gate_evals");
  static obs::Histogram& h_micros = obs::histogram("opt.eval.energy_micros");
  c_calls.add();
  // One gate energy per logic gate, added in bulk.
  c_evals.add(static_cast<std::int64_t>(nl_.num_combinational()));
  const obs::ScopedTimer timer(h_micros);
  // Summed in topological order, so the floating-point total is the same on
  // every run. Each gate is evaluated at the low-Vt corner: leakage belongs
  // there, and the dynamic term never reads Vts (at zero tolerance the
  // corner is the nominal value itself).
  power::EnergyBreakdown total;
  tech::OperatingPointMemo leaky(dev_);
  for (netlist::GateId id : nl_.combinational()) {
    total += gate_energy(id, state, leaky);
  }
  if (settings_.include_short_circuit) {
    // Input transition times come from the gate delays of the driving
    // stage at the delay corner: the caller's, or one STA here.
    timing::TimingReport own;
    if (gate_delay.empty()) {
      own = sta(state, cycle_time());
      gate_delay = own.gate_delay;
    }
    MINERGY_CHECK(gate_delay.size() == nl_.size());
    for (netlist::GateId id : nl_.combinational()) {
      total.short_circuit_energy +=
          short_circuit_energy(id, state, gate_delay.data());
    }
  }
  // Boundary guard: a single corrupt per-gate term poisons the sum, so on a
  // non-finite total re-walk the gates to name the culprit.
  if (!std::isfinite(total.total())) {
    for (netlist::GateId id : nl_.combinational()) {
      const power::EnergyBreakdown e = energy_.gate_energy(
          id, state.widths, state.vdd, leakage_vts(state.vts[id]));
      if (!std::isfinite(e.total())) {
        throw util::NumericError(
            e.total(), "energy of gate '" + nl_.gate(id).name + "'");
      }
    }
    throw util::NumericError(total.total(), "total energy per cycle");
  }
  return total;
}

double CircuitEvaluator::short_circuit_energy(netlist::GateId id,
                                              const CircuitState& state,
                                              const double* gate_delay) const {
  // Twice the slowest logic fanin's delay; the primary-input ramp when
  // only sources drive the gate.
  double slowest_fanin = 0.0;
  bool source_driven_only = true;
  for (netlist::GateId f : nl_.fanins_of(id)) {
    if (nl_.is_logic(f)) {
      slowest_fanin = std::max(slowest_fanin, gate_delay[f]);
      source_driven_only = false;
    }
  }
  const double tau_in =
      source_driven_only ? settings_.input_slew : 2.0 * slowest_fanin;
  return energy_.short_circuit_energy(id, state.widths, state.vdd,
                                      state.vts[id], tau_in);
}

timing::TimingReport CircuitEvaluator::sta(
    std::span<const timing::LoadTerms> terms, double cycle_limit,
    bool with_slack) const {
  static obs::Counter& c_calls = obs::counter("opt.eval.sta_calls");
  c_calls.add();
  timing::TimingReport report =
      timing::run_sta(nl_, terms, cycle_limit, with_slack);
  check_finite_report(nl_, report);
  return report;
}

SizedState CircuitEvaluator::size_to_budgets(
    const timing::BudgetResult& budgets, double vdd, std::vector<double> vts,
    double limit, int recovery_passes) const {
  std::vector<double> vts_corner(vts.size());
  for (std::size_t i = 0; i < vts.size(); ++i) {
    vts_corner[i] = delay_vts(vts[i]);
  }
  const GateSizer sizer(delay_);
  SizingResult sized = sizer.size(budgets.t_max, vdd, vts_corner);
  MINERGY_CHECK(sized.widths.size() == nl_.size());
  SizedState s;
  s.state.vdd = vdd;
  s.state.vts = std::move(vts);
  s.state.widths = std::move(sized.widths);

  auto meets = [&](const timing::TimingReport& r) {
    return r.critical_delay <= limit * (1.0 + 1e-9);
  };
  // Each STA fills slack only when a recovery pass will read it.
  s.report = sta(sized.terms, limit, /*with_slack=*/recovery_passes > 0);
  s.feasible = meets(s.report);
  if (!s.feasible) return s;
  for (int pass = 0; pass < recovery_passes; ++pass) {
    SizingResult rec =
        sizer.recover(s.state.widths, vdd, vts_corner, limit, s.report);
    timing::TimingReport check =
        sta(rec.terms, limit, /*with_slack=*/pass + 1 < recovery_passes);
    if (!meets(check)) break;
    s.state.widths = std::move(rec.widths);
    s.report = std::move(check);
  }
  return s;
}

bool CircuitEvaluator::meets_timing(const CircuitState& state,
                                    double skew_b) const {
  // Tiny relative tolerance absorbs floating-point noise at the boundary.
  return critical_delay(state) <= skew_b * cycle_time() * (1.0 + 1e-9);
}

double CircuitEvaluator::minimum_cycle_time(double skew_b, double vts,
                                            double stop_at) const {
  if (vts < 0.0) vts = tech_.vts_min;
  return opt::minimum_cycle_time(delay_, budgeter_, skew_b, delay_vts(vts),
                                 stop_at);
}

double minimum_cycle_time(const timing::DelayCalculator& calc,
                          const timing::DelayBudgeter& budgeter,
                          double skew_b, double vts_delay, double stop_at) {
  const netlist::Netlist& nl = calc.netlist();
  const double vdd_max = calc.device().technology().vdd_max;
  const GateSizer sizer(calc);
  const std::vector<double> vts_corner(nl.size(), vts_delay);

  auto feasible_at = [&](double tc) {
    const timing::BudgetResult budgets =
        budgeter.assign(tc, {.clock_skew_b = skew_b});
    const SizingResult sized = sizer.size(budgets.t_max, vdd_max, vts_corner);
    const timing::TimingReport report =
        timing::run_sta(nl, sized.terms, tc, /*with_slack=*/false);
    return report.critical_delay <= skew_b * tc;
  };

  // Exponential bracket then bisection.
  double hi = 1e-9;
  while (!feasible_at(hi) && hi < 1.0) hi *= 2.0;
  MINERGY_CHECK_MSG(hi < 1.0, "circuit cannot meet any cycle time <= 1 s");
  double lo = hi / 2.0;
  for (int i = 0; i < 40 && !(hi <= stop_at); ++i) {
    const double mid = 0.5 * (lo + hi);
    if (feasible_at(mid)) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return hi;
}

util::InfeasibleError diagnose_infeasibility(const CircuitEvaluator& eval,
                                             double skew_b) {
  const netlist::Netlist& nl = eval.netlist();
  const tech::Technology& tech = eval.technology();
  const double tc = eval.cycle_time();

  // Max-drive probe: strongest corner the technology offers, budget-driven
  // sizing against the requested cycle time.
  const std::vector<double> vts_corner(nl.size(), eval.delay_vts(tech.vts_min));
  const timing::BudgetResult budgets =
      eval.budgeter().assign(tc, {.clock_skew_b = skew_b});
  const GateSizer sizer(eval.delay_calculator());
  const SizingResult sized = sizer.size(budgets.t_max, tech.vdd_max,
                                        std::span<const double>(vts_corner));
  return max_drive_infeasibility(
      eval, skew_b,
      timing::run_sta(nl, sized.terms, tc, /*with_slack=*/false));
}

util::InfeasibleError max_drive_infeasibility(
    const CircuitEvaluator& eval, double skew_b,
    const timing::TimingReport& report) {
  const netlist::Netlist& nl = eval.netlist();
  const tech::Technology& tech = eval.technology();
  const double tc = eval.cycle_time();
  const double limit = skew_b * tc;
  const std::string endpoint =
      report.critical_path.empty()
          ? std::string("<none>")
          : nl.gate(report.critical_path.back()).name;
  std::ostringstream msg;
  msg << "cycle-time constraint infeasible for '" << nl.name()
      << "': requested T_c = " << tc * 1e9 << " ns (delay limit b*T_c = "
      << limit * 1e9 << " ns), but the best achievable critical-path delay "
      << "at maximum drive (Vdd = " << tech.vdd_max << " V, Vts = "
      << tech.vts_min << " V) is " << report.critical_delay * 1e9
      << " ns; limiting path ends at gate '" << endpoint
      << "'. Relax the clock or restructure that cone of logic.";
  return util::InfeasibleError(msg.str(), limit, report.critical_delay,
                               endpoint);
}

}  // namespace minergy::opt
