// The per-gate kernels against Gate-walking references, compared with ==.
//
// STA, the delay terms, GateSizer, the energy sums and Procedure 1 read
// flat per-gate arrays (the netlist's CSR adjacency and role bytes, the
// wire model's per-net tables, per-gate device constants, Procedure 1's
// round plan). They promise the same floating-point operations on the same
// operands in the same order as the straightforward formulation, which the
// references below spell out: they walk netlist::Gate, call WireLoads
// virtually and derive every device constant per call. Any reordered sum,
// regrouped product or changed tie rule in a kernel shows up here as a
// bit-level mismatch.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "activity/activity.h"
#include "bench_suite/iscas.h"
#include "interconnect/wire_model.h"
#include "netlist/generator.h"
#include "obs/metrics.h"
#include "opt/evaluator.h"
#include "opt/sizer.h"
#include "place/placement.h"
#include "power/energy_model.h"
#include "tech/device_model.h"
#include "timing/delay_budget.h"
#include "timing/delay_model.h"
#include "timing/path_enum.h"
#include "timing/sta.h"

namespace minergy {
namespace {

using netlist::GateId;
using netlist::kInvalidGate;
using netlist::Netlist;

constexpr double kInf = std::numeric_limits<double>::infinity();

// ---------------------------------------------------------------- references

// Eq. (A3) on netlist::Gate and virtual WireLoads calls.
class RefDelay {
 public:
  RefDelay(const Netlist& nl, const tech::DeviceModel& dev,
           const interconnect::WireLoads& wires)
      : nl_(nl),
        dev_(dev),
        wires_(wires),
        po_load_cap_(dev.technology().po_load_w * dev.cin_per_wunit()) {}

  const Netlist& netlist() const { return nl_; }
  const tech::DeviceModel& device() const { return dev_; }

  double receiver_cap(GateId id, std::span<const double> widths) const {
    const netlist::Gate& g = nl_.gate(id);
    double c = g.is_primary_output ? po_load_cap_ : 0.0;
    for (GateId out : g.fanouts) {
      if (netlist::is_combinational(nl_.gate(out).type)) {
        c += widths[out] * dev_.cin_per_wunit();
      } else {
        c += po_load_cap_;  // DFF D-pin
      }
    }
    return c;
  }

  double self_cap_per_wunit(int fanin) const {
    return dev_.cpar_per_wunit() +
           (static_cast<double>(fanin) - 1.0) * dev_.cmid_per_wunit();
  }

  double load_cap(GateId id, std::span<const double> widths) const {
    const double self =
        widths[id] * self_cap_per_wunit(nl_.gate(id).fanin_count());
    return self + receiver_cap(id, widths) + wires_.net_cap(id);
  }

  static double drive_per_wunit(const tech::OperatingPoint& op, int fanin) {
    return op.idrive / tech::DeviceModel::stack_factor(fanin) -
           static_cast<double>(fanin) * op.ioff;
  }

  timing::DelayComponents components(GateId id,
                                     std::span<const double> widths,
                                     const tech::OperatingPoint& op,
                                     double max_fanin_delay,
                                     double* c_recv) const {
    const netlist::Gate& g = nl_.gate(id);
    const double w = widths[id];
    timing::DelayComponents c;
    c.slope = op.k_slope * max_fanin_delay;
    const double drive = w * drive_per_wunit(op, g.fanin_count());
    if (drive <= 0.0) {
      c.switching = kInf;
      return c;
    }
    const double recv = receiver_cap(id, widths);
    const double net = wires_.net_cap(id);
    const double load = w * self_cap_per_wunit(g.fanin_count()) + recv + net;
    c.switching = 0.5 * op.vdd * load / drive;
    c.wire_rc = wires_.net_res(id) * (0.5 * net + recv);
    c.flight = wires_.flight_time(id);
    if (c_recv != nullptr) *c_recv = recv;
    return c;
  }

  double gate_delay(GateId id, std::span<const double> widths,
                    const tech::OperatingPoint& op,
                    double max_fanin_delay) const {
    return components(id, widths, op, max_fanin_delay, nullptr).total();
  }

  timing::WidthTerms width_terms(GateId id, std::span<const double> widths,
                                 const tech::OperatingPoint& op,
                                 double max_fanin_delay) const {
    double c_recv = 0.0;
    const timing::DelayComponents c =
        components(id, widths, op, max_fanin_delay, &c_recv);
    timing::WidthTerms t;
    t.delay = c.total();
    const int fin = nl_.gate(id).fanin_count();
    const double k = drive_per_wunit(op, fin);
    if (k <= 0.0) {
      t.a = t.b = kInf;
      return t;
    }
    t.a = c.slope + 0.5 * op.vdd * self_cap_per_wunit(fin) / k + c.wire_rc +
          c.flight;
    t.b = 0.5 * op.vdd * (c_recv + wires_.net_cap(id)) / k;
    return t;
  }

  double gate_delay_min(GateId id, std::span<const double> widths, double vdd,
                        double vts, double min_fanin_delay) const {
    const double w = widths[id];
    const int fin = nl_.gate(id).fanin_count();
    const double slope = dev_.slope_coefficient(vdd, vts) * min_fanin_delay;
    const double drive =
        w * (dev_.idrive_per_wunit(vdd, vts) -
             static_cast<double>(fin) * dev_.ioff_per_wunit(vts));
    if (drive <= 0.0) return kInf;
    const double switching = 0.5 * vdd * load_cap(id, widths) / drive;
    const double wire_rc = wires_.net_res(id) * (0.5 * wires_.net_cap(id) +
                                                 receiver_cap(id, widths));
    return slope + switching + wire_rc + wires_.flight_time(id);
  }

 private:
  const Netlist& nl_;
  const tech::DeviceModel& dev_;
  const interconnect::WireLoads& wires_;
  double po_load_cap_;
};

timing::TimingReport ref_sta(const RefDelay& calc,
                             std::span<const double> widths,
                             std::span<const double> vdd,
                             std::span<const double> vts, double cycle_time) {
  const Netlist& nl = calc.netlist();
  timing::TimingReport r;
  r.gate_delay.assign(nl.size(), 0.0);
  r.arrival.assign(nl.size(), 0.0);
  r.slack.assign(nl.size(), 0.0);
  std::vector<GateId> worst_fanin(nl.size(), kInvalidGate);
  for (GateId id : nl.combinational()) {
    const netlist::Gate& g = nl.gate(id);
    double max_fanin_delay = 0.0;
    double max_fanin_arrival = 0.0;
    GateId argmax = kInvalidGate;
    for (GateId f : g.fanins) {
      max_fanin_delay = std::max(max_fanin_delay, r.gate_delay[f]);
      if (r.arrival[f] >= max_fanin_arrival) {
        max_fanin_arrival = r.arrival[f];
        argmax = netlist::is_combinational(nl.gate(f).type) ? f : kInvalidGate;
      }
    }
    r.gate_delay[id] =
        calc.gate_delay(id, widths,
                        calc.device().operating_point(vdd[id], vts[id]),
                        max_fanin_delay);
    r.arrival[id] = max_fanin_arrival + r.gate_delay[id];
    worst_fanin[id] = argmax;
  }
  GateId worst_end = kInvalidGate;
  for (GateId id : nl.sink_drivers()) {
    if (worst_end == kInvalidGate || r.arrival[id] > r.arrival[worst_end]) {
      worst_end = id;
    }
  }
  if (worst_end != kInvalidGate) {
    r.critical_delay = r.arrival[worst_end];
    for (GateId id = worst_end; id != kInvalidGate; id = worst_fanin[id]) {
      r.critical_path.push_back(id);
    }
    std::reverse(r.critical_path.begin(), r.critical_path.end());
  }
  std::vector<double> required(nl.size(), kInf);
  std::vector<char> is_sink(nl.size(), 0);
  for (GateId id : nl.sink_drivers()) is_sink[id] = 1;
  const auto& topo = nl.combinational();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const GateId id = *it;
    double req = is_sink[id] ? cycle_time : kInf;
    for (GateId o : nl.gate(id).fanouts) {
      if (netlist::is_combinational(nl.gate(o).type)) {
        req = std::min(req, required[o] - r.gate_delay[o]);
      }
    }
    required[id] = req;
  }
  for (GateId id : nl.combinational()) {
    r.slack[id] = std::isinf(required[id]) ? cycle_time - r.arrival[id]
                                           : required[id] - r.arrival[id];
  }
  return r;
}

double ref_slope_input(const Netlist& nl, GateId id,
                       std::span<const double> budgets) {
  double slope_in = 0.0;
  for (GateId f : nl.gate(id).fanins) {
    if (netlist::is_combinational(nl.gate(f).type)) {
      slope_in = std::max(slope_in, budgets[f]);
    }
  }
  return slope_in;
}

// The closed-form width solve of Procedure 2 (opt/sizer.cpp).
std::pair<double, bool> ref_solve_width(const RefDelay& calc, GateId id,
                                        std::vector<double>& widths,
                                        const tech::OperatingPoint& op,
                                        double slope_in, double budget,
                                        double w_min, double w_hi) {
  widths[id] = w_min;
  const timing::WidthTerms t = calc.width_terms(id, widths, op, slope_in);
  if (t.delay <= budget) return {w_min, true};
  if (!(budget > t.a)) return {w_hi, false};
  const double w_star = t.b / (budget - t.a);
  if (!(w_star <= w_hi)) return {w_hi, false};
  double nudge =
      2.0 * std::numeric_limits<double>::epsilon() * budget / (budget - t.a);
  const double w = std::max(w_min, w_star);
  for (int i = 0;; ++i) {
    const double cand = i < 4 ? std::min(w_hi, w * (1.0 + nudge)) : w_hi;
    widths[id] = cand;
    if (calc.gate_delay(id, widths, op, slope_in) <= budget) {
      return {cand, true};
    }
    if (cand >= w_hi) return {w_hi, false};
    nudge *= 2.0;
  }
}

opt::SizingResult ref_size(const RefDelay& calc, std::span<const double> t_max,
                           double vdd, std::span<const double> vts) {
  const Netlist& nl = calc.netlist();
  const tech::Technology& tech = calc.device().technology();
  opt::SizingResult r;
  r.widths.assign(nl.size(), tech.w_min);
  r.all_budgets_met = true;
  const auto& topo = nl.combinational();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const GateId id = *it;
    const auto [width, met] = ref_solve_width(
        calc, id, r.widths, calc.device().operating_point(vdd, vts[id]),
        ref_slope_input(nl, id, t_max), t_max[id], tech.w_min, tech.w_max);
    r.widths[id] = width;
    if (!met) {
      r.all_budgets_met = false;
      ++r.gates_missed;
    }
  }
  return r;
}

opt::SizingResult ref_recover(const RefDelay& calc,
                              std::span<const double> widths, double vdd,
                              std::span<const double> vts, double cycle_limit,
                              const timing::TimingReport& report) {
  const Netlist& nl = calc.netlist();
  const tech::Technology& tech = calc.device().technology();
  std::vector<double> t_rec(nl.size(), 0.0);
  for (GateId id : nl.combinational()) {
    const double slack = std::max(0.0, report.slack[id]);
    const double denom = std::max(cycle_limit - slack, 1e-3 * cycle_limit);
    t_rec[id] = report.gate_delay[id] * cycle_limit / denom;
  }
  opt::SizingResult r;
  r.widths.assign(widths.begin(), widths.end());
  r.all_budgets_met = true;
  const auto& topo = nl.combinational();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const GateId id = *it;
    const double w_old = r.widths[id];
    if (w_old <= tech.w_min * (1.0 + 1e-12)) continue;
    r.widths[id] =
        ref_solve_width(calc, id, r.widths,
                        calc.device().operating_point(vdd, vts[id]),
                        ref_slope_input(nl, id, t_rec), t_rec[id], tech.w_min,
                        w_old)
            .first;
  }
  return r;
}

// Appendix A.1 per gate: fanouts in netlist order, then the PO pin, then
// the wire.
power::EnergyBreakdown ref_gate_energy(const opt::CircuitEvaluator& eval,
                                       GateId id,
                                       std::span<const double> widths,
                                       double vdd, double ioff) {
  const Netlist& nl = eval.netlist();
  const tech::DeviceModel& dev = eval.device();
  const double po_load_cap = dev.technology().po_load_w * dev.cin_per_wunit();
  const netlist::Gate& g = nl.gate(id);
  const double w = widths[id];
  power::EnergyBreakdown e;
  e.static_energy = vdd * w * ioff / eval.clock_frequency();
  const double fin = static_cast<double>(g.fanin_count());
  double cap = w * (dev.cpar_per_wunit() + (fin - 1.0) * dev.cmid_per_wunit());
  for (GateId out : g.fanouts) {
    cap += netlist::is_combinational(nl.gate(out).type)
               ? widths[out] * dev.cin_per_wunit()
               : po_load_cap;
  }
  if (g.is_primary_output) cap += po_load_cap;
  cap += eval.wire_loads().net_cap(id);
  e.dynamic_energy = 0.5 * eval.activity().density[id] * vdd * vdd * cap;
  return e;
}

// opt::CircuitEvaluator::energy: dynamic at nominal Vts, leakage at the
// leaky corner, optional short-circuit energy from a delay-corner STA.
power::EnergyBreakdown ref_energy(const opt::CircuitEvaluator& eval,
                                  const opt::EvalSettings& settings,
                                  const opt::CircuitState& state) {
  const Netlist& nl = eval.netlist();
  const tech::DeviceModel& dev = eval.device();
  power::EnergyBreakdown total;
  for (GateId id : nl.combinational()) {
    power::EnergyBreakdown e =
        ref_gate_energy(eval, id, state.widths, state.vdd,
                        dev.ioff_per_wunit(state.vts[id]));
    if (settings.vts_tolerance != 0.0) {
      e.static_energy =
          ref_gate_energy(eval, id, state.widths, state.vdd,
                          dev.ioff_per_wunit(eval.leakage_vts(state.vts[id])))
              .static_energy;
    }
    total += e;
  }
  if (settings.include_short_circuit) {
    const RefDelay calc(nl, dev, eval.wire_loads());
    std::vector<double> vts_corner(state.vts.size());
    for (std::size_t i = 0; i < state.vts.size(); ++i) {
      vts_corner[i] = eval.delay_vts(state.vts[i]);
    }
    const std::vector<double> vdd(nl.size(), state.vdd);
    const timing::TimingReport report =
        ref_sta(calc, state.widths, vdd, vts_corner, eval.cycle_time());
    for (GateId id : nl.combinational()) {
      double slowest_fanin = 0.0;
      bool source_driven_only = true;
      for (GateId f : nl.gate(id).fanins) {
        if (netlist::is_combinational(nl.gate(f).type)) {
          slowest_fanin = std::max(slowest_fanin, report.gate_delay[f]);
          source_driven_only = false;
        }
      }
      const double tau_in =
          source_driven_only ? settings.input_slew : 2.0 * slowest_fanin;
      const double vdd0 = state.vdd, vts0 = state.vts[id];
      const double window = vdd0 - 2.0 * vts0;
      double sc = 0.0;
      if (window > 0.0 && tau_in > 0.0) {
        const double i_mid =
            state.widths[id] * dev.idrive_per_wunit(0.5 * vdd0, vts0) /
            tech::DeviceModel::stack_factor(nl.gate(id).fanin_count());
        sc = eval.activity().density[id] / 6.0 * i_mid * tau_in * window;
      }
      total.short_circuit_energy += sc;
    }
  }
  return total;
}

double ref_longest_budget_path(const Netlist& nl,
                               const std::vector<double>& t_max) {
  std::vector<double> acc(nl.size(), 0.0);
  double longest = 0.0;
  for (GateId id : nl.combinational()) {
    double best_in = 0.0;
    for (GateId f : nl.gate(id).fanins) {
      if (netlist::is_combinational(nl.gate(f).type)) {
        best_in = std::max(best_in, acc[f]);
      }
    }
    acc[id] = best_in + t_max[id];
    longest = std::max(longest, acc[id]);
  }
  return longest;
}

// Procedure 1 in one pass: the sorted pivot walk, each round's path taken
// from the PathAnalyzer and split between assigned and open gates at the
// given cycle time, then post-processing and the safety rescale.
timing::BudgetResult ref_assign(const Netlist& nl, double cycle_time,
                                const timing::BudgetOptions& opts,
                                bool fanout_weighted) {
  const timing::PathAnalyzer paths(nl);
  const double budget_cap = opts.clock_skew_b * cycle_time;
  timing::BudgetResult result;
  result.t_max.assign(nl.size(), 0.0);
  std::vector<char> assigned(nl.size(), 0);
  auto gate_weight = [&](GateId id) {
    return fanout_weighted ? static_cast<double>(nl.gate(id).branch_count())
                           : 1.0;
  };
  std::vector<std::pair<std::int64_t, GateId>> order;
  for (GateId id : nl.combinational()) {
    order.emplace_back(paths.through_criticality(id), id);
  }
  std::stable_sort(
      order.begin(), order.end(),
      [](const auto& x, const auto& y) { return x.first > y.first; });
  auto cursor = order.begin();
  std::size_t remaining = nl.num_combinational();
  while (remaining > 0) {
    while (cursor != order.end() && assigned[cursor->second]) ++cursor;
    const timing::Path path = paths.most_critical_through(cursor->second);
    ++result.rounds;
    double consumed = 0.0;
    double open_weight = 0.0;
    for (GateId id : path.gates) {
      if (assigned[id]) {
        consumed += result.t_max[id];
      } else {
        open_weight += gate_weight(id);
      }
    }
    double available = budget_cap - consumed;
    if (available <= 0.0) {
      ++result.exhausted_paths;
      available = 0.01 * budget_cap;
    }
    for (GateId id : path.gates) {
      if (assigned[id]) continue;
      result.t_max[id] = gate_weight(id) * available / open_weight;
      assigned[id] = 1;
      --remaining;
    }
  }
  if (opts.postprocess) {
    for (GateId id : nl.combinational()) {
      GateId slowest = kInvalidGate;
      for (GateId f : nl.gate(id).fanins) {
        if (!netlist::is_combinational(nl.gate(f).type)) continue;
        if (slowest == kInvalidGate ||
            result.t_max[f] > result.t_max[slowest]) {
          slowest = f;
        }
      }
      if (slowest == kInvalidGate) continue;
      const double need = opts.slope_reserve * result.t_max[slowest];
      if (result.t_max[id] >= need) continue;
      const double shortfall =
          std::min(need - result.t_max[id], 0.5 * result.t_max[slowest]);
      result.t_max[slowest] -= shortfall;
      result.t_max[id] += shortfall;
      ++result.slope_adjustments;
    }
  }
  const double longest = ref_longest_budget_path(nl, result.t_max);
  if (longest > budget_cap && longest > 0.0) {
    result.rescale_factor = budget_cap / longest;
    for (double& t : result.t_max) t *= result.rescale_factor;
  }
  result.longest_budget_path = ref_longest_budget_path(nl, result.t_max);
  return result;
}

// ------------------------------------------------------------------- inputs

// large_joint's shape. With `num_outputs` raised, most primary outputs
// also drive logic, which no bundled circuit has: only then does the order
// of the PO pin within a receiver sum show in the result.
Netlist gen1600(int num_outputs) {
  netlist::GeneratorSpec spec;
  spec.name = "gen1600-po" + std::to_string(num_outputs);
  spec.num_gates = 1600;
  spec.depth = 1600 / 64;
  spec.num_dffs = 1600 / 12;
  spec.num_inputs = 1600 / 50;
  spec.num_outputs = num_outputs;
  spec.seed = 7;
  return netlist::generate_random_logic(spec);
}

std::vector<Netlist> circuits() {
  std::vector<Netlist> out;
  for (const bench_suite::CircuitSpec& spec : bench_suite::paper_circuits()) {
    out.push_back(bench_suite::make_circuit(spec));
  }
  out.push_back(gen1600(1600 / 50));
  out.push_back(gen1600(400));
  return out;
}

// Widths spread over [w_min, w_max], different per gate.
std::vector<double> spread_widths(const Netlist& nl,
                                  const tech::Technology& tech) {
  std::vector<double> w(nl.size());
  for (GateId id = 0; id < nl.size(); ++id) {
    const double u = static_cast<double>((id * 37u) % 101u) / 100.0;
    w[id] = tech.w_min + u * (tech.w_max - tech.w_min);
  }
  return w;
}

// Per-gate mixed operating points, cycling through three values each (the
// two cycles have coprime lengths, so every pairing occurs).
std::vector<double> mixed(const Netlist& nl, std::array<double, 3> values,
                          unsigned stride) {
  std::vector<double> v(nl.size());
  for (GateId id = 0; id < nl.size(); ++id) {
    v[id] = values[(id / stride) % values.size()];
  }
  return v;
}

// One evaluator and the reference delay model over the same loads.
struct Bench {
  explicit Bench(const Netlist& netlist, bool placed = false)
      : nl(netlist),
        tech(tech::Technology::generic350()),
        placement(placed ? std::make_unique<place::Placement>(
                               place::AnnealingPlacer({.seed = 3,
                                                       .moves_per_node = 20})
                                   .place(nl))
                         : nullptr),
        placed_wires(placed ? std::make_unique<place::PlacedWireModel>(
                                  tech, *placement)
                            : nullptr),
        profile([] {
          activity::ActivityProfile p;
          p.input_density = 0.3;
          return p;
        }()),
        settings{.clock_frequency = 300e6,
                 .vts_tolerance = 0.1,
                 .include_short_circuit = true},
        eval(placed ? std::make_unique<opt::CircuitEvaluator>(
                          nl, tech, profile, settings, *placed_wires)
                    : std::make_unique<opt::CircuitEvaluator>(
                          nl, tech, profile, settings)),
        ref(nl, eval->device(), eval->wire_loads()) {}

  const Netlist& nl;
  tech::Technology tech;
  std::unique_ptr<place::Placement> placement;
  std::unique_ptr<place::PlacedWireModel> placed_wires;
  activity::ActivityProfile profile;
  opt::EvalSettings settings;
  std::unique_ptr<opt::CircuitEvaluator> eval;
  RefDelay ref;
};

// Counts mismatches and names the first, so a broken kernel reports one
// line per check instead of one per gate.
class Mismatches {
 public:
  void check(bool equal, const std::string& what) {
    if (equal) return;
    if (count_++ == 0) first_ = what;
  }
  void expect_none(const std::string& scope) const {
    EXPECT_EQ(count_, 0) << scope << ": first mismatch: " << first_;
  }

 private:
  int count_ = 0;
  std::string first_;
};

// ---------------------------------------------------------------- the checks

void expect_delay_terms_match(const Bench& b) {
  const timing::DelayCalculator& calc = b.eval->delay_calculator();
  const std::vector<double> w = spread_widths(b.nl, b.tech);
  const std::vector<double> vdd = mixed(b.nl, {0.35, 0.9, 3.3}, 1);
  const std::vector<double> vts = mixed(b.nl, {0.12, 0.3, 0.55}, 2);
  Mismatches m;
  for (GateId id : b.nl.combinational()) {
    const std::string name = b.nl.gate(id).name;
    m.check(calc.receiver_cap(id, w) == b.ref.receiver_cap(id, w),
            "receiver_cap " + name);
    m.check(calc.load_cap(id, w) == b.ref.load_cap(id, w), "load_cap " + name);
    const double slope_in = 1e-10 * static_cast<double>(id % 7);
    const tech::OperatingPoint op =
        b.eval->device().operating_point(vdd[id], vts[id]);
    m.check(calc.gate_delay(id, w, op, slope_in) ==
                b.ref.gate_delay(id, w, op, slope_in),
            "gate_delay " + name);
    m.check(calc.gate_delay(id, w, vdd[id], vts[id], slope_in) ==
                b.ref.gate_delay(id, w, op, slope_in),
            "gate_delay(vdd, vts) " + name);
    const timing::WidthTerms got = calc.width_terms(id, w, op, slope_in);
    const timing::WidthTerms want = b.ref.width_terms(id, w, op, slope_in);
    m.check(got.a == want.a && got.b == want.b && got.delay == want.delay,
            "width_terms " + name);
    const timing::DelayComponents gc =
        calc.gate_delay_components(id, w, vdd[id], vts[id], slope_in);
    const timing::DelayComponents wc =
        b.ref.components(id, w, op, slope_in, nullptr);
    m.check(gc.slope == wc.slope && gc.switching == wc.switching &&
                gc.wire_rc == wc.wire_rc && gc.flight == wc.flight,
            "gate_delay_components " + name);
    m.check(calc.gate_delay_min(id, w, vdd[id], vts[id], slope_in) ==
                b.ref.gate_delay_min(id, w, vdd[id], vts[id], slope_in),
            "gate_delay_min " + name);
  }
  m.expect_none(b.nl.name() + " delay terms");
}

void expect_sta_matches(const Bench& b, std::span<const double> widths,
                        std::span<const double> vdd,
                        std::span<const double> vts, double cycle_time) {
  const timing::TimingReport got =
      timing::run_sta(b.eval->delay_calculator(), widths, vdd, vts,
                      cycle_time);
  const timing::TimingReport want =
      ref_sta(b.ref, widths, vdd, vts, cycle_time);
  EXPECT_EQ(got.gate_delay, want.gate_delay) << b.nl.name();
  EXPECT_EQ(got.arrival, want.arrival) << b.nl.name();
  EXPECT_EQ(got.slack, want.slack) << b.nl.name();
  EXPECT_EQ(got.critical_delay, want.critical_delay) << b.nl.name();
  EXPECT_EQ(got.critical_path, want.critical_path) << b.nl.name();
}

void expect_sizing_matches(const Bench& b, int* gates_missed) {
  const opt::GateSizer sizer(b.eval->delay_calculator());
  const std::vector<double> vts = mixed(b.nl, {0.15, 0.25, 0.4}, 1);
  for (const double vdd : {0.6, 1.5}) {
    // Cycle times around the critical delay at w_min, so that budgets
    // leave gates at w_min, size others and, when tight, miss a few.
    const std::vector<double> w_min(b.nl.size(), b.tech.w_min);
    const std::vector<double> vdds(b.nl.size(), vdd);
    const double d0 =
        ref_sta(b.ref, w_min, vdds, vts, 1.0).critical_delay;
    for (const double factor : {0.4, 1.3}) {
      SCOPED_TRACE(b.nl.name() + " vdd=" + std::to_string(vdd) +
                   " factor=" + std::to_string(factor));
      const double tc = factor * d0;
      const timing::BudgetResult budgets = b.eval->budgeter().assign(tc);
      const opt::SizingResult got = sizer.size(budgets.t_max, vdd, vts);
      const opt::SizingResult want = ref_size(b.ref, budgets.t_max, vdd, vts);
      EXPECT_EQ(got.widths, want.widths);
      EXPECT_EQ(got.gates_missed, want.gates_missed);
      EXPECT_EQ(got.all_budgets_met, want.all_budgets_met);
      *gates_missed += got.gates_missed;

      const double limit = 0.95 * tc;
      expect_sta_matches(b, got.widths, vdds, vts, limit);
      const timing::TimingReport report = ref_sta(b.ref, got.widths, vdds,
                                                  vts, limit);
      const opt::SizingResult rec =
          sizer.recover(got.widths, vdd, vts, limit, report);
      const opt::SizingResult rec_want =
          ref_recover(b.ref, got.widths, vdd, vts, limit, report);
      EXPECT_EQ(rec.widths, rec_want.widths);
      EXPECT_EQ(rec.gates_missed, rec_want.gates_missed);
      EXPECT_EQ(rec.all_budgets_met, rec_want.all_budgets_met);
    }
  }
}

void expect_energy_matches(const Bench& b) {
  opt::CircuitState state;
  state.vdd = 0.8;
  state.vts = mixed(b.nl, {0.12, 0.2, 0.35}, 1);
  state.widths = spread_widths(b.nl, b.tech);
  const bool metrics_were_on = obs::enabled();
  obs::set_enabled(true);
  const obs::Counter& gate_evals = obs::counter("power.energy.gate_evals");
  const std::int64_t evals_before = gate_evals.value();
  const power::EnergyBreakdown got = b.eval->energy(state);
  // One gate evaluation per logic gate despite the bench's Vts tolerance:
  // the leaky corner's call supplies the dynamic term as well.
  EXPECT_EQ(gate_evals.value() - evals_before,
            static_cast<std::int64_t>(b.nl.num_combinational()))
      << b.nl.name();
  obs::set_enabled(metrics_were_on);
  const power::EnergyBreakdown want = ref_energy(*b.eval, b.settings, state);
  EXPECT_EQ(got.static_energy, want.static_energy) << b.nl.name();
  EXPECT_EQ(got.dynamic_energy, want.dynamic_energy) << b.nl.name();
  EXPECT_EQ(got.short_circuit_energy, want.short_circuit_energy)
      << b.nl.name();
  EXPECT_GT(got.short_circuit_energy, 0.0) << b.nl.name();

  // The model's own sum and per-gate entry points.
  const power::EnergyModel& em = b.eval->energy_model();
  const power::EnergyBreakdown total =
      em.total_energy(state.widths, state.vdd, state.vts);
  power::EnergyBreakdown ref_total;
  Mismatches m;
  for (GateId id : b.nl.combinational()) {
    const power::EnergyBreakdown e = ref_gate_energy(
        *b.eval, id, state.widths, state.vdd,
        b.eval->device().ioff_per_wunit(state.vts[id]));
    const power::EnergyBreakdown g =
        em.gate_energy(id, state.widths, state.vdd, state.vts[id]);
    m.check(g.static_energy == e.static_energy &&
                g.dynamic_energy == e.dynamic_energy,
            "gate_energy " + b.nl.gate(id).name);
    ref_total += e;
  }
  m.expect_none(b.nl.name() + " gate_energy");
  EXPECT_EQ(total.static_energy, ref_total.static_energy) << b.nl.name();
  EXPECT_EQ(total.dynamic_energy, ref_total.dynamic_energy) << b.nl.name();
}

void expect_kernels_match(const Bench& b, int* gates_missed) {
  expect_delay_terms_match(b);
  const std::vector<double> w = spread_widths(b.nl, b.tech);
  // Per-gate mixed Vdd and Vts, then a uniform operating point.
  expect_sta_matches(b, w, mixed(b.nl, {0.35, 0.9, 3.3}, 1),
                     mixed(b.nl, {0.12, 0.3, 0.55}, 2), 3.33e-9);
  expect_sta_matches(b, w, std::vector<double>(b.nl.size(), 1.2),
                     std::vector<double>(b.nl.size(), 0.2), 5e-9);
  expect_sizing_matches(b, gates_missed);
  expect_energy_matches(b);
}

TEST(FlatKernels, MatchTheGateWalkOnPaperCircuitsAndA1600GateNetlist) {
  int gates_missed = 0;
  for (const Netlist& nl : circuits()) {
    SCOPED_TRACE(nl.name());
    expect_kernels_match(Bench(nl), &gates_missed);
  }
  // The tight cycle times exercised the miss branch of the width solve.
  EXPECT_GT(gates_missed, 0);
}

TEST(FlatKernels, MatchTheGateWalkOverPlacedWires) {
  int gates_missed = 0;
  for (const char* name : {"s298*", "s832*"}) {
    const Netlist nl = bench_suite::make_circuit(name);
    SCOPED_TRACE(nl.name());
    expect_kernels_match(Bench(nl, /*placed=*/true), &gates_missed);
  }
}

// One budgeter serves every cycle time from one plan, in any call order,
// with the same fields as a fresh budgeter and as the one-pass reference.
TEST(FlatKernels, BudgetReplayMatchesTheGateWalkAtEveryCycleTime) {
  constexpr std::array<double, 6> kCycleTimes = {3.33e-9, 1.0,    1e-9,
                                                 8e-9,    3.33e-9, 1e-9};
  int exhausted = 0;
  int s344_exhausted_at_333 = 0;
  for (const Netlist& nl : circuits()) {
    const timing::DelayBudgeter shared(nl);
    for (const double tc : kCycleTimes) {
      for (const bool fanout : {true, false}) {
        for (const bool post : {true, false}) {
          SCOPED_TRACE(nl.name() + " tc=" + std::to_string(tc) +
                       (fanout ? " fanout" : " uniform") +
                       (post ? " postprocess" : ""));
          timing::BudgetOptions opts;
          opts.postprocess = post;
          auto run = [&](const timing::DelayBudgeter& b) {
            return fanout ? b.assign(tc, opts) : b.assign_uniform(tc, opts);
          };
          const timing::BudgetResult got = run(shared);
          const timing::BudgetResult fresh = run(timing::DelayBudgeter(nl));
          const timing::BudgetResult want = ref_assign(nl, tc, opts, fanout);
          for (const timing::BudgetResult* r : {&got, &fresh}) {
            EXPECT_EQ(r->t_max, want.t_max);
            EXPECT_EQ(r->rounds, want.rounds);
            EXPECT_EQ(r->exhausted_paths, want.exhausted_paths);
            EXPECT_EQ(r->slope_adjustments, want.slope_adjustments);
            EXPECT_EQ(r->longest_budget_path, want.longest_budget_path);
            EXPECT_EQ(r->rescale_factor, want.rescale_factor);
          }
          exhausted += got.exhausted_paths;
          if (nl.name().starts_with("s344") && tc == 3.33e-9 && fanout) {
            s344_exhausted_at_333 += got.exhausted_paths;
          }
        }
      }
    }
  }
  // The exhausted-path branch ran, including its known case.
  EXPECT_GT(exhausted, 0);
  EXPECT_GT(s344_exhausted_at_333, 0);
}

}  // namespace
}  // namespace minergy
