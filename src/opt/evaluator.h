// CircuitEvaluator: one bundle of netlist + technology + activity + wire
// models with the derived delay and energy calculators — the evaluation
// context every optimizer probes.
//
// Process-variation corners (Figure 2a of the paper) are supported by
// evaluating delay at a pessimistically *raised* threshold and leakage at a
// pessimistically *lowered* one:
//   delay  uses  vts * (1 + vts_tolerance)
//   leakage uses vts * (1 - vts_tolerance)
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "activity/activity.h"
#include "interconnect/wire_model.h"
#include "netlist/netlist.h"
#include "opt/circuit_state.h"
#include "power/energy_model.h"
#include "tech/device_model.h"
#include "tech/technology.h"
#include "timing/delay_budget.h"
#include "timing/delay_model.h"
#include "timing/sta.h"
#include "util/check.h"
#include "util/guard.h"

namespace minergy::opt {

struct EvalSettings {
  double clock_frequency = 300e6;  // f_c (Hz)
  double vts_tolerance = 0.0;      // +/- fractional process variation

  // The paper's announced "next version" feature: include the Veendrick
  // short-circuit component in the cost function. Each gate's input
  // transition time is taken as 2x its slowest fanin's delay (primary
  // inputs ramp in `input_slew`).
  bool include_short_circuit = false;
  double input_slew = 50e-12;  // s, edge rate at primary inputs
};

// One budget-sized point: see CircuitEvaluator::size_to_budgets.
struct SizedState {
  CircuitState state;
  // Full STA of `state` at the delay corner. report.slack is filled only
  // when a recovery pass was to read it (recovery_passes > 0, and the
  // report is not the last pass's); callers that need slack run sta().
  timing::TimingReport report;
  bool feasible = false;  // report.critical_delay meets the limit
};

class CircuitEvaluator {
 public:
  // Validates the technology (tech::TechnologyError on corrupt parameters)
  // and the settings before any model is built; every STA / energy call is
  // finite-checked at this boundary (util::NumericError with gate context).
  CircuitEvaluator(const netlist::Netlist& nl, const tech::Technology& tech,
                   const activity::ActivityProfile& profile,
                   const EvalSettings& settings);

  // Same, but with externally supplied per-net wire loads (e.g. a
  // place::PlacedWireModel) instead of the built-in stochastic Rent's-rule
  // model. `wires` must outlive the evaluator.
  CircuitEvaluator(const netlist::Netlist& nl, const tech::Technology& tech,
                   const activity::ActivityProfile& profile,
                   const EvalSettings& settings,
                   const interconnect::WireLoads& wires);

  const netlist::Netlist& netlist() const { return nl_; }
  const tech::Technology& technology() const { return tech_; }
  const tech::DeviceModel& device() const { return dev_; }
  // The loads the delay/energy models use: the built-in Rent's-rule model,
  // or the external loads passed at construction.
  const interconnect::WireLoads& wire_loads() const { return *wires_; }
  const activity::ActivityResult& activity() const { return act_; }
  const timing::DelayCalculator& delay_calculator() const { return delay_; }
  const power::EnergyModel& energy_model() const { return energy_; }
  const timing::DelayBudgeter& budgeter() const { return budgeter_; }

  double clock_frequency() const { return settings_.clock_frequency; }
  double cycle_time() const { return 1.0 / settings_.clock_frequency; }
  double vts_tolerance() const { return settings_.vts_tolerance; }

  // Threshold corners for a nominal per-gate value.
  double delay_vts(double vts) const {
    return vts * (1.0 + settings_.vts_tolerance);
  }
  double leakage_vts(double vts) const {
    return vts * (1.0 - settings_.vts_tolerance);
  }

  // Full STA at the delay corner; `cycle_limit` only affects slacks.
  timing::TimingReport sta(const CircuitState& state,
                           double cycle_limit) const;

  // Worst-case critical-path delay at the delay corner.
  double critical_delay(const CircuitState& state) const;

  // Energy per cycle: leakage at the leaky corner, where one evaluation per
  // gate also gives the dynamic term (it does not read Vts); the optional
  // short-circuit term at nominal Vts. That term's input transitions come
  // from `gate_delay` when given (an STA of `state` at the delay corner,
  // indexed by gate id, e.g. SizedState::report.gate_delay), else from an
  // STA run here; gate delays do not depend on the cycle limit, so both
  // give the same energy.
  power::EnergyBreakdown energy(const CircuitState& state,
                                std::span<const double> gate_delay = {}) const;

  // The per-gate terms energy() sums, uncounted. gate_energy is logic gate
  // id's static and dynamic energy at the leaky corner (`leaky` carries the
  // device terms from one gate to the next). short_circuit_energy is its
  // short-circuit energy, with the input transition taken from the gate
  // delays of an STA of `state` at the delay corner (indexed by gate id).
  power::EnergyBreakdown gate_energy(netlist::GateId id,
                                     const CircuitState& state,
                                     tech::OperatingPointMemo& leaky) const {
    return energy_.gate_energy_uncounted(
        id, state.widths, leaky.at(state.vdd, leakage_vts(state.vts[id])));
  }
  double short_circuit_energy(netlist::GateId id, const CircuitState& state,
                              const double* gate_delay) const;
  bool includes_short_circuit() const {
    return settings_.include_short_circuit;
  }

  // Procedure 2's inner step at one (Vdd, per-gate nominal Vts): widths
  // sized to the Procedure-1 budgets at the delay corner, one full STA
  // against `limit`, and, when that meets the limit, up to
  // `recovery_passes` width-recovery passes, each verified by a fresh STA
  // (a pass that breaks timing is dropped and ends the recovery). Meeting
  // the limit allows a 1e-9 relative tolerance for floating-point noise.
  // Each STA runs on the load terms its sizing pass returned, equal bit for
  // bit to sta() of the sized state.
  SizedState size_to_budgets(const timing::BudgetResult& budgets, double vdd,
                             std::vector<double> vts, double limit,
                             int recovery_passes) const;

  // critical_delay(state) <= limit (default: the skewed cycle budget).
  bool meets_timing(const CircuitState& state, double skew_b) const;

  // opt::minimum_cycle_time at the given nominal uniform threshold, taken
  // to the delay corner; vts < 0 selects vts_min (the technology's
  // strongest corner).
  double minimum_cycle_time(double skew_b = 0.95, double vts = -1.0,
                            double stop_at = 0.0) const;

 private:
  void validate_inputs() const;
  // STA from a sizing pass's load terms, finite-checked like sta().
  timing::TimingReport sta(std::span<const timing::LoadTerms> terms,
                           double cycle_limit, bool with_slack) const;

  const netlist::Netlist& nl_;
  tech::Technology tech_;
  EvalSettings settings_;
  tech::DeviceModel dev_;
  std::optional<interconnect::WireModel> own_wires_;  // empty when external
  const interconnect::WireLoads* wires_;  // *own_wires_ or external
  activity::ActivityResult act_;
  timing::DelayCalculator delay_;
  power::EnergyModel energy_;
  timing::DelayBudgeter budgeter_;
};

// Does nothing: the evaluator keeps no cache, so every sta() and energy()
// call computes. Kept only because bench/e2e/src/solve.cpp still declares
// `const opt::EvalCacheBypass bypass;`, which needs a user-provided default
// constructor.
struct EvalCacheBypass {
  EvalCacheBypass() {}
};

// Smallest cycle time the circuit of `calc` can meet at vdd_max, a uniform
// delay-corner threshold vts_delay and budget-driven sizing (the budgets
// from `budgeter`). Timing alone decides it, so no activity or energy
// model is needed. Used by the experiment harness to scale infeasible
// paper constraints. Deterministic bisection: an exponential bracket up to
// the first feasible point, then 40 halvings, during which the feasible end
// only moves down. With stop_at > 0 the search returns that end as soon as
// it is <= stop_at (a caller that only asks "is stop_at reachable?" needs
// no more); otherwise it runs to the end.
double minimum_cycle_time(const timing::DelayCalculator& calc,
                          const timing::DelayBudgeter& budgeter,
                          double skew_b, double vts_delay,
                          double stop_at = 0.0);

// Diagnoses an unreachable cycle-time constraint: probes the max-drive
// configuration (vdd_max, strongest threshold, budget-driven sizing) and
// packages the requested limit, the best achievable critical-path delay and
// the limiting path's endpoint gate into a rich InfeasibleError for the
// caller to throw.
util::InfeasibleError diagnose_infeasibility(const CircuitEvaluator& eval,
                                             double skew_b);

// The same error from a max-drive STA report the caller already holds.
util::InfeasibleError max_drive_infeasibility(
    const CircuitEvaluator& eval, double skew_b,
    const timing::TimingReport& max_drive);

}  // namespace minergy::opt
