#include "opt/baseline_optimizer.h"

#include <cmath>
#include <limits>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/guard.h"
#include "util/search.h"

namespace minergy::opt {

BaselineOptimizer::BaselineOptimizer(const CircuitEvaluator& eval,
                                     OptimizerOptions options,
                                     double fixed_vts)
    : eval_(eval),
      opts_(options),
      fixed_vts_(fixed_vts > 0.0 ? fixed_vts
                                 : eval.technology().nominal_vts) {
  MINERGY_CHECK(opts_.steps >= 1);
}

OptimizationResult BaselineOptimizer::run() const {
  const obs::Span run_span("baseline.run");
  const RunStamp stamp("baseline", "opt.baseline.best_energy_joules");
  obs::counter("opt.baseline.runs").add();
  static obs::Counter& c_probes = obs::counter("opt.baseline.probes");

  const tech::Technology& tech = eval_.technology();
  const netlist::Netlist& nl = eval_.netlist();

  OptimizationResult result;
  result.tier = ResultTier::kBaseline;
  result.vts_primary = fixed_vts_;
  result.vts_groups = {fixed_vts_};
  obs::RunReport& rep = result.report;
  rep.optimizer = "baseline";
  rep.circuit = nl.name();

  timing::BudgetResult budgets;
  {
    const obs::Span span("baseline.budgeting");
    budgets = eval_.budgeter().assign(eval_.cycle_time(),
                                      {.clock_skew_b = opts_.skew_b});
  }

  util::Watchdog dog(opts_.budget);
  const double limit = opts_.skew_b * eval_.cycle_time();

  // Trajectory phase label for the probes below; flipped between the
  // feasibility bisection and the energy polish.
  const char* phase = "vdd-bisect";
  // The joint flow's own probe with Vts frozen (the two flows must share
  // sizing machinery for a fair comparison), without the energy.
  auto probe = [&](double vdd) {
    dog.note_evaluation();
    c_probes.add();
    SizedState sized = eval_.size_to_budgets(
        budgets, vdd, std::vector<double>(nl.size(), fixed_vts_), limit,
        opts_.recovery_passes);
    obs::TrajectoryPoint tp;
    tp.phase = phase;
    tp.vdd = vdd;
    tp.vts = fixed_vts_;
    tp.energy = 0.0;  // bisection probes skip the energy evaluation
    tp.critical_delay = sized.report.critical_delay;
    tp.feasible = sized.feasible;
    rep.add_point(std::move(tp));
    return sized;
  };

  // Feasibility boundary: delay is monotone decreasing in Vdd at fixed Vts,
  // so the smallest feasible supply is found by bisection. After watchdog
  // expiry the predicate answers a conservative "infeasible", steering the
  // bisection back toward the known-feasible vdd_max without new probes.
  auto feasible_at = [&](double vdd) {
    if (dog.expired()) return false;
    return probe(vdd).feasible;
  };
  double vdd_boundary = 0.0;
  {
    const obs::Span span("baseline.vdd_bisect");
    if (!feasible_at(tech.vdd_max)) {
      result.feasible = false;
      stamp.finish(&result, dog);
      return result;
    }
    vdd_boundary = util::bisect_min_true(tech.vdd_min, tech.vdd_max,
                                         opts_.steps + 4, feasible_at);
  }

  // Energy over [boundary, vdd_max] is near-monotone increasing (CV^2)
  // but the width relief just above the boundary can create a shallow
  // interior minimum; a short golden-section handles both shapes. An
  // exhausted watchdog turns further probes into flat no-ops.
  const obs::Span energy_span("baseline.vdd_energy");
  phase = "vdd-energy";
  double best_energy = std::numeric_limits<double>::infinity();
  CircuitState best_state;
  power::EnergyBreakdown best_breakdown;
  double best_crit = 0.0;
  auto energy_at = [&](double vdd) {
    if (dog.expired() && best_energy < std::numeric_limits<double>::infinity()) {
      return best_energy * 4.0 + 1.0;
    }
    SizedState sized = probe(vdd);
    if (!sized.feasible) return best_energy * 4.0 + 1.0;
    const power::EnergyBreakdown breakdown =
        eval_.energy(sized.state, sized.report.gate_delay);
    const double e = breakdown.total();
    // Back-fill the probe's trajectory point with the measured energy.
    if (!rep.trajectory.empty()) rep.trajectory.back().energy = e;
    if (e < best_energy) {
      if (!rep.trajectory.empty()) rep.trajectory.back().accepted = true;
      best_energy = e;
      best_state = std::move(sized.state);
      best_breakdown = breakdown;
      best_crit = sized.report.critical_delay;
    }
    return e;
  };
  energy_at(vdd_boundary);
  util::golden_section_min(vdd_boundary, tech.vdd_max,
                           opts_.refine ? opts_.refine_steps : 4, energy_at);

  result.state = best_state;
  result.energy = best_breakdown;
  result.critical_delay = best_crit;
  result.feasible = true;
  result.vdd = best_state.vdd;
  stamp.finish(&result, dog);
  return result;
}

}  // namespace minergy::opt
