#include "opt/multi_vdd.h"

#include <algorithm>

#include "opt/joint_optimizer.h"
#include "util/check.h"

namespace minergy::opt {

MultiVddOptimizer::MultiVddOptimizer(const CircuitEvaluator& eval,
                                     MultiVddOptions options)
    : eval_(eval), opts_(options) {
  MINERGY_CHECK(opts_.vdd_search_steps >= 1);
  MINERGY_CHECK(opts_.min_slack_fraction >= 0.0);
}

MultiVddResult MultiVddOptimizer::run() const {
  const netlist::Netlist& nl = eval_.netlist();
  const tech::Technology& tech = eval_.technology();
  const double limit = opts_.base.skew_b * eval_.cycle_time();

  MultiVddResult result;
  result.single = JointOptimizer(eval_, opts_.base).run();
  result.low_domain.assign(nl.size(), 0);
  result.vdd_high = result.single.vdd;
  result.vdd_low = result.single.vdd;
  result.energy = result.single.energy;
  result.critical_delay = result.single.critical_delay;
  result.feasible = result.single.feasible;
  if (!result.single.feasible) return result;

  // Downstream-closed eligibility in reverse topological order: a gate may
  // join the low domain only if every logic fanout already did, and it has
  // real slack at the single-supply optimum.
  const timing::TimingReport base_sta = eval_.sta(result.single.state, limit);
  const double slack_floor = opts_.min_slack_fraction * eval_.cycle_time();
  std::vector<char> eligible(nl.size(), 0);
  const auto& topo = nl.combinational();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const netlist::GateId id = *it;
    bool fanouts_ok = true;
    for (netlist::GateId out : nl.gate(id).fanouts) {
      if (netlist::is_combinational(nl.gate(out).type) && !eligible[out]) {
        fanouts_ok = false;
        break;
      }
    }
    eligible[id] =
        (fanouts_ok && base_sta.slack[id] > slack_floor) ? 1 : 0;
  }
  std::size_t eligible_count = 0;
  for (netlist::GateId id : topo) eligible_count += eligible[id] ? 1u : 0u;
  if (eligible_count == 0) return result;

  // Per-gate evaluation helpers over the dual-supply assignment.
  std::vector<double> vdd_vec(nl.size(), result.vdd_high);
  std::vector<double> vts_corner(nl.size());
  for (std::size_t i = 0; i < nl.size(); ++i) {
    vts_corner[i] = eval_.delay_vts(result.single.state.vts[i]);
  }
  auto apply = [&](double vdd_low) {
    for (netlist::GateId id : topo) {
      vdd_vec[id] = eligible[id] ? vdd_low : result.vdd_high;
    }
  };
  auto feasible_at = [&](double vdd_low) {
    apply(vdd_low);
    const timing::TimingReport sta =
        timing::run_sta(eval_.delay_calculator(), result.single.state.widths,
                        std::span<const double>(vdd_vec), vts_corner, limit);
    return sta.critical_delay <= limit * (1.0 + 1e-9);
  };
  auto energy_at = [&](double vdd_low) {
    apply(vdd_low);
    power::EnergyBreakdown total;
    for (netlist::GateId id : topo) {
      // One evaluation at the leaky threshold corner, like the evaluator.
      total += eval_.energy_model().gate_energy(
          id, result.single.state.widths, vdd_vec[id],
          eval_.leakage_vts(result.single.state.vts[id]));
    }
    return total;
  };

  // Lowest feasible second supply (delay is monotone in Vdd_low with the
  // widths frozen), then keep it only if it actually saves energy.
  if (!feasible_at(result.vdd_high)) return result;  // numerical guard
  double lo = tech.vdd_min, hi = result.vdd_high;
  for (int s = 0; s < opts_.vdd_search_steps; ++s) {
    const double mid = 0.5 * (lo + hi);
    if (feasible_at(mid)) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  const double vdd_low = hi;
  const power::EnergyBreakdown dual = energy_at(vdd_low);
  if (dual.total() < result.single.energy.total()) {
    result.improved = true;
    result.vdd_low = vdd_low;
    result.low_domain = eligible;
    result.low_count = eligible_count;
    result.energy = dual;
    apply(vdd_low);
    result.critical_delay =
        timing::run_sta(eval_.delay_calculator(), result.single.state.widths,
                        std::span<const double>(vdd_vec), vts_corner, limit)
            .critical_delay;
    result.feasible = true;
  }
  return result;
}

}  // namespace minergy::opt
