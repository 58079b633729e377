#include "opt/sizer.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"
#include "timing/sta.h"
#include "util/check.h"

namespace minergy::opt {

GateSizer::GateSizer(const timing::DelayCalculator& calc) : calc_(calc) {}

SizingResult GateSizer::size(std::span<const double> t_max, double vdd,
                             std::span<const double> vts, int steps) const {
  const netlist::Netlist& nl = calc_.netlist();
  const tech::Technology& tech = calc_.device().technology();
  MINERGY_CHECK(t_max.size() == nl.size());
  MINERGY_CHECK(vts.size() == nl.size());
  MINERGY_CHECK(steps >= 1);

  static obs::Counter& c_calls = obs::counter("opt.sizer.size_calls");
  static obs::Counter& c_gates = obs::counter("opt.sizer.width_searches");
  c_calls.add();
  c_gates.add(static_cast<std::int64_t>(nl.num_combinational()));

  SizingResult r;
  r.widths.assign(nl.size(), tech.w_min);
  r.all_budgets_met = true;

  // Reverse topological order: the delay model reads the widths of the
  // gate's fanouts (load), which are final by the time the gate is sized.
  const auto& topo = nl.combinational();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const netlist::GateId id = *it;
    const netlist::Gate& g = nl.gate(id);

    // Worst-case input-edge contribution from the fanins' budgets.
    double slope_in = 0.0;
    for (netlist::GateId f : g.fanins) {
      if (netlist::is_combinational(nl.gate(f).type)) {
        slope_in = std::max(slope_in, t_max[f]);
      }
    }

    auto delay_at = [&](double w) {
      r.widths[id] = w;
      return calc_.gate_delay(id, r.widths, vdd, vts[id], slope_in);
    };

    const double budget = t_max[id];
    if (delay_at(tech.w_min) <= budget) {
      r.widths[id] = tech.w_min;
      continue;
    }
    if (delay_at(tech.w_max) > budget) {
      // Unreachable even at maximum drive; take the fastest width.
      r.widths[id] = tech.w_max;
      r.all_budgets_met = false;
      ++r.gates_missed;
      continue;
    }
    // Binary search the smallest width meeting the budget.
    double lo = tech.w_min, hi = tech.w_max;
    for (int s = 0; s < steps; ++s) {
      const double mid = 0.5 * (lo + hi);
      if (delay_at(mid) <= budget) {
        hi = mid;
      } else {
        lo = mid;
      }
    }
    r.widths[id] = hi;  // hi always meets the budget
    (void)delay_at(hi);
  }
  return r;
}

SizingResult GateSizer::recover(std::span<const double> widths, double vdd,
                                std::span<const double> vts,
                                double cycle_limit,
                                const timing::TimingReport& report,
                                int steps) const {
  const netlist::Netlist& nl = calc_.netlist();
  const tech::Technology& tech = calc_.device().technology();
  MINERGY_CHECK(widths.size() == nl.size());
  MINERGY_CHECK(cycle_limit > 0.0);

  static obs::Counter& c_calls = obs::counter("opt.sizer.recover_calls");
  c_calls.add();

  // Relaxed per-gate budgets from the slack redistribution rule. Gates with
  // non-positive slack keep exactly their current delay.
  std::vector<double> t_rec(nl.size(), 0.0);
  for (netlist::GateId id : nl.combinational()) {
    const double slack = std::max(0.0, report.slack[id]);
    const double denom = std::max(cycle_limit - slack, 1e-3 * cycle_limit);
    t_rec[id] = report.gate_delay[id] * cycle_limit / denom;
  }

  SizingResult r;
  r.widths.assign(widths.begin(), widths.end());
  r.all_budgets_met = true;

  // Same reverse topological order (and the same argument) as size().
  const auto& topo = nl.combinational();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const netlist::GateId id = *it;
    const netlist::Gate& g = nl.gate(id);
    const double w_old = r.widths[id];
    if (w_old <= tech.w_min * (1.0 + 1e-12)) continue;

    // Conservative slope input: the fanins' relaxed budgets.
    double slope_in = 0.0;
    for (netlist::GateId f : g.fanins) {
      if (netlist::is_combinational(nl.gate(f).type)) {
        slope_in = std::max(slope_in, t_rec[f]);
      }
    }
    auto delay_at = [&](double w) {
      r.widths[id] = w;
      return calc_.gate_delay(id, r.widths, vdd, vts[id], slope_in);
    };

    const double budget = t_rec[id];
    if (delay_at(tech.w_min) <= budget) {
      r.widths[id] = tech.w_min;
      continue;
    }
    if (delay_at(w_old) > budget) {
      // The relaxed slope input exceeds what this gate can absorb even at
      // its current width: never upsize during recovery.
      r.widths[id] = w_old;
      continue;
    }
    double lo = tech.w_min, hi = w_old;
    for (int s = 0; s < steps; ++s) {
      const double mid = 0.5 * (lo + hi);
      if (delay_at(mid) <= budget) {
        hi = mid;
      } else {
        lo = mid;
      }
    }
    r.widths[id] = hi;
    (void)delay_at(hi);
  }
  return r;
}

}  // namespace minergy::opt
