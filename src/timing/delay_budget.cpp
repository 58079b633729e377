#include "timing/delay_budget.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

#include "util/check.h"

namespace minergy::timing {

using netlist::GateId;
using netlist::kInvalidGate;

DelayBudgeter::DelayBudgeter(const netlist::Netlist& nl)
    : nl_(nl), paths_(nl) {}

BudgetResult DelayBudgeter::assign(double cycle_time,
                                   const BudgetOptions& opts) const {
  return assign_impl(cycle_time, opts, /*fanout_weighted=*/true);
}

BudgetResult DelayBudgeter::assign_uniform(double cycle_time,
                                           const BudgetOptions& opts) const {
  return assign_impl(cycle_time, opts, /*fanout_weighted=*/false);
}

BudgetResult DelayBudgeter::assign_impl(double cycle_time,
                                        const BudgetOptions& opts,
                                        bool fanout_weighted) const {
  MINERGY_CHECK(cycle_time > 0.0);
  MINERGY_CHECK(opts.clock_skew_b > 0.0 && opts.clock_skew_b <= 1.0);
  const double budget_cap = opts.clock_skew_b * cycle_time;

  BudgetResult result;
  result.t_max.assign(nl_.size(), 0.0);
  std::vector<char> assigned(nl_.size(), 0);

  const double weight_of = 1.0;  // used for the uniform ablation
  auto gate_weight = [&](GateId id) -> double {
    return fanout_weighted ? static_cast<double>(nl_.gate(id).branch_count())
                           : weight_of;
  };

  // Pivot order: through-criticality descending, ties to the earlier
  // topological position. Each round's pivot is the first unassigned gate
  // in this order (the most critical path that still contains an
  // unassigned gate), and assignments only accumulate, so one cursor walks
  // the order once per call.
  std::vector<std::pair<std::int64_t, GateId>> order;
  order.reserve(nl_.num_combinational());
  for (GateId id : nl_.combinational()) {
    order.emplace_back(paths_.through_criticality(id), id);
  }
  std::stable_sort(
      order.begin(), order.end(),
      [](const auto& x, const auto& y) { return x.first > y.first; });
  auto cursor = order.begin();

  std::size_t remaining = nl_.num_combinational();
  while (remaining > 0) {
    while (cursor != order.end() && assigned[cursor->second]) ++cursor;
    MINERGY_CHECK(cursor != order.end());
    const Path path = paths_.most_critical_through(cursor->second);
    ++result.rounds;

    // Eq. (3): distribute what the already-assigned gates left over.
    double consumed = 0.0;
    double open_weight = 0.0;
    for (GateId id : path.gates) {
      if (assigned[id]) {
        consumed += result.t_max[id];
      } else {
        open_weight += gate_weight(id);
      }
    }
    MINERGY_CHECK(open_weight > 0.0);
    double available = budget_cap - consumed;
    if (available <= 0.0) {
      // Higher-criticality paths consumed this one entirely; give the
      // leftover gates a token budget and let post-processing/rescale cope.
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

  if (opts.postprocess) postprocess(&result, budget_cap, opts);

  // Safety rescale to restore the invariant exactly.
  const double longest = longest_budget_path(result.t_max);
  if (longest > budget_cap && longest > 0.0) {
    result.rescale_factor = budget_cap / longest;
    for (double& t : result.t_max) t *= result.rescale_factor;
  }
  result.longest_budget_path = longest_budget_path(result.t_max);
  return result;
}

void DelayBudgeter::postprocess(BudgetResult* result, double budget_cap,
                                const BudgetOptions& opts) const {
  (void)budget_cap;
  // A gate's delay includes slope_reserve * max(fanin budgets); if the
  // budget doesn't even cover that, shift the shortfall from the slowest
  // fanin (whose own budget shrinks, keeping the two-gate chain total
  // constant).
  for (GateId id : nl_.combinational()) {
    const netlist::Gate& g = nl_.gate(id);
    GateId slowest = kInvalidGate;
    for (GateId f : g.fanins) {
      if (!netlist::is_combinational(nl_.gate(f).type)) continue;
      if (slowest == kInvalidGate ||
          result->t_max[f] > result->t_max[slowest]) {
        slowest = f;
      }
    }
    if (slowest == kInvalidGate) continue;
    const double need = opts.slope_reserve * result->t_max[slowest];
    if (result->t_max[id] >= need) continue;
    double shortfall = need - result->t_max[id];
    // Never reduce the donor below half its budget.
    const double donatable = 0.5 * result->t_max[slowest];
    shortfall = std::min(shortfall, donatable);
    result->t_max[slowest] -= shortfall;
    result->t_max[id] += shortfall;
    ++result->slope_adjustments;
  }
}

double DelayBudgeter::longest_budget_path(
    const std::vector<double>& t_max) const {
  MINERGY_CHECK(t_max.size() == nl_.size());
  std::vector<double> acc(nl_.size(), 0.0);
  double longest = 0.0;
  for (GateId id : nl_.combinational()) {
    double best_in = 0.0;
    for (GateId f : nl_.gate(id).fanins) {
      if (netlist::is_combinational(nl_.gate(f).type)) {
        best_in = std::max(best_in, acc[f]);
      }
    }
    acc[id] = best_in + t_max[id];
    longest = std::max(longest, acc[id]);
  }
  return longest;
}

}  // namespace minergy::timing
