#include "timing/delay_budget.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "timing/path_enum.h"
#include "util/check.h"

namespace minergy::timing {

using netlist::GateId;
using netlist::kInvalidGate;

DelayBudgeter::DelayBudgeter(const netlist::Netlist& nl) : nl_(nl) {
  MINERGY_CHECK(nl.finalized());
}

BudgetResult DelayBudgeter::assign(double cycle_time,
                                   const BudgetOptions& opts) const {
  return assign_impl(cycle_time, opts, /*fanout_weighted=*/true);
}

BudgetResult DelayBudgeter::assign_uniform(double cycle_time,
                                           const BudgetOptions& opts) const {
  return assign_impl(cycle_time, opts, /*fanout_weighted=*/false);
}

const DelayBudgeter::Plan& DelayBudgeter::plan() const {
  std::call_once(plan_once_, [this] {
    const PathAnalyzer paths(nl_);
    Plan p;
    p.weight.assign(nl_.size(), 0.0);
    for (GateId id : nl_.combinational()) {
      p.weight[id] = static_cast<double>(nl_.gate(id).branch_count());
    }

    // Pivot order: through-criticality descending, ties to the earlier
    // topological position. Each round's pivot is the first unassigned gate
    // in this order (the most critical path that still contains an
    // unassigned gate), and assignments only accumulate, so one cursor walks
    // the order once.
    std::vector<std::pair<std::int64_t, GateId>> order;
    order.reserve(nl_.num_combinational());
    for (GateId id : nl_.combinational()) {
      order.emplace_back(paths.through_criticality(id), id);
    }
    std::stable_sort(
        order.begin(), order.end(),
        [](const auto& x, const auto& y) { return x.first > y.first; });
    auto cursor = order.begin();

    std::vector<char> assigned(nl_.size(), 0);
    p.consumed_off.push_back(0);
    p.open_off.push_back(0);
    std::size_t remaining = nl_.num_combinational();
    while (remaining > 0) {
      while (cursor != order.end() && assigned[cursor->second]) ++cursor;
      MINERGY_CHECK(cursor != order.end());
      const Path path = paths.most_critical_through(cursor->second);
      double open_weight = 0.0;
      for (GateId id : path.gates) {
        if (assigned[id]) {
          p.consumed.push_back(id);
        } else {
          p.open.push_back(id);
          open_weight += p.weight[id];
        }
      }
      MINERGY_CHECK(p.open.size() > p.open_off.back());
      for (std::size_t k = p.open_off.back(); k < p.open.size(); ++k) {
        assigned[p.open[k]] = 1;
        --remaining;
      }
      p.consumed_off.push_back(static_cast<std::uint32_t>(p.consumed.size()));
      p.open_off.push_back(static_cast<std::uint32_t>(p.open.size()));
      p.open_weight.push_back(open_weight);
    }
    plan_ = std::move(p);
  });
  return plan_;
}

BudgetResult DelayBudgeter::assign_impl(double cycle_time,
                                        const BudgetOptions& opts,
                                        bool fanout_weighted) const {
  MINERGY_CHECK(cycle_time > 0.0);
  MINERGY_CHECK(opts.clock_skew_b > 0.0 && opts.clock_skew_b <= 1.0);
  const double budget_cap = opts.clock_skew_b * cycle_time;
  const Plan& p = plan();

  BudgetResult result;
  result.t_max.assign(nl_.size(), 0.0);
  const std::size_t rounds = p.open_weight.size();
  result.rounds = static_cast<int>(rounds);
  for (std::size_t r = 0; r < rounds; ++r) {
    // Eq. (3): distribute what the already-assigned gates left over.
    double consumed = 0.0;
    for (std::uint32_t k = p.consumed_off[r]; k < p.consumed_off[r + 1]; ++k) {
      consumed += result.t_max[p.consumed[k]];
    }
    double available = budget_cap - consumed;
    if (available <= 0.0) {
      // Higher-criticality paths consumed this one entirely; give the
      // leftover gates a token budget and let post-processing/rescale cope.
      ++result.exhausted_paths;
      available = 0.01 * budget_cap;
    }
    // A sum of ones is exact, so the uniform weight is the open count.
    const double open_weight =
        fanout_weighted ? p.open_weight[r]
                        : static_cast<double>(p.open_off[r + 1] - p.open_off[r]);
    for (std::uint32_t k = p.open_off[r]; k < p.open_off[r + 1]; ++k) {
      const GateId id = p.open[k];
      const double weight = fanout_weighted ? p.weight[id] : 1.0;
      result.t_max[id] = weight * available / open_weight;
    }
  }

  if (opts.postprocess) postprocess(&result, opts);

  // Safety rescale to restore the invariant exactly.
  const double longest = longest_budget_path(result.t_max);
  if (longest > budget_cap && longest > 0.0) {
    result.rescale_factor = budget_cap / longest;
    for (double& t : result.t_max) t *= result.rescale_factor;
  }
  result.longest_budget_path = longest_budget_path(result.t_max);
  return result;
}

void DelayBudgeter::postprocess(BudgetResult* result,
                                const BudgetOptions& opts) const {
  // A gate's delay includes slope_reserve * max(fanin budgets); if the
  // budget doesn't even cover that, shift the shortfall from the slowest
  // fanin (whose own budget shrinks, keeping the two-gate chain total
  // constant).
  std::vector<double>& t_max = result->t_max;
  for (GateId id : nl_.combinational()) {
    GateId slowest = kInvalidGate;
    for (GateId f : nl_.fanins_of(id)) {
      if (!nl_.is_logic(f)) continue;
      if (slowest == kInvalidGate || t_max[f] > t_max[slowest]) slowest = f;
    }
    if (slowest == kInvalidGate) continue;
    const double need = opts.slope_reserve * t_max[slowest];
    if (t_max[id] >= need) continue;
    double shortfall = need - t_max[id];
    // Never reduce the donor below half its budget.
    const double donatable = 0.5 * t_max[slowest];
    shortfall = std::min(shortfall, donatable);
    t_max[slowest] -= shortfall;
    t_max[id] += shortfall;
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
    for (GateId f : nl_.fanins_of(id)) {
      if (nl_.is_logic(f)) best_in = std::max(best_in, acc[f]);
    }
    acc[id] = best_in + t_max[id];
    longest = std::max(longest, acc[id]);
  }
  return longest;
}

}  // namespace minergy::timing
