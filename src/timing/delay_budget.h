// Procedure 1: maximum-delay budgeting.
//
// Every logic gate receives a maximum-delay budget t_MAX,i such that no
// input-to-output path's budget sum exceeds b * T_c. Budgets are assigned
// path by path in decreasing fanout-sum criticality; within a path the
// remaining budget is split among still-unassigned gates in proportion to
// their fanouts (Eqs. 2 and 3 of the paper).
//
// Two post-processing steps follow the paper's Section 4.2 remarks:
//  1. slope reserve — a gate whose budget is smaller than the slope
//     contribution of its slowest fanin's budget can never meet it; budget
//     is shifted from that fanin to the gate.
//  2. safety rescale — if adjustments (or pathological path structure) push
//     any budget-path sum above b * T_c, all budgets are scaled down
//     uniformly so the invariant is restored.
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

#include "netlist/netlist.h"

namespace minergy::timing {

struct BudgetOptions {
  double clock_skew_b = 0.95;   // b <= 1 in Eq. (1)
  double slope_reserve = 0.35;  // assumed worst-case slope coefficient
  bool postprocess = true;
};

struct BudgetResult {
  std::vector<double> t_max;  // per gate id; 0 for non-logic gates
  int rounds = 0;             // critical paths processed
  int exhausted_paths = 0;    // paths whose budget was already consumed
  int slope_adjustments = 0;  // post-processing budget shifts
  double longest_budget_path = 0.0;  // after rescale, <= b*Tc
  double rescale_factor = 1.0;       // 1.0 when no rescale was needed
};

// Procedure 1 splits into a plan and a replay. The plan is every decision
// a round makes that depends only on the netlist: the pivot order, each
// round's path, which of its gates earlier rounds already assigned, which
// it assigns, and its open weight (fanout-weighted and uniform). It is
// built once per budgeter, on the first assign call (so the evaluator
// construction that holds a budgeter does not pay for it), and never
// changes. assign(T_c) replays the rounds with the arithmetic of Eqs. (2)
// and (3) at that T_c. Non-copyable: the plan is built under a once_flag.
class DelayBudgeter {
 public:
  explicit DelayBudgeter(const netlist::Netlist& nl);
  DelayBudgeter(const DelayBudgeter&) = delete;
  DelayBudgeter& operator=(const DelayBudgeter&) = delete;

  // Fanout-proportional budgeting (the paper's Procedure 1).
  BudgetResult assign(double cycle_time, const BudgetOptions& opts = {}) const;

  // Ablation: gate-count-proportional budgeting (every gate on the longest
  // path through it gets an equal share, ignoring fanout weighting).
  BudgetResult assign_uniform(double cycle_time,
                              const BudgetOptions& opts = {}) const;

  // Longest path sum of the given budgets (DP over the DAG).
  double longest_budget_path(const std::vector<double>& t_max) const;

 private:
  // Round r reads the budgets of consumed[consumed_off[r] ..
  // consumed_off[r + 1]) and assigns open[open_off[r] .. open_off[r + 1]),
  // both in path order. The uniform ablation's open weight is the number
  // of open gates.
  struct Plan {
    std::vector<std::uint32_t> consumed_off, open_off;
    std::vector<netlist::GateId> consumed, open;
    std::vector<double> open_weight;  // per round: sum of branch counts
    std::vector<double> weight;       // per gate id: branch count
  };

  const Plan& plan() const;
  BudgetResult assign_impl(double cycle_time, const BudgetOptions& opts,
                           bool fanout_weighted) const;
  void postprocess(BudgetResult* result, const BudgetOptions& opts) const;

  const netlist::Netlist& nl_;
  mutable std::once_flag plan_once_;
  mutable Plan plan_;
};

}  // namespace minergy::timing
