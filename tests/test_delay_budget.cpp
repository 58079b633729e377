#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "bench_suite/iscas.h"
#include "netlist/bench_io.h"
#include "netlist/generator.h"
#include "timing/delay_budget.h"
#include "timing/path_enum.h"

namespace minergy::timing {
namespace {

using netlist::GateId;
using netlist::Netlist;

constexpr double kTc = 3.33e-9;

TEST(DelayBudgeter, ChainGetsEqualFanoutProportionalShares) {
  // A pure chain: every gate has one branch, so the paper's Eq. (2) gives
  // each gate the same share b*Tc/3.
  Netlist nl = netlist::parse_bench_string(R"(
INPUT(a)
OUTPUT(y)
n1 = NOT(a)
n2 = NOT(n1)
y = NOT(n2)
)");
  DelayBudgeter budgeter(nl);
  BudgetOptions opts;
  opts.postprocess = false;
  const BudgetResult r = budgeter.assign(kTc, opts);
  const double share = opts.clock_skew_b * kTc / 3.0;
  EXPECT_NEAR(r.t_max[nl.find("n1")], share, share * 1e-9);
  EXPECT_NEAR(r.t_max[nl.find("n2")], share, share * 1e-9);
  EXPECT_NEAR(r.t_max[nl.find("y")], share, share * 1e-9);
  EXPECT_EQ(r.rounds, 1);
}

TEST(DelayBudgeter, HighFanoutGateGetsProportionallyMore) {
  // g1 drives 3 sinks; on the most critical path its share must be 3x the
  // single-branch gates' share (Eq. 2: t_MAX,i proportional to fanout).
  Netlist nl = netlist::parse_bench_string(R"(
INPUT(a)
OUTPUT(y1)
OUTPUT(y2)
OUTPUT(y3)
g1 = NOT(a)
g2 = NOT(g1)
y1 = NOT(g2)
y2 = NOT(g1)
y3 = NOT(g1)
)");
  DelayBudgeter budgeter(nl);
  BudgetOptions opts;
  opts.postprocess = false;
  const BudgetResult r = budgeter.assign(kTc, opts);
  EXPECT_NEAR(r.t_max[nl.find("g1")] / r.t_max[nl.find("g2")], 3.0, 1e-9);
}

TEST(DelayBudgeter, SecondPathGetsLeftoverBudget) {
  // After the critical path is budgeted, a second path sharing g1 must
  // distribute only what g1 left over (Eq. 3).
  Netlist nl = netlist::parse_bench_string(R"(
INPUT(a)
OUTPUT(y1)
OUTPUT(y2)
g1 = NOT(a)
g2 = NOT(g1)
y1 = NOT(g2)
y2 = NOT(g1)
)");
  DelayBudgeter budgeter(nl);
  BudgetOptions opts;
  opts.postprocess = false;
  const BudgetResult r = budgeter.assign(kTc, opts);
  const double cap = opts.clock_skew_b * kTc;
  // Critical path g1(2 branches), g2(1), y1(1): shares 2/4, 1/4, 1/4.
  EXPECT_NEAR(r.t_max[nl.find("g1")], cap * 0.5, cap * 1e-9);
  // Second path g1 -> y2: y2 receives cap - t(g1) = cap/2.
  EXPECT_NEAR(r.t_max[nl.find("y2")], cap * 0.5, cap * 1e-9);
  EXPECT_EQ(r.rounds, 2);
}

TEST(DelayBudgeter, AllGatesReceiveBudgets) {
  netlist::GeneratorSpec spec;
  spec.num_inputs = 8;
  spec.num_gates = 120;
  spec.depth = 10;
  spec.num_dffs = 6;
  spec.seed = 5;
  Netlist nl = netlist::generate_random_logic(spec);
  const BudgetResult r = DelayBudgeter(nl).assign(kTc);
  for (GateId id : nl.combinational()) {
    EXPECT_GT(r.t_max[id], 0.0) << nl.gate(id).name;
  }
}

TEST(DelayBudgeter, UniformAblationAlsoSafe) {
  netlist::GeneratorSpec spec;
  spec.num_inputs = 8;
  spec.num_gates = 100;
  spec.depth = 9;
  spec.seed = 6;
  Netlist nl = netlist::generate_random_logic(spec);
  DelayBudgeter budgeter(nl);
  const BudgetResult r = budgeter.assign_uniform(kTc);
  const double cap = BudgetOptions{}.clock_skew_b * kTc;
  EXPECT_LE(budgeter.longest_budget_path(r.t_max), cap * (1.0 + 1e-9));
}

TEST(DelayBudgeter, PostprocessReservesSlopeHeadroom) {
  // A chain with a huge-fanout first gate: the raw Eq.-2 assignment gives
  // the second gate far less than slope_reserve * t(g1); post-processing
  // must shift budget down the chain.
  Netlist nl = netlist::parse_bench_string(R"(
INPUT(a)
OUTPUT(y)
OUTPUT(z1)
OUTPUT(z2)
OUTPUT(z3)
OUTPUT(z4)
OUTPUT(z5)
g1 = NOT(a)
g2 = NOT(g1)
y = NOT(g2)
z1 = NOT(g1)
z2 = NOT(g1)
z3 = NOT(g1)
z4 = NOT(g1)
z5 = NOT(g1)
)");
  BudgetOptions opts;
  opts.slope_reserve = 0.35;
  const BudgetResult r = DelayBudgeter(nl).assign(kTc, opts);
  EXPECT_GT(r.slope_adjustments, 0);
  EXPECT_GE(r.t_max[nl.find("g2")],
            opts.slope_reserve * 0.5 * r.t_max[nl.find("g1")]);
}

TEST(DelayBudgeter, RescaleReportsFactor) {
  netlist::GeneratorSpec spec;
  spec.num_inputs = 6;
  spec.num_gates = 80;
  spec.depth = 8;
  spec.seed = 7;
  Netlist nl = netlist::generate_random_logic(spec);
  const BudgetResult r = DelayBudgeter(nl).assign(kTc);
  EXPECT_GT(r.rescale_factor, 0.0);
  EXPECT_LE(r.rescale_factor, 1.0);
}

TEST(DelayBudgeter, BudgetsScaleLinearlyWithCycleTime) {
  netlist::GeneratorSpec spec;
  spec.num_inputs = 6;
  spec.num_gates = 50;
  spec.depth = 6;
  spec.seed = 8;
  Netlist nl = netlist::generate_random_logic(spec);
  DelayBudgeter budgeter(nl);
  const BudgetResult r1 = budgeter.assign(kTc);
  const BudgetResult r2 = budgeter.assign(2.0 * kTc);
  for (GateId id : nl.combinational()) {
    EXPECT_NEAR(r2.t_max[id], 2.0 * r1.t_max[id], 1e-9 * r1.t_max[id]);
  }
}

TEST(DelayBudgeter, RejectsBadArguments) {
  Netlist nl = netlist::parse_bench_string(
      "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n");
  DelayBudgeter budgeter(nl);
  EXPECT_THROW(budgeter.assign(0.0), std::logic_error);
  BudgetOptions opts;
  opts.clock_skew_b = 1.5;
  EXPECT_THROW(budgeter.assign(kTc, opts), std::logic_error);
}

// The paper's claimed invariant ("no circuit path with total delay larger
// than T_c"), across many random topologies, with and without
// post-processing.
class BudgetInvariant : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BudgetInvariant, NoBudgetPathExceedsSkewedCycleTime) {
  netlist::GeneratorSpec spec;
  spec.num_inputs = 7;
  spec.num_gates = 90;
  spec.depth = 9;
  spec.num_dffs = 5;
  spec.seed = GetParam();
  Netlist nl = netlist::generate_random_logic(spec);
  DelayBudgeter budgeter(nl);
  for (bool post : {false, true}) {
    BudgetOptions opts;
    opts.postprocess = post;
    const BudgetResult r = budgeter.assign(kTc, opts);
    const double cap = opts.clock_skew_b * kTc;
    EXPECT_LE(r.longest_budget_path, cap * (1.0 + 1e-9))
        << "postprocess=" << post;
    EXPECT_LE(budgeter.longest_budget_path(r.t_max), cap * (1.0 + 1e-9));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BudgetInvariant,
                         ::testing::Values(1, 2, 3, 4, 5, 11, 22, 33, 44, 55));

// ------------------------------------------------------ pivot-walk oracle

// Reference Procedure 1 with the literal pivot rule: every round rescans
// all gates for the most critical unassigned one (O(N^2) over a call).
// Post-processing and the safety rescale are the budgeter's, so budgets
// must match its sorted pivot walk bit for bit.
BudgetResult rescan_assign(const Netlist& nl, double cycle_time,
                           const BudgetOptions& opts, bool fanout_weighted) {
  const PathAnalyzer paths(nl);
  const double budget_cap = opts.clock_skew_b * cycle_time;
  BudgetResult result;
  result.t_max.assign(nl.size(), 0.0);
  std::vector<char> assigned(nl.size(), 0);
  auto gate_weight = [&](GateId id) {
    return fanout_weighted ? static_cast<double>(nl.gate(id).branch_count())
                           : 1.0;
  };
  std::size_t remaining = nl.num_combinational();
  while (remaining > 0) {
    GateId pivot = netlist::kInvalidGate;
    for (GateId id : nl.combinational()) {
      if (assigned[id]) continue;
      if (pivot == netlist::kInvalidGate ||
          paths.through_criticality(id) > paths.through_criticality(pivot)) {
        pivot = id;
      }
    }
    const Path path = paths.most_critical_through(pivot);
    ++result.rounds;
    double consumed = 0.0, open_weight = 0.0;
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
      GateId slowest = netlist::kInvalidGate;
      for (GateId f : nl.gate(id).fanins) {
        if (!netlist::is_combinational(nl.gate(f).type)) continue;
        if (slowest == netlist::kInvalidGate ||
            result.t_max[f] > result.t_max[slowest]) {
          slowest = f;
        }
      }
      if (slowest == netlist::kInvalidGate) continue;
      const double need = opts.slope_reserve * result.t_max[slowest];
      if (result.t_max[id] >= need) continue;
      const double shortfall =
          std::min(need - result.t_max[id], 0.5 * result.t_max[slowest]);
      result.t_max[slowest] -= shortfall;
      result.t_max[id] += shortfall;
      ++result.slope_adjustments;
    }
  }
  const DelayBudgeter budgeter(nl);
  const double longest = budgeter.longest_budget_path(result.t_max);
  if (longest > budget_cap && longest > 0.0) {
    result.rescale_factor = budget_cap / longest;
    for (double& t : result.t_max) t *= result.rescale_factor;
  }
  result.longest_budget_path = budgeter.longest_budget_path(result.t_max);
  return result;
}

// One budgeter, so every cycle time after the first replays the plan the
// first call built; the cycle times come in mixed order.
void expect_same_budgets(const Netlist& nl) {
  const DelayBudgeter budgeter(nl);
  for (double tc : {kTc, 1.0, 1e-9, 8e-9, kTc}) {
    for (bool fanout : {true, false}) {
      for (bool post : {true, false}) {
        SCOPED_TRACE(nl.name() + " tc=" + std::to_string(tc) +
                     (fanout ? " fanout" : " uniform") +
                     (post ? " postprocess" : ""));
        BudgetOptions opts;
        opts.postprocess = post;
        const BudgetResult got = fanout ? budgeter.assign(tc, opts)
                                        : budgeter.assign_uniform(tc, opts);
        const BudgetResult want = rescan_assign(nl, tc, opts, fanout);
        EXPECT_EQ(got.t_max, want.t_max);
        EXPECT_EQ(got.rounds, want.rounds);
        EXPECT_EQ(got.exhausted_paths, want.exhausted_paths);
        EXPECT_EQ(got.slope_adjustments, want.slope_adjustments);
        EXPECT_EQ(got.rescale_factor, want.rescale_factor);
        EXPECT_EQ(got.longest_budget_path, want.longest_budget_path);
      }
    }
  }
}

TEST(DelayBudgeterPivotWalk, MatchesTheRescanOnPaperCircuits) {
  for (const bench_suite::CircuitSpec& spec : bench_suite::paper_circuits()) {
    expect_same_budgets(bench_suite::make_circuit(spec));
  }
}

TEST(DelayBudgeterPivotWalk, MatchesTheRescanOnA1600GateNetlist) {
  netlist::GeneratorSpec spec;
  spec.name = "gen1600";
  spec.num_gates = 1600;
  spec.depth = 1600 / 64;
  spec.num_dffs = 1600 / 12;
  spec.num_inputs = 1600 / 50;
  spec.num_outputs = 1600 / 50;
  spec.seed = 7;
  expect_same_budgets(netlist::generate_random_logic(spec));
}

}  // namespace
}  // namespace minergy::timing
