#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <set>
#include <string>
#include <utility>

#include "bench_suite/iscas.h"
#include "netlist/generator.h"
#include "opt/annealing_optimizer.h"
#include "opt/checkpoint.h"
#include "opt/baseline_optimizer.h"
#include "opt/evaluator.h"
#include "opt/joint_optimizer.h"
#include "opt/lagrangian_sizer.h"
#include "opt/slack_sweep.h"
#include "opt/tilos_sizer.h"
#include "opt/variation.h"

namespace minergy::opt {
namespace {

using netlist::Netlist;

Netlist make_circuit(std::uint64_t seed = 2981, int gates = 80, int depth = 8) {
  netlist::GeneratorSpec spec;
  spec.num_inputs = 6;
  spec.num_outputs = 6;
  spec.num_dffs = 6;
  spec.num_gates = gates;
  spec.depth = depth;
  spec.seed = seed;
  return netlist::generate_random_logic(spec);
}

struct Harness {
  explicit Harness(double fc = 250e6, double tolerance = 0.0)
      : nl(make_circuit()),
        tech(tech::Technology::generic350()),
        eval(nl, tech, profile(),
             {.clock_frequency = fc, .vts_tolerance = tolerance}) {}

  static activity::ActivityProfile profile() {
    activity::ActivityProfile p;
    p.input_density = 0.2;
    return p;
  }

  Netlist nl;
  tech::Technology tech;
  CircuitEvaluator eval;
};

// --------------------------------------------------------------- baseline

TEST(BaselineOptimizer, ProducesFeasibleSolution) {
  Harness s;
  const OptimizationResult r = BaselineOptimizer(s.eval).run();
  ASSERT_TRUE(r.feasible);
  EXPECT_DOUBLE_EQ(r.vts_primary, s.tech.nominal_vts);
  EXPECT_LE(r.critical_delay, 0.95 * s.eval.cycle_time() * (1 + 1e-9));
  EXPECT_TRUE(s.eval.meets_timing(r.state, 0.95));
  EXPECT_GT(r.energy.total(), 0.0);
  EXPECT_GT(r.circuit_evaluations, 0);
}

TEST(BaselineOptimizer, LeakageNegligibleAtNominalThreshold) {
  // At Vts = 700 mV the static component is orders of magnitude below the
  // dynamic one (the premise of the paper's Table 1).
  Harness s;
  const OptimizationResult r = BaselineOptimizer(s.eval).run();
  ASSERT_TRUE(r.feasible);
  EXPECT_LT(r.energy.static_energy, 1e-3 * r.energy.dynamic_energy);
}

TEST(BaselineOptimizer, InfeasibleCycleTimeReported) {
  Netlist nl = make_circuit();
  const tech::Technology tech = tech::Technology::generic350();
  CircuitEvaluator eval(nl, tech, Harness::profile(),
                        {.clock_frequency = 50e9});  // absurd: 50 GHz
  const OptimizationResult r = BaselineOptimizer(eval).run();
  EXPECT_FALSE(r.feasible);
}

TEST(BaselineOptimizer, CustomFixedThresholdHonored) {
  Harness s;
  const OptimizationResult r = BaselineOptimizer(s.eval, {}, 0.5).run();
  ASSERT_TRUE(r.feasible);
  EXPECT_DOUBLE_EQ(r.vts_primary, 0.5);
  for (netlist::GateId id : s.nl.combinational()) {
    EXPECT_DOUBLE_EQ(r.state.vts[id], 0.5);
  }
}

TEST(BaselineOptimizer, Deterministic) {
  Harness s;
  const OptimizationResult a = BaselineOptimizer(s.eval).run();
  const OptimizationResult b = BaselineOptimizer(s.eval).run();
  EXPECT_EQ(a.vdd, b.vdd);
  EXPECT_EQ(a.energy.total(), b.energy.total());
  EXPECT_EQ(a.state.widths, b.state.widths);
}

// ------------------------------------------------------------------ joint

TEST(JointOptimizer, BeatsBaselineByOrderOfMagnitude) {
  // The paper's headline: joint Vdd/Vts/width optimization yields energy
  // reductions "by factors larger than 10" over width+Vdd-only at 700 mV.
  Harness s;
  const OptimizationResult base = BaselineOptimizer(s.eval).run();
  const OptimizationResult joint = JointOptimizer(s.eval).run();
  ASSERT_TRUE(base.feasible);
  ASSERT_TRUE(joint.feasible);
  EXPECT_GT(base.energy.total() / joint.energy.total(), 5.0);
}

TEST(JointOptimizer, MeetsTimingAtReportedState) {
  Harness s;
  const OptimizationResult r = JointOptimizer(s.eval).run();
  ASSERT_TRUE(r.feasible);
  EXPECT_TRUE(s.eval.meets_timing(r.state, 0.95));
  EXPECT_LE(r.critical_delay, 0.95 * s.eval.cycle_time() * (1 + 1e-9));
}

TEST(JointOptimizer, LandsInPaperParameterRegime) {
  Harness s;
  const OptimizationResult r = JointOptimizer(s.eval).run();
  ASSERT_TRUE(r.feasible);
  // Low supply, low threshold (paper: Vdd in [0.6, 1.2] V, Vts in
  // [0.12, 0.2] V; we accept a modestly wider band for surrogates).
  EXPECT_LT(r.vdd, 1.6);
  EXPECT_GE(r.vdd, s.tech.vdd_min);
  EXPECT_LT(r.vts_primary, 0.30);
  EXPECT_GE(r.vts_primary, s.tech.vts_min);
}

TEST(JointOptimizer, StaticAndDynamicComparable) {
  // Section 3/5: at the optimum the two components are of the same order.
  Harness s;
  const OptimizationResult r = JointOptimizer(s.eval).run();
  ASSERT_TRUE(r.feasible);
  const double ratio = r.energy.static_energy / r.energy.dynamic_energy;
  EXPECT_GT(ratio, 0.05);
  EXPECT_LT(ratio, 20.0);
}

TEST(JointOptimizer, Deterministic) {
  Harness s;
  const OptimizationResult a = JointOptimizer(s.eval).run();
  const OptimizationResult b = JointOptimizer(s.eval).run();
  EXPECT_EQ(a.vdd, b.vdd);
  EXPECT_EQ(a.vts_primary, b.vts_primary);
  EXPECT_EQ(a.energy.total(), b.energy.total());
}

TEST(JointOptimizer, RefinementNeverHurts) {
  Harness s;
  OptimizerOptions raw;
  raw.refine = false;
  OptimizerOptions refined;
  refined.refine = true;
  const OptimizationResult a = JointOptimizer(s.eval, raw).run();
  const OptimizationResult b = JointOptimizer(s.eval, refined).run();
  ASSERT_TRUE(a.feasible && b.feasible);
  EXPECT_LE(b.energy.total(), a.energy.total() * (1.0 + 1e-12));
}

TEST(JointOptimizer, RefineProbesEachPointOnce) {
  // The refine's outer Vdd search takes the cost of each inner Vts search's
  // winner from that search instead of probing the winner a second time.
  // A default run therefore makes steps^2 sweep probes and
  // (refine_steps + 2)^2 refine probes, and no refine point repeats.
  const Netlist nl = bench_suite::make_circuit("s27");
  const CircuitEvaluator eval(nl, tech::Technology::generic350(),
                              Harness::profile(), {.clock_frequency = 300e6});
  const OptimizerOptions opts;
  const OptimizationResult r = JointOptimizer(eval, opts).run();
  ASSERT_TRUE(r.feasible);
  const int sweep = opts.steps * opts.steps;
  const int refine = (opts.refine_steps + 2) * (opts.refine_steps + 2);
  EXPECT_EQ(r.circuit_evaluations, sweep + refine);  // 100 + 144
  int sweep_points = 0;
  int refine_points = 0;
  std::set<std::pair<double, double>> refined;
  for (const obs::TrajectoryPoint& tp : r.report.trajectory) {
    if (tp.phase == "sweep") ++sweep_points;
    if (tp.phase != "refine") continue;
    ++refine_points;
    EXPECT_TRUE(refined.emplace(tp.vdd, tp.vts).second)
        << "refine probed (" << tp.vdd << ", " << tp.vts << ") twice";
  }
  EXPECT_EQ(sweep_points, sweep);
  EXPECT_EQ(refine_points, refine);
}

TEST(JointOptimizer, RecoveryPassCountIsWellBehaved) {
  // Per probe, extra recovery passes only shrink widths; across a full run
  // the search trajectory may shift, so assert a sanity band plus
  // feasibility rather than strict monotonicity.
  Harness s;
  OptimizerOptions one;
  one.recovery_passes = 1;
  OptimizerOptions three;
  three.recovery_passes = 3;
  const OptimizationResult a = JointOptimizer(s.eval, one).run();
  const OptimizationResult b = JointOptimizer(s.eval, three).run();
  ASSERT_TRUE(a.feasible && b.feasible);
  EXPECT_TRUE(s.eval.meets_timing(a.state, 0.95));
  EXPECT_TRUE(s.eval.meets_timing(b.state, 0.95));
  EXPECT_LE(b.energy.total(), a.energy.total() * 1.25);
}

TEST(JointOptimizer, WidthsWithinRange) {
  Harness s;
  const OptimizationResult r = JointOptimizer(s.eval).run();
  for (netlist::GateId id : s.nl.combinational()) {
    EXPECT_GE(r.state.widths[id], s.tech.w_min);
    EXPECT_LE(r.state.widths[id], s.tech.w_max);
  }
}

TEST(JointOptimizer, InfeasibleProblemReported) {
  Netlist nl = make_circuit();
  const tech::Technology tech = tech::Technology::generic350();
  CircuitEvaluator eval(nl, tech, Harness::profile(),
                        {.clock_frequency = 50e9});
  const OptimizationResult r = JointOptimizer(eval).run();
  EXPECT_FALSE(r.feasible);
}

TEST(JointOptimizer, MultiThresholdNoWorseThanSingle) {
  Harness s;
  OptimizerOptions nv1;
  OptimizerOptions nv2;
  nv2.num_thresholds = 2;
  const OptimizationResult r1 = JointOptimizer(s.eval, nv1).run();
  const OptimizationResult r2 = JointOptimizer(s.eval, nv2).run();
  ASSERT_TRUE(r1.feasible && r2.feasible);
  EXPECT_LE(r2.energy.total(), r1.energy.total() * (1.0 + 1e-12));
  EXPECT_LE(r2.vts_groups.size(), 2u);
  EXPECT_TRUE(s.eval.meets_timing(r2.state, 0.95));
}

TEST(JointOptimizer, RefineClampsWindowWhenTechRangeExcludesIt) {
  // Regression: the refine polish searches Vdd in a +/-30% window around the
  // sweep's center. When that window lies entirely outside the technology's
  // legal range (reachable by resuming a snapshot taken under a different
  // technology), the interval inverted and golden_section_min's precondition
  // check killed the run. The fix collapses the window to the nearest legal
  // point.
  Netlist nl = make_circuit();
  tech::Technology tech = tech::Technology::generic350();
  tech.vdd_min = 0.9;
  tech.vdd_max = 1.1;  // 0.7 * 3.3 = 2.31 > vdd_max: naive window inverts
  const CircuitEvaluator eval(nl, tech, Harness::profile(),
                              {.clock_frequency = 5e6});

  OptimizerOptions opts;
  JointCheckpoint ck;
  ck.circuit = nl.name();
  ck.next_step = opts.steps;  // sweep complete; resume goes straight to refine
  ck.vdd_lo = tech.vdd_min;
  ck.vdd_hi = tech.vdd_max;
  ck.prev_total = 1.0;
  ck.has_best = true;
  ck.best_state = CircuitState::uniform(nl, 3.3, 0.4, 4.0);
  ck.best_energy.dynamic_energy = 1.0;  // absurd; any real probe beats it
  ck.best_critical_delay = 1e-9;
  ck.best_feasible = true;
  const std::string path =
      (std::filesystem::temp_directory_path() / "minergy_narrow_vdd_ck.json")
          .string();
  ck.save(path);
  opts.resume_path = path;

  OptimizationResult r;
  EXPECT_NO_THROW(r = JointOptimizer(eval, opts).run());
  // The refine probes run at the clamped legal point and replace the crafted
  // out-of-range best. A one-point window runs a single inner Vts search.
  EXPECT_TRUE(r.feasible);
  int refine_points = 0;
  for (const obs::TrajectoryPoint& tp : r.report.trajectory) {
    if (tp.phase == "refine") ++refine_points;
  }
  EXPECT_EQ(refine_points, opts.refine_steps + 2);
  EXPECT_GE(r.state.vdd, tech.vdd_min - 1e-12);
  EXPECT_LE(r.state.vdd, tech.vdd_max + 1e-12);
  EXPECT_LT(r.energy.total(), 1.0);
  for (const std::string& p : {path, path + ".1", path + ".2"}) {
    std::remove(p.c_str());
  }
}

TEST(JointOptimizer, MultiThresholdAcceptsVtsMaxEndpoint) {
  // Regression for the per-group Vts raise loop: fixed-midpoint bisection
  // over [base_vts, vts_max] never evaluates vts_max itself, so a slack
  // group that is feasible at the technology ceiling settled one
  // half-interval short of it and leaked subthreshold energy. With the
  // endpoint probe, a relaxed clock must park the slackest group exactly at
  // vts_max, and multi-Vt stays monotonically no worse than single-Vt.
  for (const char* name : {"s27", "s344*"}) {
    SCOPED_TRACE(name);
    const netlist::Netlist nl = bench_suite::make_circuit(name);
    tech::Technology tech = tech::Technology::generic350();
    // Pin the supply high: at a low optimized Vdd the ceiling threshold
    // would starve the gates of overdrive and stay infeasible, which is the
    // uninteresting case. With Vdd >= 2.5 V and a relaxed clock, vts_max is
    // feasible and strictly cuts leakage, so the endpoint must be taken.
    tech.vdd_min = 2.5;
    const CircuitEvaluator eval(nl, tech, Harness::profile(),
                                {.clock_frequency = 20e6});
    OptimizerOptions nv1;
    OptimizerOptions nv2;
    nv2.num_thresholds = 2;
    const OptimizationResult r1 = JointOptimizer(eval, nv1).run();
    const OptimizationResult r2 = JointOptimizer(eval, nv2).run();
    ASSERT_TRUE(r1.feasible && r2.feasible);
    EXPECT_LE(r2.energy.total(), r1.energy.total() * (1.0 + 1e-12));
    for (const double v : r2.state.vts) {
      EXPECT_GE(v, tech.vts_min - 1e-12);
      EXPECT_LE(v, tech.vts_max + 1e-12);
    }
    // The slackest group reaches the ceiling exactly (bit-equal assignment,
    // not a bisection limit point).
    ASSERT_FALSE(r2.vts_groups.empty());
    EXPECT_EQ(r2.vts_groups.back(), tech.vts_max);
  }
}

TEST(JointOptimizer, MoreSlackMeansLessEnergy) {
  Netlist nl = make_circuit();
  const tech::Technology tech = tech::Technology::generic350();
  CircuitEvaluator tight(nl, tech, Harness::profile(),
                         {.clock_frequency = 280e6});
  CircuitEvaluator loose(nl, tech, Harness::profile(),
                         {.clock_frequency = 80e6});
  const OptimizationResult rt = JointOptimizer(tight).run();
  const OptimizationResult rl = JointOptimizer(loose).run();
  ASSERT_TRUE(rt.feasible && rl.feasible);
  EXPECT_LT(rl.energy.total(), rt.energy.total());
}

// ------------------------------------------------------------- annealing

TEST(AnnealingOptimizer, FindsFeasibleSolutionFromWarmStart) {
  Harness s;
  const OptimizationResult base = BaselineOptimizer(s.eval).run();
  AnnealingOptions opts;
  opts.max_moves = 3000;
  const OptimizationResult r = AnnealingOptimizer(s.eval, opts).run(base.state);
  ASSERT_TRUE(r.feasible);
  EXPECT_TRUE(s.eval.meets_timing(r.state, 0.95));
  EXPECT_LE(r.energy.total(), base.energy.total() * (1.0 + 1e-12));
}

TEST(AnnealingOptimizer, HeuristicBeatsAnnealingAtEqualBudget) {
  // Section 5: "in most cases ... it does not perform as well as the
  // proposed heuristic" under practical budgets.
  Harness s;
  const OptimizationResult joint = JointOptimizer(s.eval).run();
  AnnealingOptions opts;
  opts.max_moves = joint.circuit_evaluations;  // equalized evaluation budget
  const OptimizationResult sa = AnnealingOptimizer(s.eval, opts).run();
  ASSERT_TRUE(joint.feasible);
  if (!sa.feasible) SUCCEED() << "annealing failed to reach feasibility";
  else EXPECT_GT(sa.energy.total(), joint.energy.total());
}

TEST(AnnealingOptimizer, DeterministicGivenSeed) {
  Harness s;
  AnnealingOptions opts;
  opts.max_moves = 500;
  const OptimizationResult a = AnnealingOptimizer(s.eval, opts).run();
  const OptimizationResult b = AnnealingOptimizer(s.eval, opts).run();
  EXPECT_EQ(a.energy.total(), b.energy.total());
  EXPECT_EQ(a.vdd, b.vdd);
}

// --------------------------------------------------- lagrangian sizing

TEST(LagrangianSizer, BeatsBudgetSizingAtSameOperatingPoint) {
  // The Sapatnekar-lineage relaxation sized at the joint optimum's
  // (Vdd, Vts) must meet timing with no more energy than the paper's
  // budget-driven widths (typically far less).
  Harness s;
  const OptimizationResult joint = JointOptimizer(s.eval).run();
  ASSERT_TRUE(joint.feasible);
  const double limit = 0.95 * s.eval.cycle_time();
  std::vector<double> vts(s.nl.size(), joint.vts_primary);
  const LagrangianSizer lr(s.eval.delay_calculator(), s.eval.energy_model());
  const LagrangianResult r = lr.size(joint.vdd, vts, limit);
  ASSERT_TRUE(r.feasible);
  EXPECT_LE(r.critical_delay, limit * (1.0 + 1e-9));
  EXPECT_LE(r.energy, joint.energy.total() * 1.05);
  for (netlist::GateId id : s.nl.combinational()) {
    EXPECT_GE(r.widths[id], s.tech.w_min);
    EXPECT_LE(r.widths[id], s.tech.w_max);
  }
}

TEST(LagrangianSizer, Deterministic) {
  Harness s;
  std::vector<double> vts(s.nl.size(), 0.15);
  const LagrangianSizer lr(s.eval.delay_calculator(), s.eval.energy_model());
  const LagrangianResult a = lr.size(1.0, vts, 0.95 * s.eval.cycle_time());
  const LagrangianResult b = lr.size(1.0, vts, 0.95 * s.eval.cycle_time());
  EXPECT_EQ(a.widths, b.widths);
  EXPECT_EQ(a.energy, b.energy);
}

TEST(LagrangianSizer, ImpossibleConstraintReported) {
  Harness s;
  std::vector<double> vts(s.nl.size(), 0.7);
  const LagrangianSizer lr(s.eval.delay_calculator(), s.eval.energy_model());
  const LagrangianResult r = lr.size(0.75, vts, 1e-11);
  EXPECT_FALSE(r.feasible);
}

// ------------------------------------------------------------- tilos

TEST(TilosSizer, ReachesFeasibilityWhenPossible) {
  Harness s;
  const std::vector<double> vts(s.nl.size(), 0.2);
  TilosSizer tilos(s.eval.delay_calculator(), s.eval.energy_model());
  const TilosResult r =
      tilos.size(2.0, vts, 0.95 * s.eval.cycle_time());
  EXPECT_TRUE(r.feasible);
  EXPECT_LE(r.critical_delay, 0.95 * s.eval.cycle_time() * (1 + 1e-9));
}

TEST(TilosSizer, ReportsInfeasibleWhenSaturated) {
  Harness s;
  const std::vector<double> vts(s.nl.size(), 0.7);
  TilosSizer tilos(s.eval.delay_calculator(), s.eval.energy_model());
  const TilosResult r = tilos.size(0.75, vts, 1e-10);
  EXPECT_FALSE(r.feasible);
}

// ------------------------------------------------- variation / slack

TEST(VariationAnalyzer, SavingsShrinkWithTolerance) {
  Netlist nl = make_circuit();
  OptimizerOptions opts;
  VariationAnalyzer analyzer(nl, tech::Technology::generic350(),
                             Harness::profile(), 250e6, opts);
  const auto points = analyzer.sweep({0.0, 0.15, 0.30});
  ASSERT_EQ(points.size(), 3u);
  for (const auto& p : points) {
    EXPECT_TRUE(p.joint.feasible) << "tol=" << p.tolerance;
    EXPECT_GT(p.savings, 1.0);
  }
  EXPECT_GT(points[0].savings, points[2].savings);
}

TEST(SlackSweep, SavingsGrowWithSlack) {
  Netlist nl = make_circuit();
  OptimizerOptions opts;
  SlackSweep sweep(nl, tech::Technology::generic350(), Harness::profile(),
                   250e6, opts);
  const auto points = sweep.sweep({1.0, 2.0, 4.0});
  ASSERT_EQ(points.size(), 3u);
  for (const auto& p : points) EXPECT_TRUE(p.joint.feasible);
  EXPECT_GT(points[2].savings, points[0].savings);
}

// Savings across seeds: the headline must be robust to topology.
class JointSavingsProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(JointSavingsProperty, SubstantialSavingsAcrossTopologies) {
  Netlist nl = make_circuit(GetParam(), 70, 7);
  const tech::Technology tech = tech::Technology::generic350();
  CircuitEvaluator eval(nl, tech, Harness::profile(),
                        {.clock_frequency = 250e6});
  const OptimizationResult base = BaselineOptimizer(eval).run();
  const OptimizationResult joint = JointOptimizer(eval).run();
  ASSERT_TRUE(base.feasible && joint.feasible);
  EXPECT_GT(base.energy.total() / joint.energy.total(), 3.0);
  EXPECT_LT(joint.vdd, base.vdd);
}

INSTANTIATE_TEST_SUITE_P(Seeds, JointSavingsProperty,
                         ::testing::Values(11, 22, 33, 44));

}  // namespace
}  // namespace minergy::opt
