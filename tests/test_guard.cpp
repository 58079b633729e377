// Guard + watchdog unit tests and robustness property tests: seeded random
// netlists crossed with technology corners must never produce a non-finite
// delay or energy, and budget-limited runs must come back flagged, not hung.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>

#include "netlist/generator.h"
#include "obs/metrics.h"
#include "opt/annealing_optimizer.h"
#include "opt/baseline_optimizer.h"
#include "opt/evaluator.h"
#include "opt/joint_optimizer.h"
#include "opt/robust_optimizer.h"
#include "util/guard.h"

namespace minergy {
namespace {

using netlist::Netlist;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

// ------------------------------------------------------------ NumericError

TEST(NumericError, CarriesValueAndContext) {
  const util::NumericError e(kNaN, "delay of gate 'u42'");
  EXPECT_TRUE(std::isnan(e.value()));
  EXPECT_EQ(e.context(), "delay of gate 'u42'");
  EXPECT_NE(std::string(e.what()).find("u42"), std::string::npos);
}

TEST(FiniteOrThrow, PassesFiniteValues) {
  EXPECT_DOUBLE_EQ(util::finite_or_throw(1.5, "x"), 1.5);
  EXPECT_DOUBLE_EQ(util::finite_or_throw(-2.0, "x"), -2.0);
  EXPECT_DOUBLE_EQ(util::finite_or_throw(0.0, "x"), 0.0);
}

TEST(FiniteOrThrow, RejectsNaNAndInfinity) {
  EXPECT_THROW(util::finite_or_throw(kNaN, "x"), util::NumericError);
  EXPECT_THROW(util::finite_or_throw(kInf, "x"), util::NumericError);
  EXPECT_THROW(util::finite_or_throw(-kInf, "x"), util::NumericError);
}

TEST(FiniteNonnegOrThrow, RejectsNegatives) {
  EXPECT_DOUBLE_EQ(util::finite_nonneg_or_throw(0.0, "x"), 0.0);
  EXPECT_DOUBLE_EQ(util::finite_nonneg_or_throw(3.0, "x"), 3.0);
  EXPECT_THROW(util::finite_nonneg_or_throw(-1e-30, "x"), util::NumericError);
  EXPECT_THROW(util::finite_nonneg_or_throw(kNaN, "x"), util::NumericError);
}

// ---------------------------------------------------------------- Watchdog

TEST(Watchdog, DefaultIsUnlimited) {
  util::Watchdog dog;
  EXPECT_TRUE(dog.budget().unlimited());
  for (int i = 0; i < 10000; ++i) dog.note_evaluation();
  EXPECT_FALSE(dog.expired());
  EXPECT_EQ(dog.expiry_reason(), nullptr);
  EXPECT_EQ(dog.evaluations(), 10000);
}

TEST(Watchdog, EvaluationBudgetExpires) {
  util::Watchdog dog(util::WatchdogBudget{.max_evaluations = 3});
  EXPECT_FALSE(dog.note_evaluation());
  EXPECT_FALSE(dog.note_evaluation());
  EXPECT_TRUE(dog.note_evaluation());  // third evaluation exhausts the budget
  EXPECT_TRUE(dog.expired());
  EXPECT_STREQ(dog.expiry_reason(), "evaluation budget");
}

TEST(Watchdog, WallClockDeadlineExpires) {
  util::Watchdog dog(util::WatchdogBudget{.wall_seconds = 0.0});
  EXPECT_TRUE(dog.expired());
  EXPECT_STREQ(dog.expiry_reason(), "wall-clock deadline");
  EXPECT_GE(dog.elapsed_seconds(), 0.0);
}

TEST(Watchdog, RestartRewindsBothBudgets) {
  util::Watchdog dog(util::WatchdogBudget{.max_evaluations = 1});
  EXPECT_TRUE(dog.note_evaluation());
  dog.restart();
  EXPECT_FALSE(dog.expired());
  EXPECT_EQ(dog.evaluations(), 0);
}

// ------------------------------------------------- finite-everything sweep

activity::ActivityProfile profile() {
  activity::ActivityProfile p;
  p.input_density = 0.2;
  return p;
}

Netlist make_circuit(std::uint64_t seed, int gates = 60, int depth = 6) {
  netlist::GeneratorSpec spec;
  spec.num_inputs = 5;
  spec.num_outputs = 5;
  spec.num_dffs = 4;
  spec.num_gates = gates;
  spec.depth = depth;
  spec.seed = seed;
  return netlist::generate_random_logic(spec);
}

// Property: random netlists x technology corners x operating points never
// yield a non-finite or negative delay/energy through the guarded evaluator
// boundary — the guards either pass clean numbers or throw; they may not
// let corruption through silently.
TEST(GuardProperty, RandomNetlistsAcrossCornersStayFinite) {
  const std::uint64_t seeds[] = {11, 23, 5087};
  const tech::Technology corners[] = {tech::Technology::generic350(),
                                      tech::Technology::generic250(),
                                      tech::Technology::generic500()};
  for (const std::uint64_t seed : seeds) {
    const Netlist nl = make_circuit(seed);
    for (const tech::Technology& tech : corners) {
      const opt::CircuitEvaluator eval(nl, tech, profile(),
                                       {.clock_frequency = 100e6});
      // Probe the corners of the variable box plus an interior point.
      const double vts_hi = std::min(tech.vts_max, 0.9 * tech.vdd_min);
      const struct {
        double vdd, vts, width;
      } points[] = {
          {tech.vdd_max, tech.vts_min, tech.w_min},
          {tech.vdd_max, tech.vts_max, tech.w_max},
          {tech.vdd_min, vts_hi, tech.w_min},
          {0.5 * (tech.vdd_min + tech.vdd_max),
           0.5 * (tech.vts_min + tech.vts_max), 4.0},
      };
      for (const auto& p : points) {
        const auto state =
            opt::CircuitState::uniform(nl, p.vdd, p.vts, p.width);
        // Either everything the evaluator returns is finite and
        // non-negative, or the boundary guard throws a typed NumericError
        // (deep-subthreshold corners legitimately overflow a delay). The
        // forbidden outcome is corruption passing through silently.
        try {
          const timing::TimingReport report =
              eval.sta(state, eval.cycle_time());
          EXPECT_TRUE(std::isfinite(report.critical_delay));
          EXPECT_GE(report.critical_delay, 0.0);
          for (const netlist::GateId id : nl.combinational()) {
            ASSERT_TRUE(std::isfinite(report.arrival[id]));
            ASSERT_GE(report.gate_delay[id], 0.0);
          }
          const power::EnergyBreakdown e = eval.energy(state);
          EXPECT_TRUE(std::isfinite(e.total()));
          EXPECT_GE(e.total(), 0.0);
          EXPECT_GE(e.dynamic_energy, 0.0);
          EXPECT_GE(e.static_energy, 0.0);
        } catch (const util::NumericError& e) {
          EXPECT_FALSE(std::isfinite(e.value()) && e.value() >= 0.0)
              << "guard rejected a healthy value: " << e.what();
          EXPECT_FALSE(e.context().empty());
        }
      }
    }
  }
}

// ------------------------------------------------------- evaluator guards

TEST(EvaluatorGuards, CorruptTechnologyRejectedAtConstruction) {
  const Netlist nl = make_circuit(7);
  tech::Technology tech = tech::Technology::generic350();
  tech.pc = kNaN;
  EXPECT_THROW(
      opt::CircuitEvaluator(nl, tech, profile(), {.clock_frequency = 100e6}),
      tech::TechnologyError);
}

TEST(EvaluatorGuards, BadSettingsRejected) {
  const Netlist nl = make_circuit(7);
  const tech::Technology tech = tech::Technology::generic350();
  EXPECT_THROW(
      opt::CircuitEvaluator(nl, tech, profile(), {.clock_frequency = 0.0}),
      util::NumericError);
  EXPECT_THROW(opt::CircuitEvaluator(nl, tech, profile(),
                                     {.clock_frequency = kNaN}),
               util::NumericError);
  EXPECT_THROW(opt::CircuitEvaluator(
                   nl, tech, profile(),
                   {.clock_frequency = 100e6, .vts_tolerance = 1.5}),
               util::NumericError);
}

// ------------------------------------------------- watchdog-limited runs

// Turns metric collection on for one scope and restores it afterwards.
class MetricsOn {
 public:
  MetricsOn() : was_on_(obs::enabled()) { obs::set_enabled(true); }
  ~MetricsOn() { obs::set_enabled(was_on_); }
  MetricsOn(const MetricsOn&) = delete;
  MetricsOn& operator=(const MetricsOn&) = delete;

 private:
  bool was_on_;
};

// Runs one optimizer whose evaluation budget is too small to finish: the
// result must be flagged, name that budget, and count one watchdog expiry.
template <class Run>
opt::OptimizationResult expect_cut_by_evaluation_budget(Run run) {
  const MetricsOn metrics;
  const obs::Counter& expiries = obs::counter("opt.watchdog.expiries");
  const std::int64_t before = expiries.value();
  opt::OptimizationResult r = run();
  EXPECT_TRUE(r.truncated);
  EXPECT_NE(r.truncation_reason.find("evaluation budget"), std::string::npos)
      << r.truncation_reason;
  EXPECT_EQ(expiries.value() - before, 1);
  return r;
}

TEST(WatchdogRuns, JointOptimizerHonorsEvaluationBudget) {
  const Netlist nl = make_circuit(31);
  const tech::Technology tech = tech::Technology::generic350();
  const opt::CircuitEvaluator eval(nl, tech, profile(),
                                   {.clock_frequency = 100e6});

  opt::OptimizerOptions opts;
  opts.budget.max_evaluations = 5;
  const opt::OptimizationResult r = expect_cut_by_evaluation_budget(
      [&] { return opt::JointOptimizer(eval, opts).run(); });
  EXPECT_LE(r.circuit_evaluations, 8);  // budget + in-flight probes
  // Feasible-or-flagged: a truncated run may be infeasible, but it must say
  // so, and anything it does report must be finite.
  if (r.feasible) {
    EXPECT_TRUE(std::isfinite(r.energy.total()));
    EXPECT_TRUE(std::isfinite(r.critical_delay));
  }
}

TEST(WatchdogRuns, BaselineOptimizerHonorsEvaluationBudget) {
  const Netlist nl = make_circuit(31);
  const tech::Technology tech = tech::Technology::generic350();
  const opt::CircuitEvaluator eval(nl, tech, profile(),
                                   {.clock_frequency = 100e6});

  opt::OptimizerOptions opts;
  opts.budget.max_evaluations = 5;
  expect_cut_by_evaluation_budget(
      [&] { return opt::BaselineOptimizer(eval, opts).run(); });
}

TEST(WatchdogRuns, AnnealingOptimizerHonorsEvaluationBudget) {
  const Netlist nl = make_circuit(31);
  const tech::Technology tech = tech::Technology::generic350();
  const opt::CircuitEvaluator eval(nl, tech, profile(),
                                   {.clock_frequency = 100e6});

  opt::AnnealingOptions opts;
  opts.max_moves = 200;
  opts.budget.max_evaluations = 5;
  const opt::OptimizationResult r = expect_cut_by_evaluation_budget(
      [&] { return opt::AnnealingOptimizer(eval, opts).run(); });
  EXPECT_EQ(r.circuit_evaluations, 5);
}

TEST(WatchdogRuns, ExhaustedWallClockStillReturns) {
  const Netlist nl = make_circuit(31);
  const tech::Technology tech = tech::Technology::generic350();
  const opt::CircuitEvaluator eval(nl, tech, profile(),
                                   {.clock_frequency = 100e6});

  opt::OptimizerOptions opts;
  opts.budget.wall_seconds = 0.0;  // expired before the first probe
  const opt::OptimizationResult r = opt::JointOptimizer(eval, opts).run();
  EXPECT_TRUE(r.truncated);
  EXPECT_NE(r.truncation_reason.find("wall-clock"), std::string::npos);
}

// ------------------------------------------------------- robust fallback

TEST(RobustOptimizer, HealthyCircuitUsesJointTier) {
  const Netlist nl = make_circuit(31);
  const tech::Technology tech = tech::Technology::generic350();
  const opt::CircuitEvaluator eval(nl, tech, profile(),
                                   {.clock_frequency = 100e6});
  const opt::OptimizationResult r = opt::RobustOptimizer(eval).run();
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.tier, opt::ResultTier::kJoint);
  EXPECT_TRUE(r.tier_notes.empty());
  EXPECT_TRUE(std::isfinite(r.energy.total()));
}

TEST(RobustOptimizer, StarvedJointFallsBackAndRecordsWhy) {
  const Netlist nl = make_circuit(31);
  const tech::Technology tech = tech::Technology::generic350();
  const opt::CircuitEvaluator eval(nl, tech, profile(),
                                   {.clock_frequency = 100e6});
  opt::RobustOptions opts;
  // Expired before the first probe: tier 0 cannot even evaluate one point.
  opts.joint.budget.wall_seconds = 0.0;
  const opt::OptimizationResult r = opt::RobustOptimizer(eval, opts).run();
  ASSERT_TRUE(r.feasible);
  EXPECT_NE(r.tier, opt::ResultTier::kJoint);
  ASSERT_FALSE(r.tier_notes.empty());
  EXPECT_NE(r.tier_notes.front().find("joint"), std::string::npos);
}

TEST(RobustOptimizer, ImpossibleClockThrowsRichInfeasibleError) {
  const Netlist nl = make_circuit(31);
  const tech::Technology tech = tech::Technology::generic350();
  const opt::CircuitEvaluator eval(nl, tech, profile(),
                                   {.clock_frequency = 50e9});

  const MetricsOn metrics;
  const obs::Counter& size_calls = obs::counter("opt.sizer.size_calls");
  const obs::Counter& sta_runs = obs::counter("timing.sta.runs");
  const obs::Counter& joint_probes = obs::counter("opt.joint.probes");
  const obs::Counter& baseline_probes = obs::counter("opt.baseline.probes");
  const std::int64_t sizes_before = size_calls.value();
  const std::int64_t stas_before = sta_runs.value();
  const std::int64_t joint_before = joint_probes.value();
  const std::int64_t baseline_before = baseline_probes.value();
  try {
    opt::RobustOptimizer(eval).run();
    FAIL() << "expected util::InfeasibleError";
  } catch (const util::InfeasibleError& e) {
    EXPECT_GT(e.requested_limit(), 0.0);
    EXPECT_GT(e.best_achievable(), e.requested_limit());
    EXPECT_FALSE(e.limiting_gate().empty());
    EXPECT_NE(std::string(e.what()).find(e.limiting_gate()),
              std::string::npos);
  }
  // The max-drive probe runs first and alone decides: one sizing, one STA,
  // and no tier probes at all.
  EXPECT_EQ(size_calls.value() - sizes_before, 1);
  EXPECT_EQ(sta_runs.value() - stas_before, 1);
  EXPECT_EQ(joint_probes.value() - joint_before, 0);
  EXPECT_EQ(baseline_probes.value() - baseline_before, 0);
}

TEST(RobustOptimizer, LastResortDiagnosesFromItsOwnMaxDriveProbe) {
  const Netlist nl = make_circuit(31);
  const tech::Technology tech = tech::Technology::generic350();
  const opt::CircuitEvaluator eval(nl, tech, profile(),
                                   {.clock_frequency = 50e9});
  const util::InfeasibleError want = opt::diagnose_infeasibility(eval, 0.95);
  opt::RobustOptions opts;
  opts.start_tier = 2;

  const MetricsOn metrics;
  const obs::Counter& size_calls = obs::counter("opt.sizer.size_calls");
  const obs::Counter& sta_runs = obs::counter("timing.sta.runs");
  const std::int64_t sizes_before = size_calls.value();
  const std::int64_t stas_before = sta_runs.value();
  try {
    opt::RobustOptimizer(eval, opts).run();
    FAIL() << "expected util::InfeasibleError";
  } catch (const util::InfeasibleError& e) {
    EXPECT_EQ(e.requested_limit(), want.requested_limit());
    EXPECT_EQ(e.best_achievable(), want.best_achievable());
    EXPECT_EQ(e.limiting_gate(), want.limiting_gate());
    EXPECT_STREQ(e.what(), want.what());
  }
  // The diagnosis reuses the max-drive probe's report: one sizing, one STA.
  EXPECT_EQ(size_calls.value() - sizes_before, 1);
  EXPECT_EQ(sta_runs.value() - stas_before, 1);
}

TEST(RobustOptimizer, StartTierSkipsTiersWithProvenance) {
  netlist::GeneratorSpec spec;
  spec.num_inputs = 4;
  spec.num_outputs = 4;
  spec.num_dffs = 4;
  spec.num_gates = 30;
  spec.depth = 5;
  spec.seed = 7;
  const Netlist nl = netlist::generate_random_logic(spec);
  const tech::Technology tech = tech::Technology::generic350();
  activity::ActivityProfile inputs;
  inputs.input_density = 0.2;
  const opt::CircuitEvaluator eval(nl, tech, inputs,
                                   {.clock_frequency = 100e6});

  opt::RobustOptions ropts;
  ropts.start_tier = 2;
  const opt::OptimizationResult r = opt::RobustOptimizer(eval, ropts).run();
  EXPECT_TRUE(r.feasible);
  EXPECT_EQ(r.tier, opt::ResultTier::kLastResort);
  ASSERT_EQ(r.report.tiers.size(), 3u);
  EXPECT_EQ(r.report.tiers[0].failure_reason, "skipped (start_tier)");
  EXPECT_EQ(r.report.tiers[1].failure_reason, "skipped (start_tier)");
  EXPECT_TRUE(r.report.tiers[2].selected);

  opt::RobustOptions one;
  one.start_tier = 1;
  const opt::OptimizationResult r1 = opt::RobustOptimizer(eval, one).run();
  EXPECT_TRUE(r1.feasible);
  EXPECT_EQ(r1.tier, opt::ResultTier::kBaseline);
  EXPECT_EQ(r1.report.tiers[0].failure_reason, "skipped (start_tier)");
}

TEST(DiagnoseInfeasibility, ReportsAchievableDelayForFeasibleDesignsToo) {
  const Netlist nl = make_circuit(31);
  const tech::Technology tech = tech::Technology::generic350();
  const opt::CircuitEvaluator eval(nl, tech, profile(),
                                   {.clock_frequency = 100e6});
  const util::InfeasibleError e = opt::diagnose_infeasibility(eval, 0.95);
  EXPECT_TRUE(std::isfinite(e.best_achievable()));
  EXPECT_GT(e.best_achievable(), 0.0);
  EXPECT_DOUBLE_EQ(e.requested_limit(), 0.95 * eval.cycle_time());
  EXPECT_FALSE(e.limiting_gate().empty());
}

}  // namespace
}  // namespace minergy
