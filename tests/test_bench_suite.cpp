#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "bench_suite/experiment.h"
#include "bench_suite/iscas.h"
#include "netlist/generator.h"
#include "netlist/stats.h"
#include "obs/metrics.h"
#include "opt/evaluator.h"

namespace minergy::bench_suite {
namespace {

TEST(Iscas, C17Structure) {
  netlist::Netlist nl = make_c17();
  EXPECT_EQ(nl.name(), "c17");
  EXPECT_EQ(nl.primary_inputs().size(), 5u);
  EXPECT_EQ(nl.primary_outputs().size(), 2u);
  EXPECT_EQ(nl.num_combinational(), 6u);
  EXPECT_EQ(nl.depth(), 3);
  // All gates are 2-input NANDs.
  for (netlist::GateId id : nl.combinational()) {
    EXPECT_EQ(nl.gate(id).type, netlist::GateType::kNand);
    EXPECT_EQ(nl.gate(id).fanin_count(), 2);
  }
}

TEST(Iscas, S27Structure) {
  netlist::Netlist nl = make_s27();
  EXPECT_EQ(nl.primary_inputs().size(), 4u);
  EXPECT_EQ(nl.primary_outputs().size(), 1u);
  EXPECT_EQ(nl.dffs().size(), 3u);
  EXPECT_EQ(nl.num_combinational(), 10u);
}

TEST(Iscas, PaperSuiteInstantiates) {
  const auto& specs = paper_circuits();
  ASSERT_EQ(specs.size(), 8u);
  EXPECT_EQ(specs.front().name, "s27");
  for (const CircuitSpec& spec : specs) {
    const netlist::Netlist nl = make_circuit(spec);
    const netlist::NetlistStats s = netlist::compute_stats(nl);
    EXPECT_GT(s.num_gates, 0u) << spec.name;
    if (spec.surrogate) {
      EXPECT_EQ(s.num_gates, static_cast<std::size_t>(spec.gen.num_gates));
      EXPECT_EQ(s.depth, spec.gen.depth);
      EXPECT_EQ(s.num_dffs, static_cast<std::size_t>(spec.gen.num_dffs));
    }
  }
}

TEST(Iscas, SurrogatesMatchPublishedIscasScale) {
  // Sanity pins on the published ISCAS-89 statistics the surrogates mimic.
  const netlist::NetlistStats s298 =
      netlist::compute_stats(make_circuit("s298*"));
  EXPECT_EQ(s298.num_gates, 119u);
  EXPECT_EQ(s298.num_dffs, 14u);
  const netlist::NetlistStats s832 =
      netlist::compute_stats(make_circuit("s832*"));
  EXPECT_EQ(s832.num_gates, 287u);
}

TEST(Iscas, LookupByEitherName) {
  EXPECT_NO_THROW(make_circuit("s298*"));
  EXPECT_NO_THROW(make_circuit("s298"));
  EXPECT_NO_THROW(make_circuit("c17"));
  EXPECT_THROW(make_circuit("s99999"), std::invalid_argument);
}

TEST(Iscas, SurrogatesAreDeterministic) {
  const std::string a = netlist::compute_stats(make_circuit("s344*")).to_string();
  const std::string b = netlist::compute_stats(make_circuit("s344*")).to_string();
  EXPECT_EQ(a, b);
}

TEST(Experiment, ChooseCycleTimeUsesRequestedWhenFeasible) {
  ExperimentConfig cfg;
  cfg.clock_frequency = 10e6;  // 100 ns: trivially feasible
  bool scaled = true;
  const double tc = choose_cycle_time(make_s27(), cfg, &scaled);
  EXPECT_FALSE(scaled);
  EXPECT_DOUBLE_EQ(tc, 1e-7);
}

TEST(Experiment, ChooseCycleTimeScalesWhenInfeasible) {
  ExperimentConfig cfg;
  cfg.clock_frequency = 20e9;  // 50 ps: impossible for the baseline
  bool scaled = false;
  const double tc = choose_cycle_time(make_s27(), cfg, &scaled);
  EXPECT_TRUE(scaled);
  EXPECT_GT(tc, 5e-11);
}

// choose_cycle_time as it was before the search stopped early: the full
// bisection, then the same decision.
double full_search_cycle_time(const netlist::Netlist& nl,
                              const ExperimentConfig& cfg, bool* scaled) {
  const double requested = 1.0 / cfg.clock_frequency;
  const opt::CircuitEvaluator eval(nl, cfg.tech, activity::ActivityProfile{},
                                   {.clock_frequency = cfg.clock_frequency});
  const double min_tc =
      eval.minimum_cycle_time(cfg.opts.skew_b, cfg.tech.nominal_vts);
  *scaled = min_tc > requested;
  return *scaled ? cfg.tc_margin * min_tc : requested;
}

TEST(Experiment, ChooseCycleTimeEarlyStopGivesTheFullSearchAnswer) {
  std::vector<netlist::Netlist> circuits;
  for (const CircuitSpec& spec : paper_circuits()) {
    circuits.push_back(make_circuit(spec));
  }
  netlist::GeneratorSpec gen;  // large_joint's shape: scaled at 300 MHz
  gen.num_gates = 1600;
  gen.depth = 1600 / 64;
  gen.num_dffs = 1600 / 12;
  gen.num_inputs = 1600 / 50;
  gen.num_outputs = 1600 / 50;
  gen.seed = 11;
  circuits.push_back(netlist::generate_random_logic(gen));

  const ExperimentConfig cfg;
  int scaled_count = 0, unscaled_count = 0;
  for (const netlist::Netlist& nl : circuits) {
    SCOPED_TRACE(nl.name());
    bool got_scaled = false, want_scaled = false;
    const double got = choose_cycle_time(nl, cfg, &got_scaled);
    const double want = full_search_cycle_time(nl, cfg, &want_scaled);
    EXPECT_EQ(got, want);
    EXPECT_EQ(got_scaled, want_scaled);
    ++(got_scaled ? scaled_count : unscaled_count);
  }
  // Both branches ran, and the generated circuit took the scaled one.
  EXPECT_GT(unscaled_count, 0);
  EXPECT_GT(scaled_count, 0);
  bool gen_scaled = false;
  (void)choose_cycle_time(circuits.back(), cfg, &gen_scaled);
  EXPECT_TRUE(gen_scaled);
}

TEST(Experiment, ChooseCycleTimeStopsOnceTheAnswerIsDecided) {
  // s832* meets 300 MHz: the search ends at its first feasible end at or
  // below 3.33 ns (the full search made 43 feasibility checks).
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  obs::Counter& sta_runs = obs::counter("timing.sta.runs");
  const netlist::Netlist nl = make_circuit("s832*");
  const std::int64_t before = sta_runs.value();
  bool scaled = true;
  const double tc = choose_cycle_time(nl, ExperimentConfig{}, &scaled);
  const std::int64_t runs = sta_runs.value() - before;
  obs::set_enabled(was_enabled);
  EXPECT_FALSE(scaled);
  EXPECT_EQ(tc, 1.0 / 300e6);
  EXPECT_LE(runs, 5);
}

TEST(Experiment, RunCircuitProducesPaperShapedRows) {
  ExperimentConfig cfg;
  cfg.input_activities = {0.1, 0.5};
  const auto rows = run_circuit(paper_circuits()[0], cfg);  // s27
  ASSERT_EQ(rows.size(), 2u);
  for (const CircuitExperiment& e : rows) {
    EXPECT_EQ(e.circuit, "s27");
    ASSERT_TRUE(e.baseline.feasible);
    ASSERT_TRUE(e.joint.feasible);
    EXPECT_GT(e.savings, 1.0);
    EXPECT_LT(e.joint.vdd, e.baseline.vdd);
    EXPECT_LT(e.joint.vts_primary, e.baseline.vts_primary);
    EXPECT_LE(e.baseline.critical_delay, e.cycle_time);
    EXPECT_LE(e.joint.critical_delay, e.cycle_time);
  }
  // The paper's observation: savings increase with input activity.
  EXPECT_GT(rows[1].savings, rows[0].savings);
}

}  // namespace
}  // namespace minergy::bench_suite
