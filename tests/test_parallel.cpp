// Thread-pool semantics, and the guarantee that the pool's lane count
// never changes an answer: STA, sizing, energy and the joint optimizer give
// the identical result, double for double, at 1, 2 and 8 lanes.
//
// These are the `par` CTest label's determinism oracles; scripts/ci.sh runs
// them in Release and again under TSan, where the concurrent sections double
// as the data-race oracle for the pool. No code under src/ dispatches to the
// pool: the evaluation kernels are serial, and a guard below keeps them off
// it. The pool stays while bench/e2e links it.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include "netlist/generator.h"
#include "obs/metrics.h"
#include "opt/evaluator.h"
#include "opt/joint_optimizer.h"
#include "opt/sizer.h"
#include "timing/delay_budget.h"
#include "timing/sta.h"
#include "util/thread_pool.h"

namespace minergy {
namespace {

// The thread count is a process-global knob; every test leaves it at the
// default so ordering cannot couple tests.
class ParallelTest : public ::testing::Test {
 protected:
  void SetUp() override { obs::set_enabled(true); }
  void TearDown() override { util::set_global_threads(0); }
};

netlist::Netlist make_random(std::uint64_t seed = 11, int gates = 90,
                             int depth = 9) {
  netlist::GeneratorSpec spec;
  spec.num_inputs = 7;
  spec.num_outputs = 6;
  spec.num_dffs = 5;
  spec.num_gates = gates;
  spec.depth = depth;
  spec.seed = seed;
  return netlist::generate_random_logic(spec);
}

activity::ActivityProfile profile(double density = 0.25) {
  activity::ActivityProfile p;
  p.input_density = density;
  return p;
}

// --- ThreadPool unit semantics ---------------------------------------------

TEST_F(ParallelTest, ParallelForRunsEveryIndexExactlyOnce) {
  util::ThreadPool pool(4);
  EXPECT_EQ(pool.threads(), 4);
  const std::size_t n = 10000;
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h.store(0);
  pool.parallel_for(n, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST_F(ParallelTest, SingleLanePoolRunsInline) {
  util::ThreadPool pool(1);
  EXPECT_EQ(pool.threads(), 1);
  std::vector<int> order;
  pool.parallel_for(5, [&](std::size_t i) {
    order.push_back(static_cast<int>(i));  // safe: inline = this thread only
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  pool.parallel_for(0, [&](std::size_t) { FAIL() << "n=0 must not invoke"; });
}

TEST_F(ParallelTest, NestedParallelForRunsInlineWithoutDeadlock) {
  util::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(64);
  for (auto& h : hits) h.store(0);
  pool.parallel_for(8, [&](std::size_t outer) {
    // The nested call must not wait on pool capacity its own thread holds.
    pool.parallel_for(8, [&](std::size_t inner) {
      hits[outer * 8 + inner].fetch_add(1, std::memory_order_relaxed);
    });
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST_F(ParallelTest, LowestIndexExceptionWinsLikeASerialLoop) {
  util::ThreadPool pool(4);
  for (int round = 0; round < 8; ++round) {
    try {
      pool.parallel_for(256, [&](std::size_t i) {
        if (i == 17 || i == 200) {
          throw std::runtime_error("boom " + std::to_string(i));
        }
      });
      FAIL() << "expected a rethrow";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "boom 17");
    }
    // The pool survives a throwing job and keeps working.
    std::atomic<int> count{0};
    pool.parallel_for(32, [&](std::size_t) {
      count.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(count.load(), 32);
  }
}

TEST_F(ParallelTest, GlobalPoolHonorsRequestedThreadCount) {
  util::set_global_threads(3);
  EXPECT_EQ(util::global_threads(), 3);
  EXPECT_EQ(util::global_pool().threads(), 3);
  util::set_global_threads(1);
  EXPECT_EQ(util::global_pool().threads(), 1);
  util::set_global_threads(0);  // hardware concurrency
  EXPECT_GE(util::global_threads(), 1);
}

// --- bit-exactness oracles: threads=1 vs threads=N -------------------------

// Every oracle runs the same computation at 1, 2 and 8 threads and compares
// doubles with operator== — the contract is bit-identical, not "close".

TEST_F(ParallelTest, StaIsBitIdenticalAtAnyThreadCount) {
  const netlist::Netlist nl = make_random();
  const tech::Technology tech = tech::Technology::generic350();
  const tech::DeviceModel dev(tech);
  const interconnect::WireModel wires(tech, nl);
  const timing::DelayCalculator calc(nl, dev, wires);
  const std::vector<double> widths(nl.size(), 4.0);
  const std::vector<double> vts(nl.size(), 0.3);
  const double cycle = 4.0e-9;

  util::set_global_threads(1);
  const timing::TimingReport ref =
      timing::run_sta(calc, widths, 2.5, std::span<const double>(vts), cycle);
  for (const int threads : {2, 8}) {
    util::set_global_threads(threads);
    const timing::TimingReport r = timing::run_sta(
        calc, widths, 2.5, std::span<const double>(vts), cycle);
    EXPECT_EQ(r.critical_delay, ref.critical_delay) << threads;
    EXPECT_EQ(r.gate_delay, ref.gate_delay) << threads;
    EXPECT_EQ(r.arrival, ref.arrival) << threads;
    EXPECT_EQ(r.slack, ref.slack) << threads;
    EXPECT_EQ(r.critical_path, ref.critical_path) << threads;
  }
}

TEST_F(ParallelTest, SizerAndEnergyAreBitIdenticalAtAnyThreadCount) {
  const netlist::Netlist nl = make_random(23);
  const tech::Technology tech = tech::Technology::generic350();
  const opt::CircuitEvaluator eval(nl, tech, profile(),
                                   {.clock_frequency = 200e6});
  const timing::BudgetResult budgets =
      eval.budgeter().assign(0.95 * eval.cycle_time());
  const std::vector<double> vts(nl.size(), 0.25);

  util::set_global_threads(1);
  const opt::SizingResult ref_sz =
      opt::GateSizer(eval.delay_calculator()).size(budgets.t_max, 2.8, vts);
  opt::CircuitState state;
  state.vdd = 2.8;
  state.vts = vts;
  state.widths = ref_sz.widths;
  const power::EnergyBreakdown ref_e = eval.energy(state);

  for (const int threads : {2, 8}) {
    util::set_global_threads(threads);
    const opt::SizingResult sz =
        opt::GateSizer(eval.delay_calculator()).size(budgets.t_max, 2.8, vts);
    EXPECT_EQ(sz.widths, ref_sz.widths) << threads;
    EXPECT_EQ(sz.all_budgets_met, ref_sz.all_budgets_met) << threads;
    EXPECT_EQ(sz.gates_missed, ref_sz.gates_missed) << threads;
    const power::EnergyBreakdown e = eval.energy(state);
    EXPECT_EQ(e.dynamic_energy, ref_e.dynamic_energy) << threads;
    EXPECT_EQ(e.static_energy, ref_e.static_energy) << threads;
    EXPECT_EQ(e.short_circuit_energy, ref_e.short_circuit_energy) << threads;
  }
}

// The kernels are serial loops: at any lane count, STA, both width searches
// and the energy sum (short-circuit pass included) must leave the pool's
// dispatch counters untouched.
TEST_F(ParallelTest, EvaluationKernelsNeverTouchThePool) {
  const netlist::Netlist nl = make_random(29);
  const opt::CircuitEvaluator eval(
      nl, tech::Technology::generic350(), profile(),
      {.clock_frequency = 200e6, .include_short_circuit = true});
  const timing::BudgetResult budgets =
      eval.budgeter().assign(0.95 * eval.cycle_time());
  const std::vector<double> vts(nl.size(), 0.25);
  const opt::GateSizer sizer(eval.delay_calculator());

  util::set_global_threads(4);
  (void)util::global_pool();  // build the pool before taking the baseline
  obs::Counter& jobs = obs::counter("util.pool.jobs");
  obs::Counter& inline_jobs = obs::counter("util.pool.inline_jobs");
  const std::int64_t jobs0 = jobs.value();
  const std::int64_t inline0 = inline_jobs.value();

  const opt::SizingResult sized = sizer.size(budgets.t_max, 2.8, vts);
  const timing::TimingReport report =
      timing::run_sta(eval.delay_calculator(), sized.widths, 2.8,
                      std::span<const double>(vts), eval.cycle_time());
  (void)sizer.recover(sized.widths, 2.8, vts, eval.cycle_time(), report);
  opt::CircuitState state;
  state.vdd = 2.8;
  state.vts = vts;
  state.widths = sized.widths;
  EXPECT_GT(eval.energy(state).short_circuit_energy, 0.0);

  EXPECT_EQ(jobs.value(), jobs0);
  EXPECT_EQ(inline_jobs.value(), inline0);

  // The counters are live: a real dispatch does move them.
  util::global_pool().parallel_for(8, [](std::size_t) {});
  EXPECT_EQ(jobs.value(), jobs0 + 1);
}

void expect_same_result(const opt::OptimizationResult& a,
                        const opt::OptimizationResult& b,
                        const std::string& trace) {
  SCOPED_TRACE(trace);
  EXPECT_EQ(a.feasible, b.feasible);
  EXPECT_EQ(a.state.vdd, b.state.vdd);
  EXPECT_EQ(a.state.vts, b.state.vts);
  EXPECT_EQ(a.state.widths, b.state.widths);
  EXPECT_EQ(a.energy.dynamic_energy, b.energy.dynamic_energy);
  EXPECT_EQ(a.energy.static_energy, b.energy.static_energy);
  EXPECT_EQ(a.energy.short_circuit_energy, b.energy.short_circuit_energy);
  EXPECT_EQ(a.critical_delay, b.critical_delay);
}

TEST_F(ParallelTest, JointOptimizerIsBitIdenticalAtAnyThreadCount) {
  const netlist::Netlist nl = make_random(31, 70, 8);
  const opt::CircuitEvaluator eval(nl, tech::Technology::generic350(),
                                   profile(), {.clock_frequency = 150e6});
  opt::OptimizerOptions opts;
  opts.num_thresholds = 2;
  util::set_global_threads(1);
  const opt::OptimizationResult ref = opt::JointOptimizer(eval, opts).run();
  for (const int threads : {2, 8}) {
    util::set_global_threads(threads);
    const opt::OptimizationResult r = opt::JointOptimizer(eval, opts).run();
    expect_same_result(r, ref, "threads=" + std::to_string(threads));
  }
}

}  // namespace
}  // namespace minergy
