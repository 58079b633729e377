// google-benchmark micro-kernels: the cost of every stage of the flow, and
// the end-to-end runtime claim ("Computation time for these circuits range
// between 5s and 20s" on 1997 hardware; modern hardware should be well
// under a second per circuit).
//
// The 1600-gate rows of the STA, budgeting, sizing, recovery and energy
// benchmarks make the per-kernel table of DESIGN.md §7 ("Flat kernel
// inputs"), which gives the one command that regenerates it.
#include <benchmark/benchmark.h>

#include "activity/activity.h"
#include "bench_suite/iscas.h"
#include "interconnect/wire_model.h"
#include "netlist/generator.h"
#include "opt/baseline_optimizer.h"
#include "opt/evaluator.h"
#include "opt/joint_optimizer.h"
#include "opt/sizer.h"
#include "timing/delay_budget.h"
#include "timing/path_enum.h"
#include "timing/sta.h"

namespace {

using namespace minergy;

netlist::Netlist circuit_of_size(int gates) {
  netlist::GeneratorSpec spec;
  spec.num_inputs = 10;
  spec.num_gates = gates;
  spec.depth = std::max(6, gates / 16);
  spec.num_dffs = gates / 12;
  spec.seed = 4242;
  return netlist::generate_random_logic(spec);
}

void BM_ActivityEstimation(benchmark::State& state) {
  const netlist::Netlist nl = circuit_of_size(static_cast<int>(state.range(0)));
  activity::ActivityProfile profile;
  for (auto _ : state) {
    benchmark::DoNotOptimize(activity::estimate_activity(nl, profile));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(nl.num_combinational()));
}
BENCHMARK(BM_ActivityEstimation)->Arg(100)->Arg(400);

void BM_WireModelConstruction(benchmark::State& state) {
  const netlist::Netlist nl = circuit_of_size(static_cast<int>(state.range(0)));
  const tech::Technology tech = tech::Technology::generic350();
  for (auto _ : state) {
    benchmark::DoNotOptimize(interconnect::WireModel(tech, nl));
  }
}
BENCHMARK(BM_WireModelConstruction)->Arg(400);

void BM_StaticTimingAnalysis(benchmark::State& state) {
  const netlist::Netlist nl = circuit_of_size(static_cast<int>(state.range(0)));
  const tech::Technology tech = tech::Technology::generic350();
  const tech::DeviceModel dev(tech);
  const interconnect::WireModel wires(tech, nl);
  const timing::DelayCalculator calc(nl, dev, wires);
  const std::vector<double> w(nl.size(), 4.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(timing::run_sta(calc, w, 1.0, 0.2, 3.3e-9));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(nl.num_combinational()));
}
BENCHMARK(BM_StaticTimingAnalysis)->Arg(100)->Arg(400)->Arg(1600);

void BM_DelayBudgeting(benchmark::State& state) {
  const netlist::Netlist nl = circuit_of_size(static_cast<int>(state.range(0)));
  const timing::DelayBudgeter budgeter(nl);
  // The first call builds the budgeter's round plan; time the replays that
  // every later call (e.g. each cycle-time probe) makes.
  benchmark::DoNotOptimize(budgeter.assign(3.33e-9));
  for (auto _ : state) {
    benchmark::DoNotOptimize(budgeter.assign(3.33e-9));
  }
}
BENCHMARK(BM_DelayBudgeting)->Arg(100)->Arg(400)->Arg(1600);

void BM_TopKPaths(benchmark::State& state) {
  const netlist::Netlist nl = circuit_of_size(400);
  const timing::PathAnalyzer pa(nl);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pa.top_k(static_cast<std::size_t>(state.range(0))));
  }
}
BENCHMARK(BM_TopKPaths)->Arg(10)->Arg(100);

void BM_GateSizingPass(benchmark::State& state) {
  const netlist::Netlist nl = circuit_of_size(static_cast<int>(state.range(0)));
  const tech::Technology tech = tech::Technology::generic350();
  const tech::DeviceModel dev(tech);
  const interconnect::WireModel wires(tech, nl);
  const timing::DelayCalculator calc(nl, dev, wires);
  const timing::BudgetResult budgets =
      timing::DelayBudgeter(nl).assign(3.33e-9);
  const opt::GateSizer sizer(calc);
  const std::vector<double> vts(nl.size(), 0.15);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sizer.size(budgets.t_max, 1.0, vts));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(nl.num_combinational()));
}
BENCHMARK(BM_GateSizingPass)->Arg(100)->Arg(400)->Arg(1600);

void BM_WidthRecoveryPass(benchmark::State& state) {
  const netlist::Netlist nl = circuit_of_size(static_cast<int>(state.range(0)));
  const tech::Technology tech = tech::Technology::generic350();
  const tech::DeviceModel dev(tech);
  const interconnect::WireModel wires(tech, nl);
  const timing::DelayCalculator calc(nl, dev, wires);
  const timing::BudgetResult budgets =
      timing::DelayBudgeter(nl).assign(3.33e-9);
  const opt::GateSizer sizer(calc);
  const std::vector<double> vts(nl.size(), 0.15);
  const std::vector<double> widths = sizer.size(budgets.t_max, 1.0, vts).widths;
  const double limit = 0.95 * 3.33e-9;
  const timing::TimingReport report = timing::run_sta(
      calc, widths, 1.0, std::span<const double>(vts), limit);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sizer.recover(widths, 1.0, vts, limit, report));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(nl.num_combinational()));
}
BENCHMARK(BM_WidthRecoveryPass)->Arg(400)->Arg(1600);

void BM_EnergySum(benchmark::State& state) {
  const netlist::Netlist nl = circuit_of_size(static_cast<int>(state.range(0)));
  const tech::Technology tech = tech::Technology::generic350();
  activity::ActivityProfile profile;
  profile.input_density = 0.3;
  const opt::CircuitEvaluator eval(nl, tech, profile,
                                   {.clock_frequency = 300e6});
  const std::vector<double> w(nl.size(), 4.0);
  const std::vector<double> vts(nl.size(), 0.15);
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval.energy_model().total_energy(w, 1.0, vts));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(nl.num_combinational()));
}
BENCHMARK(BM_EnergySum)->Arg(400)->Arg(1600);

void BM_JointOptimizerEndToEnd(benchmark::State& state) {
  const netlist::Netlist nl = circuit_of_size(static_cast<int>(state.range(0)));
  const tech::Technology tech = tech::Technology::generic350();
  activity::ActivityProfile profile;
  profile.input_density = 0.5;
  const opt::CircuitEvaluator eval(nl, tech, profile,
                                   {.clock_frequency = 200e6});
  for (auto _ : state) {
    benchmark::DoNotOptimize(opt::JointOptimizer(eval).run());
  }
}
BENCHMARK(BM_JointOptimizerEndToEnd)->Arg(100)->Arg(300)
    ->Unit(benchmark::kMillisecond);

void BM_BaselineOptimizerEndToEnd(benchmark::State& state) {
  const netlist::Netlist nl = circuit_of_size(static_cast<int>(state.range(0)));
  const tech::Technology tech = tech::Technology::generic350();
  activity::ActivityProfile profile;
  const opt::CircuitEvaluator eval(nl, tech, profile,
                                   {.clock_frequency = 200e6});
  for (auto _ : state) {
    benchmark::DoNotOptimize(opt::BaselineOptimizer(eval).run());
  }
}
BENCHMARK(BM_BaselineOptimizerEndToEnd)->Arg(300)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
