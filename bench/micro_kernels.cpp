// google-benchmark micro-kernels: the cost of every stage of the flow, and
// the end-to-end runtime claim ("Computation time for these circuits range
// between 5s and 20s" on 1997 hardware; modern hardware should be well
// under a second per circuit).
//
// The 1600-gate rows of the STA, budgeting, sizing, recovery and energy
// benchmarks make the per-kernel table of DESIGN.md §7 ("Flat kernel
// inputs"), which gives the one command that regenerates it; the anneal
// move rows make its "Incremental anneal moves" table, and the probe step
// rows its "Load terms shared by sizing and timing" table.
#include <benchmark/benchmark.h>

#include "activity/activity.h"
#include "bench_suite/iscas.h"
#include "interconnect/wire_model.h"
#include "netlist/generator.h"
#include "opt/baseline_optimizer.h"
#include "opt/evaluator.h"
#include "opt/joint_optimizer.h"
#include "opt/move_evaluator.h"
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

// One probe step of Procedure 2 (CircuitEvaluator::size_to_budgets with
// one recovery pass): size, STA, recover, STA. The load-term form checks
// each pass with run_sta over the terms its sizing pass returned and fills
// slack only for the recovery that reads it; the width-reading form re-sums
// every gate's fanout load in each STA and always fills slack. Same widths
// and reports either way.
struct ProbeStepRig {
  explicit ProbeStepRig(int gates)
      : nl(circuit_of_size(gates)),
        tech(tech::Technology::generic350()),
        dev(tech),
        wires(tech, nl),
        calc(nl, dev, wires),
        budgets(timing::DelayBudgeter(nl).assign(3.33e-9)),
        vts(nl.size(), 0.15) {}

  const netlist::Netlist nl;
  const tech::Technology tech;
  const tech::DeviceModel dev;
  const interconnect::WireModel wires;
  const timing::DelayCalculator calc;
  const timing::BudgetResult budgets;
  const std::vector<double> vts;
  const double limit = 0.95 * 3.33e-9;
};

void BM_ProbeStepLoadTermSta(benchmark::State& state) {
  const ProbeStepRig rig(static_cast<int>(state.range(0)));
  const opt::GateSizer sizer(rig.calc);
  for (auto _ : state) {
    const opt::SizingResult sized = sizer.size(rig.budgets.t_max, 1.0, rig.vts);
    const timing::TimingReport report =
        timing::run_sta(rig.nl, sized.terms, rig.limit, /*with_slack=*/true);
    const opt::SizingResult rec =
        sizer.recover(sized.widths, 1.0, rig.vts, rig.limit, report);
    benchmark::DoNotOptimize(
        timing::run_sta(rig.nl, rec.terms, rig.limit, /*with_slack=*/false));
  }
}
BENCHMARK(BM_ProbeStepLoadTermSta)->Arg(1600);

void BM_ProbeStepWidthSta(benchmark::State& state) {
  const ProbeStepRig rig(static_cast<int>(state.range(0)));
  const opt::GateSizer sizer(rig.calc);
  for (auto _ : state) {
    const opt::SizingResult sized = sizer.size(rig.budgets.t_max, 1.0, rig.vts);
    const timing::TimingReport report = timing::run_sta(
        rig.calc, sized.widths, 1.0, std::span<const double>(rig.vts),
        rig.limit);
    const opt::SizingResult rec =
        sizer.recover(sized.widths, 1.0, rig.vts, rig.limit, report);
    benchmark::DoNotOptimize(timing::run_sta(rig.calc, rec.widths, 1.0,
                                             std::span<const double>(rig.vts),
                                             rig.limit));
  }
}
BENCHMARK(BM_ProbeStepWidthSta)->Arg(1600);

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

// One annealing move from the annealer's starting state: a width move
// evaluated in full (copy the state, critical_delay, energy) and by
// opt::MoveEvaluator, which re-times only what the move reaches, and a
// supply move (one forward pass). Moves are rejected, so each starts from
// the same state; the moved gate strides through the circuit.
struct AnnealMoveRig {
  explicit AnnealMoveRig(int gates)
      : nl(circuit_of_size(gates)),
        tech(tech::Technology::generic350()),
        eval(nl, tech, profile(), {.clock_frequency = 300e6}),
        start(opt::CircuitState::uniform(
            nl, tech.vdd_max, 0.5 * (tech.vts_min + tech.vts_max), 4.0)) {}

  static activity::ActivityProfile profile() {
    activity::ActivityProfile p;
    p.input_density = 0.3;
    return p;
  }
  netlist::GateId gate(std::size_t i) const {
    const auto& logic = nl.combinational();
    return logic[(i * 7919) % logic.size()];
  }

  const netlist::Netlist nl;
  const tech::Technology tech;
  const opt::CircuitEvaluator eval;
  const opt::CircuitState start;
};

void BM_AnnealWidthMoveFull(benchmark::State& state) {
  const AnnealMoveRig rig(static_cast<int>(state.range(0)));
  std::size_t i = 0;
  for (auto _ : state) {
    opt::CircuitState cand = rig.start;
    cand.widths[rig.gate(i++)] *= 1.25;
    benchmark::DoNotOptimize(rig.eval.critical_delay(cand));
    benchmark::DoNotOptimize(rig.eval.energy(cand));
  }
}
BENCHMARK(BM_AnnealWidthMoveFull)->Arg(287)->Arg(1600);

void BM_AnnealWidthMove(benchmark::State& state) {
  const AnnealMoveRig rig(static_cast<int>(state.range(0)));
  opt::MoveEvaluator moves(rig.eval);
  moves.reset(rig.start);
  std::size_t i = 0;
  for (auto _ : state) {
    const netlist::GateId id = rig.gate(i++);
    benchmark::DoNotOptimize(
        moves.propose_width(id, rig.start.widths[id] * 1.25));
    moves.reject();
  }
}
BENCHMARK(BM_AnnealWidthMove)->Arg(287)->Arg(1600);

void BM_AnnealVddMove(benchmark::State& state) {
  const AnnealMoveRig rig(static_cast<int>(state.range(0)));
  opt::MoveEvaluator moves(rig.eval);
  moves.reset(rig.start);
  for (auto _ : state) {
    benchmark::DoNotOptimize(moves.propose_vdd(0.9 * rig.start.vdd));
    moves.reject();
  }
}
BENCHMARK(BM_AnnealVddMove)->Arg(287)->Arg(1600);

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
