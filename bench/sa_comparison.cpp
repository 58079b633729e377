// Reproduces the Section-5 simulated-annealing comparison.
//
// "We ran a simulated annealing based algorithm on the benchmark circuits.
//  Though we expect simulated annealing to return a near-optimal solution,
//  in most cases, we find that it does not perform as well as the proposed
//  heuristic ... the size of the optimization problem is too large for
//  annealing to converge in a practical amount of time."
//
// Both optimizers get an equalized circuit-evaluation budget; the ratio
// column should come out >= 1 on most circuits (annealing worse).
//
// Flags: --fc=<Hz>, --moves-scale=<x> (SA budget multiplier, default 1)
#include <cstdio>
#include <iostream>

#include "bench_suite/experiment.h"
#include "opt/annealing_optimizer.h"
#include "opt/evaluator.h"
#include "opt/joint_optimizer.h"
#include "obs/session.h"
#include "util/cli.h"
#include "util/table.h"

using namespace minergy;

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const obs::Session session(cli, "sa_comparison");
  bench_suite::ExperimentConfig cfg;
  cfg.clock_frequency = cli.get("fc", 300e6);
  const double moves_scale = cli.get("moves-scale", 1.0);

  std::printf("== Simulated annealing vs. the proposed heuristic "
              "(equal evaluation budget x%.1f) ==\n\n",
              moves_scale);

  util::Table table({"Circuit", "Heuristic E(J)", "Heur t(s)", "SA E(J)",
                     "SA feasible", "SA t(s)", "SA/Heuristic"});
  int sa_wins = 0, heuristic_wins = 0;
  for (const auto& spec : bench_suite::paper_circuits()) {
    const netlist::Netlist nl = bench_suite::make_circuit(spec);
    bool scaled = false;
    const double tc = bench_suite::choose_cycle_time(nl, cfg, &scaled);
    activity::ActivityProfile profile;
    profile.input_density = 0.5;
    const opt::CircuitEvaluator eval(nl, cfg.tech, profile,
                                     {.clock_frequency = 1.0 / tc});

    const opt::OptimizationResult joint =
        opt::JointOptimizer(eval, cfg.opts).run();
    opt::AnnealingOptions sa_opts;
    sa_opts.max_moves = static_cast<int>(
        moves_scale * static_cast<double>(joint.circuit_evaluations));
    const opt::OptimizationResult sa =
        opt::AnnealingOptimizer(eval, sa_opts).run();

    const double ratio =
        sa.feasible ? sa.energy.total() / joint.energy.total() : -1.0;
    if (sa.feasible && ratio < 1.0) {
      ++sa_wins;
    } else {
      ++heuristic_wins;
    }
    table.begin_row()
        .add(spec.name)
        .add_sci(joint.energy.total())
        .add(joint.runtime_seconds, 3)
        .add_sci(sa.feasible ? sa.energy.total() : 0.0)
        .add(sa.feasible ? "yes" : "NO")
        .add(sa.runtime_seconds, 3)
        .add(ratio, 2);
  }
  std::cout << table.to_text();
  std::printf("\nHeuristic no worse on %d/%d circuits "
              "(paper: heuristic wins in most cases).\n",
              heuristic_wins, heuristic_wins + sa_wins);
  return 0;
}
