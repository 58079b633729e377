// Validates the paper's a-priori Rent's-rule net-length estimation against
// ground truth from an actual placement.
//
// Section 2: interconnect loads come from "a complete stochastic
// wire-length distribution model, derived from first principles through
// recursive application of Rent's rule". Here every benchmark circuit is
// actually *placed* (simulated-annealing HPWL minimization); we compare
//   (a) the per-net length statistics of the stochastic model vs placed
//       HPWL, and
//   (b) the joint optimizer's final operating point under both load models.
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench_suite/experiment.h"
#include "opt/evaluator.h"
#include "opt/joint_optimizer.h"
#include "place/placement.h"
#include "obs/session.h"
#include "util/cli.h"
#include "util/stats.h"
#include "util/table.h"

using namespace minergy;

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const obs::Session session(cli, "wire_model_validation");
  bench_suite::ExperimentConfig cfg;
  cfg.clock_frequency = cli.get("fc", 300e6);

  std::printf("== Wire-model validation: a-priori Rent's rule vs. actual "
              "placement ==\n\n");
  util::Table table({"Circuit", "Rent mean(um)", "placed mean(um)",
                     "Rent p90(um)", "placed p90(um)", "E(Rent)",
                     "E(placed)", "E ratio", "Vdd R/P"});

  // The smaller half of the suite keeps the placement runtime bounded.
  const std::vector<std::string> circuits = {"s27", "s208*", "s298*",
                                             "s344*"};
  for (const auto& name : circuits) {
    const netlist::Netlist nl = bench_suite::make_circuit(name);
    bool scaled = false;
    const double tc = bench_suite::choose_cycle_time(nl, cfg, &scaled);
    activity::ActivityProfile profile;
    profile.input_density = 0.3;

    const place::Placement placed =
        place::AnnealingPlacer({.seed = 101}).place(nl);
    const place::PlacedWireModel placed_wires(cfg.tech, placed);

    const opt::CircuitEvaluator rent_eval(nl, cfg.tech, profile,
                                          {.clock_frequency = 1.0 / tc});
    const opt::CircuitEvaluator placed_eval(nl, cfg.tech, profile,
                                            {.clock_frequency = 1.0 / tc},
                                            placed_wires);

    std::vector<double> rent_len, placed_len;
    for (netlist::GateId id : nl.combinational()) {
      rent_len.push_back(rent_eval.wires().routed_length(id) * 1e6);
      placed_len.push_back(placed_wires.routed_length(id) * 1e6);
    }
    auto mean = [](const std::vector<double>& v) {
      util::RunningStats s;
      for (double x : v) s.add(x);
      return s.mean();
    };

    const opt::OptimizationResult r_rent =
        opt::JointOptimizer(rent_eval, cfg.opts).run();
    const opt::OptimizationResult r_placed =
        opt::JointOptimizer(placed_eval, cfg.opts).run();

    char vdd_buf[32];
    std::snprintf(vdd_buf, sizeof vdd_buf, "%.2f/%.2f", r_rent.vdd,
                  r_placed.vdd);
    table.begin_row()
        .add(name)
        .add(mean(rent_len), 1)
        .add(mean(placed_len), 1)
        .add(util::quantile(rent_len, 0.9), 1)
        .add(util::quantile(placed_len, 0.9), 1)
        .add_sci(r_rent.energy.total())
        .add_sci(r_placed.energy.total())
        .add(r_rent.feasible && r_placed.feasible
                 ? r_rent.energy.total() / r_placed.energy.total()
                 : -1.0,
             2)
        .add(vdd_buf);
  }
  std::cout << table.to_text();
  std::printf(
      "\nThe a-priori model should track placed lengths within a small "
      "constant factor,\nand the optimizer's operating point (Vdd, energy) "
      "should be insensitive to the\nsubstitution — the paper's "
      "justification for optimizing before layout.\n");
  return 0;
}
