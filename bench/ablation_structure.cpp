// Ablation: netlist structure vs. optimization outcome.
//
// The delay model charges an n-input gate a series-stack factor of n
// (Appendix A.2) and the budgeter weights gates by fanout; both suggest
// structural rewrites could help:
//   * decompose_to_two_input — removes stack penalties, adds logic depth,
//   * buffer_high_fanout     — caps net loads, adds buffer energy.
// This bench optimizes each variant of every benchmark circuit under the
// identical cycle-time constraint.
#include <cstdio>
#include <iostream>

#include "bench_suite/experiment.h"
#include "netlist/stats.h"
#include "netlist/transform.h"
#include "opt/evaluator.h"
#include "opt/joint_optimizer.h"
#include "obs/session.h"
#include "util/cli.h"
#include "util/table.h"

using namespace minergy;

namespace {

double optimize(const netlist::Netlist& nl,
                const bench_suite::ExperimentConfig& cfg, double tc,
                double* vdd) {
  activity::ActivityProfile profile;
  profile.input_density = 0.5;
  const opt::CircuitEvaluator eval(nl, cfg.tech, profile,
                                   {.clock_frequency = 1.0 / tc});
  const opt::OptimizationResult r = opt::JointOptimizer(eval, cfg.opts).run();
  if (vdd) *vdd = r.vdd;
  return r.feasible ? r.energy.total() : -1.0;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  bench_suite::apply_engine_flags(cli);
  const obs::Session session(cli, "ablation_structure");
  bench_suite::ExperimentConfig cfg;
  cfg.clock_frequency = cli.get("fc", 300e6);

  std::printf("== Ablation: 2-input decomposition and fanout buffering "
              "==\n\n");
  util::Table table({"Circuit", "gates", "E original", "gates 2-in",
                     "E 2-input", "2in/orig", "gates buf", "E buffered",
                     "buf/orig"});
  for (const auto& spec : bench_suite::paper_circuits()) {
    const netlist::Netlist nl = bench_suite::make_circuit(spec);
    bool scaled = false;
    const double tc = bench_suite::choose_cycle_time(nl, cfg, &scaled);

    const netlist::Netlist two = netlist::decompose_to_two_input(nl);
    const netlist::Netlist buffered = netlist::buffer_high_fanout(nl, 4);

    const double e0 = optimize(nl, cfg, tc, nullptr);
    const double e2 = optimize(two, cfg, tc, nullptr);
    const double eb = optimize(buffered, cfg, tc, nullptr);
    table.begin_row()
        .add(spec.name)
        .add(nl.num_combinational())
        .add_sci(e0)
        .add(two.num_combinational())
        .add_sci(e2)
        .add(e2 > 0 && e0 > 0 ? e2 / e0 : -1.0, 3)
        .add(buffered.num_combinational())
        .add_sci(eb)
        .add(eb > 0 && e0 > 0 ? eb / e0 : -1.0, 3);
  }
  std::cout << table.to_text();
  std::printf(
      "\nRatios < 1 mean the rewrite saves energy at equal cycle time.\n"
      "Decomposition trades the stack-factor drive penalty for extra gates "
      "and depth;\nbuffering trades load isolation for added switching "
      "energy.\n");
  return 0;
}
