// Ablation: number of distinct threshold voltages n_v (Section 2).
//
// "The number n_v >= 1 of distinct threshold voltages that are allowed by
//  the tolerable technology complexity is also specified. ... Increasing
//  the number of distinct threshold voltages incurs proportional escalation
//  of processing or design complexity."
//
// This bench quantifies what each extra threshold buys: total energy for
// n_v in {1, 2, 3} on every benchmark circuit.
#include <cstdio>
#include <iostream>

#include "bench_suite/experiment.h"
#include "opt/evaluator.h"
#include "opt/joint_optimizer.h"
#include "obs/session.h"
#include "util/cli.h"
#include "util/table.h"

using namespace minergy;

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  bench_suite::apply_engine_flags(cli);
  const obs::Session session(cli, "ablation_multivth");
  bench_suite::ExperimentConfig cfg;
  cfg.clock_frequency = cli.get("fc", 300e6);

  std::printf("== Ablation: multiple threshold voltages (n_v = 1, 2, 3) "
              "==\n\n");
  util::Table table({"Circuit", "E(nv=1)", "E(nv=2)", "E(nv=3)",
                     "gain nv=2", "gain nv=3", "Vts set (mV, nv=3)"});
  for (const auto& spec : bench_suite::paper_circuits()) {
    const netlist::Netlist nl = bench_suite::make_circuit(spec);
    bool scaled = false;
    const double tc = bench_suite::choose_cycle_time(nl, cfg, &scaled);
    activity::ActivityProfile profile;
    profile.input_density = 0.5;
    const opt::CircuitEvaluator eval(nl, cfg.tech, profile,
                                     {.clock_frequency = 1.0 / tc});
    double energy[3] = {0, 0, 0};
    std::string vts_set;
    for (int nv = 1; nv <= 3; ++nv) {
      opt::OptimizerOptions opts = cfg.opts;
      opts.num_thresholds = nv;
      const opt::OptimizationResult r = opt::JointOptimizer(eval, opts).run();
      energy[nv - 1] = r.feasible ? r.energy.total() : -1.0;
      if (nv == 3) {
        for (double v : r.vts_groups) {
          if (!vts_set.empty()) vts_set += "/";
          char buf[16];
          std::snprintf(buf, sizeof buf, "%.0f", v * 1e3);
          vts_set += buf;
        }
      }
    }
    table.begin_row()
        .add(spec.name)
        .add_sci(energy[0])
        .add_sci(energy[1])
        .add_sci(energy[2])
        .add(energy[0] / energy[1], 3)
        .add(energy[0] / energy[2], 3)
        .add(vts_set);
  }
  std::cout << table.to_text();
  std::printf("\ngain = E(nv=1)/E(nv=k); values >= 1.0 show what the added "
              "process complexity buys.\n");
  return 0;
}
