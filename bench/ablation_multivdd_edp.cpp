// Ablation: the paper's "flexibility" extensions.
//
//  1. Dual supply voltages (Section 4: "we retain the flexibility to use
//     more than one threshold or power supply voltage if desired"):
//     clustered voltage scaling on top of the single-supply optimum.
//  2. Energy-delay product as the objective (Section 1, the Burr/Shott
//     alternative when no hard clock exists): where the EDP optimum sits
//     relative to the paper's fixed-f_c optimum.
#include <cstdio>
#include <iostream>

#include "bench_suite/experiment.h"
#include "opt/edp.h"
#include "opt/evaluator.h"
#include "opt/multi_vdd.h"
#include "obs/session.h"
#include "util/cli.h"
#include "util/table.h"

using namespace minergy;

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const obs::Session session(cli, "ablation_multivdd_edp");
  bench_suite::ExperimentConfig cfg;
  cfg.clock_frequency = cli.get("fc", 300e6);

  std::printf("== Dual-Vdd (clustered voltage scaling) on the joint optimum "
              "==\n\n");
  util::Table dual({"Circuit", "Vdd high", "Vdd low", "low-domain gates",
                    "E single", "E dual", "extra savings"});
  for (const auto& spec : bench_suite::paper_circuits()) {
    const netlist::Netlist nl = bench_suite::make_circuit(spec);
    bool scaled = false;
    const double tc = bench_suite::choose_cycle_time(nl, cfg, &scaled);
    activity::ActivityProfile profile;
    profile.input_density = 0.5;
    const opt::CircuitEvaluator eval(nl, cfg.tech, profile,
                                     {.clock_frequency = 1.0 / tc});
    opt::MultiVddOptions opts;
    opts.base = cfg.opts;
    const opt::MultiVddResult r = opt::MultiVddOptimizer(eval, opts).run();
    dual.begin_row()
        .add(spec.name)
        .add(r.vdd_high, 3)
        .add(r.improved ? r.vdd_low : r.vdd_high, 3)
        .add(r.low_count)
        .add_sci(r.single.energy.total())
        .add_sci(r.energy.total())
        .add(r.savings_vs_single(), 3);
  }
  std::cout << dual.to_text();

  std::printf("\n== Energy-delay-product objective (one circuit sweep) "
              "==\n\n");
  const std::string circuit = cli.get("circuit", std::string("s298*"));
  const netlist::Netlist nl = bench_suite::make_circuit(circuit);
  activity::ActivityProfile profile;
  profile.input_density = 0.5;
  opt::EdpOptions eopts;
  eopts.base = cfg.opts;
  const opt::EdpResult r =
      opt::minimize_energy_delay_product(nl, cfg.tech, profile, eopts);
  util::Table sweep({"Tc (ns)", "E (J)", "crit delay (ns)", "EDP (J*s)"});
  for (const auto& p : r.sweep) {
    if (!p.feasible) {
      sweep.begin_row().add(p.cycle_time * 1e9, 3).add("infeasible").add("-")
          .add("-");
      continue;
    }
    sweep.begin_row()
        .add(p.cycle_time * 1e9, 3)
        .add_sci(p.energy)
        .add(p.critical_delay * 1e9, 3)
        .add_sci(p.edp);
  }
  std::cout << sweep.to_text();
  std::printf("\n%s EDP optimum: Tc = %.3f ns, Vdd = %.3f V, Vts = %.0f mV, "
              "EDP = %.3e J*s\n(the interior minimum: pushing slower "
              "keeps cutting energy but leakage-per-cycle\nand delay grow "
              "faster).\n",
              circuit.c_str(), r.cycle_time * 1e9, r.best.vdd,
              r.best.vts_primary * 1e3, r.edp);
  return 0;
}
