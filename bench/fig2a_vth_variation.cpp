// Reproduces Figure 2(a): "Power Savings Considering Vth Fluctuations".
//
// The joint optimizer reruns with worst-case threshold corners (delay at
// Vts*(1+x), leakage at Vts*(1-x)) for increasing tolerated variation x;
// the guaranteed worst-case power is compared against the nominal Table-1
// baseline. The paper's shape: savings shrink monotonically as the process
// tolerance band widens.
//
// Flags: --circuit=<name> (default s298*), --fc=<Hz>, --csv
#include <cstdio>
#include <iostream>

#include "bench_suite/experiment.h"
#include "opt/variation.h"
#include "obs/session.h"
#include "util/cli.h"
#include "util/table.h"

using namespace minergy;

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  bench_suite::apply_engine_flags(cli);
  const obs::Session session(cli, "fig2a_vth_variation");
  const std::string circuit = cli.get("circuit", std::string("s298*"));
  const double requested_fc = cli.get("fc", 300e6);

  const netlist::Netlist nl = bench_suite::make_circuit(circuit);
  bench_suite::ExperimentConfig cfg;
  cfg.clock_frequency = requested_fc;
  bool scaled = false;
  const double tc = bench_suite::choose_cycle_time(nl, cfg, &scaled);

  activity::ActivityProfile profile;
  profile.input_density = 0.5;

  std::printf("== Figure 2(a): power savings vs. Vts process variation "
              "(%s, Tc = %.3f ns%s) ==\n\n",
              circuit.c_str(), tc * 1e9, scaled ? ", scaled" : "");

  const opt::VariationAnalyzer analyzer(nl, cfg.tech, profile, 1.0 / tc,
                                        cfg.opts);
  const std::vector<double> tolerances = {0.0,  0.05, 0.10, 0.15,
                                          0.20, 0.25, 0.30};
  util::Table table({"Vts variation (+/-%)", "Joint Vdd(V)", "Joint Vts(mV)",
                     "Worst-case E(J)", "Baseline E(J)", "Savings"});
  for (const auto& p : analyzer.sweep(tolerances)) {
    table.begin_row()
        .add(p.tolerance * 100.0, 0)
        .add(p.joint.vdd, 3)
        .add(p.joint.vts_primary * 1e3, 0)
        .add_sci(p.joint.energy.total())
        .add_sci(p.baseline_energy)
        .add(p.savings, 2);
  }
  std::cout << (cli.get("csv", false) ? table.to_csv() : table.to_text());
  std::printf("\nPaper shape: savings decrease as the tolerated variation "
              "grows.\n");
  return 0;
}
