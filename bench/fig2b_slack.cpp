// Reproduces Figure 2(b): "Power Savings Considering Clock Skew" — the role
// of available cycle-time slack in the achievable savings.
//
// The Table-1 baseline stays pinned at the nominal cycle time while the
// joint optimizer is granted progressively relaxed constraints
// T_c' = slack * T_c. The paper's shape: savings grow with slack (extra
// timing headroom converts into deeper supply scaling).
//
// Flags: --circuit=<name> (default s298*), --fc=<Hz>, --csv
#include <cstdio>
#include <iostream>

#include "bench_suite/experiment.h"
#include "opt/slack_sweep.h"
#include "obs/session.h"
#include "util/cli.h"
#include "util/table.h"

using namespace minergy;

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  bench_suite::apply_engine_flags(cli);
  const obs::Session session(cli, "fig2b_slack");
  const std::string circuit = cli.get("circuit", std::string("s298*"));
  const double requested_fc = cli.get("fc", 300e6);

  const netlist::Netlist nl = bench_suite::make_circuit(circuit);
  bench_suite::ExperimentConfig cfg;
  cfg.clock_frequency = requested_fc;
  bool scaled = false;
  const double tc = bench_suite::choose_cycle_time(nl, cfg, &scaled);

  activity::ActivityProfile profile;
  profile.input_density = 0.5;

  std::printf("== Figure 2(b): power savings vs. cycle-time slack "
              "(%s, nominal Tc = %.3f ns%s) ==\n\n",
              circuit.c_str(), tc * 1e9, scaled ? ", scaled" : "");

  const opt::SlackSweep sweep(nl, cfg.tech, profile, 1.0 / tc, cfg.opts);
  const std::vector<double> slack = {1.0, 1.25, 1.5, 2.0, 2.5, 3.0};
  util::Table table({"Slack (Tc'/Tc)", "Joint Vdd(V)", "Joint Vts(mV)",
                     "Joint E(J)", "Baseline E(J)", "Savings"});
  for (const auto& p : sweep.sweep(slack)) {
    table.begin_row()
        .add(p.slack_factor, 2)
        .add(p.joint.vdd, 3)
        .add(p.joint.vts_primary * 1e3, 0)
        .add_sci(p.joint.energy.total())
        .add_sci(p.baseline_energy)
        .add(p.savings, 2);
  }
  std::cout << (cli.get("csv", false) ? table.to_csv() : table.to_text());
  std::printf("\nPaper shape: savings increase with available slack.\n");
  return 0;
}
