// Reproduces Table 1: "Performance of Benchmark Circuits".
//
// For every benchmark circuit and input-activity level, the conventional
// flow — threshold frozen at 700 mV, supply voltage and device widths
// optimized to minimize power under the cycle-time constraint — reports its
// static, dynamic and total energy per cycle and the critical delay. These
// rows are the reference the joint optimizer's savings (Table 2) are quoted
// against.
//
// Flags: --fc=<Hz> (default 300e6), --csv, --circuit=<name> (one circuit
// only; the obs smoke test runs c17 this way), --certify (independently
// re-verify every row with opt::Certifier; any uncertified row exits 1),
// plus the obs::Session flags (--trace=FILE, --metrics/--verbose,
// --perf-record).
#include <cstdio>
#include <iostream>

#include "bench_suite/experiment.h"
#include "obs/session.h"
#include "util/cli.h"
#include "util/strings.h"
#include "util/table.h"

using namespace minergy;

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const obs::Session session(cli, "table1_baseline");
  bench_suite::ExperimentConfig cfg;
  cfg.clock_frequency = cli.get("fc", 300e6);

  std::printf("== Table 1: baseline (fixed Vts = %.0f mV, f_c = %s) ==\n",
              cfg.tech.nominal_vts * 1e3,
              util::format_eng(cfg.clock_frequency, "Hz", 0).c_str());
  std::printf("   (circuits marked * are statistically matched ISCAS-89 "
              "surrogates; see DESIGN.md)\n\n");

  util::Table table({"Circuit", "Gates", "Depth", "Activity", "Vdd(V)",
                     "Static(J)", "Dynamic(J)", "Total(J)", "CritDelay(ns)",
                     "Tc(ns)"});
  const std::string only = cli.get("circuit", std::string());
  const bool certify = cli.get("certify", false);
  bool matched = only.empty();
  int uncertified = 0;
  for (const auto& spec : bench_suite::paper_circuits()) {
    if (!only.empty() && spec.name != only) continue;
    matched = true;
    for (const auto& e : bench_suite::run_circuit(spec, cfg)) {
      table.begin_row()
          .add(e.circuit + (e.tc_scaled ? " (Tc scaled)" : ""))
          .add(e.num_gates)
          .add(e.depth)
          .add(e.input_activity, 2)
          .add(e.baseline.vdd, 3)
          .add_sci(e.baseline.energy.static_energy)
          .add_sci(e.baseline.energy.dynamic_energy)
          .add_sci(e.baseline.energy.total())
          .add(e.baseline.critical_delay * 1e9, 3)
          .add(e.cycle_time * 1e9, 3);
      if (certify) {
        const opt::Certificate cert =
            bench_suite::certify_experiment(e, cfg, /*joint=*/false);
        if (!cert.certified) {
          ++uncertified;
          std::fprintf(stderr, "%s (a=%.2f): %s\n", e.circuit.c_str(),
                       e.input_activity, cert.summary().c_str());
        }
      }
    }
  }
  if (!matched) {
    std::fprintf(stderr, "error: --circuit=%s matches no paper circuit\n",
                 only.c_str());
    return 2;
  }
  std::cout << (cli.get("csv", false) ? table.to_csv() : table.to_text());
  if (certify) {
    std::printf("\ncertification: %s\n",
                uncertified == 0
                    ? "every row independently certified"
                    : (std::to_string(uncertified) + " row(s) UNCERTIFIED")
                          .c_str());
  }
  return uncertified == 0 ? 0 : 1;
}
