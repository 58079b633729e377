// Reproduces Table 2: "Optimization Results for Heuristic".
//
// The joint (Vdd, Vts, widths) heuristic of Procedures 1+2, run against the
// same cycle-time constraint as the Table-1 baseline. The paper's claims
// checked here:
//   * total energy drops by a factor > 10 (typically ~25) vs Table 1,
//   * static and dynamic components are comparable at the optimum,
//   * chosen Vts ~ 120-200 mV, Vdd ~ 0.6-1.2 V,
//   * savings increase with input activity,
//   * runtimes of seconds per circuit.
//
// Flags: --fc=<Hz> (default 300e6), --csv, --circuit=<name>, --certify
// (independently re-verify every joint row with opt::Certifier; any
// uncertified row exits 1), plus the obs::Session flags (--trace=FILE,
// --metrics/--verbose, --perf-record).
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
  bench_suite::apply_engine_flags(cli);
  const obs::Session session(cli, "table2_heuristic");
  bench_suite::ExperimentConfig cfg;
  cfg.clock_frequency = cli.get("fc", 300e6);

  std::printf("== Table 2: joint Vdd/Vts/width heuristic (f_c = %s) ==\n\n",
              util::format_eng(cfg.clock_frequency, "Hz", 0).c_str());

  util::Table table({"Circuit", "Activity", "Vdd(V)", "Vts(mV)", "Static(J)",
                     "Dynamic(J)", "Total(J)", "CritDelay(ns)", "Savings",
                     "Runtime(s)"});
  double min_savings = 1e30, max_savings = 0.0;
  const std::string only = cli.get("circuit", std::string());
  const bool certify = cli.get("certify", false);
  bool matched = only.empty();
  int uncertified = 0;
  for (const auto& spec : bench_suite::paper_circuits()) {
    if (!only.empty() && spec.name != only) continue;
    matched = true;
    for (const auto& e : bench_suite::run_circuit(spec, cfg)) {
      if (certify) {
        const opt::Certificate cert =
            bench_suite::certify_experiment(e, cfg, /*joint=*/true);
        if (!cert.certified) {
          ++uncertified;
          std::fprintf(stderr, "%s (a=%.2f): %s\n", e.circuit.c_str(),
                       e.input_activity, cert.summary().c_str());
        }
      }
      table.begin_row()
          .add(e.circuit)
          .add(e.input_activity, 2)
          .add(e.joint.vdd, 3)
          .add(e.joint.vts_primary * 1e3, 0)
          .add_sci(e.joint.energy.static_energy)
          .add_sci(e.joint.energy.dynamic_energy)
          .add_sci(e.joint.energy.total())
          .add(e.joint.critical_delay * 1e9, 3)
          .add(e.savings, 2)
          .add(e.joint.runtime_seconds, 3);
      if (e.savings > 0.0) {
        min_savings = std::min(min_savings, e.savings);
        max_savings = std::max(max_savings, e.savings);
      }
    }
  }
  if (!matched) {
    std::fprintf(stderr, "error: --circuit=%s matches no paper circuit\n",
                 only.c_str());
    return 2;
  }
  std::cout << (cli.get("csv", false) ? table.to_csv() : table.to_text());
  std::printf("\nSavings over the Table-1 baseline: %.1fx .. %.1fx "
              "(paper: >10x, typically ~25x)\n",
              min_savings, max_savings);
  if (certify) {
    std::printf("certification: %s\n",
                uncertified == 0
                    ? "every row independently certified"
                    : (std::to_string(uncertified) + " row(s) UNCERTIFIED")
                          .c_str());
  }
  return uncertified == 0 ? 0 : 1;
}
