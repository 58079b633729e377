// minergy_report: run one optimizer on one circuit and emit run telemetry.
//
//   $ minergy_report --builtin=c17 --report=run.json
//   $ minergy_report --builtin=s298* --optimizer=robust --trace=trace.json
//   $ minergy_report circuit.bench --optimizer=baseline --metrics
//
// The report JSON (schema minergy.run_report.v1) carries the full search
// trajectory, per-tier provenance, and the counter deltas of the run; the
// trace JSON loads directly in Perfetto / chrome://tracing. See
// docs/OBSERVABILITY.md for both schemas.
//
// Flags:
//   --builtin=NAME        paper circuit (c17, s298*, ... ; default c17)
//   --optimizer=KIND      joint | baseline | robust | anneal  (default joint)
//   --fc=HZ               target clock (default 300e6; auto-scaled when the
//                         baseline cannot meet it, as in the Table-1 runs)
//   --activity=D          primary-input transition density (default 0.3)
//   --thresholds=N        n_v threshold groups for the joint flow
//   --max-evals=N         watchdog: circuit-evaluation budget
//   --max-seconds=S       watchdog: wall-clock budget
//   --seed=S              annealing seed (default 1234)
//   --checkpoint=FILE     crash-safe snapshots: the joint sweep's latest
//                         completed step at most once a second and when a
//                         --max-* budget stops it; the anneal every 500
//                         moves and at each pass
//   --resume=FILE         restore a snapshot and continue deterministically
//   --certify             independently re-verify the result (Certifier);
//                         an uncertified result exits 1
//   --report=FILE         write the RunReport JSON
//   --trace=FILE, --metrics, --verbose, --perf-record[=F]   (obs::Session)
//
// Exit codes: 0 feasible (and certified when asked), 1 infeasible or
// uncertified or an execution error, 2 bad arguments / unreadable input.
#include <cstdio>
#include <fstream>
#include <string>

#include "activity/activity.h"
#include "bench_suite/experiment.h"
#include "bench_suite/iscas.h"
#include "io/durable.h"
#include "io/envelope.h"
#include "netlist/bench_io.h"
#include "netlist/verilog_io.h"
#include "obs/metrics.h"
#include "obs/session.h"
#include "opt/annealing_optimizer.h"
#include "opt/baseline_optimizer.h"
#include "opt/certifier.h"
#include "opt/evaluator.h"
#include "opt/joint_optimizer.h"
#include "opt/robust_optimizer.h"
#include "util/cli.h"
#include "util/strings.h"

using namespace minergy;

namespace {

util::WatchdogBudget budget_from(const util::Cli& cli) {
  util::WatchdogBudget b;
  b.max_evaluations = cli.get("max-evals", 0);
  b.wall_seconds = cli.get("max-seconds", b.wall_seconds);
  return b;
}

}  // namespace

int main(int argc, char** argv) try {
  const util::Cli cli(argc, argv);
  obs::Session session(cli, "minergy_report");
  const std::string report_path = cli.get("report", std::string());
  // Trajectories ride in the report regardless, but counters need the
  // global enable; a report request implies the caller wants them too.
  if (!report_path.empty()) obs::set_enabled(true);

  netlist::Netlist nl;
  if (!cli.positional().empty()) {
    const std::string& path = cli.positional()[0];
    if (!std::ifstream(path)) {
      // Unreadable path = caller mistake (exit 2); a file that opens but
      // fails to parse is a validation failure (ParseError, exit 1).
      std::fprintf(stderr, "error: cannot open %s\n", path.c_str());
      return 2;
    }
    nl = util::to_lower(path).ends_with(".v")
             ? netlist::parse_verilog_file(path)
             : netlist::parse_bench_file(path);
  } else {
    nl = bench_suite::make_circuit(cli.get("builtin", std::string("c17")));
  }

  bench_suite::ExperimentConfig cfg;
  cfg.clock_frequency = cli.get("fc", 300e6);
  bool tc_scaled = false;
  const double tc = bench_suite::choose_cycle_time(nl, cfg, &tc_scaled);

  opt::EvalSettings settings;
  settings.clock_frequency = 1.0 / tc;
  activity::ActivityProfile profile;
  profile.input_density = cli.get("activity", 0.3);
  const opt::CircuitEvaluator eval(nl, cfg.tech, profile, settings);

  opt::OptimizerOptions opts;
  opts.num_thresholds = cli.get("thresholds", 1);
  opts.budget = budget_from(cli);
  opts.checkpoint_path = cli.get("checkpoint", std::string());
  opts.resume_path = cli.get("resume", std::string());

  const std::string kind = cli.get("optimizer", std::string("joint"));
  opt::OptimizationResult result;
  double skew_b = opts.skew_b;
  if (kind == "joint") {
    result = opt::JointOptimizer(eval, opts).run();
  } else if (kind == "baseline") {
    result = opt::BaselineOptimizer(eval, opts).run();
  } else if (kind == "robust") {
    opt::RobustOptions ropts;
    ropts.joint = opts;
    ropts.baseline = opts;
    result = opt::RobustOptimizer(eval, ropts).run();
  } else if (kind == "anneal") {
    opt::AnnealingOptions aopts;
    aopts.budget = opts.budget;
    aopts.seed = static_cast<std::uint64_t>(cli.get("seed", 1234.0));
    aopts.checkpoint_path = opts.checkpoint_path;
    aopts.resume_path = opts.resume_path;
    skew_b = aopts.skew_b;
    // Warm-start from the baseline solution (the annealer's recommended
    // seeding): a cold start at an arbitrary mid-range corner can sit in a
    // non-physical region where the finite-checks reject the first STA.
    const opt::OptimizationResult warm =
        opt::BaselineOptimizer(eval, opts).run();
    result = opt::AnnealingOptimizer(eval, aopts)
                 .run(warm.feasible ? warm.state : opt::CircuitState{});
  } else {
    std::fprintf(stderr,
                 "error: unknown --optimizer=%s "
                 "(joint | baseline | robust | anneal)\n",
                 kind.c_str());
    return 2;
  }

  std::printf(
      "%s  %s  %s%s\n  Vdd %.3f V, Vts %.3f V, E %.4g J/cycle "
      "(static %.3g, dynamic %.3g), crit %.3f ns, Tc %.3f ns%s\n  %d circuit "
      "evaluations in %.2f s%s\n",
      nl.name().c_str(), kind.c_str(),
      result.feasible ? "feasible" : "INFEASIBLE",
      result.truncated ? " (truncated)" : "", result.vdd, result.vts_primary,
      result.energy.total(), result.energy.static_energy,
      result.energy.dynamic_energy, result.critical_delay * 1e9, tc * 1e9,
      tc_scaled ? " (Tc scaled)" : "", result.circuit_evaluations,
      result.runtime_seconds,
      result.report.trajectory.empty()
          ? ""
          : (", " + std::to_string(result.report.trajectory.size()) +
             " trajectory points")
                .c_str());
  for (const std::string& note : result.tier_notes) {
    std::printf("  tier note: %s\n", note.c_str());
  }

  bool certified = true;
  if (cli.has("certify")) {
    opt::CertifyOptions copts;
    copts.skew_b = skew_b;
    const opt::Certificate cert = opt::Certifier(eval, copts).certify(result);
    certified = cert.certified;
    std::printf("  certificate: %s\n", cert.summary().c_str());
  }

  if (!report_path.empty()) {
    try {
      io::write_artifact(report_path, "minergy.run_report.v1",
                         result.report.to_json() + "\n");
    } catch (const io::IoError& e) {
      std::fprintf(stderr, "error: cannot write %s: %s\n", report_path.c_str(),
                   e.what());
      return 2;
    }
    std::fprintf(stderr, "run report written to %s\n", report_path.c_str());
  }
  return result.feasible && certified ? 0 : 1;
} catch (const std::invalid_argument& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
