#include "serve/worker.h"

#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "activity/activity.h"
#include "bench_suite/experiment.h"
#include "bench_suite/iscas.h"
#include "obs/metrics.h"
#include "opt/annealing_optimizer.h"
#include "opt/baseline_optimizer.h"
#include "opt/certifier.h"
#include "opt/evaluator.h"
#include "opt/joint_optimizer.h"
#include "opt/robust_optimizer.h"
#include "io/checkpoint.h"
#include "io/envelope.h"
#include "serve/inject.h"
#include "serve/lease.h"
#include "util/check.h"
#include "util/clock.h"
#include "util/guard.h"
#include "util/json.h"

namespace minergy::serve {

namespace {

// Typed failure envelope: the job completed in the sense that its failure
// is a *verdict* (do not retry), not a supervision event.
void write_error_envelope(const Job& job, const std::string& result_path,
                          const std::string& type,
                          const std::string& detail) {
  util::JsonWriter w(2);
  w.begin_object();
  w.kv("schema", kJobResultSchema);
  w.kv("id", job.id);
  w.kv("ok", false);
  w.kv("error_type", type);
  w.kv("detail", detail);
  w.end_object();
  io::write_artifact(result_path, kJobResultSchema, w.str() + "\n");
}

}  // namespace

int run_worker_mode(const util::Cli& cli, const SpoolQueue& queue) {
  const std::string id = cli.get("job-id", std::string());
  if (id.empty()) {
    std::fprintf(stderr, "worker: --job-id is required\n");
    return 2;
  }
  const std::string path = queue.job_path("running", id);
  Job job;
  std::uint64_t seed = 0;
  try {
    job = Job::from_json(io::read_artifact(path, kJobSchema), path);
    seed = cli.has("attempt-seed")
               ? parse_seed(cli.get("attempt-seed", std::string()),
                            "--attempt-seed")
               : job.seed;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "worker: %s\n", e.what());
    return 2;
  }
  return run_worker_job(job, seed, queue.result_path(id),
                        queue.checkpoint_path(id),
                        cli.get("brownout-level", 0),
                        cli.get("lease-path", std::string()));
}

int run_worker_job(const Job& job, std::uint64_t seed,
                   const std::string& result_path,
                   const std::string& checkpoint_path,
                   int brownout_level, const std::string& lease_path) try {
  if (job.circuit.empty() || result_path.empty()) return 2;
  if (brownout_level < 0) brownout_level = 0;
  if (brownout_level > 2) brownout_level = 2;

  // Chaos hooks: die (or wedge) exactly like a real worker fault would —
  // no stack unwinding, no result envelope, nothing cleaned up.
  if (job.inject == "crash-pre-run") std::raise(SIGKILL);
  if (job.inject == "hang") {
    std::this_thread::sleep_for(std::chrono::hours(1));
  }
  kill_point("worker.pre-run");

  // Load: circuit build, cycle-time choice and evaluator set-up, timed on
  // the steady clock like certification below; the envelope reports both
  // next to the optimizer's runtime_seconds.
  const double load_start = util::monotonic_seconds();
  netlist::Netlist nl = bench_suite::make_circuit(job.circuit);
  bench_suite::ExperimentConfig cfg;
  cfg.clock_frequency = job.clock_frequency;
  bool tc_scaled = false;
  const double tc = bench_suite::choose_cycle_time(nl, cfg, &tc_scaled);

  opt::EvalSettings settings;
  settings.clock_frequency = 1.0 / tc;
  activity::ActivityProfile profile;
  profile.input_density = job.activity;
  const opt::CircuitEvaluator eval(nl, cfg.tech, profile, settings);
  const double load_seconds = util::monotonic_seconds() - load_start;

  // Deadline propagation: the job's wall-clock budget becomes the
  // optimizer's watchdog, so running out of time yields a best-seen
  // truncated result instead of a SIGKILL from the supervisor.
  util::WatchdogBudget budget;
  if (job.deadline_seconds > 0.0) budget.wall_seconds = job.deadline_seconds;
  budget.max_evaluations = job.max_evaluations;
  // Brownout: a degraded daemon buys latency with fidelity — shrink the
  // wall budget proportionally (1/2 per level) so cheap answers also land
  // sooner, not just cheaper.
  if (brownout_level > 0 && budget.wall_seconds > 0.0) {
    budget.wall_seconds /= static_cast<double>(1 << brownout_level);
  }

  // exists() checks every generation, so a torn newest snapshot still
  // enters the resume path and falls back to an older intact generation.
  const bool resuming =
      !checkpoint_path.empty() && io::Checkpoint::exists(checkpoint_path);

  opt::OptimizationResult result;
  double skew_b = 0.95;
  if (job.optimizer == "robust") {
    opt::RobustOptions ropts;
    ropts.joint.budget = budget;
    ropts.baseline.budget = budget;
    ropts.joint.checkpoint_path = checkpoint_path;
    if (resuming) ropts.joint.resume_path = checkpoint_path;
    // The brownout ladder maps one-to-one onto the degradation chain:
    // level 1 starts at the baseline tier, level 2 at max-drive. The result
    // still certifies like any other — degraded answers are still answers.
    ropts.start_tier = brownout_level;
    result = opt::RobustOptimizer(eval, ropts).run();
    skew_b = ropts.joint.skew_b;
  } else if (job.optimizer == "joint") {
    opt::OptimizerOptions opts;
    opts.budget = budget;
    opts.checkpoint_path = checkpoint_path;
    if (resuming) opts.resume_path = checkpoint_path;
    result = opt::JointOptimizer(eval, opts).run();
    skew_b = opts.skew_b;
  } else if (job.optimizer == "baseline") {
    opt::OptimizerOptions opts;
    opts.budget = budget;
    result = opt::BaselineOptimizer(eval, opts).run();
    skew_b = opts.skew_b;
  } else if (job.optimizer == "anneal") {
    opt::AnnealingOptions aopts;
    aopts.budget = budget;
    aopts.seed = seed;
    if (job.anneal_moves > 0) aopts.max_moves = job.anneal_moves;
    aopts.checkpoint_path = checkpoint_path;
    if (resuming) aopts.resume_path = checkpoint_path;
    skew_b = aopts.skew_b;
    // Warm-start from the baseline solution (the annealer's recommended
    // seeding); a resumed run restores its mid-anneal state from the
    // snapshot and the warm start only seeds the already-finished passes.
    const opt::OptimizationResult warm =
        opt::BaselineOptimizer(eval, {}).run();
    result = opt::AnnealingOptimizer(eval, aopts)
                 .run(warm.feasible ? warm.state : opt::CircuitState{});
  } else {
    write_error_envelope(job, result_path,
                         "invalid-argument",
                         "unknown optimizer '" + job.optimizer + "'");
    return 0;
  }

  // Independent certification: no result reaches done/ on the optimizer's
  // own say-so.
  opt::CertifyOptions copts;
  copts.skew_b = skew_b;
  const double certify_start = util::monotonic_seconds();
  const opt::Certificate cert = opt::Certifier(eval, copts).certify(result);
  const double certify_seconds = util::monotonic_seconds() - certify_start;

  if (job.inject == "crash-pre-result") std::raise(SIGKILL);
  kill_point("worker.pre-result");

  // Fence before the commit point: if the lease moved past the token this
  // job was claimed under, the spawning leader is a zombie and this result
  // must never land — the new leader re-runs the job. Fail-open when the
  // job carries no token or the lease is missing (plain single-daemon
  // spools and in-process tests).
  if (!lease_path.empty() && job.fence_token > 0 &&
      !lease_token_matches(lease_path, job.fence_token)) {
    obs::counter("serve.lease.worker_fenced").add();
    return kWorkerFencedExit;
  }

  util::JsonWriter w(2);
  w.begin_object();
  w.kv("schema", kJobResultSchema);
  w.kv("id", job.id);
  w.kv("ok", true);
  w.kv("circuit", job.circuit);
  w.kv("optimizer", job.optimizer);
  w.kv("seed", format_seed(seed));
  w.kv("resumed", resuming);
  w.kv("feasible", result.feasible);
  w.kv("certified", cert.certified);
  w.kv("truncated", result.truncated);
  if (result.truncated) w.kv("truncation_reason", result.truncation_reason);
  w.kv("tier", opt::to_string(result.tier));
  w.kv("brownout_level", brownout_level);
  w.kv("vdd", result.vdd);
  w.kv("vts_primary", result.vts_primary);
  w.kv("energy_total", result.energy.total());
  w.kv("static_energy", result.energy.static_energy);
  w.kv("dynamic_energy", result.energy.dynamic_energy);
  w.kv("critical_delay", result.critical_delay);
  w.kv("cycle_time", tc);
  w.kv("tc_scaled", tc_scaled);
  w.kv("circuit_evaluations", result.circuit_evaluations);
  w.kv("runtime_seconds", result.runtime_seconds);
  w.kv("load_seconds", load_seconds);
  w.kv("certify_seconds", certify_seconds);
  w.key("certificate");
  util::emit(w, util::JsonValue::parse(cert.to_json(0), "<certificate>"));
  w.end_object();
  // The envelope drop is the worker's commit point: atomic + fsynced +
  // CRC-footed, so the parent (or recovery after a daemon death) sees
  // nothing, or everything, or a verifiably damaged file it can retry.
  io::write_artifact(result_path, kJobResultSchema, w.str() + "\n");
  return 0;
} catch (const util::ParseError& e) {
  write_error_envelope(job, result_path, "parse-error", e.what());
  return 0;
} catch (const util::NumericError& e) {
  write_error_envelope(job, result_path, "numeric-error", e.what());
  return 0;
} catch (const util::InfeasibleError& e) {
  write_error_envelope(job, result_path, "infeasible", e.what());
  return 0;
} catch (const std::invalid_argument& e) {
  write_error_envelope(job, result_path, "invalid-argument", e.what());
  return 0;
} catch (const std::exception& e) {
  write_error_envelope(job, result_path, "error", e.what());
  return 0;
}

}  // namespace minergy::serve
