// minergy_served: long-running, crash-safe optimization service.
//
// One spool directory is the entire service state: jobs are submitted into
// it, a daemon claims and executes them in supervised worker subprocesses,
// and every transition is an atomic rename — SIGKILL the daemon at any
// instruction and a restart recovers with no job lost, duplicated, or stuck
// (see src/serve/ and docs/ROBUSTNESS.md, "Service & supervision").
//
//   $ minergy_served --spool=/tmp/spool --submit --circuit=s27 ...
//                                                 # enqueue, print job id
//   $ minergy_served --spool=/tmp/spool --workers=4              # serve
//   $ minergy_served --spool=/tmp/spool --once                   # drain+exit
//   $ minergy_served --spool=/tmp/spool --status --verify        # audit
//
// Daemon flags:
//   --spool=DIR           spool directory (required; created if missing)
//   --workers=N           concurrent worker subprocesses (default 2)
//   --once                exit when pending/ and the worker pool are empty
//   --poll=S              longest wait without an event, seconds (default
//                         0.02): the loop wakes at once when a job arrives
//                         or a worker exits, and at least this often
//   --timeout=S           per-attempt wall clock before SIGKILL (default 300)
//   --retries=N           extra attempts after the first (default 2)
//   --backoff=S           base backoff; retry k waits backoff * 2^(k-1)
//   --breaker-threshold=N consecutive worker deaths that trip a circuit's
//                         breaker (default 3)
//   --breaker-cooldown=S  open -> half-open delay (default 30)
//   --drain-grace=S       SIGTERM: let workers finish this long (default 2)
//   --max-pending=N       admission bound for --submit (default 64)
//   --inject-kill=PT[@K]  chaos hook: SIGKILL self at the K-th visit of
//                         protocol point PT (see src/serve/inject.h)
//   --inject-stop=PT[@K]  chaos hook: SIGSTOP self (a zombie leader, not a
//                         dead one) at the K-th visit of point PT
//   --inject-io=SPEC      chaos hook: storage-fault schedule, e.g.
//                         write@3:enospc,fsync@1:eio (see src/io/fault_fs.h);
//                         propagated into workers like --inject-kill
//
// High-availability flags (daemon mode; see docs/ROBUSTNESS.md, "High
// availability & scrubbing"): every daemon runs under the spool's fenced
// leader lease (<spool>/leader.lease, schema minergy.lease.v1); exactly one
// serves, the rest stand by and take over within ~1 lease TTL:
//   --standby             hot-standby start: never claim a fresh spool until
//                         it has been observed leaderless for a full expiry
//                         window (defers to a cold-starting leader)
//   --lease-ttl-s=S       lease heartbeat TTL (default 2); renewed at TTL/3
//   --lease-margin-s=S    extra observed staleness before a steal (def. 0.5)
//   --scrub-interval-s=S  leader-only anti-entropy pass cadence (0 = off)
//   --scrub               offline mode: one scrubber pass over the spool,
//                         then exit 0 (clean) / 1 (repaired) / 2 (quarantined)
//
// Live telemetry flags (daemon mode; see docs/OBSERVABILITY.md):
//   --listen=PORT         embedded HTTP exposition on 127.0.0.1:PORT
//                         (0 = ephemeral): GET /metrics (Prometheus text),
//                         /health (minergy.health.v1, from memory), /jobs
//                         (spool partition + breaker states)
//   --port-file=FILE      write the bound port to FILE (--listen=0 discovery)
//   --event-log=FILE      append-only JSONL event log (minergy.event.v1):
//                         one line per state transition, retry, breaker
//                         action, degradation, certification verdict;
//                         validate with trace_check --verify-eventlog=FILE
//   --event-log-max-kb=N  event-log segment cap before rotation (def. 8192)
//   --slo-e2e-ms=N        end-to-end latency SLO: finalizations slower than
//                         N ms bump serve.slo.violations + log slo_violation
//   --snapshot-interval-s=S  flush the --perf-record counter snapshot every
//                         S seconds (atomic write), not only at exit, so a
//                         crashed daemon leaves its last telemetry behind
//
// Overload protection flags (daemon mode; see docs/ROBUSTNESS.md,
// "Overload & brownout"):
//   --shed-target-ms=N    CoDel-style shedding: when the minimum queue
//                         sojourn over the sliding window stays above N ms,
//                         drop background- (then batch-) class work; 0
//                         (default) disables
//   --shed-window-ms=N    sliding-window span for both overload signals
//                         (default 1000)
//   --quota=CLIENT:RPS[,...]  per-client token-bucket admission quotas
//   --brownout            enable the SLO feedback loop (requires
//                         --slo-e2e-ms): windowed p95 over the SLO steps
//                         the fidelity ladder down (robust jobs start at
//                         baseline, then max-drive, watchdog budgets
//                         shrink), hysteretically steps back up
//   --brownout-dwell-s=S  minimum time between brownout level changes
//                         (default 2)
//   --brownout-recover-ratio=R  step back up once p95 < R * SLO (def. 0.7)
//
// Submit flags: --circuit, --optimizer (robust|joint|baseline|anneal),
//   --seed, --fc, --activity, --deadline=S (propagated into the watchdog
//   budget), --max-evals, --anneal-moves, --inject (worker chaos hook),
//   --priority=interactive|batch|background (claim order is priority band
//   then earliest-deadline-first; shedding drops background before batch
//   and never interactive), --client=NAME (quota attribution),
//   --complete-by-s=S (completion deadline, S seconds from now: a job
//   still queued past it is expired to failed/ with a deadline_expired
//   verdict instead of wasting a worker).
//
// Status flags: --verify (audit invariants: no pending/running leftovers,
//   terminal states disjoint, done/ results certified), --expect-jobs=N.
//
// SIGTERM/SIGINT drain gracefully: intake stops, in-flight jobs keep their
// PR-3 checkpoint snapshots, and the next daemon resumes them bit-exactly.
//
// Exit codes: 0 success, 1 validation failure (full queue, shed/quota
// rejection, failed verify), 2 bad arguments / unreadable input, 4 (status
// mode) spool holds quarantined job(s) — a poisoned spool operators must
// look at even when every other invariant verifies clean.
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <map>
#include <string>

#include "io/durable.h"
#include "io/envelope.h"
#include "io/fault_fs.h"
#include "io/scrub.h"
#include "obs/metrics.h"
#include "obs/session.h"
#include "serve/inject.h"
#include "serve/job.h"
#include "serve/overload.h"
#include "serve/queue.h"
#include "serve/supervisor.h"
#include "serve/worker.h"
#include "util/check.h"
#include "util/cli.h"
#include "util/json.h"

using namespace minergy;

namespace {

constexpr const char* kUsage =
    "usage: minergy_served --spool=DIR [mode] [flags]\n"
    "  modes: (default) daemon | --submit | --status | --scrub |\n"
    "         --worker (internal)\n"
    "  daemon: [--workers=N] [--once] [--poll=S]\n"
    "          [--timeout=S] [--retries=N]\n"
    "          [--backoff=S] [--breaker-threshold=N] [--breaker-cooldown=S]\n"
    "          [--drain-grace=S] [--inject-kill=POINT[@K]]\n"
    "          [--inject-stop=POINT[@K]] [--inject-io=SPEC]\n"
    "          [--standby] [--lease-ttl-s=S] [--lease-margin-s=S]\n"
    "          [--scrub-interval-s=S]\n"
    "          [--listen=PORT] [--port-file=FILE] [--event-log=FILE]\n"
    "          [--event-log-max-kb=N] [--slo-e2e-ms=N]\n"
    "          [--snapshot-interval-s=S] [--perf-record[=FILE]]\n"
    "          [--shed-target-ms=N] [--shed-window-ms=N]\n"
    "          [--quota=CLIENT:RPS[,...]] [--brownout]\n"
    "          [--brownout-dwell-s=S] [--brownout-recover-ratio=R]\n"
    "          (--poll: longest wait without an event, default 0.02 s)\n"
    "  submit: --circuit=NAME [--optimizer=robust|joint|baseline|anneal]\n"
    "          [--seed=S] [--fc=HZ] [--activity=D] [--deadline=S]\n"
    "          [--max-evals=N] [--anneal-moves=N] [--max-pending=N]\n"
    "          [--priority=interactive|batch|background] [--client=NAME]\n"
    "          [--complete-by-s=S]\n"
    "  status: [--verify] [--expect-jobs=N]\n"
    "  exit codes: 0 ok, 1 validation failure, 2 usage error,\n"
    "              4 (status) quarantined job(s) present\n"
    "              (--scrub: 0 clean, 1 repaired, 2 quarantined)\n";

serve::SpoolOptions spool_options(const util::Cli& cli) {
  serve::SpoolOptions o;
  o.max_pending = static_cast<std::size_t>(cli.get("max-pending", 64));
  o.slo_e2e_seconds = cli.get("slo-e2e-ms", 0.0) * 1e-3;
  return o;
}

int run_submit(const util::Cli& cli, serve::SpoolQueue& queue) {
  serve::Job job;
  job.circuit = cli.get("circuit", std::string());
  if (job.circuit.empty()) {
    std::fprintf(stderr, "error: --submit requires --circuit\n%s", kUsage);
    return 2;
  }
  job.optimizer = cli.get("optimizer", std::string("robust"));
  try {
    job.seed = serve::parse_seed(cli.get("seed", std::string("1")), "--seed");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n%s", e.what(), kUsage);
    return 2;
  }
  job.clock_frequency = cli.get("fc", 300e6);
  job.activity = cli.get("activity", 0.3);
  job.deadline_seconds = cli.get("deadline", 0.0);
  job.max_evaluations =
      static_cast<std::int64_t>(cli.get("max-evals", 0.0));
  job.anneal_moves = cli.get("anneal-moves", 0);
  job.inject = cli.get("inject", std::string());
  try {
    job.priority = serve::priority_from_string(
        cli.get("priority", std::string("batch")), "--priority");
  } catch (const util::ParseError& e) {
    std::fprintf(stderr, "error: %s\n%s", e.what(), kUsage);
    return 2;
  }
  job.client = cli.get("client", std::string());
  const double complete_by_s = cli.get("complete-by-s", 0.0);
  if (complete_by_s > 0.0) {
    job.complete_by_unix = serve::unix_now() + complete_by_s;
  }
  try {
    const std::string id = queue.submit(std::move(job));
    std::printf("%s\n", id.c_str());
    return 0;
  } catch (const serve::ShedError& e) {
    std::fprintf(stderr, "shed: %s (retry-after: %.1f s)\n", e.what(),
                 e.retry_after_seconds());
    return 1;
  } catch (const serve::QueueFullError& e) {
    std::fprintf(stderr, "rejected: %s (retry-after: %.1f s)\n", e.what(),
                 e.retry_after_seconds());
    return 1;
  }
}

// Offline anti-entropy pass: one scrubber sweep, a human-readable summary,
// and the repair verdict as the exit code (0 clean, 1 repaired,
// 2 quarantined) so CI and operators can gate on it.
int run_scrub(serve::SpoolQueue& queue) {
  const io::ScrubReport report = io::SpoolScrubber(queue.root()).run();
  for (const io::ScrubFinding& f : report.findings) {
    std::fprintf(stderr, "scrub: %s %s: %s%s%s\n", f.action.c_str(),
                 f.path.c_str(), f.problem.c_str(),
                 f.detail.empty() ? "" : " — ", f.detail.c_str());
  }
  std::printf(
      "scrub %s\n  checked %d  clean %d  repaired %d  quarantined %d  "
      "vanished %d\n",
      queue.root().c_str(), report.checked, report.clean, report.repaired,
      report.quarantined, report.vanished);
  return report.exit_code();
}

int run_status(const util::Cli& cli, serve::SpoolQueue& queue) {
  const serve::QueueCounts c = queue.counts();
  std::printf(
      "spool %s\n  pending %zu  running %zu  done %zu  failed %zu  "
      "quarantined %zu\n",
      queue.root().c_str(), c.pending, c.running, c.done, c.failed,
      c.quarantined);
  // Exit code 4 flags a poisoned spool: quarantined/ holds jobs no retry
  // will fix, and operators polling --status must not read that as clean.
  // Verify violations (exit 1) still take precedence below.
  const int ok_rc = c.quarantined > 0 ? 4 : 0;
  if (!cli.has("verify")) return ok_rc;

  // Invariant audit (the chaos harness's oracle): after a drained daemon
  // exits, every job must sit in exactly one terminal state, with a
  // certified result in done/ and a typed failure elsewhere.
  int violations = 0;
  const auto complain = [&violations](const std::string& msg) {
    std::fprintf(stderr, "verify: %s\n", msg.c_str());
    ++violations;
  };
  if (c.pending != 0) complain("pending/ not empty");
  if (c.running != 0) {
    complain(std::to_string(c.running) + " job(s) stuck in running/");
  }
  std::size_t total = 0;
  std::map<std::string, std::string> seen;  // id -> state
  for (const char* state : {"done", "failed", "quarantined"}) {
    for (const std::string& id : queue.ids_in(state)) {
      ++total;
      if (const auto it = seen.find(id); it != seen.end()) {
        complain("job " + id + " is in both " + it->second + "/ and " +
                 state + "/");
      }
      seen[id] = state;
      const std::string path = queue.job_path(state, id);
      util::JsonValue rec;
      try {
        // Envelope-verified: a record that parses but fails its CRC or
        // length is reported as an integrity violation, not silently
        // accepted.
        rec = util::JsonValue::parse(
            io::read_artifact(path, serve::kJobSchema), path);
      } catch (const io::IntegrityError& e) {
        complain(std::string("integrity violation: ") + e.what());
        continue;
      } catch (const std::exception& e) {
        complain(std::string("unreadable record: ") + e.what());
        continue;
      }
      if (std::string(state) == "done") {
        if (!rec.has("result") ||
            !rec.at("result").get_bool("certified", false) ||
            !rec.at("result").get_bool("feasible", false)) {
          complain("done/" + id + " is not a certified feasible result");
        }
      } else if (!rec.has("failure") ||
                 rec.at("failure").get_string("type", "").empty()) {
        complain(std::string(state) + "/" + id + " has no typed failure");
      }
    }
  }
  const int expect = cli.get("expect-jobs", -1);
  if (expect >= 0 && total != static_cast<std::size_t>(expect)) {
    complain("expected " + std::to_string(expect) + " terminal job(s), found " +
             std::to_string(total));
  }
  if (violations != 0) return 1;
  std::printf("verify: OK (%zu terminal job(s))\n", total);
  return ok_rc;
}

int run_daemon(const util::Cli& cli, serve::SpoolQueue& queue,
               obs::Session& session) {
  serve::SupervisorOptions opts;
  // Workers re-exec this binary; resolve the real path so the daemon works
  // regardless of how it was invoked.
  char self_buf[4096];
  const ssize_t n =
      readlink("/proc/self/exe", self_buf, sizeof self_buf - 1);
  if (n > 0) {
    self_buf[n] = '\0';
    opts.worker_binary = self_buf;
  } else {
    opts.worker_binary = cli.program();
  }
  opts.workers = cli.get("workers", 2);
  opts.poll_seconds = cli.get("poll", 0.02);
  opts.timeout_seconds = cli.get("timeout", 300.0);
  opts.max_retries = cli.get("retries", 2);
  opts.backoff_seconds = cli.get("backoff", 0.5);
  opts.drain_grace_seconds = cli.get("drain-grace", 2.0);
  opts.once = cli.has("once");
  opts.lease.standby = cli.has("standby");
  opts.lease.ttl_seconds = cli.get("lease-ttl-s", 2.0);
  opts.lease.margin_seconds = cli.get("lease-margin-s", 0.5);
  opts.scrub_interval_seconds = cli.get("scrub-interval-s", 0.0);
  opts.breaker.threshold = cli.get("breaker-threshold", 3);
  opts.breaker.cooldown_seconds = cli.get("breaker-cooldown", 30.0);
  opts.overload.shed_target_seconds = cli.get("shed-target-ms", 0.0) * 1e-3;
  opts.overload.shed_window_seconds =
      cli.get("shed-window-ms", 1000.0) * 1e-3;
  // Brownout is an explicit opt-in: --slo-e2e-ms alone keeps its PR-6
  // meaning (SLO violation accounting) without changing service behavior.
  if (cli.has("brownout")) {
    opts.overload.slo_e2e_seconds = cli.get("slo-e2e-ms", 0.0) * 1e-3;
    if (opts.overload.slo_e2e_seconds <= 0.0) {
      std::fprintf(stderr, "error: --brownout requires --slo-e2e-ms=N\n%s",
                   kUsage);
      return 2;
    }
    opts.overload.brownout_dwell_seconds = cli.get("brownout-dwell-s", 2.0);
    opts.overload.brownout_recover_ratio =
        cli.get("brownout-recover-ratio", 0.7);
  }
  try {
    opts.overload.quotas =
        serve::parse_quota_spec(cli.get("quota", std::string()));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n%s", e.what(), kUsage);
    return 2;
  }
  opts.snapshot_interval_seconds = cli.get("snapshot-interval-s", 0.0);
  if (opts.snapshot_interval_seconds > 0.0) {
    // Periodic counter-snapshot flush: the daemon's perf record survives a
    // SIGKILL. The session owns the canonical path when --perf-record was
    // given; otherwise snapshots land next to nothing in particular, so use
    // a stable default the operator can find.
    std::string snap_path = session.perf_path();
    if (snap_path.empty()) snap_path = "BENCH_minergy_served.json";
    opts.snapshot_hook = [&session, snap_path]() {
      try {
        io::atomic_write_durable(snap_path, session.perf_record_json() + "\n");
      } catch (const std::exception& e) {
        std::fprintf(stderr, "served: snapshot flush failed: %s\n", e.what());
      }
    };
  }
  serve::Supervisor supervisor(queue, opts);
  const int rc = supervisor.run();
  const serve::QueueCounts c = queue.counts();
  std::fprintf(stderr,
               "served: exiting (pending %zu, done %zu, failed %zu, "
               "quarantined %zu)\n",
               c.pending, c.done, c.failed, c.quarantined);
  return rc;
}

}  // namespace

int main(int argc, char** argv) try {
  const util::Cli cli(argc, argv);
  if (cli.has("help")) {
    std::printf("%s", kUsage);
    return 0;
  }
  serve::configure_kill_switch(cli.get("inject-kill", std::string()));
  serve::configure_stop_switch(cli.get("inject-stop", std::string()));
  io::FaultFs::instance().configure(cli.get("inject-io", std::string()));
  const std::string spool = cli.get("spool", std::string());
  if (spool.empty()) {
    std::fprintf(stderr, "error: --spool=DIR is required\n%s", kUsage);
    return 2;
  }
  serve::SpoolQueue queue(spool, spool_options(cli));
  if (cli.has("worker")) return serve::run_worker_mode(cli, queue);
  if (cli.has("submit")) return run_submit(cli, queue);
  if (cli.has("status")) return run_status(cli, queue);
  if (cli.has("scrub")) return run_scrub(queue);
  obs::Session session(cli, "minergy_served");
  obs::set_enabled(true);
  return run_daemon(cli, queue, session);
} catch (const std::invalid_argument& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
