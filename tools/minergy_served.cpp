// minergy_served: long-running, crash-safe optimization service.
//
// One spool directory is the entire service state: jobs are submitted into
// it, a daemon claims and executes them in supervised worker subprocesses,
// and every transition is an atomic rename — SIGKILL the daemon at any
// instruction and a restart recovers with no job lost, duplicated, or stuck
// (see src/serve/ and docs/ROBUSTNESS.md, "Service & supervision"). One
// daemon serves a spool: it holds an exclusive flock on the spool directory
// while it runs, and a second daemon on the same spool exits 1 within half
// a second (docs/ROBUSTNESS.md, "One daemon per spool").
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
//   --inject-io=SPEC      chaos hook: storage-fault schedule, e.g.
//                         write@3:enospc,fsync@1:eio (see src/io/fault_fs.h);
//                         propagated into workers like --inject-kill
//
// Telemetry flags (daemon mode; see docs/OBSERVABILITY.md):
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
// Submit flags: --circuit, --optimizer (robust|joint|baseline|anneal),
//   --seed, --fc, --activity, --deadline=S (propagated into the watchdog
//   budget), --max-evals, --anneal-moves, --inject (worker chaos hook).
//   The daemon claims jobs first-in first-out.
//
// Status flags: --verify (audit invariants: no pending/running leftovers,
//   terminal states disjoint, done/ results certified), --expect-jobs=N.
//
// SIGTERM/SIGINT drain gracefully: intake stops, in-flight jobs keep their
// PR-3 checkpoint snapshots, and the next daemon resumes them bit-exactly.
//
// Damage at rest is handled when a file is read (docs/ROBUSTNESS.md, "Damage
// at rest"); --status --verify audits the terminal records.
//
// A flag that no mode reads is a usage error (exit 2), so a misspelled or
// retired flag never starts a daemon.
//
// Exit codes: 0 success, 1 validation failure (full queue, failed verify,
// spool served by another daemon), 2 bad arguments / unreadable input, 4
// (status mode) spool holds quarantined job(s) — a poisoned spool
// operators must look at even when every other invariant verifies clean.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <string_view>

#include "io/durable.h"
#include "io/envelope.h"
#include "io/fault_fs.h"
#include "obs/metrics.h"
#include "obs/session.h"
#include "serve/inject.h"
#include "serve/job.h"
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
    "  modes: (default) daemon | --submit | --status | --worker (internal)\n"
    "  daemon: [--workers=N] [--once] [--poll=S]\n"
    "          [--timeout=S] [--retries=N]\n"
    "          [--backoff=S] [--breaker-threshold=N] [--breaker-cooldown=S]\n"
    "          [--drain-grace=S] [--inject-kill=POINT[@K]]\n"
    "          [--inject-io=SPEC] [--event-log=FILE] [--event-log-max-kb=N]\n"
    "          [--slo-e2e-ms=N] [--snapshot-interval-s=S]\n"
    "          [--perf-record[=FILE]] [--trace=FILE] [--metrics]\n"
    "          (--poll: longest wait without an event, default 0.02 s)\n"
    "  submit: --circuit=NAME [--optimizer=robust|joint|baseline|anneal]\n"
    "          [--seed=S] [--fc=HZ] [--activity=D] [--deadline=S]\n"
    "          [--max-evals=N] [--anneal-moves=N] [--max-pending=N]\n"
    "  status: [--verify] [--expect-jobs=N]\n"
    "  exit codes: 0 ok, 1 validation failure or spool served by another\n"
    "              daemon, 2 usage error (any other flag),\n"
    "              4 (status) quarantined job(s) present\n";

// Every flag a mode or obs::Session reads. util::Cli accepts any --name, so
// main() refuses the rest: a misspelled or retired flag is a usage error,
// never silently ignored.
constexpr std::string_view kFlags[] = {
    // every mode
    "spool", "help", "submit", "status", "worker", "max-pending",
    // daemon
    "workers", "once", "poll", "timeout", "retries", "backoff",
    "breaker-threshold", "breaker-cooldown", "drain-grace", "inject-kill",
    "inject-io", "slo-e2e-ms", "snapshot-interval-s",
    // obs::Session (daemon)
    "trace", "metrics", "verbose", "perf-record", "event-log",
    "event-log-max-kb",
    // submit
    "circuit", "optimizer", "seed", "fc", "activity", "deadline",
    "max-evals", "anneal-moves", "inject",
    // status
    "verify", "expect-jobs",
    // worker
    "job-id", "attempt-seed",
};

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
    const std::string id = queue.submit(std::move(job));
    std::printf("%s\n", id.c_str());
    return 0;
  } catch (const serve::QueueFullError& e) {
    std::fprintf(stderr, "rejected: %s (retry-after: %.1f s)\n", e.what(),
                 e.retry_after_seconds());
    return 1;
  }
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
  opts.breaker.threshold = cli.get("breaker-threshold", 3);
  opts.breaker.cooldown_seconds = cli.get("breaker-cooldown", 30.0);
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
  for (const std::string& name : cli.names()) {
    if (std::find(std::begin(kFlags), std::end(kFlags), name) ==
        std::end(kFlags)) {
      std::fprintf(stderr, "error: unknown flag --%s\n%s", name.c_str(),
                   kUsage);
      return 2;
    }
  }
  if (cli.has("help")) {
    std::printf("%s", kUsage);
    return 0;
  }
  serve::configure_kill_switch(cli.get("inject-kill", std::string()));
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
