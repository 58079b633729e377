// Chaos harness for the optimization service: run the real minergy_served
// binary against a real spool directory and SIGKILL it (or its workers) at
// randomized protocol points, then prove the exactly-once contract — after
// an un-injected drain, every submitted job sits in exactly one terminal
// state (done/failed/quarantined) with a certified result or a typed
// failure, and nothing is lost, duplicated, or stuck in pending/running.
//
// Kill points are deterministic (serve/inject.h): --inject-kill=POINT@K
// raises SIGKILL at the K-th visit of POINT, so every iteration is exactly
// reproducible; only the iteration order is shuffled.
//
// minergy_batch drives the same supervisor over a private spool; its
// interruption and typed-failure paths are exercised at the end.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <fcntl.h>
#include <filesystem>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "io/envelope.h"
#include "serve/job.h"
#include "serve/queue.h"
#include "util/json.h"

#ifndef MINERGY_SERVED_BIN
#error "MINERGY_SERVED_BIN must point at the minergy_served executable"
#endif
#ifndef MINERGY_BATCH_BIN
#error "MINERGY_BATCH_BIN must point at the minergy_batch executable"
#endif

namespace minergy::serve {
namespace {

namespace fs = std::filesystem;

struct ScratchSpool {
  explicit ScratchSpool(const std::string& stem)
      : root((fs::temp_directory_path() / ("minergy_chaos_" + stem)).string()) {
    fs::remove_all(root);
  }
  ~ScratchSpool() { fs::remove_all(root); }
  std::string root;
};

void sleep_seconds(double s) {
  std::this_thread::sleep_for(std::chrono::duration<double>(s));
}

// fork+exec `binary` with the given flags, stdout/stderr silenced.
pid_t spawn_binary(const char* binary, const std::vector<std::string>& flags) {
  std::vector<std::string> args = {binary};
  args.insert(args.end(), flags.begin(), flags.end());
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& s : args) argv.push_back(s.data());
  argv.push_back(nullptr);
  const pid_t pid = fork();
  if (pid == 0) {
    const int null_fd = open("/dev/null", O_WRONLY);
    if (null_fd >= 0) {
      dup2(null_fd, STDOUT_FILENO);
      dup2(null_fd, STDERR_FILENO);
      close(null_fd);
    }
    execv(argv[0], argv.data());
    _exit(127);
  }
  return pid;
}

pid_t spawn_served(const std::vector<std::string>& flags) {
  return spawn_binary(MINERGY_SERVED_BIN, flags);
}

// Waits for `pid` with a wall-clock cap; SIGKILLs on timeout. Returns the
// raw waitpid status and sets *timed_out.
int wait_exit(pid_t pid, double timeout_seconds, bool* timed_out = nullptr) {
  if (timed_out != nullptr) *timed_out = false;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_seconds);
  int status = 0;
  for (;;) {
    const pid_t r = waitpid(pid, &status, WNOHANG);
    if (r == pid) return status;
    if (std::chrono::steady_clock::now() >= deadline) {
      if (timed_out != nullptr) *timed_out = true;
      kill(pid, SIGKILL);
      waitpid(pid, &status, 0);
      return status;
    }
    sleep_seconds(0.01);
  }
}

// Runs one daemon pass to completion; fails the test on a hung daemon.
int run_served(const std::vector<std::string>& flags,
               double timeout_seconds = 120.0) {
  bool timed_out = false;
  const int status = wait_exit(spawn_served(flags), timeout_seconds,
                               &timed_out);
  EXPECT_FALSE(timed_out) << "daemon did not exit within the cap";
  return status;
}

std::string submit_job(SpoolQueue& q, const std::string& circuit,
                       std::uint64_t seed, const std::string& inject = "",
                       const std::string& optimizer = "baseline",
                       int anneal_moves = 0, double deadline = 0.0) {
  Job job;
  job.circuit = circuit;
  job.optimizer = optimizer;
  job.seed = seed;
  job.inject = inject;
  job.anneal_moves = anneal_moves;
  job.deadline_seconds = deadline;
  return q.submit(job);
}

util::JsonValue read_record(const SpoolQueue& q, const std::string& state,
                            const std::string& id) {
  const std::string path = q.job_path(state, id);
  // All persisted records now carry the io artifact-envelope footer; strip
  // and CRC-verify it before parsing ("" accepts any schema id).
  return util::JsonValue::parse(io::read_artifact(path, ""), path);
}

// The exactly-once oracle: every submitted id is in exactly one terminal
// directory, nothing is left in pending/running, and done/ records carry a
// certified feasible result. Cross-checked against the tool's own auditor.
void expect_exact_partition(const SpoolQueue& q,
                            const std::set<std::string>& submitted) {
  EXPECT_TRUE(q.ids_in("pending").empty()) << "job(s) left in pending/";
  EXPECT_TRUE(q.ids_in("running").empty()) << "job(s) stuck in running/";
  std::set<std::string> terminal;
  for (const char* state : {"done", "failed", "quarantined"}) {
    for (const std::string& id : q.ids_in(state)) {
      EXPECT_TRUE(terminal.insert(id).second)
          << "job " << id << " is in more than one terminal state";
      EXPECT_TRUE(submitted.count(id) != 0)
          << "unknown job " << id << " appeared in " << state << "/";
    }
  }
  EXPECT_EQ(terminal, submitted);
  for (const std::string& id : q.ids_in("done")) {
    const util::JsonValue rec = read_record(q, "done", id);
    EXPECT_TRUE(rec.at("result").get_bool("certified", false));
    EXPECT_TRUE(rec.at("result").get_bool("feasible", false));
  }
  const int status = run_served({"--spool=" + q.root(), "--status",
                                 "--verify",
                                 "--expect-jobs=" +
                                     std::to_string(submitted.size())});
  // A clean audit exits 0, or 4 when quarantined/ is non-empty (still a
  // valid exactly-once partition — the code just flags the poisoned spool).
  const int expect_rc = q.ids_in("quarantined").empty() ? 0 : 4;
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == expect_rc)
      << "minergy_served --status --verify rejected the spool";
}

// `timeout` is the per-job supervisor limit in seconds. The 800k-move anneal
// tests pass 120 so their runs are bounded by move count, not machine speed.
std::vector<std::string> fast_daemon_flags(const std::string& spool,
                                           int timeout = 20) {
  return {"--spool=" + spool,
          "--once",
          "--workers=2",
          "--poll=0.005",
          "--timeout=" + std::to_string(timeout),
          "--retries=1",
          "--backoff=0.01",
          "--drain-grace=0.05",
          "--breaker-threshold=99"};
}

// ------------------------------------------------------------ chaos sweep

// 20 deterministic kill specs covering every protocol point in both the
// daemon and the worker, at first and repeated visits.
std::vector<std::string> kill_specs() {
  std::vector<std::string> specs;
  const std::vector<std::string> points = {
      "daemon.post-claim", "daemon.pre-spawn",    "daemon.post-spawn",
      "daemon.post-reap",  "daemon.pre-finalize", "daemon.pre-requeue",
      "worker.pre-run",    "worker.pre-result",
  };
  for (const std::string& p : points) {
    specs.push_back(p + "@1");
    specs.push_back(p + "@2");
  }
  for (const char* p : {"daemon.post-claim@3", "daemon.post-spawn@3",
                        "daemon.post-reap@3", "daemon.pre-requeue@3"}) {
    specs.push_back(p);
  }
  // Randomize the sweep order only; each spec itself is deterministic.
  std::mt19937 rng(20260806u);
  std::shuffle(specs.begin(), specs.end(), rng);
  return specs;
}

TEST(ServeChaos, NoJobLostDuplicatedOrStuckAcrossKillPoints) {
  const std::vector<std::string> specs = kill_specs();
  ASSERT_GE(specs.size(), 20u);
  int iteration = 0;
  for (const std::string& spec : specs) {
    SCOPED_TRACE("kill spec: " + spec);
    ScratchSpool spool("sweep_" + std::to_string(iteration++));
    SpoolQueue q(spool.root);
    std::set<std::string> submitted;
    submitted.insert(submit_job(q, "c17", 1));
    submitted.insert(submit_job(q, "s27", 2));
    // A guaranteed crash-looper so death/retry/requeue paths execute (and
    // with them the daemon.pre-requeue / post-reap kill points).
    const std::string crasher = submit_job(q, "c17", 3, "crash-pre-run");
    submitted.insert(crasher);

    // Phase 1: daemon under chaos. Either it completes the drain (a worker
    // kill spec does not kill the daemon) or it is SIGKILLed mid-protocol.
    std::vector<std::string> flags = fast_daemon_flags(spool.root);
    flags.push_back("--inject-kill=" + spec);
    run_served(flags);

    // Phase 2: a clean restart must recover and drain completely.
    ASSERT_EQ(run_served(fast_daemon_flags(spool.root)), 0);

    expect_exact_partition(q, submitted);
    // The crash-looper's injected SIGKILL fires on every attempt, so no
    // amount of recovery can make it succeed: retries exhausted.
    EXPECT_TRUE(fs::exists(q.job_path("quarantined", crasher)));
    // A daemon-side kill only interrupts work (never consumes the retry
    // budget), so the two healthy jobs must still complete successfully.
    if (spec.rfind("daemon.", 0) == 0) {
      EXPECT_EQ(q.ids_in("done").size(), 2u)
          << "healthy jobs lost to a daemon-side kill";
    }
  }
}

// ----------------------------------------------------- supervision paths

// The second input's loop wakes less often than every 2.5 s, so the hung
// worker is found past its 3 s timeout only on the second wait. Nothing in
// the loop may depend on how often it wakes: the one attempt must end in a
// timeout, not an interruption.
TEST(ServeChaos, HangingWorkerIsTimedOutRetriedThenQuarantined) {
  struct Input {
    std::vector<std::string> flags;
    std::size_t attempts;  // first attempt + retries
  };
  const std::vector<Input> inputs = {
      {{"--poll=0.005", "--timeout=0.3", "--retries=1", "--backoff=0.01"}, 2},
      {{"--poll=2.5", "--timeout=3", "--retries=0"}, 1},
  };
  for (const Input& input : inputs) {
    SCOPED_TRACE(input.flags[0]);
    ScratchSpool spool("hang_" + std::to_string(input.attempts));
    SpoolQueue q(spool.root);
    const std::string id = submit_job(q, "c17", 1, "hang");
    std::vector<std::string> flags = {"--spool=" + spool.root, "--once",
                                      "--workers=1"};
    flags.insert(flags.end(), input.flags.begin(), input.flags.end());
    const int status = run_served(flags);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
    ASSERT_TRUE(fs::exists(q.job_path("quarantined", id)));
    const util::JsonValue rec = read_record(q, "quarantined", id);
    const auto& attempts = rec.at("attempts").items();
    ASSERT_EQ(attempts.size(), input.attempts);
    for (const util::JsonValue& a : attempts) {
      EXPECT_EQ(a.get_string("outcome", ""), "timeout");
    }
    // Retries ran under perturbed seeds (journaled as decimal strings).
    if (attempts.size() == 2) {
      EXPECT_NE(attempts[0].get_string("seed", ""),
                attempts[1].get_string("seed", ""));
    }
  }
}

TEST(ServeChaos, CrashLoopingCircuitTripsBreakerAndShortCircuits) {
  ScratchSpool spool("breaker");
  SpoolQueue q(spool.root);
  const std::string a = submit_job(q, "c17", 1, "crash-pre-run");
  const std::string b = submit_job(q, "c17", 2, "crash-pre-run");
  const int status = run_served(
      {"--spool=" + spool.root, "--once", "--workers=1", "--poll=0.005",
       "--timeout=20", "--retries=5", "--backoff=0.01",
       "--breaker-threshold=2", "--breaker-cooldown=600"});
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  ASSERT_TRUE(fs::exists(q.job_path("quarantined", a)));
  ASSERT_TRUE(fs::exists(q.job_path("quarantined", b)));
  bool breaker_cited = false;
  for (const std::string& id : {a, b}) {
    const util::JsonValue rec = read_record(q, "quarantined", id);
    if (rec.at("failure").get_string("detail", "").find("breaker") !=
        std::string::npos) {
      breaker_cited = true;
    }
  }
  EXPECT_TRUE(breaker_cited)
      << "no quarantine record cites the tripped circuit breaker";
}

TEST(ServeChaos, DeadlinePropagatesIntoTruncatedButCertifiedResult) {
  ScratchSpool spool("deadline");
  SpoolQueue q(spool.root);
  // An annealing run far larger than the deadline allows: the watchdog must
  // truncate it to the best-seen state, which still certifies and lands in
  // done/ instead of being SIGKILLed by the supervisor timeout.
  const std::string id = submit_job(q, "s27", 5, "", "anneal",
                                    /*anneal_moves=*/8000000,
                                    /*deadline=*/0.2);
  const int status = run_served(
      {"--spool=" + spool.root, "--once", "--workers=1", "--poll=0.005",
       "--timeout=60"});
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  ASSERT_TRUE(fs::exists(q.job_path("done", id)));
  const util::JsonValue rec = read_record(q, "done", id);
  EXPECT_TRUE(rec.at("result").get_bool("truncated", false));
  EXPECT_TRUE(rec.at("result").get_bool("certified", false));
}

// -------------------------------------------------- graceful drain/resume

// Stops the daemon mid-anneal with `sig`, restarts it, and checks that the
// finished job is bit-identical to an uninterrupted run of the same job.
// SIGTERM drains: the job is requeued with its PR-3 checkpoint. SIGKILL
// leaves the job in running/ and its worker dies with the daemon; the
// restart's recovery requeues it with the same checkpoint. Either way the
// restarted worker resumes rather than starting over.
void expect_anneal_resumes_bit_exactly(int sig) {
  const int kMoves = 800000;  // ~seconds of work: room to interrupt

  // Reference: the same job, never interrupted.
  ScratchSpool reference("resume_b" + std::to_string(sig));
  SpoolQueue qb(reference.root);
  const std::string idb = submit_job(qb, "s27", 7, "", "anneal", kMoves);
  ASSERT_EQ(run_served(fast_daemon_flags(reference.root, 120)), 0);
  ASSERT_TRUE(fs::exists(qb.job_path("done", idb)));
  const util::JsonValue rb = read_record(qb, "done", idb);
  EXPECT_TRUE(rb.at("result").get_bool("certified", false));

  ScratchSpool interrupted("resume_a" + std::to_string(sig));
  SpoolQueue qa(interrupted.root);
  const std::string ida = submit_job(qa, "s27", 7, "", "anneal", kMoves);

  // Start the daemon, wait until the worker has snapshotted at least one
  // checkpoint, then stop it (SIGTERM with a grace window too short to
  // finish).
  const pid_t daemon = spawn_served(
      {"--spool=" + interrupted.root, "--workers=1", "--poll=0.005",
       "--timeout=120", "--drain-grace=0.02"});
  const std::string ck_path = qa.checkpoint_path(ida);
  bool saw_checkpoint = false;
  for (int i = 0; i < 2000; ++i) {
    if (fs::exists(ck_path)) {
      saw_checkpoint = true;
      break;
    }
    sleep_seconds(0.005);
  }
  EXPECT_TRUE(saw_checkpoint) << "worker never wrote a checkpoint";
  kill(daemon, sig);
  const int status = wait_exit(daemon, 30.0);
  if (sig == SIGTERM) {
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "SIGTERM drain did not exit cleanly";

    // The interrupted job is back in pending/ with its checkpoint
    // preserved and the interruption journaled (no retry budget consumed).
    ASSERT_TRUE(fs::exists(qa.job_path("pending", ida)));
    ASSERT_TRUE(fs::exists(ck_path));
    const Job requeued = Job::from_json(
        io::read_artifact(qa.job_path("pending", ida), kJobSchema),
        "pending");
    ASSERT_FALSE(requeued.attempts.empty());
    EXPECT_EQ(requeued.attempts.back().outcome, "interrupted");
    EXPECT_EQ(requeued.failed_attempts(), 0);
  } else {
    EXPECT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);
    ASSERT_TRUE(fs::exists(qa.job_path("running", ida)));
    ASSERT_TRUE(fs::exists(ck_path));
  }

  // Restart: resumes from the snapshot and finishes.
  ASSERT_EQ(run_served(fast_daemon_flags(interrupted.root, 120)), 0);
  ASSERT_TRUE(fs::exists(qa.job_path("done", ida)));
  const util::JsonValue ra = read_record(qa, "done", ida);
  EXPECT_TRUE(ra.at("result").get_bool("resumed", false))
      << "restarted worker did not resume from the checkpoint";
  if (sig == SIGKILL) {
    const auto& attempts = ra.at("attempts").items();
    ASSERT_EQ(attempts.size(), 2u);
    EXPECT_EQ(attempts[0].get_string("outcome", ""), "interrupted");
    EXPECT_EQ(attempts[1].get_string("outcome", ""), "ok");
  }

  // Bit-exact: the JSON emits doubles with %.17g (exact round-trip), so
  // equality here is equality of the underlying bits.
  for (const char* field : {"energy_total", "static_energy",
                            "dynamic_energy", "vdd", "vts_primary",
                            "critical_delay"}) {
    EXPECT_EQ(ra.at("result").get_number(field, -1.0),
              rb.at("result").get_number(field, -2.0))
        << "field " << field << " diverged after the restart";
  }
  EXPECT_TRUE(ra.at("result").get_bool("certified", false));
}

TEST(ServeChaos, DrainedAnnealResumesBitExactlyAfterRestart) {
  expect_anneal_resumes_bit_exactly(SIGTERM);
}

// Failover by restart: kill -9 the daemon mid-anneal. The kernel
// drops its spool lock with it, so the daemon started next takes the spool
// over at once and resumes the anneal bit-exactly from its checkpoint.
TEST(HaFailover, StandbyTakeoverResumesAnnealBitExactly) {
  expect_anneal_resumes_bit_exactly(SIGKILL);
}

// ------------------------------------------------------------ health file

TEST(ServeChaos, HealthFileTracksDaemonLifecycle) {
  ScratchSpool spool("health");
  SpoolQueue q(spool.root);
  submit_job(q, "c17", 1);
  ASSERT_EQ(run_served(fast_daemon_flags(spool.root)), 0);
  const std::string path = (fs::path(spool.root) / "health.json").string();
  const util::JsonValue h =
      util::JsonValue::parse(io::read_artifact(path, "minergy.health.v1"), path);
  EXPECT_EQ(h.get_string("schema", ""), "minergy.health.v1");
  EXPECT_EQ(h.get_string("state", ""), "stopped");
  EXPECT_DOUBLE_EQ(h.at("queue").get_number("done", -1), 1.0);
}

// ----------------------------------------------------------- batch runner

// Runs minergy_batch to completion; returns its exit code (-1 if signaled).
int run_batch(const std::vector<std::string>& flags) {
  bool timed_out = false;
  const int status =
      wait_exit(spawn_binary(MINERGY_BATCH_BIN, flags), 120.0, &timed_out);
  EXPECT_FALSE(timed_out) << "minergy_batch did not exit within the cap";
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

util::JsonValue read_batch_report(const std::string& path) {
  return util::JsonValue::parse(
      io::read_artifact(path, "minergy.batch_report.v1"), path);
}

std::size_t count_records(const fs::path& dir) {
  std::error_code ec;
  std::size_t n = 0;
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->path().extension() == ".json") ++n;
  }
  return n;
}

TEST(BatchRunner, SigtermMidBatchFlushesAnInterruptedReport) {
  ScratchSpool dir("batch_sigterm");
  fs::create_directories(dir.root);
  const std::string report = dir.root + "/report.json";
  const fs::path spool = report + ".spool";
  const pid_t batch = spawn_binary(
      MINERGY_BATCH_BIN, {"--circuits=s27,s344*", "--inject-hang=s344*",
                          "--timeout=60", "--report=" + report});
  // Interrupt once s27 is done and the hung s344* worker is in flight.
  bool in_flight = false;
  for (int i = 0; i < 6000 && !in_flight; ++i) {
    in_flight = count_records(spool / "done") == 1 &&
                count_records(spool / "running") == 1;
    if (!in_flight) sleep_seconds(0.01);
  }
  EXPECT_TRUE(in_flight) << "batch never reached its hung second job";
  kill(batch, SIGTERM);
  const int status = wait_exit(batch, 60.0);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 3);

  const util::JsonValue root = read_batch_report(report);
  EXPECT_TRUE(root.get_bool("interrupted", false));
  const auto& circuits = root.at("circuits").items();
  ASSERT_EQ(circuits.size(), 2u);
  EXPECT_EQ(circuits[0].get_string("status", ""), "ok");
  EXPECT_EQ(circuits[1].get_string("status", ""), "interrupted");
  EXPECT_FALSE(fs::exists(spool)) << "batch spool left behind";

  EXPECT_EQ(run_batch({"--verify-report=" + report}), 1);
  EXPECT_EQ(run_batch({"--verify-report=" + report, "--allow-interrupted"}),
            0);
}

TEST(BatchRunner, TypedWorkerFailureFailsTheBatchAfterOneAttempt) {
  ScratchSpool dir("batch_typed_failure");
  fs::create_directories(dir.root);
  const std::string report = dir.root + "/report.json";
  EXPECT_EQ(run_batch({"--circuits=s27,nosuch", "--timeout=60",
                       "--report=" + report}),
            1);
  const util::JsonValue root = read_batch_report(report);
  const auto& circuits = root.at("circuits").items();
  ASSERT_EQ(circuits.size(), 2u);
  EXPECT_EQ(circuits[0].get_string("status", ""), "ok");
  EXPECT_EQ(circuits[1].get_string("circuit", ""), "nosuch");
  EXPECT_EQ(circuits[1].get_string("status", ""), "failed");
  EXPECT_EQ(circuits[1].at("attempts").items().size(), 1u);
  EXPECT_TRUE(root.at("quarantined").items().empty());
  EXPECT_EQ(run_batch({"--verify-report=" + report}), 1);
}

}  // namespace
}  // namespace minergy::serve
