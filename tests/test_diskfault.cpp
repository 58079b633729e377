// Storage-fault chaos for the optimization service: run the real
// minergy_served binary with an --inject-io schedule (src/io/fault_fs.h)
// that fails, tears, or shortens specific syscalls, then prove the same
// exactly-once contract the SIGKILL harness proves for process death —
// after a clean second pass, every submitted job sits in exactly one
// terminal state with a certified result or a typed failure, and the
// spool audits clean. Plus the degraded-mode path (ENOSPC pauses
// admissions, probes, resumes), typed ENOSPC submit rejection, and
// bit-exact anneal resume from an older checkpoint generation after the
// newest one is torn.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <fcntl.h>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "io/checkpoint.h"
#include "io/envelope.h"
#include "serve/job.h"
#include "serve/queue.h"
#include "util/json.h"

#ifndef MINERGY_SERVED_BIN
#error "MINERGY_SERVED_BIN must point at the minergy_served executable"
#endif

namespace minergy::serve {
namespace {

namespace fs = std::filesystem;

struct ScratchSpool {
  explicit ScratchSpool(const std::string& stem)
      : root(
            (fs::temp_directory_path() / ("minergy_diskfault_" + stem))
                .string()) {
    fs::remove_all(root);
  }
  ~ScratchSpool() { fs::remove_all(root); }
  std::string root;
};

void sleep_seconds(double s) {
  std::this_thread::sleep_for(std::chrono::duration<double>(s));
}

// fork+exec minergy_served; stdout silenced, stderr appended to
// `stderr_path` when given (the degraded-mode tests grep it).
pid_t spawn_served(const std::vector<std::string>& flags,
                   const std::string& stderr_path = std::string()) {
  std::vector<std::string> args = {MINERGY_SERVED_BIN};
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
      if (stderr_path.empty()) dup2(null_fd, STDERR_FILENO);
      close(null_fd);
    }
    if (!stderr_path.empty()) {
      const int err_fd =
          open(stderr_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (err_fd >= 0) {
        dup2(err_fd, STDERR_FILENO);
        close(err_fd);
      }
    }
    execv(argv[0], argv.data());
    _exit(127);
  }
  return pid;
}

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

int run_served(const std::vector<std::string>& flags,
               const std::string& stderr_path = std::string(),
               double timeout_seconds = 120.0) {
  bool timed_out = false;
  const int status = wait_exit(spawn_served(flags, stderr_path),
                               timeout_seconds, &timed_out);
  EXPECT_FALSE(timed_out) << "daemon did not exit within the cap";
  return status;
}

std::string submit_job(SpoolQueue& q, const std::string& circuit,
                       std::uint64_t seed,
                       const std::string& optimizer = "baseline",
                       int anneal_moves = 0) {
  Job job;
  job.circuit = circuit;
  job.optimizer = optimizer;
  job.seed = seed;
  job.anneal_moves = anneal_moves;
  return q.submit(job);
}

util::JsonValue read_record(const SpoolQueue& q, const std::string& state,
                            const std::string& id) {
  const std::string path = q.job_path(state, id);
  return util::JsonValue::parse(io::read_artifact(path, ""), path);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
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

// The relaxed exactly-once oracle for storage faults. Unlike the SIGKILL
// sweep, a fault schedule propagates into every (re)spawned worker with
// per-process counts, so a job can legitimately exhaust its retries and
// quarantine; what must still hold is the partition — every submitted id
// in exactly one terminal state, nothing pending/running, done/ certified,
// failures typed — cross-checked by the service's own auditor.
void expect_exact_partition(const SpoolQueue& q,
                            const std::set<std::string>& submitted) {
  EXPECT_TRUE(q.ids_in("pending").empty()) << "job(s) left in pending/";
  EXPECT_TRUE(q.ids_in("running").empty()) << "job(s) stuck in running/";
  std::set<std::string> terminal;
  for (const char* state : {"done", "failed", "quarantined"}) {
    for (const std::string& id : q.ids_in(state)) {
      EXPECT_TRUE(terminal.insert(id).second)
          << "job " << id << " is in more than one terminal state";
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

// ------------------------------------------------------ errno-fault sweep

// Deterministic storage-fault schedules across every op the io layer
// performs. The daemon may degrade-and-resume, workers may die and retry,
// a short-read may quarantine a job as corrupt — but the partition holds
// and a clean second pass leaves an auditable spool. tearcommit schedules
// are exercised separately (TruncationSweep/test_io): a torn-but-committed
// *terminal* record is detectable but not repairable, which is exactly why
// the write path fsyncs before renaming.
TEST(DiskFault, ExactlyOnceHoldsAcrossStorageFaultSchedules) {
  const std::vector<std::string> specs = {
      "write@1:enospc",
      "write@2:eio",
      "write@4:enospc",
      "write@1:tear=30",
      "write@3:tear=10",
      "fsync@1:eio",
      "fsync@2:enospc",
      "fsync@5:eio",
      "rename@1:eio",
      "rename@3:eio",
      "read@1:short=25",
      "read@2:short=5",
      "write@2:enospc,fsync@3:eio",
      "rename@2:eio,read@1:short=40",
  };
  int iteration = 0;
  for (const std::string& spec : specs) {
    SCOPED_TRACE("fault spec: " + spec);
    ScratchSpool spool("sweep_" + std::to_string(iteration++));
    SpoolQueue q(spool.root);
    std::set<std::string> submitted;
    submitted.insert(submit_job(q, "c17", 1));
    submitted.insert(submit_job(q, "s27", 2));

    // Phase 1: the daemon (and its workers, via propagation) under the
    // fault schedule. It must exit on its own — degraded mode may pause
    // it, but every directive fires once, so the probe loop always ends.
    std::vector<std::string> flags = fast_daemon_flags(spool.root);
    flags.push_back("--inject-io=" + spec);
    run_served(flags);

    // Phase 2: a clean pass drains whatever the faults interrupted.
    ASSERT_EQ(run_served(fast_daemon_flags(spool.root)), 0);

    expect_exact_partition(q, submitted);
  }
}

// ------------------------------------------------------- degraded daemon

TEST(DiskFault, EnospcBurstPausesAdmissionsThenResumes) {
  ScratchSpool spool("degraded");
  SpoolQueue q(spool.root);
  const std::string id = submit_job(q, "c17", 3);
  const std::string log = spool.root + "_stderr.log";
  std::remove(log.c_str());

  // Daemon fsyncs #1/#2 are the "starting" health write (file + parent
  // dir); #3 is the "serving" health write, #4 the degraded-mode one. Fail
  // #3 and #4: the daemon must enter degraded mode (pausing admissions),
  // survive the degraded health write itself failing, keep probing,
  // recover, and still drain to a clean exit. Counts are per-process, and
  // a worker fsyncs only twice (its one result write), so the schedule
  // never fires inside workers.
  std::vector<std::string> flags = fast_daemon_flags(spool.root);
  flags.push_back("--inject-io=fsync@3:enospc,fsync@4:eio");
  const int status = run_served(flags, log);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);

  const std::string err = slurp(log);
  std::remove(log.c_str());
  EXPECT_NE(err.find("degraded (storage fault"), std::string::npos)
      << "daemon never announced degraded mode; stderr:\n" << err;
  EXPECT_NE(err.find("storage writable again; resuming"), std::string::npos)
      << "daemon never announced recovery; stderr:\n" << err;

  EXPECT_TRUE(fs::exists(q.job_path("done", id)));
  const std::string health = (fs::path(spool.root) / "health.json").string();
  const util::JsonValue h = util::JsonValue::parse(
      io::read_artifact(health, "minergy.health.v1"), health);
  EXPECT_EQ(h.get_string("state", ""), "stopped");
}

// ---------------------------------------------------- admission rejection

TEST(DiskFault, SubmitOnFullDiskIsTypedRejection) {
  ScratchSpool spool("submit_enospc");
  SpoolQueue q(spool.root);  // create the tree so only the job write faults
  const std::string log = spool.root + "_stderr.log";
  std::remove(log.c_str());

  const int status = run_served({"--spool=" + spool.root, "--submit",
                                 "--circuit=c17",
                                 "--inject-io=write@1:enospc"},
                                log);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 1)
      << "ENOSPC submit must be a validation failure (1), not a crash";
  const std::string err = slurp(log);
  std::remove(log.c_str());
  EXPECT_NE(err.find("rejected:"), std::string::npos) << err;
  EXPECT_NE(err.find("retry-after"), std::string::npos) << err;
  EXPECT_TRUE(q.ids_in("pending").empty());

  // The same submit succeeds the moment the disk does.
  const int ok = run_served(
      {"--spool=" + spool.root, "--submit", "--circuit=c17"});
  EXPECT_TRUE(WIFEXITED(ok) && WEXITSTATUS(ok) == 0);
  EXPECT_EQ(q.ids_in("pending").size(), 1u);
}

// ----------------------------------------- generation fallback, end to end

// SIGTERM an anneal mid-flight, tear the *newest* checkpoint generation,
// restart: the worker must fall back to the previous generation and still
// finish bit-identical to an uninterrupted reference run — the PR-3
// completed-steps-only rule makes any valid generation (or even a fresh
// start) converge to the same answer; fallback costs time, never bits.
TEST(DiskFault, TornNewestCheckpointGenerationResumesBitExactly) {
  const int kMoves = 800000;
  ScratchSpool interrupted("gen_a");
  ScratchSpool reference("gen_b");
  SpoolQueue qa(interrupted.root);
  SpoolQueue qb(reference.root);
  const std::string ida = submit_job(qa, "s27", 7, "anneal", kMoves);
  const std::string idb = submit_job(qb, "s27", 7, "anneal", kMoves);

  // Wait for at least two snapshot generations before interrupting, so a
  // torn newest has something to fall back to.
  const pid_t daemon = spawn_served(
      {"--spool=" + interrupted.root, "--workers=1", "--poll=0.005",
       "--timeout=120", "--drain-grace=0.02"});
  const std::string ck_path = qa.checkpoint_path(ida);
  const std::string gen1 = io::Checkpoint::generation_path(ck_path, 1);
  bool saw_generations = false;
  for (int i = 0; i < 2000; ++i) {
    if (fs::exists(gen1)) {
      saw_generations = true;
      break;
    }
    sleep_seconds(0.005);
  }
  EXPECT_TRUE(saw_generations) << "worker never rotated a second generation";
  kill(daemon, SIGTERM);
  const int status = wait_exit(daemon, 30.0);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  ASSERT_TRUE(fs::exists(qa.job_path("pending", ida)));
  ASSERT_TRUE(fs::exists(ck_path));

  // Tear the newest generation in half — CRC-detectable bit-rot/truncation.
  {
    const std::string intact = slurp(ck_path);
    ASSERT_GT(intact.size(), 64u);
    std::ofstream out(ck_path, std::ios::trunc | std::ios::binary);
    out << intact.substr(0, intact.size() / 2);
  }

  ASSERT_EQ(run_served(fast_daemon_flags(interrupted.root, 120)), 0);
  ASSERT_TRUE(fs::exists(qa.job_path("done", ida)));
  const util::JsonValue ra = read_record(qa, "done", ida);
  EXPECT_TRUE(ra.at("result").get_bool("resumed", false))
      << "worker did not resume from a fallback generation";

  ASSERT_EQ(run_served(fast_daemon_flags(reference.root, 120)), 0);
  ASSERT_TRUE(fs::exists(qb.job_path("done", idb)));
  const util::JsonValue rb = read_record(qb, "done", idb);

  for (const char* field : {"energy_total", "static_energy",
                            "dynamic_energy", "vdd", "vts_primary",
                            "critical_delay"}) {
    EXPECT_EQ(ra.at("result").get_number(field, -1.0),
              rb.at("result").get_number(field, -2.0))
        << "field " << field << " diverged after generation fallback";
  }
  EXPECT_TRUE(ra.at("result").get_bool("certified", false));
  EXPECT_TRUE(rb.at("result").get_bool("certified", false));
}

}  // namespace
}  // namespace minergy::serve
