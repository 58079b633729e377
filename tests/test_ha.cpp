// High-availability suite: fenced leader leases, hot-standby failover, and
// the clock discipline underneath them.
//
// In-process tests drive LeaseManager/SpoolQueue directly (with a
// util::VirtualClock where wall jumps matter); subprocess tests run the
// real minergy_served binary in leader + standby pairs under deterministic
// --inject-kill / --inject-stop chaos and prove the two HA invariants:
//
//   exactly-once FINALIZATION  no job record is ever finalized twice, even
//                              by a SIGSTOPped zombie leader resumed after
//                              its lease was stolen (the fencing token at
//                              the finalize commit point rejects it)
//   bounded takeover           a standby owns the spool within ~1 lease TTL
//                              of leader death, and resumes in-flight
//                              anneals bit-exactly from their checkpoints
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <fcntl.h>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "io/envelope.h"
#include "obs/metrics.h"
#include "serve/job.h"
#include "serve/lease.h"
#include "serve/queue.h"
#include "util/clock.h"
#include "util/json.h"

#ifndef MINERGY_SERVED_BIN
#error "MINERGY_SERVED_BIN must point at the minergy_served executable"
#endif
#ifndef MINERGY_TRACE_CHECK_BIN
#error "MINERGY_TRACE_CHECK_BIN must point at the trace_check executable"
#endif

namespace minergy::serve {
namespace {

namespace fs = std::filesystem;

struct ScratchSpool {
  explicit ScratchSpool(const std::string& stem)
      : root((fs::temp_directory_path() / ("minergy_ha_" + stem)).string()) {
    fs::remove_all(root);
  }
  ~ScratchSpool() { fs::remove_all(root); }
  std::string root;
};

void sleep_seconds(double s) {
  std::this_thread::sleep_for(std::chrono::duration<double>(s));
}

pid_t spawn_proc(const std::string& binary,
                 const std::vector<std::string>& flags) {
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
  return spawn_proc(MINERGY_SERVED_BIN, flags);
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
               double timeout_seconds = 120.0) {
  bool timed_out = false;
  const int status =
      wait_exit(spawn_served(flags), timeout_seconds, &timed_out);
  EXPECT_FALSE(timed_out) << "daemon did not exit within the cap";
  return status;
}

// /proc/<pid>/stat process state letter ('R', 'S', 'T', ...), or '?'.
char proc_state(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  if (!in) return '?';
  std::string stat;
  std::getline(in, stat);
  const std::size_t close_paren = stat.rfind(')');
  if (close_paren == std::string::npos || close_paren + 2 >= stat.size()) {
    return '?';
  }
  return stat[close_paren + 2];
}

std::string submit_job(SpoolQueue& q, const std::string& circuit,
                       std::uint64_t seed, const std::string& inject = "",
                       const std::string& optimizer = "baseline",
                       int anneal_moves = 0) {
  Job job;
  job.circuit = circuit;
  job.optimizer = optimizer;
  job.seed = seed;
  job.inject = inject;
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

std::size_t count_occurrences(const std::string& haystack,
                              const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

// The exactly-once oracle (same contract as test_serve_chaos, now under
// multi-daemon chaos): every submitted id in exactly one terminal state,
// nothing stuck, done/ certified — cross-checked by the tool's auditor.
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
  const int expect_rc = q.ids_in("quarantined").empty() ? 0 : 4;
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == expect_rc)
      << "minergy_served --status --verify rejected the spool";
}

// `timeout` is the per-job supervisor limit in seconds; the 800k-move anneal
// test passes 120 so its run is bounded by move count, not machine speed.
std::vector<std::string> ha_flags(const std::string& spool, double ttl,
                                  double margin, bool once, bool standby,
                                  int timeout = 20) {
  std::vector<std::string> f = {
      "--spool=" + spool,
      "--workers=2",
      "--poll=0.005",
      "--timeout=" + std::to_string(timeout),
      "--retries=1",
      "--backoff=0.01",
      "--drain-grace=0.05",
      "--breaker-threshold=99",
      "--lease-ttl-s=" + std::to_string(ttl),
      "--lease-margin-s=" + std::to_string(margin),
  };
  if (once) f.push_back("--once");
  if (standby) f.push_back("--standby");
  return f;
}

void write_lease_file(const std::string& spool, const LeaseRecord& rec) {
  const std::string content = io::wrap_envelope(rec.to_json(), kLeaseSchema);
  std::ofstream out(spool + "/leader.lease", std::ios::trunc);
  out << content;
}

// ------------------------------------------------------ clock discipline

TEST(HaClock, UnixMonotoneNeverDecreasesAcrossWallJumps) {
  // Leaked: the per-instance floor map keys on the Clock address, so stack
  // reuse across tests would make a fresh clock inherit a stale floor.
  auto* vc = new util::VirtualClock();
  const double u0 = vc->unix_monotone();
  vc->jump_wall(-3600.0);  // NTP step back one hour
  const double u1 = vc->unix_monotone();
  EXPECT_GE(u1, u0) << "unix_monotone went backwards on a wall step";
  vc->advance(10.0);
  const double u2 = vc->unix_monotone();
  EXPECT_NEAR(u2 - u1, 10.0, 1e-9)
      << "time does not advance at monotonic rate while wall lags the floor";
  vc->jump_wall(7200.0);  // correction lands: wall is ahead again
  const double u3 = vc->unix_monotone();
  EXPECT_GE(u3, u2);
  EXPECT_GT(u3, u2 + 3000.0) << "forward correction was not taken";

  const double s0 = util::Clock::system().unix_monotone();
  EXPECT_GT(s0, 1.0e9);
  EXPECT_GE(util::Clock::system().unix_monotone(), s0);
}

// ------------------------------------------------------- lease state machine

TEST(HaLease, AcquireRenewReleaseHandover) {
  ScratchSpool spool("lease_basic");
  fs::create_directories(spool.root);
  LeaseOptions oa;
  oa.ttl_seconds = 0.3;
  oa.margin_seconds = 0.2;
  oa.host_override = "hostA";
  LeaseManager a(spool.root, oa);
  ASSERT_TRUE(a.try_acquire());
  EXPECT_TRUE(a.is_leader());
  EXPECT_EQ(a.token(), 1u);
  EXPECT_TRUE(a.renew());  // early renew: cheap no-op
  EXPECT_TRUE(a.fence_ok(1));
  EXPECT_FALSE(a.fence_ok(2));

  const auto rec = a.read();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->fencing_token, 1u);
  EXPECT_EQ(rec->owner.host, "hostA");
  EXPECT_FALSE(rec->released);

  a.release();
  EXPECT_FALSE(a.is_leader());
  const auto rel = a.read();
  ASSERT_TRUE(rel.has_value());
  EXPECT_TRUE(rel->released);

  // A released lease hands over instantly (no expiry wait), token bumped.
  LeaseOptions ob = oa;
  ob.host_override = "hostB";
  LeaseManager b(spool.root, ob);
  ASSERT_TRUE(b.try_acquire());
  EXPECT_EQ(b.token(), 2u);
  EXPECT_FALSE(a.fence_ok(1)) << "stale token still passes the fence";
}

TEST(HaLease, StealsOnlyAfterObservedExpiryDespiteWallJumps) {
  ScratchSpool spool("lease_steal");
  fs::create_directories(spool.root);
  auto* vc = new util::VirtualClock();
  LeaseOptions oa;
  oa.ttl_seconds = 0.3;
  oa.margin_seconds = 0.2;  // steal horizon: 0.5 observed seconds
  oa.host_override = "hostA";
  LeaseOptions ob = oa;
  ob.host_override = "hostB";
  LeaseManager a(spool.root, oa, vc);
  LeaseManager b(spool.root, ob, vc);

  ASSERT_TRUE(a.try_acquire());
  EXPECT_FALSE(b.try_acquire()) << "standby stole a fresh lease";

  // Wall-clock chaos during the observation window: steps of ±1 hour on
  // the wall axis must not shorten (or extend) the monotonic horizon.
  vc->advance(0.2);
  vc->jump_wall(-3600.0);
  EXPECT_FALSE(b.try_acquire()) << "backward wall jump caused premature steal";
  vc->advance(0.2);
  vc->jump_wall(3600.0);
  EXPECT_FALSE(b.try_acquire()) << "forward wall jump caused premature steal";

  vc->advance(0.2);  // 0.6 observed seconds > 0.5 horizon
  ASSERT_TRUE(b.try_acquire()) << "expired lease was never stolen";
  EXPECT_EQ(b.token(), 2u);

  // The deposed leader notices on its next heartbeat and self-demotes.
  EXPECT_FALSE(a.renew());
  EXPECT_FALSE(a.is_leader());
  EXPECT_FALSE(a.fence_ok(1));
  EXPECT_TRUE(b.fence_ok(2));
}

// A lease that no longer parses is what a standby repairs: it watches the
// damaged bytes for one expiry window, then steals with a higher token,
// which fences the old leader.
TEST(HaLease, DamagedLeaseIsStolenAfterOneExpiryWindow) {
  ScratchSpool spool("lease_damaged");
  fs::create_directories(spool.root);
  auto* vc = new util::VirtualClock();
  LeaseOptions oa;
  oa.ttl_seconds = 0.3;
  oa.margin_seconds = 0.2;  // steal horizon: 0.5 observed seconds
  oa.host_override = "hostA";
  LeaseOptions ob = oa;
  ob.host_override = "hostB";
  LeaseManager a(spool.root, oa, vc);
  LeaseManager b(spool.root, ob, vc);

  ASSERT_TRUE(a.try_acquire());
  EXPECT_FALSE(b.try_acquire()) << "standby stole a fresh lease";

  std::ofstream(spool.root + "/leader.lease", std::ios::trunc)
      << "garbage, not an envelope\n";
  EXPECT_FALSE(b.try_acquire()) << "damaged lease stolen on first sight";
  vc->advance(0.4);  // 0.4 observed seconds < 0.5 horizon
  EXPECT_FALSE(b.try_acquire()) << "damaged lease stolen before ttl + margin";

  obs::set_enabled(true);
  const std::int64_t takeovers_before =
      obs::counter("serve.lease.takeovers").value();
  vc->advance(0.2);  // 0.6 observed seconds
  ASSERT_TRUE(b.try_acquire()) << "damaged lease was never stolen";
  EXPECT_GT(b.token(), 1u);
  EXPECT_EQ(obs::counter("serve.lease.takeovers").value(),
            takeovers_before + 1);
  EXPECT_FALSE(a.fence_ok(1));
}

TEST(HaLease, RenewalResetsStandbyObservation) {
  ScratchSpool spool("lease_renew");
  fs::create_directories(spool.root);
  auto* vc = new util::VirtualClock();
  LeaseOptions oa;
  oa.ttl_seconds = 0.3;
  oa.margin_seconds = 0.2;
  oa.host_override = "hostA";
  LeaseOptions ob = oa;
  ob.host_override = "hostB";
  LeaseManager a(spool.root, oa, vc);
  LeaseManager b(spool.root, ob, vc);

  ASSERT_TRUE(a.try_acquire());
  EXPECT_FALSE(b.try_acquire());
  vc->advance(0.25);        // past ttl/3: the renew writes
  ASSERT_TRUE(a.renew());
  EXPECT_FALSE(b.try_acquire());  // observation restarts at the new bytes
  vc->advance(0.4);         // 0.4 observed since renewal < 0.5 horizon
  EXPECT_FALSE(b.try_acquire())
      << "standby counted staleness across a renewal";
  vc->advance(0.2);         // 0.6 observed since renewal
  EXPECT_TRUE(b.try_acquire());
}

TEST(HaLease, LeaderSelfDemotesAfterMissingItsOwnTtl) {
  ScratchSpool spool("lease_selfexpire");
  fs::create_directories(spool.root);
  auto* vc = new util::VirtualClock();
  LeaseOptions oa;
  oa.ttl_seconds = 0.3;
  oa.margin_seconds = 0.2;
  oa.host_override = "hostA";
  LeaseManager a(spool.root, oa, vc);
  ASSERT_TRUE(a.try_acquire());
  vc->advance(0.4);  // over-slept past its own ttl
  EXPECT_FALSE(a.renew())
      << "leader rewrote the lease after missing its own ttl";
  EXPECT_FALSE(a.is_leader());
  // The record still names it, so re-acquisition is the instant readopt
  // path with the SAME token (nobody else ever owned the spool).
  EXPECT_TRUE(a.try_acquire());
  EXPECT_EQ(a.token(), 1u);
}

TEST(HaLease, DeadOwnerOnSameHostIsReclaimedImmediately) {
  ScratchSpool spool("lease_dead");
  fs::create_directories(spool.root);
  // A child that exits at once: its pid is a real, now-dead process.
  const pid_t child = fork();
  if (child == 0) _exit(0);
  int status = 0;
  waitpid(child, &status, 0);

  LeaseRecord dead;
  dead.fencing_token = 7;
  dead.owner = LeaseOwner::self();  // real host
  dead.owner.pid = child;
  dead.owner.pid_start_ticks = 12345;
  dead.acquired_unix = 1.0;
  dead.renewed_unix = 1.0;
  dead.ttl_seconds = 3600.0;  // observed expiry would take an hour
  write_lease_file(spool.root, dead);

  LeaseOptions opts;
  opts.ttl_seconds = 3600.0;
  LeaseManager b(spool.root, opts);
  ASSERT_TRUE(b.try_acquire())
      << "dead-owner probe did not reclaim an hour-long lease";
  EXPECT_EQ(b.token(), 8u);
}

TEST(HaLease, RecycledPidIsDetectedByStartTicks) {
  ScratchSpool spool("lease_recycled");
  fs::create_directories(spool.root);
  // The recorded owner is THIS live pid but with impossible start ticks:
  // the pid was recycled, so the recorded process is dead.
  LeaseRecord rec;
  rec.fencing_token = 3;
  rec.owner = LeaseOwner::self();
  rec.owner.pid_start_ticks = 1;  // real start ticks are far larger
  rec.acquired_unix = 1.0;
  rec.renewed_unix = 1.0;
  rec.ttl_seconds = 3600.0;
  write_lease_file(spool.root, rec);

  LeaseOptions opts;
  opts.ttl_seconds = 3600.0;
  LeaseManager b(spool.root, opts);
  ASSERT_TRUE(b.try_acquire()) << "recycled pid read as a live owner";
  EXPECT_EQ(b.token(), 4u);
}

TEST(HaLease, StandbyDefersOnAFreshSpool) {
  ScratchSpool spool("lease_defer");
  fs::create_directories(spool.root);
  auto* vc = new util::VirtualClock();
  LeaseOptions opts;
  opts.ttl_seconds = 0.3;
  opts.margin_seconds = 0.2;
  opts.standby = true;
  LeaseManager s(spool.root, opts, vc);
  EXPECT_FALSE(s.try_acquire())
      << "--standby claimed a fresh spool without waiting for a leader";
  vc->advance(0.3);
  EXPECT_FALSE(s.try_acquire());
  vc->advance(0.3);  // leaderless for a full expiry window: promote
  EXPECT_TRUE(s.try_acquire());
}

// ------------------------------------------------------------ fencing

TEST(HaFence, StaleTokenIsRejectedAtEveryMutatingOp) {
  ScratchSpool spool("fence");
  SpoolQueue q(spool.root);
  LeaseOptions oa;
  oa.ttl_seconds = 0.3;
  oa.margin_seconds = 0.2;
  oa.host_override = "hostA";
  LeaseManager a(spool.root, oa);
  ASSERT_TRUE(a.try_acquire());
  q.set_lease(&a);

  submit_job(q, "c17", 1);
  std::optional<Job> claimed = q.claim(unix_now());
  ASSERT_TRUE(claimed.has_value());
  EXPECT_EQ(claimed->fence_token, 1u)
      << "claim did not journal the fencing token";
  q.update_running(*claimed);  // valid under the live lease

  // Another daemon steals the lease out from under us (token 2, different
  // owner). Every subsequent mutating op under the stale claim must throw.
  LeaseRecord stolen;
  stolen.fencing_token = 2;
  stolen.owner.host = "hostB";
  stolen.owner.pid = 4242;
  stolen.owner.pid_start_ticks = 99;
  stolen.acquired_unix = 1.0;
  stolen.renewed_unix = 1.0;
  stolen.ttl_seconds = 0.3;
  write_lease_file(spool.root, stolen);

  obs::set_enabled(true);
  const std::int64_t rejects_before =
      obs::counter("serve.lease.fenced_rejects").value();
  EXPECT_THROW(q.update_running(*claimed), FencedError);
  EXPECT_THROW(q.requeue(*claimed, "interrupted", 0.0, true), FencedError);
  EXPECT_THROW(q.finalize_failed(*claimed, "error", "stale", ""),
               FencedError);
  EXPECT_THROW(q.finalize_quarantined(*claimed, "stale"), FencedError);
  EXPECT_EQ(obs::counter("serve.lease.fenced_rejects").value(),
            rejects_before + 4)
      << "fenced rejections were not counted";
  // The job is still exactly where the fence left it: running/, untouched.
  EXPECT_EQ(q.ids_in("running").size(), 1u);
  EXPECT_TRUE(q.ids_in("failed").empty());
  q.set_lease(nullptr);

  const FencedError err(1, 2, "finalize_done");
  EXPECT_EQ(err.held_token(), 1u);
  EXPECT_EQ(err.current_token(), 2u);
  EXPECT_NE(std::string(err.what()).find("finalize_done"), std::string::npos);
}

TEST(HaFence, WorkerProbeFailsOpenWithoutALeaseAndClosedOnMismatch) {
  ScratchSpool spool("worker_fence");
  fs::create_directories(spool.root);
  const std::string lease = spool.root + "/leader.lease";
  // Missing lease: plain single-daemon spools must keep working.
  EXPECT_TRUE(lease_token_matches(lease, 7));

  LeaseRecord rec;
  rec.fencing_token = 3;
  rec.owner.host = "h";
  rec.owner.pid = 1;
  rec.owner.pid_start_ticks = 1;
  rec.acquired_unix = 1.0;
  rec.renewed_unix = 1.0;
  rec.ttl_seconds = 1.0;
  write_lease_file(spool.root, rec);
  EXPECT_TRUE(lease_token_matches(lease, 3));
  EXPECT_FALSE(lease_token_matches(lease, 7))
      << "stale token passed the worker-side fence";

  std::ofstream(lease, std::ios::trunc) << "garbage, not an envelope\n";
  EXPECT_TRUE(lease_token_matches(lease, 7))
      << "a damaged lease must fail open (a standby steals it after one "
         "expiry window; the queue's fence is the backstop)";
}

// ----------------------------------------------------- subprocess chaos

TEST(HaFailover, SigkilledLeaderReclaimsItsSpoolImmediately) {
  ScratchSpool spool("reclaim");
  SpoolQueue q(spool.root);
  const std::string id = submit_job(q, "c17", 1);

  // Leader dies by injection right after claiming, leaving an UNRELEASED
  // hour-long lease plus an orphan in running/.
  std::vector<std::string> flags =
      ha_flags(spool.root, 3600.0, 5.0, /*once=*/true, /*standby=*/false);
  flags.push_back("--inject-kill=daemon.post-claim@1");
  run_served(flags);
  {
    const std::string bytes = slurp(spool.root + "/leader.lease");
    ASSERT_FALSE(bytes.empty()) << "killed leader left no lease behind";
    const LeaseRecord rec = LeaseRecord::from_json(
        io::unwrap_envelope(bytes, kLeaseSchema, "leader.lease"),
        "leader.lease");
    EXPECT_EQ(rec.fencing_token, 1u);
    EXPECT_FALSE(rec.released);
  }

  // A restart on the same host must reclaim via the dead-owner probe: the
  // observed-expiry path would take over an hour, far past the cap.
  const std::string events = spool.root + ".reclaim_events.jsonl";
  fs::remove(events);
  std::vector<std::string> restart =
      ha_flags(spool.root, 3600.0, 5.0, /*once=*/true, /*standby=*/false);
  restart.push_back("--event-log=" + events);
  const int status = run_served(restart, 60.0);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  EXPECT_TRUE(fs::exists(q.job_path("done", id)));
  const std::string log = slurp(events);
  EXPECT_NE(log.find("reclaim-dead-owner"), std::string::npos)
      << "restart did not take the dead-owner reclaim path";
  EXPECT_EQ(count_occurrences(log, "\"kind\":\"lease_acquired\""), 1u);
  expect_exact_partition(q, {id});
  fs::remove(events);
}

// Twenty deterministic injection points, each run as a leader + hot-standby
// pair over one spool. Whichever daemon the kill takes out, the exactly-once
// partition must hold after the survivor (plus one clean pass) drains.
TEST(HaFailover, SplitBrainKillSweepKeepsThePartitionExact) {
  struct HaSpec {
    const char* leader;
    const char* standby;
  };
  const std::vector<HaSpec> specs = {
      {"daemon.post-claim@1", ""},
      {"daemon.post-claim@2", ""},
      {"daemon.pre-spawn@1", ""},
      {"daemon.post-spawn@1", ""},
      {"daemon.post-spawn@2", ""},
      {"daemon.post-reap@1", ""},
      {"daemon.post-reap@2", ""},
      {"daemon.pre-finalize@1", ""},
      {"daemon.pre-finalize@2", ""},
      {"daemon.pre-requeue@1", ""},
      {"worker.pre-run@1", ""},
      {"worker.pre-run@2", ""},
      {"worker.pre-result@1", ""},
      {"worker.pre-result@2", ""},
      {"lease.post-acquire@1", ""},
      {"daemon.post-claim@1", "daemon.pre-adopt@1"},
      {"daemon.post-spawn@1", "lease.post-acquire@1"},
      {"daemon.pre-finalize@1", "daemon.pre-adopt@1"},
      {"daemon.post-claim@1", "daemon.post-claim@1"},
      {"daemon.pre-requeue@1", "daemon.post-reap@1"},
  };
  ASSERT_GE(specs.size(), 20u);
  int iteration = 0;
  for (const HaSpec& spec : specs) {
    SCOPED_TRACE(std::string("leader kill: ") + spec.leader +
                 ", standby kill: " +
                 (spec.standby[0] ? spec.standby : "(none)"));
    ScratchSpool spool("split_" + std::to_string(iteration++));
    SpoolQueue q(spool.root);
    std::set<std::string> submitted;
    submitted.insert(submit_job(q, "c17", 1));
    submitted.insert(submit_job(q, "c17", 2));
    const std::string crasher = submit_job(q, "c17", 3, "crash-pre-run");
    submitted.insert(crasher);

    std::vector<std::string> leader =
        ha_flags(spool.root, 0.6, 0.2, /*once=*/true, /*standby=*/false);
    leader.push_back(std::string("--inject-kill=") + spec.leader);
    std::vector<std::string> standby =
        ha_flags(spool.root, 0.6, 0.2, /*once=*/true, /*standby=*/true);
    if (spec.standby[0] != '\0') {
      standby.push_back(std::string("--inject-kill=") + spec.standby);
    }
    const pid_t lp = spawn_served(leader);
    const pid_t sp = spawn_served(standby);
    wait_exit(lp, 90.0);
    wait_exit(sp, 90.0);

    // A clean pass finishes anything a doubly-killed iteration left over.
    ASSERT_EQ(run_served(ha_flags(spool.root, 0.6, 0.2, /*once=*/true,
                                  /*standby=*/false)),
              0);
    expect_exact_partition(q, submitted);
    EXPECT_TRUE(fs::exists(q.job_path("quarantined", crasher)))
        << "the guaranteed crash-looper escaped quarantine";
  }
}

// SIGSTOP zombies: the leader is paused (not killed) at a protocol point,
// the standby takes over and finishes everything, and the resumed zombie's
// stale writes are fenced — never applied. PDEATHSIG does not fire on a
// stop, so exactly-once FINALIZATION (not execution) is the invariant.
TEST(HaFailover, SigstoppedZombieLeaderIsFencedOnResume) {
  const std::vector<std::string> stop_specs = {
      "daemon.post-claim@1",
      "daemon.post-spawn@1",
      "daemon.pre-finalize@1",
  };
  int iteration = 0;
  for (const std::string& spec : stop_specs) {
    SCOPED_TRACE("stop spec: " + spec);
    ScratchSpool spool("zombie_" + std::to_string(iteration++));
    SpoolQueue q(spool.root);
    const std::string id = submit_job(q, "c17", 1);
    const std::string events = spool.root + ".zombie_events.jsonl";
    fs::remove(events);

    std::vector<std::string> leader =
        ha_flags(spool.root, 0.5, 0.1, /*once=*/false, /*standby=*/false);
    leader.push_back("--inject-stop=" + spec);
    leader.push_back("--event-log=" + events);
    const pid_t lp = spawn_served(leader);

    bool stopped = false;
    for (int i = 0; i < 3000; ++i) {
      if (proc_state(lp) == 'T') {
        stopped = true;
        break;
      }
      sleep_seconds(0.01);
    }
    ASSERT_TRUE(stopped) << "leader never hit the SIGSTOP injection point";

    // The hot standby steals within ~1 ttl and drains the spool.
    const int s_status = run_served(
        ha_flags(spool.root, 0.5, 0.1, /*once=*/true, /*standby=*/true));
    EXPECT_TRUE(WIFEXITED(s_status) && WEXITSTATUS(s_status) == 0);
    EXPECT_TRUE(fs::exists(q.job_path("done", id)))
        << "standby did not finish the zombie's claimed job";

    // Resume the zombie: every stale write it attempts must fence, and a
    // SIGTERM must still exit it cleanly (as a demoted standby).
    kill(lp, SIGCONT);
    sleep_seconds(0.3);
    kill(lp, SIGTERM);
    const int l_status = wait_exit(lp, 60.0);
    EXPECT_TRUE(WIFEXITED(l_status) && WEXITSTATUS(l_status) == 0)
        << "resumed zombie did not exit cleanly after fencing";

    expect_exact_partition(q, {id});
    const std::string log = slurp(events);
    if (spec == "daemon.pre-finalize@1") {
      // Stopped BETWEEN the worker's committed envelope and the finalize:
      // the resumed finalize is the textbook stale write and must have been
      // rejected at the commit point.
      EXPECT_GE(count_occurrences(log, "\"kind\":\"fenced_reject\""), 1u)
          << "zombie finalize was not fenced";
    }
    EXPECT_GE(count_occurrences(log, "\"kind\":\"lease_lost\""), 1u);
    // The zombie's own event stream must satisfy the lease-ordering rules
    // (no double acquire, no claims while deposed, detailed fence events).
    bool timed_out = false;
    const int tstat = wait_exit(
        spawn_proc(MINERGY_TRACE_CHECK_BIN, {"--verify-eventlog=" + events}),
        30.0, &timed_out);
    EXPECT_FALSE(timed_out);
    EXPECT_TRUE(WIFEXITED(tstat) && WEXITSTATUS(tstat) == 0)
        << "trace_check rejected the zombie leader's event log";
    fs::remove(events);
  }
}

// kill -9 the leader mid-anneal; the hot standby must take over within ~1
// ttl and resume the run BIT-EXACTLY from its checkpoint — identical result
// fields to a never-interrupted reference run of the same job.
TEST(HaFailover, StandbyTakeoverResumesAnnealBitExactly) {
  const int kMoves = 800000;
  ScratchSpool failed_over("bitexact_a");
  ScratchSpool reference("bitexact_b");
  SpoolQueue qa(failed_over.root);
  SpoolQueue qb(reference.root);
  const std::string ida =
      submit_job(qa, "s27", 7, "", "anneal", kMoves);
  const std::string idb =
      submit_job(qb, "s27", 7, "", "anneal", kMoves);
  const std::string events = failed_over.root + ".standby_events.jsonl";
  fs::remove(events);

  std::vector<std::string> leader =
      ha_flags(failed_over.root, 0.5, 0.1, /*once=*/false, /*standby=*/false,
               /*timeout=*/120);
  leader[1] = "--workers=1";
  const pid_t lp = spawn_served(leader);
  // Let the leader win the election before the standby starts observing.
  for (int i = 0;
       i < 2000 && !fs::exists(failed_over.root + "/leader.lease"); ++i) {
    sleep_seconds(0.005);
  }
  std::vector<std::string> standby =
      ha_flags(failed_over.root, 0.5, 0.1, /*once=*/true, /*standby=*/true,
               /*timeout=*/120);
  standby[1] = "--workers=1";
  standby.push_back("--event-log=" + events);
  const pid_t sp = spawn_served(standby);

  // Wait for the in-flight anneal to snapshot, then murder the leader.
  const std::string ck_path = qa.checkpoint_path(ida);
  bool saw_checkpoint = false;
  for (int i = 0; i < 4000; ++i) {
    if (fs::exists(ck_path)) {
      saw_checkpoint = true;
      break;
    }
    sleep_seconds(0.005);
  }
  ASSERT_TRUE(saw_checkpoint) << "worker never wrote a checkpoint";
  kill(lp, SIGKILL);
  int status = 0;
  waitpid(lp, &status, 0);

  // The standby (same host) reclaims via the dead-owner probe, requeues
  // the orphan with its checkpoint preserved, resumes, and drains.
  bool timed_out = false;
  const int s_status = wait_exit(sp, 120.0, &timed_out);
  ASSERT_FALSE(timed_out) << "standby never finished the takeover";
  EXPECT_TRUE(WIFEXITED(s_status) && WEXITSTATUS(s_status) == 0);

  ASSERT_TRUE(fs::exists(qa.job_path("done", ida)));
  const util::JsonValue ra = read_record(qa, "done", ida);
  EXPECT_TRUE(ra.at("result").get_bool("resumed", false))
      << "standby re-ran the anneal from scratch instead of resuming";

  // Exactly one takeover, and it happened through the lease.
  const std::string log = slurp(events);
  EXPECT_EQ(count_occurrences(log, "\"kind\":\"lease_acquired\""), 1u);

  // Reference: the same job, never interrupted.
  std::vector<std::string> ref =
      ha_flags(reference.root, 0.5, 0.1, /*once=*/true, /*standby=*/false,
               /*timeout=*/120);
  ref[1] = "--workers=1";
  ASSERT_EQ(run_served(ref), 0);
  ASSERT_TRUE(fs::exists(qb.job_path("done", idb)));
  const util::JsonValue rb = read_record(qb, "done", idb);

  for (const char* field : {"energy_total", "static_energy",
                            "dynamic_energy", "vdd", "vts_primary",
                            "critical_delay"}) {
    EXPECT_EQ(ra.at("result").get_number(field, -1.0),
              rb.at("result").get_number(field, -2.0))
        << "field " << field << " diverged across the failover";
  }
  EXPECT_TRUE(ra.at("result").get_bool("certified", false));
  expect_exact_partition(qa, {ida});
  fs::remove(events);
}

// The health document carries the daemon's HA role so monitors can tell a
// leader from a standby without parsing the lease.
TEST(HaFailover, HealthFileCarriesRoleAndLeaseToken) {
  ScratchSpool spool("role");
  SpoolQueue q(spool.root);
  submit_job(q, "c17", 1);
  ASSERT_EQ(run_served(ha_flags(spool.root, 0.5, 0.1, /*once=*/true,
                                /*standby=*/false)),
            0);
  const std::string path = spool.root + "/health.json";
  const util::JsonValue h = util::JsonValue::parse(
      io::read_artifact(path, "minergy.health.v1"), path);
  EXPECT_EQ(h.get_string("role", ""), "leader");
  EXPECT_GE(h.get_number("lease_token", 0.0), 1.0);
}

}  // namespace
}  // namespace minergy::serve
