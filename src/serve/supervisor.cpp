#include "serve/supervisor.h"

#include <poll.h>
#include <sys/inotify.h>
#include <sys/syscall.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#ifdef __linux__
#include <sys/prctl.h>
#endif

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <thread>
#include <utility>

#include <algorithm>

#include "io/durable.h"
#include "io/envelope.h"
#include "io/fault_fs.h"
#include "io/scrub.h"
#include "obs/eventlog.h"
#include "obs/expose.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/inject.h"
#include "serve/worker.h"
#include "util/check.h"
#include "util/clock.h"
#include "util/json.h"

namespace minergy::serve {

namespace {

// Drain flag set from the signal handler; everything else happens in the
// control loop (async-signal-safety).
volatile std::sig_atomic_t g_drain_requested = 0;

void on_drain_signal(int) { g_drain_requested = 1; }

void install_drain_handlers() {
  struct sigaction sa;
  std::memset(&sa, 0, sizeof sa);
  sa.sa_handler = on_drain_signal;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);
}

void sleep_seconds(double s) {
  std::this_thread::sleep_for(std::chrono::duration<double>(s));
}

// Non-blocking inotify descriptor that reports files renamed into `dir`;
// -1 when the kernel refuses one (no inotify, watch or fd limit).
int watch_renames_into(const std::string& dir) {
  const int fd = inotify_init1(IN_CLOEXEC | IN_NONBLOCK);
  if (fd < 0) return -1;
  if (inotify_add_watch(fd, dir.c_str(), IN_MOVED_TO) < 0) {
    close(fd);
    return -1;
  }
  return fd;
}

// pidfd of a child, close-on-exec by default; -1 when the kernel refuses
// one. A child that exited before the call is still an unreaped zombie, so
// its pidfd is readable at once.
int open_pidfd(pid_t pid) {
  return static_cast<int>(syscall(SYS_pidfd_open, pid, 0));
}

}  // namespace

Supervisor::OwnedFd::OwnedFd(OwnedFd&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)) {}

Supervisor::OwnedFd& Supervisor::OwnedFd::operator=(OwnedFd&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) close(fd_);
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

Supervisor::OwnedFd::~OwnedFd() {
  if (fd_ >= 0) close(fd_);
}

Supervisor::Supervisor(SpoolQueue& queue, SupervisorOptions opts)
    : queue_(queue),
      opts_(std::move(opts)),
      breaker_(opts_.breaker),
      overload_(opts_.overload),
      lease_(queue.root(), opts_.lease) {
  MINERGY_CHECK_MSG(!opts_.worker_binary.empty(),
                    "SupervisorOptions.worker_binary is required");
  if (opts_.workers < 1) opts_.workers = 1;
  // The queue feeds the controller its sojourn/e2e signals and consults it
  // for the shed level; the controller lives as long as the supervisor,
  // which run_daemon keeps alive for the queue's whole service life.
  if (opts_.overload.enabled()) queue_.set_overload_controller(&overload_);
  // Every mutating queue operation from here on re-checks its job's fencing
  // token against the on-disk lease; see SpoolQueue::check_fence.
  queue_.set_lease(&lease_);
}

Supervisor::~Supervisor() { queue_.set_lease(nullptr); }

// Publish-on-change plus freshness refresh: the policy file carries its
// updated_unix, and admission-side enforcement ignores a stale one, so the
// daemon rewrites it at half the staleness horizon even when nothing
// changed.
void Supervisor::tick_overload(double now_unix) {
  if (!opts_.overload.enabled()) return;
  const bool changed = overload_.tick(now_unix);
  if (!changed && last_policy_unix_ >= 0.0 &&
      now_unix - last_policy_unix_ < kPolicyStaleSeconds / 2.0) {
    return;
  }
  io::write_artifact(
      (std::filesystem::path(queue_.root()) / "overload.json").string(),
      kOverloadSchema, overload_.policy(now_unix).to_json());
  last_policy_unix_ = now_unix;
}

void Supervisor::refresh_health(const std::string& state) {
  const double now_unix = unix_now();
  HealthInfo info;
  info.state = state;
  info.role = "leader";
  info.lease_token = lease_.token();
  info.workers_active = static_cast<int>(slots_.size());
  info.breaker_open = breaker_.open_circuits(now_unix);
  info.brownout_level = overload_.brownout_level();
  info.shed_level = overload_.shed_level();
  // Readiness verdict for load balancers: an ENOSPC-paused or browned-out
  // daemon is alive but should not receive traffic — /health turns 503
  // with a Retry-After while /metrics stays 200 so scrapers keep seeing it.
  if (state == "degraded") {
    info.status = "degraded";
    info.status_reason = "storage fault: admissions paused";
  } else if (info.brownout_level > 0) {
    info.status = "degraded";
    info.status_reason =
        "brownout level " + std::to_string(info.brownout_level);
  }
  queue_.write_health(info);
  last_health_monotonic_ = util::monotonic_seconds();

  // Live exposition: the same health document the file just got, plus the
  // /jobs spool partition, published from memory so a scrape never touches
  // the spool filesystem. Gated on running() — without --listen this whole
  // block is one relaxed atomic load.
  if (obs::ExpositionServer::instance().running()) {
    const bool degraded = info.status != "ok";
    const int retry_after = std::max(
        1, static_cast<int>(overload_.shed_retry_after() + 0.999));
    obs::ExpositionServer::instance().publish(
        "/health", "application/json", queue_.health_json(info),
        degraded ? 503 : 200,
        degraded ? "Retry-After: " + std::to_string(retry_after) + "\r\n"
                 : std::string());
    const QueueCounts c = queue_.counts();
    obs::gauge("serve.spool.pending").set(static_cast<double>(c.pending));
    obs::gauge("serve.spool.running").set(static_cast<double>(c.running));
    obs::gauge("serve.spool.done").set(static_cast<double>(c.done));
    obs::gauge("serve.spool.failed").set(static_cast<double>(c.failed));
    obs::gauge("serve.spool.quarantined")
        .set(static_cast<double>(c.quarantined));
    obs::gauge("serve.workers.active")
        .set(static_cast<double>(info.workers_active));
    obs::gauge("serve.lease.token")
        .set(static_cast<double>(info.lease_token));
    obs::gauge("serve.lease.is_leader").set(lease_.is_leader() ? 1.0 : 0.0);
    util::JsonWriter w(2);
    w.begin_object();
    w.kv("schema", "minergy.jobs.v1");
    w.kv("state", state);
    w.kv("workers_active", info.workers_active);
    w.key("queue").begin_object();
    w.kv("pending", c.pending);
    w.kv("running", c.running);
    w.kv("done", c.done);
    w.kv("failed", c.failed);
    w.kv("quarantined", c.quarantined);
    w.end_object();
    w.key("breakers").begin_array();
    for (const auto& [circuit, breaker_state] : breaker_.states(now_unix)) {
      w.begin_object();
      w.kv("circuit", circuit);
      w.kv("state", breaker_state);
      w.end_object();
    }
    w.end_array();
    w.end_object();
    obs::ExpositionServer::instance().publish("/jobs", "application/json",
                                              w.str() + "\n");
  }
  log_spool_state(state);
}

// One spool_state event whenever the partition changes (and at lifecycle
// transitions): the tail of the event log always reconstructs the counts
// `minergy_served --status` would report.
void Supervisor::log_spool_state(const std::string& state) {
  if (!obs::EventLog::instance().armed()) return;
  const QueueCounts c = queue_.counts();
  if (counts_ever_logged_ && c.pending == last_logged_counts_.pending &&
      c.running == last_logged_counts_.running &&
      c.done == last_logged_counts_.done &&
      c.failed == last_logged_counts_.failed &&
      c.quarantined == last_logged_counts_.quarantined) {
    return;
  }
  last_logged_counts_ = c;
  counts_ever_logged_ = true;
  obs::Event ev;
  ev.kind = "spool_state";
  ev.detail = state;
  ev.num.emplace_back("pending", static_cast<double>(c.pending));
  ev.num.emplace_back("running", static_cast<double>(c.running));
  ev.num.emplace_back("done", static_cast<double>(c.done));
  ev.num.emplace_back("failed", static_cast<double>(c.failed));
  ev.num.emplace_back("quarantined", static_cast<double>(c.quarantined));
  obs::event(ev);
}

// Daemon-restart recovery: every running/ entry is an attempt some previous
// daemon never dispositioned. A committed result envelope means the work
// finished — finalize it, never re-execute. Anything else is requeued with
// its checkpoint intact so the optimizer resumes bit-exactly.
bool Supervisor::owned_by_live_slot(const std::string& id) const {
  return std::any_of(slots_.begin(), slots_.end(),
                     [&id](const Slot& s) { return s.job.id == id; });
}

void Supervisor::recover() {
  const obs::Span span("serve.recover");
  for (Job& job : queue_.running_jobs()) {
    // After a degraded-mode pause, recovery re-sweeps running/ while
    // workers may still be alive; their jobs are not orphans.
    if (owned_by_live_slot(job.id)) continue;
    // Token adoption: the orphan was claimed under a previous leadership
    // (possibly a different daemon's). This leader now owns its
    // disposition, so the journaled token is rewritten to the current one
    // — otherwise every finalize/requeue below would fence against a token
    // the current lease no longer carries.
    if (job.fence_token != lease_.token()) {
      kill_point("daemon.pre-adopt");
      job.fence_token = lease_.token();
    }
    if (job.circuit.empty()) {  // torn record (should be impossible)
      queue_.finalize_quarantined(std::move(job), "corrupt running record");
      continue;
    }
    if (std::filesystem::exists(queue_.result_path(job.id))) {
      obs::counter("serve.recover.finalized").add();
      dispose_envelope(std::move(job));
      continue;
    }
    if (job.interruptions() >= opts_.max_interruptions) {
      obs::counter("serve.recover.quarantined").add();
      queue_.finalize_quarantined(
          std::move(job),
          "interrupted " + std::to_string(opts_.max_interruptions) +
              " times without completing");
      continue;
    }
    obs::counter("serve.recover.requeued").add();
    queue_.requeue(std::move(job), "interrupted", /*not_before_unix=*/0.0,
                   /*keep_checkpoint=*/true);
  }
  queue_.collect_garbage();
}

// A worker left a result envelope: judge it and finalize. The breaker sees
// every envelope as a supervision success — a typed optimization failure is
// a verdict, not a worker death.
void Supervisor::dispose_envelope(Job job, double worker_wall_seconds) {
  const std::string path = queue_.result_path(job.id);
  std::string envelope;
  util::JsonValue env;
  try {
    envelope = io::read_artifact(path, kJobResultSchema);
    env = util::JsonValue::parse(envelope, path);
  } catch (const io::IntegrityError& e) {
    // The commit point is fsynced and CRC-footed, so a verdict here means
    // the storage really did lie (torn commit, bit rot). Treat it as a
    // death: the retry path deletes the damaged envelope and re-runs.
    obs::counter("serve.worker.corrupt_envelopes").add();
    std::fprintf(stderr, "served: corrupt result envelope: %s\n", e.what());
    handle_death(std::move(job), "error", 0, 0.0, unix_now());
    return;
  } catch (const std::exception&) {
    // Atomic drops should never tear; treat the impossible as a death so
    // the job is retried rather than lost.
    handle_death(std::move(job), "error", 0, 0.0, unix_now());
    return;
  }
  // Where the attempt's time went: the worker's own load / optimize /
  // certify split and, for a worker reaped live, the rest of its wall time
  // (fork+exec, envelope commit, exit and the wait to reap it).
  if (env.has("load_seconds")) {
    const double load = env.get_number("load_seconds", 0.0);
    const double optimize = env.get_number("runtime_seconds", 0.0);
    const double certify = env.get_number("certify_seconds", 0.0);
    obs::histogram("serve.job.load_micros").record(load * 1e6);
    obs::histogram("serve.job.optimize_micros").record(optimize * 1e6);
    obs::histogram("serve.job.certify_micros").record(certify * 1e6);
    if (worker_wall_seconds > 0.0) {
      obs::histogram("serve.job.process_micros")
          .record(std::max(0.0, worker_wall_seconds - load - optimize -
                                    certify) *
                  1e6);
    }
  }
  if (!job.attempts.empty() && job.attempts.back().outcome == "running") {
    job.attempts.back().outcome = "ok";
  }
  breaker_.record_success(job.circuit);
  if (obs::EventLog::instance().armed()) {
    obs::Event ev;
    ev.kind = "cert_verdict";
    ev.job = job.id;
    ev.circuit = job.circuit;
    ev.attempt = job.started_attempts();
    const bool certified = env.get_bool("certified", false);
    ev.severity = certified ? "info" : "warn";
    ev.detail = !env.get_bool("ok", false) ? "error"
                : certified               ? "certified"
                                          : "uncertified";
    obs::event(ev);
  }
  kill_point("daemon.pre-finalize");
  if (!env.get_bool("ok", false)) {
    queue_.finalize_failed(std::move(job), env.get_string("error_type", "error"),
                           env.get_string("detail", ""), envelope);
    return;
  }
  const bool feasible = env.get_bool("feasible", false);
  const bool certified = env.get_bool("certified", false);
  if (feasible && certified) {
    if (env.get_bool("truncated", false)) {
      obs::counter("serve.jobs.truncated").add();
    }
    queue_.finalize_done(job, envelope);
    return;
  }
  std::string detail;
  if (env.has("certificate")) {
    detail = env.at("certificate").get_string("detail", "");
  }
  queue_.finalize_failed(std::move(job),
                         feasible ? "uncertified" : "infeasible", detail,
                         envelope);
}

// A worker died without committing a result: journal the outcome, feed the
// breaker, then retry with a perturbed seed under exponential backoff or
// quarantine when the budget is spent. Crash retries drop the checkpoint —
// a retry is a genuinely different stochastic run, not a replay.
void Supervisor::handle_death(Job job, const std::string& outcome,
                              int exit_code, double wall_seconds,
                              double now_unix) {
  if (!job.attempts.empty() && job.attempts.back().outcome == "running") {
    job.attempts.back().outcome = outcome;
    job.attempts.back().exit_code = exit_code;
    job.attempts.back().wall_seconds = wall_seconds;
  }
  breaker_.record_death(job.circuit, now_unix);
  obs::counter(outcome == "timeout" ? "serve.worker.timeouts"
               : outcome == "crash" ? "serve.worker.crashes"
                                    : "serve.worker.errors")
      .add();
  if (obs::EventLog::instance().armed()) {
    obs::Event ev;
    ev.kind = "worker_exit";
    ev.severity = "warn";
    ev.job = job.id;
    ev.circuit = job.circuit;
    ev.attempt = job.started_attempts();
    ev.detail = outcome;
    ev.num.emplace_back("exit_code", exit_code);
    ev.num.emplace_back("wall_s", wall_seconds);
    obs::event(ev);
  }
  const int failed = job.failed_attempts();
  if (failed > opts_.max_retries) {
    obs::Tracer::instance().instant("serve.quarantine", "serve");
    queue_.finalize_quarantined(
        std::move(job), "retries exhausted after " + std::to_string(failed) +
                            " failed attempts (last: " + outcome + ")");
    return;
  }
  obs::counter("serve.jobs.retries").add();
  const double backoff = retry_backoff_seconds(opts_.backoff_seconds, failed);
  if (obs::EventLog::instance().armed()) {
    obs::Event ev;
    ev.kind = "retry_scheduled";
    ev.job = job.id;
    ev.circuit = job.circuit;
    ev.attempt = job.started_attempts();
    ev.detail = "after " + outcome;
    ev.num.emplace_back("backoff_s", backoff);
    ev.num.emplace_back("failed_attempts", failed);
    obs::event(ev);
  }
  job.next_backoff_seconds = backoff;
  kill_point("daemon.pre-requeue");
  queue_.requeue(std::move(job), outcome, now_unix + backoff,
                 /*keep_checkpoint=*/false);
}

pid_t Supervisor::spawn_worker(const Job& job, std::uint64_t seed) {
  std::vector<std::string> args = {
      opts_.worker_binary,
      "--worker",
      "--spool=" + queue_.root(),
      "--job-id=" + job.id,
      "--attempt-seed=" + std::to_string(seed),
  };
  if (!kill_switch_spec().empty()) {
    args.push_back("--inject-kill=" + kill_switch_spec());
  }
  if (!stop_switch_spec().empty()) {
    args.push_back("--inject-stop=" + stop_switch_spec());
  }
  // Fenced claims re-verify the lease immediately before the envelope
  // commit (worker.cpp): a worker spawned by a since-deposed leader exits
  // 75 instead of landing a stale result.
  if (job.fence_token > 0) {
    args.push_back("--lease-path=" + lease_.lease_path());
  }
  // Brownout rides into the worker as a flag (the job file is immutable
  // once journaled): the level at spawn time decides this attempt's
  // fidelity, and the envelope records it as provenance.
  if (overload_.brownout_level() > 0) {
    args.push_back("--brownout-level=" +
                   std::to_string(overload_.brownout_level()));
  }
  // Storage-fault schedules propagate like the kill switch: every worker
  // runs under the same per-process fault counters as the daemon.
  if (io::FaultFs::instance().armed()) {
    args.push_back("--inject-io=" + io::FaultFs::instance().spec());
  }
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& s : args) argv.push_back(s.data());
  argv.push_back(nullptr);

  const pid_t pid = fork();
  if (pid < 0) return -1;
  if (pid == 0) {
#ifdef __linux__
    // A dying daemon must take its workers with it: an orphan worker that
    // keeps computing while the restarted daemon re-runs the same job would
    // break exactly-once execution.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() == 1) _exit(127);  // parent already gone before prctl
#endif
    execv(opts_.worker_binary.c_str(), argv.data());
    std::fprintf(stderr, "exec %s failed: %s\n", opts_.worker_binary.c_str(),
                 std::strerror(errno));
    _exit(127);
  }
  return pid;
}

void Supervisor::spawn_ready(double now_unix) {
  while (static_cast<int>(slots_.size()) < opts_.workers) {
    std::optional<Job> claimed = queue_.claim(now_unix);
    if (!claimed) return;
    Job job = std::move(*claimed);
    kill_point("daemon.post-claim");
    if (breaker_.should_short_circuit(job.circuit, now_unix)) {
      obs::Tracer::instance().instant("serve.breaker.short_circuit", "serve");
      queue_.finalize_quarantined(
          std::move(job), "circuit breaker open (crash-looping circuit)");
      continue;
    }
    const std::uint64_t seed = attempt_seed(job, job.failed_attempts());
    JobAttempt attempt;
    attempt.seed = seed;
    attempt.backoff_seconds = job.next_backoff_seconds;
    job.next_backoff_seconds = 0.0;
    job.attempts.push_back(attempt);
    // Journaled claim: the attempt is on disk before the worker exists, so
    // no execution can ever be invisible to recovery.
    queue_.update_running(job);
    kill_point("daemon.pre-spawn");
    const pid_t pid = spawn_worker(job, seed);
    if (pid < 0) {
      handle_death(std::move(job), "error", -1, 0.0, now_unix);
      continue;
    }
    obs::counter("serve.worker.spawned").add();
    if (obs::EventLog::instance().armed()) {
      obs::Event ev;
      ev.kind = "worker_spawned";
      ev.job = job.id;
      ev.circuit = job.circuit;
      ev.attempt = job.started_attempts();
      ev.detail = "seed " + std::to_string(seed);
      obs::event(ev);
    }
    Slot slot;
    slot.pid = pid;
    slot.pidfd = OwnedFd(open_pidfd(pid));
    slot.job = std::move(job);
    slot.started_monotonic = util::monotonic_seconds();
    slot.kill_after_seconds = opts_.timeout_seconds;
    slots_.push_back(std::move(slot));
    kill_point("daemon.post-spawn");
  }
}

void Supervisor::reap() {
  for (std::size_t i = 0; i < slots_.size();) {
    Slot& slot = slots_[i];
    int status = 0;
    const pid_t r = waitpid(slot.pid, &status, WNOHANG);
    if (r == 0) {
      const double elapsed =
          util::monotonic_seconds() - slot.started_monotonic;
      if (elapsed <= slot.kill_after_seconds) {
        ++i;
        continue;
      }
      kill(slot.pid, SIGKILL);
      waitpid(slot.pid, &status, 0);  // reap the corpse
      Job job = std::move(slot.job);
      slots_.erase(slots_.begin() + static_cast<std::ptrdiff_t>(i));
      kill_point("daemon.post-reap");
      obs::histogram("serve.job.exec_micros").record(elapsed * 1e6);
      handle_death(std::move(job), "timeout", -SIGKILL, elapsed, unix_now());
      continue;
    }
    const double wall = util::monotonic_seconds() - slot.started_monotonic;
    obs::histogram("serve.job.exec_micros").record(wall * 1e6);
    Job job = std::move(slot.job);
    slots_.erase(slots_.begin() + static_cast<std::ptrdiff_t>(i));
    kill_point("daemon.post-reap");
    // The envelope, not the exit code, is the source of truth: if the
    // worker committed a result before dying, the work is done.
    if (std::filesystem::exists(queue_.result_path(job.id))) {
      if (!job.attempts.empty()) job.attempts.back().wall_seconds = wall;
      obs::counter("serve.worker.ok").add();
      dispose_envelope(std::move(job), wall);
      continue;
    }
    if (WIFSIGNALED(status)) {
      handle_death(std::move(job), "crash", -WTERMSIG(status), wall,
                   unix_now());
    } else {
      handle_death(std::move(job), "error", WEXITSTATUS(status), wall,
                   unix_now());
    }
  }
}

void Supervisor::wait_for_event() {
  // poll() skips negative descriptors, so an absent source needs no branch.
  std::vector<pollfd> fds;
  fds.reserve(slots_.size() + 1);
  fds.push_back({pending_watch_.get(), POLLIN, 0});
  for (const Slot& slot : slots_) {
    fds.push_back({slot.pidfd.get(), POLLIN, 0});
  }
  const double cap = std::max(opts_.poll_seconds, 0.0);
  timespec timeout{};
  timeout.tv_sec = static_cast<std::time_t>(cap);
  timeout.tv_nsec = static_cast<long>(
      (cap - static_cast<double>(timeout.tv_sec)) * 1e9);
  // A drain signal ends the wait with EINTR; the caller checks the flag.
  if (ppoll(fds.data(), fds.size(), &timeout, nullptr) <= 0 ||
      (fds[0].revents & POLLIN) == 0) {
    return;
  }
  // The claim pass lists pending/ itself: the events only had to end the
  // wait, so discard them.
  alignas(inotify_event) char events[4096];
  while (read(pending_watch_.get(), events, sizeof events) > 0) {
  }
}

// SIGTERM drain: intake is already stopped; give workers a grace window to
// commit naturally, then SIGKILL survivors and requeue their jobs with the
// checkpoint files preserved — the restarted daemon resumes them from the
// last PR-3 snapshot, bit-exactly.
void Supervisor::drain() {
  const obs::Span span("serve.drain");
  obs::counter("serve.drain.requests").add();
  {
    obs::Event ev;
    ev.kind = "daemon_drain";
    ev.num.emplace_back("workers_in_flight",
                        static_cast<double>(slots_.size()));
    obs::event(ev);
  }
  const double t0 = util::monotonic_seconds();
  while (!slots_.empty() &&
         util::monotonic_seconds() - t0 < opts_.drain_grace_seconds) {
    obs::counter("serve.loop.iterations").add();
    reap();
    refresh_health("draining");
    if (!slots_.empty()) wait_for_event();
  }
  for (Slot& slot : slots_) {
    kill(slot.pid, SIGKILL);
    int status = 0;
    waitpid(slot.pid, &status, 0);
    obs::counter("serve.drain.killed_workers").add();
    Job job = std::move(slot.job);
    if (std::filesystem::exists(queue_.result_path(job.id))) {
      dispose_envelope(std::move(job));  // finished during the grace window
    } else {
      queue_.requeue(std::move(job), "interrupted", /*not_before_unix=*/0.0,
                     /*keep_checkpoint=*/true);
    }
  }
  slots_.clear();
}

// A storage fault (ENOSPC, EIO, failed fsync) anywhere in the protocol
// must not kill the daemon: stop claiming work, advertise "degraded", and
// probe with exponential backoff until writes land again. The queue's
// crash-safety invariants make the abandoned loop iteration harmless — a
// job stranded in running/ by the fault is re-swept by recover() exactly
// like after a daemon death.
void Supervisor::degraded_wait(const std::string& what) {
  obs::counter("io.degraded.enter").add();
  {
    obs::Event ev;
    ev.kind = "degraded_enter";
    ev.severity = "error";
    ev.detail = what;
    obs::event(ev);
  }
  std::fprintf(stderr, "served: degraded (storage fault: %s); pausing "
                       "admissions\n",
               what.c_str());
  try {
    refresh_health("degraded");
  } catch (const std::exception&) {
    // The same fault may block the health write; the probe loop retries it.
  }
  double backoff = std::max(opts_.poll_seconds, 0.05);
  while (!g_drain_requested) {
    sleep_seconds(backoff);
    backoff = std::min(backoff * 2.0, 5.0);
    obs::counter("io.degraded.probes").add();
    try {
      // The probe is the health write itself: once it lands, monitors see a
      // fresh "degraded" snapshot and the daemon can trust storage again.
      refresh_health("degraded");
      break;
    } catch (const io::IoError&) {
    }
  }
  obs::counter("io.degraded.exit").add();
  {
    obs::Event ev;
    ev.kind = "degraded_exit";
    ev.detail = "storage writable again";
    obs::event(ev);
  }
  std::fprintf(stderr, "served: storage writable again; resuming\n");
}

// The lease is gone (renew observed a steal, or a mutating queue op
// fenced). This process must stop acting as leader IMMEDIATELY and must
// not write another byte into the spool under its stale token: the workers
// are SIGKILLed (no requeue, no journaling — the new leader's recovery
// sweep owns those running/ entries now) and the daemon drops back into
// the standby acquisition loop.
void Supervisor::on_lease_lost(const std::string& why) {
  obs::counter("serve.lease.workers_reaped")
      .add(static_cast<std::int64_t>(slots_.size()));
  for (Slot& slot : slots_) {
    kill(slot.pid, SIGKILL);
    int status = 0;
    waitpid(slot.pid, &status, 0);
  }
  slots_.clear();
  pending_watch_ = OwnedFd();
  lease_.demote(why);  // no-op when renew() already noted the loss
  obs::gauge("serve.lease.is_leader").set(0.0);
  std::fprintf(stderr, "served: lease lost (%s); demoting to standby\n",
               why.c_str());
}

// Standby heartbeat: everything a monitor needs (role, spool partition,
// gauges) without a single spool write — health.json belongs to the
// leader; the standby's view is served from memory over /health.
void Supervisor::standby_tick() {
  if (last_health_monotonic_ >= 0.0 &&
      util::monotonic_seconds() - last_health_monotonic_ <
          opts_.health_interval_seconds) {
    return;
  }
  last_health_monotonic_ = util::monotonic_seconds();
  HealthInfo info;
  info.state = "standby";
  info.role = "standby";
  info.workers_active = 0;
  obs::gauge("serve.lease.is_leader").set(0.0);
  if (obs::ExpositionServer::instance().running()) {
    obs::ExpositionServer::instance().publish("/health", "application/json",
                                              queue_.health_json(info));
    const QueueCounts c = queue_.counts();
    obs::gauge("serve.spool.pending").set(static_cast<double>(c.pending));
    obs::gauge("serve.spool.running").set(static_cast<double>(c.running));
    obs::gauge("serve.spool.done").set(static_cast<double>(c.done));
    obs::gauge("serve.spool.failed").set(static_cast<double>(c.failed));
    obs::gauge("serve.spool.quarantined")
        .set(static_cast<double>(c.quarantined));
    obs::gauge("serve.workers.active").set(0.0);
  }
  log_spool_state("standby");
}

void Supervisor::maybe_scrub() {
  if (opts_.scrub_interval_seconds <= 0.0 || !lease_.is_leader()) return;
  const double now = util::monotonic_seconds();
  if (last_scrub_monotonic_ >= 0.0 &&
      now - last_scrub_monotonic_ < opts_.scrub_interval_seconds) {
    return;
  }
  last_scrub_monotonic_ = now;
  const obs::Span span("serve.scrub");
  io::SpoolScrubber(queue_.root()).run();
}

int Supervisor::run() {
  g_drain_requested = 0;
  install_drain_handlers();
  // Pre-register the service latency instruments so the very first
  // /metrics scrape — before any job completes — already exposes the
  // serve_job_* histogram families instead of an absent series.
  obs::histogram("serve.job.queue_wait_micros");
  obs::histogram("serve.job.exec_micros");
  obs::histogram("serve.job.e2e_micros");
  obs::histogram("serve.job.load_micros");
  obs::histogram("serve.job.optimize_micros");
  obs::histogram("serve.job.certify_micros");
  obs::histogram("serve.job.process_micros");
  obs::counter("serve.slo.violations");
  // Overload instruments too: CI asserts on serve_brownout_level and
  // serve_shed_level even for a daemon that never degrades.
  obs::gauge("serve.brownout.level");
  obs::gauge("serve.shed.level");
  // Lease + scrub families likewise, so a standby's very first scrape (or a
  // leader that never loses the lease) still exposes the full catalogue.
  obs::gauge("serve.lease.token");
  obs::gauge("serve.lease.is_leader");
  obs::counter("serve.lease.fenced_rejects");
  obs::counter("io.scrub.passes");
  {
    obs::Event ev;
    ev.kind = "daemon_start";
    ev.detail = opts_.lease.standby ? "standby" : "leader";
    ev.num.emplace_back("pid", static_cast<double>(::getpid()));
    ev.num.emplace_back("workers", static_cast<double>(opts_.workers));
    obs::event(ev);
  }
  bool started = false;
  for (;;) {
    try {
      // Role gate: everything below this block runs only while holding the
      // lease. A non-leader polls for acquisition; winning it restarts the
      // startup sequence (recover under the freshly-journaled token).
      if (!lease_.is_leader()) {
        if (!lease_.try_acquire()) {
          standby_tick();
          if (g_drain_requested) break;
          if (opts_.once && queue_.ids_in("pending").empty() &&
              queue_.ids_in("running").empty()) {
            break;
          }
          sleep_seconds(std::max(opts_.poll_seconds,
                                 opts_.lease.ttl_seconds / 8.0));
          continue;
        }
        kill_point("lease.post-acquire");
        started = false;
      }
      if (!started) {
        refresh_health("starting");
        recover();
        started = true;
        // Watch before the first claim pass lists pending/, so no arrival
        // can fall between that listing and the wait.
        if (pending_watch_.get() < 0) {
          pending_watch_ = OwnedFd(watch_renames_into(
              (std::filesystem::path(queue_.root()) / "pending").string()));
        }
        refresh_health("serving");
      }
      obs::counter("serve.loop.iterations").add();
      // Heartbeat before touching any work: a failed renew means some other
      // daemon owns the spool now — reap without writing and re-enter the
      // acquisition loop.
      if (!lease_.renew()) {
        on_lease_lost("lease expired or stolen");
        started = false;
        continue;
      }
      reap();
      if (g_drain_requested) break;
      tick_overload(unix_now());
      spawn_ready(unix_now());
      maybe_scrub();
      if (g_drain_requested) break;
      if (opts_.once && slots_.empty() && queue_.ids_in("pending").empty()) {
        break;
      }
      if (util::monotonic_seconds() - last_health_monotonic_ >=
          opts_.health_interval_seconds) {
        refresh_health("serving");
      }
      if (opts_.snapshot_interval_seconds > 0.0 && opts_.snapshot_hook &&
          util::monotonic_seconds() - last_snapshot_monotonic_ >=
              opts_.snapshot_interval_seconds) {
        last_snapshot_monotonic_ = util::monotonic_seconds();
        opts_.snapshot_hook();
      }
      // A signal that landed after the check above (say, during the health
      // write) has already run its handler: do not wait out the cap for it.
      if (g_drain_requested) break;
      wait_for_event();
    } catch (const FencedError& e) {
      // A mutating queue op lost the fencing race before renew() noticed:
      // identical reaction, the queue already refused the stale write.
      on_lease_lost(e.what());
      started = false;
    } catch (const io::IoError& e) {
      degraded_wait(e.what());
      if (g_drain_requested) break;
      // Re-run startup: recover() skips live slots and re-sweeps anything
      // the aborted iteration stranded in running/.
      started = false;
    }
  }
  if (lease_.is_leader()) {
    if (g_drain_requested) {
      try {
        drain();
      } catch (const FencedError& e) {
        on_lease_lost(e.what());
      } catch (const io::IoError& e) {
        // Requeue blocked by the fault: the jobs stay in running/ and the
        // next daemon's recovery requeues them — nothing is lost.
        std::fprintf(stderr, "served: drain degraded (%s)\n", e.what());
      }
    }
    try {
      refresh_health("stopped");
    } catch (const io::IoError&) {
    }
  }
  // Clean handover: mark the record released so a standby skips the expiry
  // wait. No-op when this daemon is not (or no longer) the leader.
  lease_.release();
  // Final snapshot + lifecycle marker: the event log's tail reconstructs
  // the terminal spool partition even for a daemon that never exits
  // cleanly (spool_state lines were also emitted on every change).
  if (opts_.snapshot_hook) opts_.snapshot_hook();
  {
    obs::Event ev;
    ev.kind = "daemon_stop";
    obs::event(ev);
  }
  return 0;
}

}  // namespace minergy::serve
