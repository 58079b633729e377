// Supervised worker pool over the spool queue (the daemon side).
//
// One single-threaded control loop owns the whole protocol: claim eligible
// jobs, fork+exec one isolated worker per job (minergy_served --worker),
// babysit each against a wall-clock SIGKILL timeout, journal every attempt
// into the job file, and disposition the outcome:
//
//   result envelope present  -> done/ (feasible + certified) or failed/
//                               (typed failure, infeasible, uncertified)
//   crash / timeout / error  -> perturbed-seed retry with exponential
//                               backoff, then quarantined/ when the retry
//                               budget is spent; every death also feeds the
//                               per-circuit breaker (serve/breaker.h)
//
// One daemon serves a spool: run() takes an exclusive flock on the spool
// directory before it touches the spool and holds it until it returns, and
// a second daemon on a served spool exits 1 within half a second without
// writing into it. The kernel drops the lock when its holder dies, so a
// restart after a crash serves immediately; nothing takes over from a
// daemon that is stopped or wedged. The lock is a local-filesystem,
// one-host guarantee.
//
// Only the lock holder mutates the spool. Workers exec without the lock
// descriptor (O_CLOEXEC) and set PDEATHSIG so a dying daemon takes its
// children with it — combined with the queue's claim/finalize protocol that
// is what makes execution exactly-once: after any SIGKILL there is either a
// committed result envelope (recovery finalizes it without re-running) or
// no trace of the attempt (recovery requeues it).
//
// SIGTERM/SIGINT start a graceful drain: intake stops, workers get a grace
// period to finish, survivors are SIGKILLed and their jobs requeued with
// their PR-3 checkpoint files preserved, so the restarted daemon resumes
// each in-flight annealing/joint run bit-exactly from its last snapshot.
//
// The loop is event-driven: between passes it blocks in ppoll until a job
// lands in pending/ (an inotify watch for IN_MOVED_TO: every submit and
// requeue ends in a rename there), a worker exits (one pidfd per live
// slot) or a signal arrives — and never longer than poll_seconds, so every
// timer the loop owns (kill deadline, health, snapshot, retry backoff)
// still fires on time. A wake source the kernel refuses (inotify_init1 or
// pidfd_open failing) is simply absent, and the cap alone gives a plain
// poll. waitpid(WNOHANG) in reap() is the only reaper; a pidfd only ends
// the wait.
#pragma once

#include <sys/types.h>

#include <functional>
#include <string>
#include <vector>

#include "serve/breaker.h"
#include "serve/queue.h"

namespace minergy::serve {

struct SupervisorOptions {
  // Absolute path of the binary to exec for workers (minergy_served).
  std::string worker_binary;
  int workers = 2;                  // concurrent worker subprocesses
  // Longest the control loop waits without an event (a job arriving in
  // pending/, a worker exiting, a signal); the cadence of its timers.
  double poll_seconds = 0.02;
  double timeout_seconds = 300.0;   // per-attempt wall clock before SIGKILL
  int max_retries = 2;              // extra attempts after the first
  double backoff_seconds = 0.5;     // retry k sleeps backoff * 2^(k-1)
  // Interruptions (daemon drains/deaths) do not consume the retry budget,
  // but a job interrupted this many times is quarantined as unserviceable.
  int max_interruptions = 25;
  double drain_grace_seconds = 2.0;  // let workers finish before SIGKILL
  double health_interval_seconds = 0.25;
  bool once = false;  // exit when pending/ and the pool are both empty
  BreakerOptions breaker{};
  // Periodic telemetry flush: every snapshot_interval_seconds the control
  // loop invokes snapshot_hook (when set), so a crashed daemon still
  // leaves its last counter snapshot on disk instead of exit-only metrics.
  // The hook must not throw (storage faults are its own problem to log).
  double snapshot_interval_seconds = 0.0;
  std::function<void()> snapshot_hook;
};

class Supervisor {
 public:
  Supervisor(SpoolQueue& queue, SupervisorOptions opts);

  // Locks the spool, installs SIGTERM/SIGINT drain handlers, recovers
  // running/ orphans, then serves until drained (signal) or — with
  // options.once — until the queue is empty. Returns the process exit code:
  // 0 = clean stop or drain, 1 = the spool could not be locked (another
  // daemon serves it), in which case nothing in the spool was touched.
  int run();

 private:
  // Owns one file descriptor (-1 = none); closes it on destruction.
  class OwnedFd {
   public:
    OwnedFd() = default;
    explicit OwnedFd(int fd) : fd_(fd) {}
    OwnedFd(OwnedFd&& other) noexcept;
    OwnedFd& operator=(OwnedFd&& other) noexcept;
    ~OwnedFd();
    int get() const { return fd_; }

   private:
    int fd_ = -1;
  };

  struct Slot {
    pid_t pid = -1;
    OwnedFd pidfd;  // readable once the worker exits; a wake source only
    Job job;
    double started_monotonic = 0.0;
    double kill_after_seconds = 0.0;
  };

  void recover();
  void reap();
  // The loop's only wait: returns when a job lands in pending/, a worker
  // exits, a signal interrupts it, or poll_seconds pass.
  void wait_for_event();
  void spawn_ready(double now_unix);
  void drain();
  void refresh_health(const std::string& state);
  void log_spool_state(const std::string& state);
  // Storage-fault (ENOSPC/EIO) reaction: pause admissions, flip health.json
  // to "degraded", and probe with exponential backoff until a write lands
  // again (or a drain is requested). See docs/ROBUSTNESS.md.
  void degraded_wait(const std::string& what);
  bool owned_by_live_slot(const std::string& id) const;

  // Judges and finalizes a committed result envelope. `worker_wall_seconds`
  // is the attempt's wall time when the envelope comes from a worker reap()
  // just collected, 0 otherwise (recovery, drain); it only feeds telemetry.
  void dispose_envelope(Job job, double worker_wall_seconds = 0.0);
  void handle_death(Job job, const std::string& outcome, int exit_code,
                    double wall_seconds, double now_unix);
  pid_t spawn_worker(const Job& job, std::uint64_t seed);

  SpoolQueue& queue_;
  SupervisorOptions opts_;
  CircuitBreaker breaker_;
  std::vector<Slot> slots_;
  // inotify watch on pending/, open once the daemon serves.
  OwnedFd pending_watch_;
  double last_health_monotonic_ = -1.0;
  double last_snapshot_monotonic_ = -1.0;
  QueueCounts last_logged_counts_{};
  bool counts_ever_logged_ = false;
};

}  // namespace minergy::serve
