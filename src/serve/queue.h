// Crash-safe spool-directory job queue.
//
// One directory tree holds the entire queue state; the directory a job file
// sits in IS its state, and every transition is a single atomic rename on
// the same filesystem, so a SIGKILL at any instruction leaves the queue in
// a consistent, recoverable configuration:
//
//   <root>/pending/<id>.json      submitted, waiting (FIFO)
//   <root>/running/<id>.json      claimed by the daemon (attempt journaled)
//   <root>/done/<id>.json         terminal: certified result embedded
//   <root>/failed/<id>.json       terminal: typed failure {type, detail}
//   <root>/quarantined/<id>.json  terminal: crash-looped / breaker-tripped
//   <root>/results/<id>.json      worker result envelope (atomic drop)
//   <root>/checkpoints/<id>.json  optimizer snapshot (PR-3 format)
//   <root>/health.json            atomically refreshed liveness/readiness
//
// Exactly-once execution rests on two rules: (1) a claim is the rename
// pending -> running, which exactly one claimant can win; (2) a finished
// attempt drops its result envelope atomically into results/ BEFORE the job
// leaves running/, so recovery after a daemon death can always distinguish
// "work finished, bookkeeping lost" (finalize the existing envelope, never
// re-execute) from "work lost" (requeue). done/ is first-write-wins: a
// duplicate finalization is counted and dropped, never overwrites.
#pragma once

#include <cstddef>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "serve/job.h"

namespace minergy::serve {

// Admission control: submitting into a full pending/ directory is a typed,
// recoverable rejection carrying a retry-after hint sized to the backlog.
class QueueFullError : public std::runtime_error {
 public:
  QueueFullError(std::size_t depth, std::size_t limit,
                 double retry_after_seconds);
  // Admission rejected for a reason other than depth — e.g. ENOSPC while
  // writing the job file (the disk itself is the full queue).
  QueueFullError(const std::string& reason, double retry_after_seconds);

  std::size_t depth() const { return depth_; }
  std::size_t limit() const { return limit_; }
  double retry_after_seconds() const { return retry_after_; }

 private:
  std::size_t depth_;
  std::size_t limit_;
  double retry_after_;
};

struct SpoolOptions {
  // Bounded queue depth; submit() past this throws QueueFullError.
  std::size_t max_pending = 64;
  // Rough per-job service time used to size the retry-after hint.
  double expected_job_seconds = 5.0;
  // Latency SLO on end-to-end job time (submit -> terminal state), in
  // seconds; 0 disables. A finalization past the objective increments
  // serve.slo.violations and logs an `slo_violation` event.
  double slo_e2e_seconds = 0.0;
};

struct QueueCounts {
  std::size_t pending = 0;
  std::size_t running = 0;
  std::size_t done = 0;
  std::size_t failed = 0;
  std::size_t quarantined = 0;
  std::size_t terminal() const { return done + failed + quarantined; }
};

// Daemon liveness snapshot, atomically replaced so an external monitor
// never reads a torn document (schema minergy.health.v1).
struct HealthInfo {
  std::string state = "starting";  // starting | serving | draining | stopped
                                   // | degraded
  // "ok" | "degraded": the readiness verdict. The daemon reports
  // "degraded" only while ENOSPC-paused.
  std::string status = "ok";
  std::string status_reason;
  int workers_active = 0;
  std::vector<std::string> breaker_open;
};

class SpoolQueue {
 public:
  // Creates the state directories if missing.
  explicit SpoolQueue(std::string root, SpoolOptions opts = {});

  const std::string& root() const { return root_; }
  const SpoolOptions& options() const { return opts_; }

  // Admission: assigns an id (when empty) and a submit timestamp, enforces
  // the depth bound (-> QueueFullError; so does ENOSPC while writing), then
  // writes the job into pending/ atomically.
  std::string submit(Job job);

  // Claims the oldest eligible pending job (not_before_unix <= now_unix),
  // first-in first-out by (submitted_unix, id), by renaming it into
  // running/. Returns nullopt when nothing is eligible. A pending file that
  // fails to parse is moved aside to quarantined/ as-is
  // (serve.queue.corrupt_jobs) rather than wedging the queue head.
  std::optional<Job> claim(double now_unix);

  // Rewrites the running/ record (attempt journal updates) atomically.
  void update_running(const Job& job);

  // Terminal transitions; `job` must currently be in running/.
  // finalize_done embeds the result envelope; if done/<id> already exists
  // the call is a counted no-op that just clears the running entry
  // (serve.queue.duplicate_results) — first write wins.
  void finalize_done(const Job& job, const std::string& result_json);
  void finalize_failed(Job job, const std::string& type,
                       const std::string& detail,
                       const std::string& result_json = std::string());
  void finalize_quarantined(Job job, const std::string& reason);

  // running -> pending: appends `outcome` to the last (in-flight) attempt
  // and makes the job claimable again at not_before_unix. Keeps or deletes
  // the checkpoint file: kept for interruptions (bit-exact resume), deleted
  // for crash retries (fresh perturbed-seed run).
  void requeue(Job job, const std::string& outcome, double not_before_unix,
               bool keep_checkpoint);

  // All jobs currently in running/ (daemon-restart recovery input).
  std::vector<Job> running_jobs() const;

  // Removes results/ and checkpoints/ strays whose job is no longer in
  // pending/ or running/ (a crash can land between a terminal rename and
  // the scratch-file cleanup).
  void collect_garbage();

  QueueCounts counts() const;
  std::vector<std::string> ids_in(const std::string& state) const;

  // Scratch-file locations for one job.
  std::string result_path(const std::string& id) const;
  std::string checkpoint_path(const std::string& id) const;
  std::string job_path(const std::string& state, const std::string& id) const;

  // Atomically refreshes <root>/health.json (schema minergy.health.v1).
  void write_health(const HealthInfo& info) const;

 private:
  std::string dir(const std::string& state) const;
  // Latency bookkeeping at a terminal transition: records the end-to-end
  // histogram, checks the SLO, and logs the job_* event.
  void note_terminal(const Job& job, const char* kind,
                     const std::string& severity);
  void write_terminal(Job job, const std::string& state,
                      const std::string& result_json);
  void remove_scratch(const std::string& id, bool keep_checkpoint) const;

  std::string root_;
  SpoolOptions opts_;
};

}  // namespace minergy::serve
