#include "serve/queue.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <tuple>

#include "io/checkpoint.h"
#include "io/durable.h"
#include "io/envelope.h"
#include "obs/eventlog.h"
#include "obs/metrics.h"
#include "util/check.h"
#include "util/json.h"

namespace minergy::serve {

namespace fs = std::filesystem;

namespace {

// Sorted *.json stems of one state directory.
std::vector<std::string> list_ids(const std::string& dir) {
  std::vector<std::string> ids;
  std::error_code ec;
  for (const fs::directory_entry& e : fs::directory_iterator(dir, ec)) {
    if (!e.is_regular_file()) continue;
    const fs::path p = e.path();
    if (p.extension() != ".json") continue;  // skips in-flight .tmp files
    ids.push_back(p.stem().string());
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

}  // namespace

QueueFullError::QueueFullError(std::size_t depth, std::size_t limit,
                               double retry_after_seconds)
    : std::runtime_error("queue full: " + std::to_string(depth) + "/" +
                         std::to_string(limit) +
                         " pending jobs; retry after " +
                         std::to_string(retry_after_seconds) + " s"),
      depth_(depth),
      limit_(limit),
      retry_after_(retry_after_seconds) {}

QueueFullError::QueueFullError(const std::string& reason,
                               double retry_after_seconds)
    : std::runtime_error(reason + "; retry after " +
                         std::to_string(retry_after_seconds) + " s"),
      depth_(0),
      limit_(0),
      retry_after_(retry_after_seconds) {}

SpoolQueue::SpoolQueue(std::string root, SpoolOptions opts)
    : root_(std::move(root)), opts_(opts) {
  for (const char* state : {"pending", "running", "done", "failed",
                            "quarantined", "results", "checkpoints"}) {
    fs::create_directories(fs::path(root_) / state);
  }
}

std::string SpoolQueue::dir(const std::string& state) const {
  return (fs::path(root_) / state).string();
}

std::string SpoolQueue::job_path(const std::string& state,
                                 const std::string& id) const {
  return (fs::path(root_) / state / (id + ".json")).string();
}

std::string SpoolQueue::result_path(const std::string& id) const {
  return job_path("results", id);
}

std::string SpoolQueue::checkpoint_path(const std::string& id) const {
  return job_path("checkpoints", id);
}

std::string SpoolQueue::submit(Job job) {
  const std::size_t depth = list_ids(dir("pending")).size();
  if (depth >= opts_.max_pending) {
    obs::counter("serve.queue.full_rejections").add();
    // Hint: how long until the backlog has plausibly drained below the
    // bound, assuming jobs keep completing at the expected service rate.
    const double retry_after =
        opts_.expected_job_seconds *
        static_cast<double>(depth - opts_.max_pending + 1);
    throw QueueFullError(depth, opts_.max_pending, retry_after);
  }
  if (job.id.empty()) job.id = make_job_id();
  if (job.submitted_unix == 0.0) job.submitted_unix = unix_now();
  try {
    io::write_artifact(job_path("pending", job.id), kJobSchema, job.to_json());
  } catch (const io::DiskFullError& e) {
    // A full disk is the queue at its hardest bound: reject with the same
    // typed backpressure as a full pending/ directory so clients retry
    // instead of seeing an opaque write error.
    obs::counter("serve.admission.enospc").add();
    throw QueueFullError(std::string("disk full during admission (") +
                             e.what() + ")",
                         opts_.expected_job_seconds *
                             static_cast<double>(std::max<std::size_t>(depth,
                                                                       1)));
  }
  obs::counter("serve.queue.submitted").add();
  obs::Event ev;
  ev.kind = "job_submitted";
  ev.job = job.id;
  ev.circuit = job.circuit;
  obs::event(ev);
  return job.id;
}

std::optional<Job> SpoolQueue::claim(double now_unix) {
  // Snapshot + parse every pending job first: the claim order is by
  // submission time, which only the job files carry, and the parse pass is
  // where corrupt files get quarantined out of the way.
  std::vector<Job> eligible;
  for (const std::string& id : list_ids(dir("pending"))) {
    const std::string pending = job_path("pending", id);
    Job job;
    try {
      job = Job::from_json(io::read_artifact(pending, kJobSchema), pending);
    } catch (const util::ParseError& e) {
      // A garbled job file — including an envelope verdict (truncation,
      // bit rot, wrong schema), which is an io::IntegrityError and thus a
      // ParseError — must not wedge the queue head: synthesize a typed
      // quarantine record for it and move on.
      obs::counter("serve.queue.corrupt_jobs").add();
      Job corrupt;
      corrupt.id = id;
      corrupt.failure_type = "corrupt-job";
      corrupt.failure_detail = e.what();
      if (!fs::exists(job_path("quarantined", id))) {
        io::write_artifact(job_path("quarantined", id), kJobSchema,
                           corrupt.to_json());
      }
      std::remove(pending.c_str());
      obs::counter("serve.jobs.quarantined").add();
      obs::Event ev;
      ev.kind = "job_quarantined";
      ev.severity = "warn";
      ev.job = id;
      ev.detail = std::string("corrupt job file: ") + e.what();
      obs::event(ev);
      continue;
    }
    if (job.not_before_unix > now_unix) continue;  // backing off
    eligible.push_back(std::move(job));
  }
  // First in, first out. A total order, so two claimants walking the same
  // pending/ snapshot agree on it and only the rename race decides
  // ownership.
  std::sort(eligible.begin(), eligible.end(), [](const Job& a, const Job& b) {
    return std::tie(a.submitted_unix, a.id) < std::tie(b.submitted_unix, b.id);
  });

  for (Job& job : eligible) {
    // The claim itself: exactly one claimant can win this rename.
    if (!io::try_rename(job_path("pending", job.id),
                        job_path("running", job.id))) {
      continue;  // raced by another claimant, or vanished
    }
    obs::counter("serve.queue.claimed").add();
    // Queue wait: from the instant the job became eligible (submission, or
    // the end of its retry backoff) to this claim.
    const double eligible_unix =
        std::max(job.submitted_unix, job.not_before_unix);
    const double wait_s =
        eligible_unix > 0.0 ? std::max(0.0, now_unix - eligible_unix) : 0.0;
    obs::histogram("serve.job.queue_wait_micros").record(wait_s * 1e6);
    obs::Event ev;
    ev.kind = "job_claimed";
    ev.job = job.id;
    ev.circuit = job.circuit;
    ev.attempt = job.started_attempts() + 1;
    ev.num.emplace_back("queue_wait_s", wait_s);
    obs::event(ev);
    return std::move(job);
  }
  return std::nullopt;
}

void SpoolQueue::update_running(const Job& job) {
  io::write_artifact(job_path("running", job.id), kJobSchema, job.to_json());
}

void SpoolQueue::remove_scratch(const std::string& id,
                                bool keep_checkpoint) const {
  std::remove(result_path(id).c_str());
  // Checkpoint files are generational (id.json, id.json.1, ...); remove
  // the whole family so no stale generation survives into a later job.
  if (!keep_checkpoint) io::Checkpoint::remove(checkpoint_path(id));
}

void SpoolQueue::note_terminal(const Job& job, const char* kind,
                               const std::string& severity) {
  const double e2e_s =
      job.submitted_unix > 0.0 ? unix_now() - job.submitted_unix : 0.0;
  obs::histogram("serve.job.e2e_micros").record(e2e_s * 1e6);
  obs::Event ev;
  ev.kind = kind;
  ev.severity = severity;
  ev.job = job.id;
  ev.circuit = job.circuit;
  ev.attempt = job.started_attempts();
  if (!job.failure_type.empty()) ev.detail = job.failure_type;
  ev.num.emplace_back("e2e_s", e2e_s);
  obs::event(ev);
  if (opts_.slo_e2e_seconds > 0.0 && e2e_s > opts_.slo_e2e_seconds) {
    obs::counter("serve.slo.violations").add();
    obs::Event slo;
    slo.kind = "slo_violation";
    slo.severity = "warn";
    slo.job = job.id;
    slo.circuit = job.circuit;
    slo.num.emplace_back("e2e_s", e2e_s);
    slo.num.emplace_back("slo_s", opts_.slo_e2e_seconds);
    obs::event(slo);
  }
}

void SpoolQueue::write_terminal(Job job, const std::string& state,
                                const std::string& result_json) {
  // Order matters for crash-safety: terminal record first, then the
  // running/ entry, then scratch files. A crash between any two steps
  // leaves a state recovery re-finalizes idempotently (the result envelope
  // is still on disk until the very last step).
  io::write_artifact(job_path(state, job.id), kJobSchema,
                     job.to_json(result_json));
  std::remove(job_path("running", job.id).c_str());
  remove_scratch(job.id, /*keep_checkpoint=*/false);
}

void SpoolQueue::finalize_done(const Job& job,
                               const std::string& result_json) {
  if (fs::exists(job_path("done", job.id))) {
    // First write wins: a duplicate finalization (late retry landing after
    // a success, or recovery replaying a finished attempt) is dropped.
    obs::counter("serve.queue.duplicate_results").add();
    std::remove(job_path("running", job.id).c_str());
    remove_scratch(job.id, /*keep_checkpoint=*/false);
    return;
  }
  note_terminal(job, "job_done", "info");
  write_terminal(job, "done", result_json);
  obs::counter("serve.jobs.done").add();
}

void SpoolQueue::finalize_failed(Job job, const std::string& type,
                                 const std::string& detail,
                                 const std::string& result_json) {
  job.failure_type = type;
  job.failure_detail = detail;
  note_terminal(job, "job_failed", "warn");
  write_terminal(std::move(job), "failed", result_json);
  obs::counter("serve.jobs.failed").add();
}

void SpoolQueue::finalize_quarantined(Job job, const std::string& reason) {
  job.failure_type = "quarantined";
  job.failure_detail = reason;
  note_terminal(job, "job_quarantined", "warn");
  write_terminal(std::move(job), "quarantined", std::string());
  obs::counter("serve.jobs.quarantined").add();
}

void SpoolQueue::requeue(Job job, const std::string& outcome,
                         double not_before_unix, bool keep_checkpoint) {
  if (!job.attempts.empty() && job.attempts.back().outcome == "running") {
    job.attempts.back().outcome = outcome;
  }
  job.not_before_unix = not_before_unix;
  if (!keep_checkpoint) io::Checkpoint::remove(checkpoint_path(job.id));
  std::remove(result_path(job.id).c_str());
  // Journal in place, then one atomic rename back to pending/ — there is
  // never an instant where the job exists in two state directories.
  update_running(job);
  io::rename_file(job_path("running", job.id), job_path("pending", job.id));
  obs::counter("serve.jobs.requeued").add();
  obs::Event ev;
  ev.kind = "job_requeued";
  ev.job = job.id;
  ev.circuit = job.circuit;
  ev.attempt = job.started_attempts();
  ev.detail = outcome;
  if (not_before_unix > 0.0) {
    ev.num.emplace_back("not_before_in_s",
                        std::max(0.0, not_before_unix - unix_now()));
  }
  obs::event(ev);
}

std::vector<Job> SpoolQueue::running_jobs() const {
  std::vector<Job> jobs;
  for (const std::string& id : list_ids(dir("running"))) {
    const std::string path = job_path("running", id);
    try {
      jobs.push_back(Job::from_json(io::read_artifact(path, kJobSchema), path));
    } catch (const util::ParseError&) {
      // update_running writes atomically, so a torn running/ record should
      // be impossible; if one appears anyway, surface it as corrupt rather
      // than crashing recovery.
      obs::counter("serve.queue.corrupt_jobs").add();
      Job corrupt;
      corrupt.id = id;
      jobs.push_back(std::move(corrupt));
    }
  }
  return jobs;
}

void SpoolQueue::collect_garbage() {
  for (const char* scratch : {"results", "checkpoints"}) {
    for (const std::string& id : list_ids(dir(scratch))) {
      if (fs::exists(job_path("pending", id)) ||
          fs::exists(job_path("running", id))) {
        continue;
      }
      // Checkpoints are generational; remove() sweeps id.json.1/.2 (which
      // list_ids never sees — their extension is not .json) along with the
      // listed newest generation.
      io::Checkpoint::remove(job_path(scratch, id));
      obs::counter("serve.queue.garbage_collected").add();
    }
  }
}

QueueCounts SpoolQueue::counts() const {
  QueueCounts c;
  c.pending = list_ids(dir("pending")).size();
  c.running = list_ids(dir("running")).size();
  c.done = list_ids(dir("done")).size();
  c.failed = list_ids(dir("failed")).size();
  c.quarantined = list_ids(dir("quarantined")).size();
  return c;
}

std::vector<std::string> SpoolQueue::ids_in(const std::string& state) const {
  return list_ids(dir(state));
}

void SpoolQueue::write_health(const HealthInfo& info) const {
  const QueueCounts c = counts();
  util::JsonWriter w(2);
  w.begin_object();
  w.kv("schema", "minergy.health.v1");
  w.kv("state", info.state);
  w.kv("status", info.status);
  if (!info.status_reason.empty()) w.kv("status_reason", info.status_reason);
  w.kv("pid", static_cast<std::int64_t>(::getpid()));
  w.kv("updated_unix", unix_now());
  w.kv("workers_active", info.workers_active);
  w.key("queue").begin_object();
  w.kv("pending", c.pending);
  w.kv("running", c.running);
  w.kv("done", c.done);
  w.kv("failed", c.failed);
  w.kv("quarantined", c.quarantined);
  w.end_object();
  w.key("breaker_open").begin_array();
  for (const std::string& circuit : info.breaker_open) w.value(circuit);
  w.end_array();
  w.end_object();
  io::write_artifact((fs::path(root_) / "health.json").string(),
                     "minergy.health.v1", w.str() + "\n");
}

}  // namespace minergy::serve
