// In-process execution of one queued job (the worker side of the service).
//
// The supervisor never optimizes in its own address space: each claimed job
// is handed to a fresh subprocess (minergy_served --worker or
// minergy_batch --worker, both entering run_worker_mode()) that calls
// run_worker_job(), so a crash, hang or NaN-storm in one netlist can only
// ever cost one worker. The worker's entire observable output is ONE atomic
// file: the result envelope (schema minergy.job_result.v1) dropped into
// results/<id>.json. The parent judges the envelope; the worker's exit code
// only distinguishes "envelope written" (0) from "died before writing one".
//
// Deadlines: job.deadline_seconds (and job.max_evaluations) become the
// optimizer's util::WatchdogBudget, so a job that cannot finish in time
// returns its best-seen state flagged truncated — and that truncated result
// still passes through opt::Certifier like any other.
//
// Checkpoints: annealing and joint runs snapshot into checkpoints/<id>.json
// (PR-3 formats, atomic write-rename). When the file already exists the run
// resumes from it bit-exactly — that is how a drained daemon's in-flight
// jobs continue after a restart.
#pragma once

#include <string>

#include "serve/job.h"
#include "serve/queue.h"
#include "util/cli.h"

namespace minergy::serve {

// The `--worker` entry point of every binary the supervisor execs: loads
// the running/ job named by --job-id from `queue` and runs it under
// --attempt-seed, --brownout-level and --lease-path. Returns the worker
// exit code (2 when the job cannot be loaded).
int run_worker_mode(const util::Cli& cli, const SpoolQueue& queue);

// Runs `job`, certifies the result, writes the envelope to `result_path`.
// `checkpoint_path` is used for periodic snapshots and (when the file
// exists) for resume; pass "" to disable. `attempt_seed` is the seed chosen
// by the supervisor's retry schedule. `brownout_level` is the daemon's
// fidelity ladder position at spawn time (0 = full fidelity; 1 forces a
// robust run to start at the baseline tier, 2 at max-drive, and shrinks
// any wall-clock watchdog budget proportionally — 1/2 and 1/4). The level
// is recorded in the result envelope so a degraded answer carries its
// provenance. `lease_path` (when non-empty AND the job carries a fencing
// token) is re-checked immediately before the envelope drop: if the
// spool's leader lease no longer carries the job's token, the claim is
// stale — the spawning leader was deposed mid-flight — and the worker
// exits 75 WITHOUT writing an envelope, so the new leader's re-execution
// of the same job can never race a zombie's commit. Returns the worker
// process exit code: 0 = envelope written (any verdict), 2 = malformed
// job, 75 = fenced (stale lease token; no envelope). Typed optimization
// errors are reported inside the envelope (ok=false), not via exit codes.
int run_worker_job(const Job& job, std::uint64_t attempt_seed,
                   const std::string& result_path,
                   const std::string& checkpoint_path,
                   int brownout_level = 0,
                   const std::string& lease_path = std::string());

// The exit code a fenced worker returns instead of writing an envelope.
inline constexpr int kWorkerFencedExit = 75;

}  // namespace minergy::serve
