// Durable optimization jobs for the spool-directory queue (serve/queue.h).
//
// A Job is one optimization request — circuit, optimizer, seed, knobs, an
// optional wall-clock deadline — serialized as a standalone JSON document
// (schema minergy.job.v1) that lives in exactly one queue-state directory
// at a time. The attempts journal travels inside the job file, so a claim,
// a retry or a daemon crash never loses the execution history: whichever
// process picks the file up next can see every attempt that was ever
// started, what it was seeded with, and how it ended.
//
// Terminal records (done/, failed/, quarantined/) are the same document
// decorated with either the worker's result envelope (schema
// minergy.job_result.v1, embedded verbatim) or a typed failure
// {type, detail}.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.h"

namespace minergy::serve {

inline constexpr const char kJobSchema[] = "minergy.job.v1";
inline constexpr const char kJobResultSchema[] = "minergy.job_result.v1";

// One execution attempt, journaled at spawn time and completed at reap time.
struct JobAttempt {
  std::uint64_t seed = 0;
  // "running" while in flight; terminal outcomes: "ok" (result envelope
  // written), "crash", "timeout", "error" (nonzero worker exit without an
  // envelope), "interrupted" (daemon drain / daemon death; does not count
  // against the retry budget).
  std::string outcome = "running";
  int exit_code = 0;
  double wall_seconds = 0.0;
  double backoff_seconds = 0.0;  // slept before this attempt became eligible
};

struct Job {
  std::string id;  // unique, filename-safe; assigned at submit
  std::string circuit = "c17";
  std::string optimizer = "robust";  // robust | joint | baseline | anneal
  std::uint64_t seed = 1;
  double clock_frequency = 300e6;
  double activity = 0.3;
  // Wall-clock deadline for one attempt, propagated into the optimizer's
  // util::WatchdogBudget: a late job returns its best-seen result flagged
  // truncated (and still certified) instead of blowing the deadline.
  // 0 = no deadline.
  double deadline_seconds = 0.0;
  std::int64_t max_evaluations = 0;  // 0 = unlimited
  int anneal_moves = 0;              // 0 = AnnealingOptions default
  // Test hook (chaos harness): "crash-pre-run" | "crash-pre-result" | "hang"
  // make the worker die or wedge at a deterministic point.
  std::string inject;

  double submitted_unix = 0.0;
  double not_before_unix = 0.0;  // backoff: ineligible for claim before this
  // Backoff that produced not_before_unix; copied into the next attempt's
  // journal entry at spawn time, then cleared.
  double next_backoff_seconds = 0.0;

  std::vector<JobAttempt> attempts;

  // Terminal decoration (failed/ and quarantined/ records).
  std::string failure_type;
  std::string failure_detail;

  // Attempts that ended in crash/timeout/error — the retry budget.
  int failed_attempts() const;
  // Attempts that ended "interrupted" (daemon drain or death).
  int interruptions() const;
  // Attempts that were ever started (journal length).
  int started_attempts() const { return static_cast<int>(attempts.size()); }

  // Serializes the job document; `result_json` (when non-empty) must be a
  // complete JSON value and is embedded under "result".
  std::string to_json(const std::string& result_json = std::string()) const;
  // Parses a job document; throws util::ParseError on a missing schema,
  // wrong schema name, or structural damage. Members this struct does not
  // hold are ignored, so job files that older daemons wrote with scheduling
  // fields (priority, client, completion deadline) or a lease fencing token
  // still load.
  static Job from_json(const std::string& text, const std::string& source);
};

// Filename-safe unique id: zero-padded microsecond timestamp + pid, so ids
// sort lexicographically in submission order and two submitters cannot
// collide.
std::string make_job_id();

// Seeds are full 64-bit values (retry seeds are hash_mix outputs), which a
// JSON number, read as a double, cannot carry. minergy.job.v1 and
// minergy.job_result.v1 therefore hold them as decimal strings. parse_seed
// reads one exactly and throws util::ParseError on anything but a plain
// decimal in [0, 2^64). Job::from_json also still accepts the legacy
// number form (written as a signed 64-bit integer), so old spools load.
std::uint64_t parse_seed(std::string_view text, const std::string& source);
std::string format_seed(std::uint64_t seed);

// The deterministic per-(circuit, attempt) seed schedule: attempt 0 runs the
// submitted seed, retry k runs hash_mix(seed ^ fnv1a(circuit) ^ k) so a
// retry is a genuinely different stochastic run.
std::uint64_t attempt_seed(const Job& job, int failed_attempt_index);

// Exponential retry backoff: base * 2^(failed_attempts - 1). Computed in
// floating point, so any retry budget (--retries is user input) yields a
// finite, non-negative delay instead of an overflowing integer shift.
double retry_backoff_seconds(double base_seconds, int failed_attempts);

// Unix-epoch seconds for backoff eligibility and job timestamps. Backoff
// must survive daemon restarts, so the LEVEL is wall clock — but the value
// is routed through util::Clock::system()'s unix_monotone() clamp, so a
// backward wall-clock jump can never produce a negative backoff.
double unix_now();

}  // namespace minergy::serve
