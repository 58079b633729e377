#include "serve/job.h"

#include <sys/types.h>
#include <unistd.h>

#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <system_error>

#include "util/check.h"
#include "util/clock.h"
#include "util/rng.h"

namespace minergy::serve {

int Job::failed_attempts() const {
  int n = 0;
  for (const JobAttempt& a : attempts) {
    if (a.outcome == "crash" || a.outcome == "timeout" || a.outcome == "error")
      ++n;
  }
  return n;
}

int Job::interruptions() const {
  int n = 0;
  for (const JobAttempt& a : attempts) {
    if (a.outcome == "interrupted") ++n;
  }
  return n;
}

std::string Job::to_json(const std::string& result_json) const {
  util::JsonWriter w(2);
  w.begin_object();
  w.kv("schema", kJobSchema);
  w.kv("id", id);
  w.kv("circuit", circuit);
  w.kv("optimizer", optimizer);
  w.kv("seed", format_seed(seed));
  w.kv("clock_frequency", clock_frequency);
  w.kv("activity", activity);
  w.kv("deadline_seconds", deadline_seconds);
  w.kv("max_evaluations", max_evaluations);
  w.kv("anneal_moves", anneal_moves);
  if (!inject.empty()) w.kv("inject", inject);
  w.kv("submitted_unix", submitted_unix);
  w.kv("not_before_unix", not_before_unix);
  if (next_backoff_seconds > 0.0) {
    w.kv("next_backoff_seconds", next_backoff_seconds);
  }
  w.key("attempts").begin_array();
  for (const JobAttempt& a : attempts) {
    w.begin_object();
    w.kv("seed", format_seed(a.seed));
    w.kv("outcome", a.outcome);
    w.kv("exit_code", a.exit_code);
    w.kv("wall_seconds", a.wall_seconds);
    w.kv("backoff_seconds", a.backoff_seconds);
    w.end_object();
  }
  w.end_array();
  if (!failure_type.empty()) {
    w.key("failure").begin_object();
    w.kv("type", failure_type);
    w.kv("detail", failure_detail);
    w.end_object();
  }
  if (!result_json.empty()) {
    w.key("result");
    util::emit(w, util::JsonValue::parse(result_json, "<job-result>"));
  }
  w.end_object();
  return w.str() + "\n";
}

namespace {

// The "seed" member of `obj`: a decimal string, or a legacy number that was
// written as a signed 64-bit integer (seeds >= 2^63 wrapped negative).
std::uint64_t read_seed(const util::JsonValue& obj, std::uint64_t fallback,
                        const std::string& source) {
  if (!obj.has("seed")) return fallback;
  const util::JsonValue& v = obj.at("seed");
  if (v.is_string()) return parse_seed(v.as_string(), source);
  const double d = v.as_number();
  if (d >= -0x1p63 && d < 0x1p63 && d == std::trunc(d)) {
    return static_cast<std::uint64_t>(static_cast<std::int64_t>(d));
  }
  throw util::ParseError("seed is not a 64-bit integer", source, 0);
}

}  // namespace

std::uint64_t parse_seed(std::string_view text, const std::string& source) {
  std::uint64_t seed = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), seed);
  if (text.empty() || ec != std::errc() || end != text.data() + text.size()) {
    throw util::ParseError("seed '" + std::string(text) +
                               "' is not a decimal integer in [0, 2^64)",
                           source, 0);
  }
  return seed;
}

std::string format_seed(std::uint64_t seed) { return std::to_string(seed); }

Job Job::from_json(const std::string& text, const std::string& source) {
  const util::JsonValue root = util::JsonValue::parse(text, source);
  if (!root.is_object() || root.get_string("schema", "") != kJobSchema) {
    throw util::ParseError(
        "not a " + std::string(kJobSchema) + " document (schema '" +
            root.get_string("schema", "<missing>") + "')",
        source, 0);
  }
  Job j;
  j.id = root.get_string("id", "");
  if (j.id.empty()) throw util::ParseError("job has no id", source, 0);
  j.circuit = root.get_string("circuit", j.circuit);
  j.optimizer = root.get_string("optimizer", j.optimizer);
  j.seed = read_seed(root, 1, source);
  j.clock_frequency = root.get_number("clock_frequency", j.clock_frequency);
  j.activity = root.get_number("activity", j.activity);
  j.deadline_seconds = root.get_number("deadline_seconds", 0.0);
  j.max_evaluations =
      static_cast<std::int64_t>(root.get_number("max_evaluations", 0.0));
  j.anneal_moves = static_cast<int>(root.get_number("anneal_moves", 0.0));
  j.inject = root.get_string("inject", "");
  j.submitted_unix = root.get_number("submitted_unix", 0.0);
  j.not_before_unix = root.get_number("not_before_unix", 0.0);
  j.next_backoff_seconds = root.get_number("next_backoff_seconds", 0.0);
  if (root.has("attempts")) {
    for (const util::JsonValue& a : root.at("attempts").items()) {
      JobAttempt at;
      at.seed = read_seed(a, 0, source);
      at.outcome = a.get_string("outcome", "running");
      at.exit_code = static_cast<int>(a.get_number("exit_code", 0.0));
      at.wall_seconds = a.get_number("wall_seconds", 0.0);
      at.backoff_seconds = a.get_number("backoff_seconds", 0.0);
      j.attempts.push_back(std::move(at));
    }
  }
  if (root.has("failure")) {
    j.failure_type = root.at("failure").get_string("type", "");
    j.failure_detail = root.at("failure").get_string("detail", "");
  }
  return j;
}

std::string make_job_id() {
  const auto now = std::chrono::system_clock::now().time_since_epoch();
  const auto micros =
      std::chrono::duration_cast<std::chrono::microseconds>(now).count();
  // Monotone-per-process tiebreaker: two submits inside the same
  // microsecond (coarse clocks) must still get distinct, ordered ids.
  static std::uint64_t seq = 0;
  char buf[48];
  std::snprintf(buf, sizeof buf, "j%016llx-%08x-%04llx",
                static_cast<unsigned long long>(micros),
                static_cast<unsigned>(::getpid()),
                static_cast<unsigned long long>(seq++ & 0xffff));
  return buf;
}

std::uint64_t attempt_seed(const Job& job, int failed_attempt_index) {
  if (failed_attempt_index <= 0) return job.seed;
  std::uint64_t name_hash = 1469598103934665603ULL;
  constexpr std::uint64_t kFnvPrime = 1099511628211ULL;
  for (const char c : job.circuit) {
    name_hash =
        (name_hash ^ static_cast<unsigned char>(c)) * kFnvPrime;
  }
  return util::hash_mix(job.seed ^ name_hash ^
                        static_cast<std::uint64_t>(failed_attempt_index));
}

double retry_backoff_seconds(double base_seconds, int failed_attempts) {
  return std::ldexp(base_seconds, failed_attempts - 1);
}

double unix_now() { return util::Clock::system().unix_monotone(); }

}  // namespace minergy::serve
