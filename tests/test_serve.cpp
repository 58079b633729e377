// Spool-queue state machine, job serialization, breaker, and supervisor
// recovery semantics for the optimization service (src/serve/), plus the
// control loop's event-driven wait against the real daemon binary.
//
// Everything but the control-loop tests is in-process and deterministic;
// the subprocess chaos harness (test_serve_chaos.cpp) covers daemon/worker
// kills at randomized protocol points. Both run under `ctest -L serve`.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_suite/experiment.h"
#include "bench_suite/iscas.h"
#include "io/checkpoint.h"
#include "io/durable.h"
#include "io/envelope.h"
#include "obs/eventlog.h"
#include "obs/metrics.h"
#include "opt/checkpoint.h"
#include "opt/robust_optimizer.h"
#include "serve/breaker.h"
#include "serve/job.h"
#include "serve/queue.h"
#include "serve/supervisor.h"
#include "serve/worker.h"
#include "util/check.h"
#include "util/json.h"

namespace minergy::serve {
namespace {

namespace fs = std::filesystem;

// Unique-per-test spool directory, removed on destruction.
struct ScratchSpool {
  explicit ScratchSpool(const std::string& stem)
      : root((fs::temp_directory_path() / ("minergy_serve_" + stem)).string()) {
    fs::remove_all(root);
  }
  ~ScratchSpool() { fs::remove_all(root); }
  std::string root;
};

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  out << text;
}

// Envelope-verified record read (all persisted artifacts now carry the io
// artifact footer; "" accepts any schema).
util::JsonValue read_record(const std::string& path) {
  return util::JsonValue::parse(io::read_artifact(path, ""), path);
}

// A synthesized worker result envelope, bypassing real optimization so the
// supervisor-side disposition logic can be tested in microseconds.
std::string fake_envelope(const std::string& id, bool ok, bool feasible,
                          bool certified) {
  util::JsonWriter w(2);
  w.begin_object();
  w.kv("schema", kJobResultSchema);
  w.kv("id", id);
  w.kv("ok", ok);
  if (ok) {
    w.kv("feasible", feasible);
    w.kv("certified", certified);
    w.kv("truncated", false);
    w.kv("energy_total", 1.25e-12);
  } else {
    w.kv("error_type", "numeric-error");
    w.kv("detail", "synthetic failure");
  }
  w.end_object();
  return w.str();
}

// A pending job file as earlier versions of minergy.job.v1 wrote it: a
// background scheduling class, a submitting client, an absolute
// completion deadline and a leader-lease fencing token, fields this version
// neither writes nor honors.
std::string legacy_job_json(const std::string& id, double submitted_unix,
                            double complete_by_unix) {
  util::JsonWriter w(2);
  w.begin_object();
  w.kv("schema", kJobSchema);
  w.kv("id", id);
  w.kv("circuit", "c17");
  w.kv("optimizer", "robust");
  w.kv("seed", "1");
  w.kv("clock_frequency", 300e6);
  w.kv("activity", 0.3);
  w.kv("deadline_seconds", 0.0);
  w.kv("max_evaluations", 0);
  w.kv("anneal_moves", 0);
  w.kv("priority", "background");
  w.kv("client", "legacy-client");
  w.kv("complete_by_unix", complete_by_unix);
  w.kv("fence_token", 3);
  w.kv("submitted_unix", submitted_unix);
  w.kv("not_before_unix", 0.0);
  w.key("attempts").begin_array();
  w.end_array();
  w.end_object();
  return w.str() + "\n";
}

// ------------------------------------------------------------------- jobs

TEST(ServeJob, JsonRoundTripPreservesEveryField) {
  Job job;
  job.id = "j42";
  job.circuit = "s298*";
  job.optimizer = "anneal";
  job.seed = 77;
  job.clock_frequency = 123.5e6;
  job.activity = 0.4;
  job.deadline_seconds = 12.5;
  job.max_evaluations = 9000;
  job.anneal_moves = 321;
  job.inject = "hang";
  job.submitted_unix = 1.5e9;
  job.not_before_unix = 1.5e9 + 3.25;
  job.next_backoff_seconds = 3.25;
  JobAttempt a;
  a.seed = 99;
  a.outcome = "crash";
  a.exit_code = -9;
  a.wall_seconds = 0.75;
  a.backoff_seconds = 0.5;
  job.attempts.push_back(a);

  const Job back = Job::from_json(job.to_json(), "<test>");
  EXPECT_EQ(back.id, job.id);
  EXPECT_EQ(back.circuit, job.circuit);
  EXPECT_EQ(back.optimizer, job.optimizer);
  EXPECT_EQ(back.seed, job.seed);
  EXPECT_DOUBLE_EQ(back.clock_frequency, job.clock_frequency);
  EXPECT_DOUBLE_EQ(back.activity, job.activity);
  EXPECT_DOUBLE_EQ(back.deadline_seconds, job.deadline_seconds);
  EXPECT_EQ(back.max_evaluations, job.max_evaluations);
  EXPECT_EQ(back.anneal_moves, job.anneal_moves);
  EXPECT_EQ(back.inject, job.inject);
  EXPECT_DOUBLE_EQ(back.submitted_unix, job.submitted_unix);
  EXPECT_DOUBLE_EQ(back.not_before_unix, job.not_before_unix);
  EXPECT_DOUBLE_EQ(back.next_backoff_seconds, job.next_backoff_seconds);
  ASSERT_EQ(back.attempts.size(), 1u);
  EXPECT_EQ(back.attempts[0].seed, a.seed);
  EXPECT_EQ(back.attempts[0].outcome, a.outcome);
  EXPECT_EQ(back.attempts[0].exit_code, a.exit_code);
  EXPECT_DOUBLE_EQ(back.attempts[0].wall_seconds, a.wall_seconds);
  EXPECT_DOUBLE_EQ(back.attempts[0].backoff_seconds, a.backoff_seconds);
}

TEST(ServeJob, SeedsRoundTripExactlyAsDecimalStrings) {
  constexpr std::uint64_t k2p53p1 = (std::uint64_t{1} << 53) + 1;
  constexpr std::uint64_t k2p63p5 = (std::uint64_t{1} << 63) + 5;
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  Job job;
  job.id = "j-seeds";
  job.seed = k2p53p1;
  for (std::uint64_t seed : {k2p63p5, kMax}) {
    JobAttempt a;
    a.seed = seed;
    job.attempts.push_back(a);
  }
  const std::string text = job.to_json();
  EXPECT_NE(text.find("\"9007199254740993\""), std::string::npos) << text;
  const Job back = Job::from_json(text, "<test>");
  EXPECT_EQ(back.seed, k2p53p1);
  ASSERT_EQ(back.attempts.size(), 2u);
  EXPECT_EQ(back.attempts[0].seed, k2p63p5);
  EXPECT_EQ(back.attempts[1].seed, kMax);

  EXPECT_EQ(parse_seed("18446744073709551615", "<t>"), kMax);
  for (const char* bad : {"", "-1", "18446744073709551616", "12x", " 7",
                          "1e3"}) {
    EXPECT_THROW(parse_seed(bad, "<t>"), util::ParseError) << bad;
  }
}

TEST(ServeJob, LegacyNumericSeedsStillLoad) {
  // Spools written before seeds became strings hold them as signed 64-bit
  // integers: a seed >= 2^63 was journaled negative.
  const Job j = Job::from_json(R"({"schema": "minergy.job.v1", "id": "old",
      "seed": 12345,
      "attempts": [{"seed": 99, "outcome": "crash"},
                   {"seed": -3, "outcome": "ok"}]})",
                               "<legacy>");
  EXPECT_EQ(j.seed, 12345u);
  ASSERT_EQ(j.attempts.size(), 2u);
  EXPECT_EQ(j.attempts[0].seed, 99u);
  EXPECT_EQ(j.attempts[1].seed, std::numeric_limits<std::uint64_t>::max() - 2);
  EXPECT_THROW(Job::from_json(R"({"schema": "minergy.job.v1", "id": "x",
                                  "seed": 1.5})",
                              "<t>"),
               util::ParseError);
}

TEST(ServeJob, FromJsonRejectsWrongOrMissingSchema) {
  EXPECT_THROW(Job::from_json(R"({"id": "x"})", "<t>"), util::ParseError);
  EXPECT_THROW(
      Job::from_json(R"({"schema": "minergy.batch_report.v1", "id": "x"})",
                     "<t>"),
      util::ParseError);
  EXPECT_THROW(Job::from_json("{garbage", "<t>"), util::ParseError);
}

TEST(ServeJob, AttemptCountersSplitFailuresFromInterruptions) {
  Job job;
  for (const char* o : {"interrupted", "crash", "timeout", "interrupted",
                        "error", "running"}) {
    JobAttempt a;
    a.outcome = o;
    job.attempts.push_back(a);
  }
  EXPECT_EQ(job.failed_attempts(), 3);
  EXPECT_EQ(job.interruptions(), 2);
  EXPECT_EQ(job.started_attempts(), 6);
}

TEST(ServeJob, AttemptSeedScheduleIsDeterministicAndPerturbed) {
  Job job;
  job.circuit = "s27";
  job.seed = 11;
  EXPECT_EQ(attempt_seed(job, 0), 11u);
  const std::uint64_t r1 = attempt_seed(job, 1);
  const std::uint64_t r2 = attempt_seed(job, 2);
  EXPECT_NE(r1, 11u);
  EXPECT_NE(r2, 11u);
  EXPECT_NE(r1, r2);
  EXPECT_EQ(attempt_seed(job, 1), r1);  // deterministic
  Job other = job;
  other.circuit = "s298*";
  EXPECT_NE(attempt_seed(other, 1), r1);  // circuit-dependent
}

TEST(ServeJob, RetryBackoffDoublesAndStaysFiniteForLargeBudgets) {
  EXPECT_DOUBLE_EQ(retry_backoff_seconds(0.5, 1), 0.5);
  EXPECT_DOUBLE_EQ(retry_backoff_seconds(0.5, 3), 2.0);
  // --retries is user input: 40 failures must not overflow an integer
  // shift into a negative (immediate) or undefined backoff.
  const double late = retry_backoff_seconds(0.5, 40);
  EXPECT_TRUE(std::isfinite(late));
  EXPECT_GT(late, 0.0);
}

TEST(ServeJob, IdsAreUniqueAndSortInSubmissionOrder) {
  std::string prev;
  for (int i = 0; i < 50; ++i) {
    const std::string id = make_job_id();
    EXPECT_LT(prev, id);
    prev = id;
  }
}

// ------------------------------------------------------------------ queue

TEST(SpoolQueue, SubmitThenClaimRoundTrips) {
  ScratchSpool spool("round_trip");
  SpoolQueue q(spool.root);
  Job job;
  job.circuit = "s27";
  job.optimizer = "baseline";
  const std::string id = q.submit(job);
  EXPECT_FALSE(id.empty());
  EXPECT_TRUE(fs::exists(q.job_path("pending", id)));

  const std::optional<Job> claimed = q.claim(unix_now());
  ASSERT_TRUE(claimed.has_value());
  EXPECT_EQ(claimed->id, id);
  EXPECT_EQ(claimed->circuit, "s27");
  EXPECT_FALSE(fs::exists(q.job_path("pending", id)));
  EXPECT_TRUE(fs::exists(q.job_path("running", id)));
}

TEST(SpoolQueue, AdmissionControlThrowsTypedQueueFull) {
  ScratchSpool spool("admission");
  SpoolOptions opts;
  opts.max_pending = 2;
  opts.expected_job_seconds = 4.0;
  SpoolQueue q(spool.root, opts);
  q.submit(Job{});
  q.submit(Job{});
  try {
    q.submit(Job{});
    FAIL() << "expected QueueFullError";
  } catch (const QueueFullError& e) {
    EXPECT_EQ(e.depth(), 2u);
    EXPECT_EQ(e.limit(), 2u);
    EXPECT_DOUBLE_EQ(e.retry_after_seconds(), 4.0);
    EXPECT_NE(std::string(e.what()).find("retry after"), std::string::npos);
  }
  EXPECT_EQ(q.counts().pending, 2u);
}

TEST(SpoolQueue, ClaimSkipsJobsStillBackingOff) {
  ScratchSpool spool("backoff");
  SpoolQueue q(spool.root);
  Job job;
  job.not_before_unix = 1000.0;
  const std::string id = q.submit(job);
  EXPECT_FALSE(q.claim(999.0).has_value());
  const std::optional<Job> claimed = q.claim(1000.5);
  ASSERT_TRUE(claimed.has_value());
  EXPECT_EQ(claimed->id, id);
}

TEST(SpoolQueue, DoubleClaimHasExactlyOneWinner) {
  ScratchSpool spool("double_claim");
  SpoolQueue a(spool.root);
  SpoolQueue b(spool.root);  // a second claimant over the same spool
  a.submit(Job{});
  const std::optional<Job> first = a.claim(unix_now());
  ASSERT_TRUE(first.has_value());
  EXPECT_FALSE(b.claim(unix_now()).has_value());
  EXPECT_EQ(a.counts().running, 1u);

  // Two claimants draining a deeper queue never hand out the same job.
  for (int i = 0; i < 4; ++i) a.submit(Job{});
  std::set<std::string> seen;
  for (int i = 0; i < 4; ++i) {
    SpoolQueue& claimant = (i % 2 == 0) ? a : b;
    const std::optional<Job> got = claimant.claim(unix_now());
    ASSERT_TRUE(got.has_value());
    EXPECT_TRUE(seen.insert(got->id).second) << "job claimed twice";
  }
  EXPECT_EQ(a.counts().pending, 0u);
  EXPECT_EQ(a.counts().running, 5u);
}

TEST(SpoolQueue, DoneIsFirstWriteWinsForLateRetries) {
  obs::set_enabled(true);
  ScratchSpool spool("done_idem");
  SpoolQueue q(spool.root);
  const std::string id = q.submit(Job{});
  Job job = *q.claim(unix_now());
  q.finalize_done(job, fake_envelope(id, true, true, true));
  const std::string winner =
      io::read_file_or_throw(q.job_path("done", id));

  // A late duplicate attempt (recovery replay) lands while done/ already
  // holds the result: counted, dropped, running/ and scratch cleared.
  write_file(q.job_path("running", id), job.to_json());
  io::write_artifact(q.result_path(id), kJobResultSchema,
             fake_envelope(id, true, true, true));
  write_file(q.checkpoint_path(id), "{}");
  const std::int64_t dupes_before =
      obs::counter("serve.queue.duplicate_results").value();
  q.finalize_done(job, fake_envelope(id, true, true, true));
  EXPECT_EQ(obs::counter("serve.queue.duplicate_results").value(),
            dupes_before + 1);
  EXPECT_EQ(io::read_file_or_throw(q.job_path("done", id)), winner);
  EXPECT_FALSE(fs::exists(q.job_path("running", id)));
  EXPECT_FALSE(fs::exists(q.result_path(id)));
  EXPECT_FALSE(fs::exists(q.checkpoint_path(id)));
  EXPECT_EQ(q.counts().done, 1u);
}

TEST(SpoolQueue, CorruptPendingJobIsQuarantinedNotWedged) {
  ScratchSpool spool("corrupt");
  SpoolQueue q(spool.root);
  // The garbled file sorts first — it must not block the healthy job.
  write_file(q.job_path("pending", "a-corrupt"), "{not json");
  Job good;
  const std::string good_id = q.submit(good);
  const std::optional<Job> claimed = q.claim(unix_now());
  ASSERT_TRUE(claimed.has_value());
  EXPECT_EQ(claimed->id, good_id);
  EXPECT_FALSE(fs::exists(q.job_path("pending", "a-corrupt")));
  ASSERT_TRUE(fs::exists(q.job_path("quarantined", "a-corrupt")));
  const util::JsonValue rec = read_record(q.job_path("quarantined", "a-corrupt"));
  EXPECT_EQ(rec.at("failure").get_string("type", ""), "corrupt-job");
}

// A spool written by an earlier version drains in submission order: its
// scheduling fields (a background class, a client, a completion deadline
// an hour past) and its fencing token neither reorder nor fail the job, and
// the next rewrite of the record drops the token.
TEST(SpoolQueue, LegacySchedulingFieldsClaimFirstInFirstOut) {
  ScratchSpool spool("legacy_fifo");
  SpoolQueue q(spool.root);
  const double t0 = unix_now() - 60.0;
  const auto submit_at = [&q](const std::string& id, double submitted) {
    Job job;
    job.id = id;
    job.submitted_unix = submitted;
    q.submit(job);
  };
  // Ids sort against submission order, and the legacy job ties d-new on
  // submitted_unix, so only the (submitted_unix, id) order passes.
  submit_at("c-new", t0);
  io::write_artifact(q.job_path("pending", "b-legacy"), kJobSchema,
                     legacy_job_json("b-legacy", t0 + 1.0,
                                     unix_now() - 3600.0));
  submit_at("d-new", t0 + 1.0);
  submit_at("a-new", t0 + 2.0);

  std::vector<std::string> order;
  while (const std::optional<Job> job = q.claim(unix_now())) {
    order.push_back(job->id);
    if (job->id == "b-legacy") q.update_running(*job);
  }
  EXPECT_EQ(order, (std::vector<std::string>{"c-new", "b-legacy", "d-new",
                                             "a-new"}));
  EXPECT_TRUE(q.ids_in("failed").empty());
  EXPECT_EQ(q.counts().running, 4u);
  EXPECT_FALSE(read_record(q.job_path("running", "b-legacy"))
                   .has("fence_token"));
}

TEST(SpoolQueue, RequeueJournalsOutcomeAndControlsCheckpointLifetime) {
  ScratchSpool spool("requeue");
  SpoolQueue q(spool.root);
  const std::string id = q.submit(Job{});
  Job job = *q.claim(unix_now());
  JobAttempt attempt;
  attempt.outcome = "running";
  job.attempts.push_back(attempt);
  write_file(q.checkpoint_path(id), "{}");
  write_file(q.result_path(id), "{}");

  q.requeue(job, "interrupted", /*not_before_unix=*/0.0,
            /*keep_checkpoint=*/true);
  EXPECT_TRUE(fs::exists(q.checkpoint_path(id)));  // bit-exact resume input
  EXPECT_FALSE(fs::exists(q.result_path(id)));
  EXPECT_FALSE(fs::exists(q.job_path("running", id)));
  Job back = *q.claim(unix_now());
  ASSERT_EQ(back.attempts.size(), 1u);
  EXPECT_EQ(back.attempts.back().outcome, "interrupted");

  // A crash retry drops the checkpoint: perturbed seed, fresh run.
  q.requeue(back, "crash", unix_now() + 30.0, /*keep_checkpoint=*/false);
  EXPECT_FALSE(fs::exists(q.checkpoint_path(id)));
  EXPECT_FALSE(q.claim(unix_now()).has_value());  // backing off
}

TEST(SpoolQueue, CollectGarbageSparesLiveJobsScratch) {
  ScratchSpool spool("gc");
  SpoolQueue q(spool.root);
  const std::string live = q.submit(Job{});
  write_file(q.checkpoint_path(live), "{}");
  write_file(q.result_path("dead"), "{}");
  write_file(q.checkpoint_path("dead"), "{}");
  q.collect_garbage();
  EXPECT_TRUE(fs::exists(q.checkpoint_path(live)));
  EXPECT_FALSE(fs::exists(q.result_path("dead")));
  EXPECT_FALSE(fs::exists(q.checkpoint_path("dead")));
}

TEST(SpoolQueue, HealthFileIsValidAndReflectsQueueState) {
  ScratchSpool spool("health");
  SpoolQueue q(spool.root);
  q.submit(Job{});
  HealthInfo info;
  info.state = "serving";
  info.workers_active = 3;
  info.breaker_open = {"s298*"};
  q.write_health(info);
  const std::string path = (fs::path(spool.root) / "health.json").string();
  const util::JsonValue h =
      read_record(path);
  EXPECT_EQ(h.get_string("schema", ""), "minergy.health.v1");
  EXPECT_EQ(h.get_string("state", ""), "serving");
  EXPECT_DOUBLE_EQ(h.get_number("workers_active", -1), 3.0);
  EXPECT_DOUBLE_EQ(h.at("queue").get_number("pending", -1), 1.0);
  ASSERT_EQ(h.at("breaker_open").items().size(), 1u);
  EXPECT_EQ(h.at("breaker_open").items()[0].as_string(), "s298*");
}

// ---------------------------------------------------------------- breaker

TEST(CircuitBreaker, TripsAfterThresholdThenHalfOpensOneProbe) {
  BreakerOptions opts;
  opts.threshold = 3;
  opts.cooldown_seconds = 10.0;
  CircuitBreaker breaker(opts);
  double now = 100.0;
  breaker.record_death("s27", now);
  breaker.record_death("s27", now);
  EXPECT_FALSE(breaker.should_short_circuit("s27", now));  // still closed
  breaker.record_death("s27", now);                        // third: trips
  EXPECT_TRUE(breaker.should_short_circuit("s27", now));
  EXPECT_TRUE(breaker.should_short_circuit("other", now) == false);
  EXPECT_EQ(breaker.open_circuits(now).size(), 1u);

  now += 10.5;  // cooldown elapsed: exactly one probe gets through
  EXPECT_FALSE(breaker.should_short_circuit("s27", now));
  EXPECT_TRUE(breaker.should_short_circuit("s27", now));

  breaker.record_death("s27", now);  // probe died: re-tripped, fresh cooldown
  EXPECT_TRUE(breaker.should_short_circuit("s27", now + 5.0));
  now += 10.5;
  EXPECT_FALSE(breaker.should_short_circuit("s27", now));  // next probe
  breaker.record_success("s27");                           // probe succeeded
  EXPECT_FALSE(breaker.should_short_circuit("s27", now));
  EXPECT_TRUE(breaker.open_circuits(now).empty());
}

TEST(CircuitBreaker, HalfOpenProbeRaceAdmitsExactlyOneAndLogsEachProbe) {
  // The probe race: in one control-loop pass, two workers' spawn decisions
  // both consult a breaker whose cooldown just elapsed. The half-open state
  // is shared — exactly one decision may admit the probe, the other must
  // keep short-circuiting, and the event log must carry exactly one
  // breaker_probe line per admitted probe (the eventlog is how operators
  // count probes, so a double-emit would report phantom recoveries).
  ScratchSpool spool("breaker_probe_race");
  fs::create_directories(spool.root);
  const std::string log_path =
      (fs::path(spool.root) / "events.jsonl").string();
  std::string error;
  ASSERT_TRUE(obs::EventLog::instance().open(log_path, 1 << 20, &error))
      << error;

  BreakerOptions opts;
  opts.threshold = 2;
  opts.cooldown_seconds = 10.0;
  CircuitBreaker breaker(opts);
  breaker.record_death("s27", 100.0);
  breaker.record_death("s27", 100.0);  // trips

  // Round 1: cooldown elapsed, two concurrent-in-the-loop decisions.
  int admitted = 0;
  for (int worker = 0; worker < 2; ++worker) {
    if (!breaker.should_short_circuit("s27", 111.0)) ++admitted;
  }
  EXPECT_EQ(admitted, 1);
  breaker.record_death("s27", 111.0);  // probe died: re-trip

  // Round 2: a fresh cooldown, the same race, again exactly one probe.
  admitted = 0;
  for (int worker = 0; worker < 2; ++worker) {
    if (!breaker.should_short_circuit("s27", 122.0)) ++admitted;
  }
  EXPECT_EQ(admitted, 1);
  breaker.record_success("s27");  // probe succeeded: closed
  EXPECT_FALSE(breaker.should_short_circuit("s27", 122.0));

  obs::EventLog::instance().close();
  std::ifstream in(log_path);
  int probe_lines = 0;
  for (std::string line; std::getline(in, line);) {
    if (line.find("\"kind\":\"breaker_probe\"") != std::string::npos) {
      ++probe_lines;
    }
  }
  EXPECT_EQ(probe_lines, 2) << "one breaker_probe event per admitted probe";
}

TEST(CircuitBreaker, SuccessResetsTheDeathStreak) {
  BreakerOptions opts;
  opts.threshold = 2;
  CircuitBreaker breaker(opts);
  breaker.record_death("s27", 1.0);
  breaker.record_success("s27");
  breaker.record_death("s27", 2.0);
  EXPECT_FALSE(breaker.should_short_circuit("s27", 2.0));
}

// ------------------------------------------------- supervisor + recovery

SupervisorOptions fast_supervisor_options() {
  SupervisorOptions opts;
  opts.worker_binary = "/bin/true";  // exits without an envelope ("error")
  opts.workers = 1;
  opts.poll_seconds = 0.001;
  opts.backoff_seconds = 0.0;
  opts.once = true;
  return opts;
}

TEST(Supervisor, RecoveryFinalizesCommittedEnvelopeWithoutReExecution) {
  ScratchSpool spool("recover_env");
  SpoolQueue q(spool.root);
  const std::string id = q.submit(Job{});
  Job job = *q.claim(unix_now());
  JobAttempt attempt;
  job.attempts.push_back(attempt);
  q.update_running(job);
  // The previous daemon died after the worker committed but before the
  // bookkeeping: the envelope on disk is the commit point.
  io::write_artifact(q.result_path(id), kJobResultSchema,
             fake_envelope(id, true, true, true));

  Supervisor supervisor(q, fast_supervisor_options());
  EXPECT_EQ(supervisor.run(), 0);
  EXPECT_TRUE(fs::exists(q.job_path("done", id)));
  EXPECT_FALSE(fs::exists(q.job_path("running", id)));
  EXPECT_FALSE(fs::exists(q.result_path(id)));
  const util::JsonValue rec = read_record(q.job_path("done", id));
  EXPECT_TRUE(rec.at("result").get_bool("certified", false));
  ASSERT_FALSE(rec.at("attempts").items().empty());
  EXPECT_EQ(rec.at("attempts").items().back().get_string("outcome", ""),
            "ok");
}

TEST(Supervisor, RecoveryRequeuesOrphanThenRetryBudgetQuarantines) {
  ScratchSpool spool("recover_orphan");
  SpoolQueue q(spool.root);
  const std::string id = q.submit(Job{});
  Job job = *q.claim(unix_now());
  JobAttempt attempt;
  job.attempts.push_back(attempt);
  q.update_running(job);  // orphan: in running/, no envelope, no worker

  SupervisorOptions opts = fast_supervisor_options();
  opts.max_retries = 0;  // first real failure exhausts the budget
  Supervisor supervisor(q, opts);
  EXPECT_EQ(supervisor.run(), 0);

  // The orphaned attempt was journaled as interrupted (not a failure), the
  // requeued job ran once under /bin/true (exit without envelope = error),
  // and the spent retry budget quarantined it.
  ASSERT_TRUE(fs::exists(q.job_path("quarantined", id)));
  const util::JsonValue rec = read_record(q.job_path("quarantined", id));
  const auto& attempts = rec.at("attempts").items();
  ASSERT_EQ(attempts.size(), 2u);
  EXPECT_EQ(attempts[0].get_string("outcome", ""), "interrupted");
  EXPECT_EQ(attempts[1].get_string("outcome", ""), "error");
  EXPECT_NE(rec.at("failure").get_string("detail", "").find("retries"),
            std::string::npos);
}

TEST(Supervisor, RecoveryQuarantinesEndlesslyInterruptedJobs) {
  ScratchSpool spool("recover_loop");
  SpoolQueue q(spool.root);
  const std::string id = q.submit(Job{});
  Job job = *q.claim(unix_now());
  for (int i = 0; i < 3; ++i) {
    JobAttempt attempt;
    attempt.outcome = "interrupted";
    job.attempts.push_back(attempt);
  }
  q.update_running(job);

  SupervisorOptions opts = fast_supervisor_options();
  opts.max_interruptions = 3;
  Supervisor supervisor(q, opts);
  EXPECT_EQ(supervisor.run(), 0);
  ASSERT_TRUE(fs::exists(q.job_path("quarantined", id)));
  const util::JsonValue rec = read_record(q.job_path("quarantined", id));
  EXPECT_NE(rec.at("failure").get_string("detail", "").find("interrupted"),
            std::string::npos);
}

TEST(Supervisor, RetriedAttemptRunsAndReportsItsJournaledSeed) {
  ScratchSpool spool("retry_seed");
  SpoolQueue q(spool.root);
  Job submitted;
  submitted.circuit = "c17";
  submitted.optimizer = "baseline";
  submitted.seed = (std::uint64_t{1} << 63) + 5;
  const std::string id = q.submit(submitted);

  // A worker that dies without an envelope on its first run (outcome
  // "error", a failed attempt) and is the real worker after that.
  const std::string marker = spool.root + "/first-attempt-ran";
  const std::string script = spool.root + "/worker.sh";
  write_file(script, "#!/bin/sh\nif [ ! -e '" + marker + "' ]; then : > '" +
                         marker + "'; exit 0; fi\nexec '" MINERGY_SERVED_BIN
                         "' \"$@\"\n");
  fs::permissions(script, fs::perms::owner_all);
  SupervisorOptions opts = fast_supervisor_options();
  opts.worker_binary = script;
  opts.max_retries = 1;
  Supervisor supervisor(q, opts);
  EXPECT_EQ(supervisor.run(), 0);

  ASSERT_TRUE(fs::exists(q.job_path("done", id)));
  const std::string text = io::read_artifact(q.job_path("done", id), "");
  const Job done = Job::from_json(text, "<done>");
  ASSERT_EQ(done.attempts.size(), 2u);
  EXPECT_EQ(done.attempts[0].outcome, "error");
  EXPECT_EQ(done.attempts[0].seed, submitted.seed);
  EXPECT_EQ(done.attempts[1].outcome, "ok");
  EXPECT_EQ(done.attempts[1].seed, attempt_seed(done, 1));
  const util::JsonValue result =
      util::JsonValue::parse(text, "<done>").at("result");
  EXPECT_EQ(parse_seed(result.get_string("seed", ""), "<result>"),
            done.attempts[1].seed);
}

TEST(Supervisor, TypedWorkerFailureLandsInFailedWithEnvelope) {
  ScratchSpool spool("typed_fail");
  SpoolQueue q(spool.root);
  const std::string id = q.submit(Job{});
  Job job = *q.claim(unix_now());
  JobAttempt attempt;
  job.attempts.push_back(attempt);
  q.update_running(job);
  io::write_artifact(q.result_path(id), kJobResultSchema,
                     fake_envelope(id, false, false, false));

  Supervisor supervisor(q, fast_supervisor_options());
  EXPECT_EQ(supervisor.run(), 0);
  ASSERT_TRUE(fs::exists(q.job_path("failed", id)));
  const util::JsonValue rec = read_record(q.job_path("failed", id));
  EXPECT_EQ(rec.at("failure").get_string("type", ""), "numeric-error");
  EXPECT_EQ(rec.at("result").get_string("error_type", ""), "numeric-error");
}

TEST(Supervisor, CrashingWorkersAreReapedOnExit) {
  ScratchSpool spool("reap_on_exit");
  SpoolQueue q(spool.root);
  const std::string id = q.submit(Job{});
  // Three attempts under /bin/true: a loop that slept out its 10 s poll
  // before each reap would take at least 20 s.
  SupervisorOptions opts = fast_supervisor_options();
  opts.poll_seconds = 10.0;
  const auto start = std::chrono::steady_clock::now();
  Supervisor supervisor(q, opts);
  EXPECT_EQ(supervisor.run(), 0);
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(fs::exists(q.job_path("quarantined", id)));
  EXPECT_EQ(read_record(q.job_path("quarantined", id))
                .at("attempts")
                .items()
                .size(),
            3u);
  EXPECT_LT(elapsed.count(), 5.0);
}

TEST(Supervisor, UncertifiedEnvelopeIsARejectedResultNotARetry) {
  ScratchSpool spool("uncert");
  SpoolQueue q(spool.root);
  const std::string id = q.submit(Job{});
  Job job = *q.claim(unix_now());
  JobAttempt attempt;
  job.attempts.push_back(attempt);
  q.update_running(job);
  io::write_artifact(
      q.result_path(id), kJobResultSchema,
      fake_envelope(id, true, /*feasible=*/true, /*certified=*/false));

  Supervisor supervisor(q, fast_supervisor_options());
  EXPECT_EQ(supervisor.run(), 0);
  ASSERT_TRUE(fs::exists(q.job_path("failed", id)));
  const util::JsonValue rec = read_record(q.job_path("failed", id));
  EXPECT_EQ(rec.at("failure").get_string("type", ""), "uncertified");
}

// ------------------------------------------- control loop (real daemon)

// fork+exec minergy_served with `flags`, its output silenced.
pid_t spawn_served(const std::vector<std::string>& flags) {
  std::vector<std::string> args = {MINERGY_SERVED_BIN};
  args.insert(args.end(), flags.begin(), flags.end());
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const pid_t pid = fork();
  if (pid == 0) {
    const int null_fd = open("/dev/null", O_WRONLY);
    if (null_fd >= 0) {
      dup2(null_fd, STDOUT_FILENO);
      dup2(null_fd, STDERR_FILENO);
    }
    execv(argv[0], argv.data());
    _exit(127);
  }
  return pid;
}

// Polls `done` every 5 ms for up to `seconds`; true once it holds.
bool wait_until(const std::function<bool()>& done, double seconds) {
  const auto until = std::chrono::steady_clock::now() +
                     std::chrono::duration<double>(seconds);
  while (!done()) {
    if (std::chrono::steady_clock::now() >= until) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return true;
}

// Reaps `pid`, SIGKILLing it after `seconds`; its exit code when it exited
// alone, -1 otherwise.
int exit_code(pid_t pid, double seconds) {
  int status = 0;
  const bool exited =
      wait_until([&] { return waitpid(pid, &status, WNOHANG) == pid; },
                 seconds);
  if (!exited) {
    kill(pid, SIGKILL);
    waitpid(pid, &status, 0);
  }
  return exited && WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

// True when `pid` exited 0 alone within `seconds`.
bool wait_exit(pid_t pid, double seconds) {
  return exit_code(pid, seconds) == 0;
}

std::string read_text(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

bool serving(const std::string& spool) {
  return read_text(spool + "/health.json").find("\"state\": \"serving\"") !=
         std::string::npos;
}

TEST(ServeLoop, JobArrivalAndWorkerExitWakeTheLoop) {
  ScratchSpool spool("loop_wake");
  SpoolQueue q(spool.root);
  // A 10 s poll cap: sleeping it out once to claim and once to reap would
  // blow the 5 s budget each job gets below.
  const pid_t daemon = spawn_served({"--spool=" + spool.root, "--poll=10"});
  const bool up = wait_until([&] { return serving(spool.root); }, 30.0);
  EXPECT_TRUE(up) << "daemon never reported serving";
  for (int k = 0; up && k < 2; ++k) {
    Job job;
    job.circuit = "c17";
    const std::string id = q.submit(job);
    EXPECT_TRUE(wait_until(
        [&] { return fs::exists(q.job_path("done", id)); }, 5.0))
        << "job " << k << " not done within 5 s";
  }
  kill(daemon, SIGTERM);
  EXPECT_TRUE(wait_exit(daemon, 30.0));
}

TEST(ServeLoop, IdleLeaderWakesAtMostFiftyTimesASecond) {
  ScratchSpool spool("loop_idle");
  const std::string perf = spool.root + "/perf.json";
  const auto start = std::chrono::steady_clock::now();
  const pid_t daemon =
      spawn_served({"--spool=" + spool.root, "--perf-record=" + perf});
  std::this_thread::sleep_for(std::chrono::seconds(1));
  kill(daemon, SIGTERM);
  ASSERT_TRUE(wait_exit(daemon, 30.0));
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - start;
  const double iterations =
      util::JsonValue::parse(read_text(perf), perf)
          .at("counters")
          .get_number("serve.loop.iterations", 0.0);
  // The default 20 ms cap allows 50 passes a second; a slower machine
  // only passes less often.
  EXPECT_GE(iterations, 1.0);
  EXPECT_LE(iterations, 50.0 * wall.count() + 5.0);
}

TEST(ServeLoop, ServedJobSplitsWorkerTimeIntoFourHistograms) {
  ScratchSpool spool("loop_split");
  SpoolQueue q(spool.root);
  Job job;
  job.circuit = "c17";
  q.submit(job);
  const std::string perf = spool.root + "/perf.json";
  const pid_t daemon = spawn_served(
      {"--spool=" + spool.root, "--once", "--perf-record=" + perf});
  ASSERT_TRUE(wait_exit(daemon, 120.0));
  EXPECT_EQ(q.ids_in("done").size(), 1u);
  const util::JsonValue hist =
      util::JsonValue::parse(read_text(perf), perf).at("histograms");
  for (const char* name :
       {"serve.job.load_micros", "serve.job.optimize_micros",
        "serve.job.certify_micros", "serve.job.process_micros"}) {
    ASSERT_TRUE(hist.has(name)) << name;
    EXPECT_EQ(hist.at(name).get_number("count", 0.0), 1.0) << name;
  }
}

// Policy files an earlier daemon left in the spool (a fresh shed level 2
// policy and a client's quota bucket) change nothing: a default submit is
// admitted, and a --once daemon drains the spool without touching either
// file.
TEST(ServeLoop, StalePolicyFilesNeitherBlockNorGetScrubbed) {
  ScratchSpool spool("legacy_policy");
  SpoolQueue q(spool.root);
  const std::string policy = spool.root + "/overload.json";
  const std::string bucket = spool.root + "/quota/legacy-client.json";
  {
    util::JsonWriter w(2);
    w.begin_object();
    w.kv("schema", "minergy.overload.v1");
    w.kv("shed_level", 2);
    w.kv("brownout_level", 0);
    w.kv("retry_after_seconds", 1.0);
    w.kv("updated_unix", unix_now());
    w.key("quotas").begin_object();
    w.kv("legacy-client", 1.0);
    w.end_object();
    w.end_object();
    io::write_artifact(policy, "minergy.overload.v1", w.str() + "\n");
  }
  {
    fs::create_directories(spool.root + "/quota");
    util::JsonWriter w(2);
    w.begin_object();
    w.kv("schema", "minergy.quota.v1");
    w.kv("client", "legacy-client");
    w.kv("tokens", 0.0);
    w.kv("updated_unix", unix_now());
    w.end_object();
    io::write_artifact(bucket, "minergy.quota.v1", w.str() + "\n");
  }
  const std::string policy_bytes = io::read_file_or_throw(policy);
  const std::string bucket_bytes = io::read_file_or_throw(bucket);

  ASSERT_TRUE(wait_exit(spawn_served({"--spool=" + spool.root, "--submit",
                                      "--circuit=c17"}),
                        60.0))
      << "a default submit was refused";
  ASSERT_EQ(q.counts().pending, 1u);
  ASSERT_TRUE(
      wait_exit(spawn_served({"--spool=" + spool.root, "--once"}), 120.0));
  EXPECT_EQ(q.counts().pending, 0u);
  EXPECT_EQ(q.counts().done, 1u);
  EXPECT_EQ(io::read_file_or_throw(policy), policy_bytes);
  EXPECT_EQ(io::read_file_or_throw(bucket), bucket_bytes);
}

// A flag no mode reads is a usage error: the retired --scrub mode, the
// retired lease, stop-switch and exposition flags, and a misspelling.
// util::Cli accepts any --name, so without the check each would start a
// daemon that serves the spool until killed.
TEST(ServeLoop, RemovedScrubModeIsAUsageErrorAndServesNothing) {
  ScratchSpool spool("removed_scrub");
  SpoolQueue q(spool.root);
  Job job;
  job.circuit = "c17";
  const std::string id = q.submit(job);
  for (const char* flag :
       {"--scrub", "--standby", "--lease-ttl-s=1",
        "--inject-stop=daemon.post-claim", "--listen=0",
        "--scrub-interval-s=5", "--wokers=4"}) {
    EXPECT_EQ(exit_code(spawn_served({"--spool=" + spool.root, flag}), 10.0),
              2)
        << flag;
    EXPECT_TRUE(fs::exists(q.job_path("pending", id))) << flag;
    EXPECT_EQ(q.counts().pending, 1u) << flag;
    EXPECT_EQ(q.counts().terminal(), 0u) << flag;
  }
}

// Every regular file under `root` with its bytes, except health.json and
// its temporary, which the serving daemon rewrites.
std::map<std::string, std::string> spool_files(const std::string& root) {
  std::map<std::string, std::string> files;
  for (const fs::directory_entry& e : fs::recursive_directory_iterator(root)) {
    const std::string name = e.path().filename().string();
    if (name.rfind("health.json", 0) != 0 && e.is_regular_file()) {
      files[e.path().string()] = read_text(e.path().string());
    }
  }
  return files;
}

// One daemon per spool: a second daemon on a served spool exits 1 at once
// and writes nothing into it, and the spool serves again once the first
// daemon stops. The spool starts with an unreleased lease and a claim file
// that an older daemon left behind; no daemon reads or touches them.
TEST(ServeLoop, SecondDaemonOnAServedSpoolExitsAndWritesNothing) {
  ScratchSpool spool("second_daemon");
  SpoolQueue q(spool.root);
  util::JsonWriter w(2);
  w.begin_object();
  w.kv("schema", "minergy.lease.v1");
  w.kv("fencing_token", 7);
  w.key("owner").begin_object();
  w.kv("host", "elsewhere");
  w.kv("pid", 1);
  w.kv("pid_start_ticks", 1);
  w.end_object();
  w.kv("acquired_unix", unix_now());
  w.kv("renewed_unix", unix_now());
  w.kv("ttl_seconds", 3600.0);
  w.kv("released", false);
  w.end_object();
  const std::string lease = io::wrap_envelope(w.str(), "minergy.lease.v1");
  write_file(spool.root + "/leader.lease", lease);
  write_file(spool.root + "/lease.claim.8", "");

  const pid_t first = spawn_served({"--spool=" + spool.root});
  const bool up = wait_until([&] { return serving(spool.root); }, 30.0);
  EXPECT_TRUE(up) << "the first daemon never reported serving";
  if (up) {
    const std::map<std::string, std::string> before = spool_files(spool.root);
    const auto start = std::chrono::steady_clock::now();
    EXPECT_EQ(exit_code(spawn_served({"--spool=" + spool.root}), 10.0), 1);
    const std::chrono::duration<double> took =
        std::chrono::steady_clock::now() - start;
    EXPECT_LT(took.count(), 5.0);
    EXPECT_EQ(read_record(spool.root + "/health.json").get_number("pid", 0.0),
              static_cast<double>(first));
    EXPECT_EQ(spool_files(spool.root), before);
  }
  kill(first, SIGTERM);
  ASSERT_TRUE(wait_exit(first, 30.0));

  Job job;
  job.circuit = "c17";
  const std::string id = q.submit(job);
  ASSERT_TRUE(
      wait_exit(spawn_served({"--spool=" + spool.root, "--once"}), 120.0));
  EXPECT_TRUE(fs::exists(q.job_path("done", id)));
  EXPECT_EQ(read_text(spool.root + "/leader.lease"), lease);
  EXPECT_TRUE(fs::exists(spool.root + "/lease.claim.8"));
}

// The at-rest audit: --status --verify re-reads every terminal record
// through its envelope, so a done/ record cut short or with one flipped bit
// fails it (exit 1), and the intact record passes (exit 0).
TEST(ServeStatus, VerifyRejectsEveryDamagedTerminalRecord) {
  ScratchSpool spool("status_damage");
  SpoolQueue q(spool.root);
  Job job;
  job.circuit = "c17";
  const std::string id = q.submit(job);
  std::optional<Job> claimed = q.claim(unix_now());
  ASSERT_TRUE(claimed.has_value());
  q.finalize_done(*claimed, fake_envelope(id, true, true, true));
  const std::string path = q.job_path("done", id);
  const std::string intact = io::read_file_or_throw(path);
  ASSERT_GT(intact.size(), 2u);
  const auto verify = [&] {
    return exit_code(spawn_served({"--spool=" + spool.root, "--status",
                                   "--verify", "--expect-jobs=1"}),
                     60.0);
  };
  EXPECT_EQ(verify(), 0) << "the intact record failed the audit";

  std::string flipped = intact;
  flipped[flipped.size() / 2] =
      static_cast<char>(flipped[flipped.size() / 2] ^ 0x01);
  const std::vector<std::pair<std::string, std::string>> damaged = {
      {"truncated to 0 bytes", ""},
      {"truncated to half", intact.substr(0, intact.size() / 2)},
      {"all but the last byte", intact.substr(0, intact.size() - 1)},
      {"one flipped bit", flipped},
  };
  for (const auto& [what, bytes] : damaged) {
    write_file(path, bytes);
    EXPECT_EQ(verify(), 1) << what;
  }
  write_file(path, intact);
  EXPECT_EQ(verify(), 0) << "the restored record failed the audit";
}

// A served robust job snapshots its joint sweep on the in-process cadence:
// at most one write per interval of its runtime, none when it finishes
// inside the first. Its answer is the in-process answer bit for bit.
TEST(ServeWorker, RobustJobSnapshotsAtMostOncePerInterval) {
  obs::set_enabled(true);
  obs::Counter& writes = obs::counter("opt.joint.checkpoints");
  ScratchSpool spool("worker_cadence");
  fs::create_directories(spool.root);
  Job job;
  job.id = "job-cadence";
  job.circuit = "s298*";
  job.optimizer = "robust";
  const std::string result_path = spool.root + "/result.json";
  const std::string ck_path = spool.root + "/checkpoint.json";
  const std::int64_t before = writes.value();
  ASSERT_EQ(run_worker_job(job, job.seed, result_path, ck_path), 0);
  const std::int64_t written = writes.value() - before;

  const util::JsonValue env = read_record(result_path);
  ASSERT_TRUE(env.get_bool("ok", false));
  const double runtime = env.get_number("runtime_seconds", -1.0);
  const auto bound = static_cast<std::int64_t>(
      std::floor(runtime / opt::kJointCheckpointIntervalSeconds));
  EXPECT_LE(written, bound) << "runtime " << runtime << " s";
  if (bound == 0) {
    EXPECT_FALSE(io::Checkpoint::exists(ck_path));
  }

  // The same job in-process, set up as the worker sets it up.
  const netlist::Netlist nl = bench_suite::make_circuit(job.circuit);
  bench_suite::ExperimentConfig cfg;
  cfg.clock_frequency = job.clock_frequency;
  bool scaled = false;
  const double tc = bench_suite::choose_cycle_time(nl, cfg, &scaled);
  activity::ActivityProfile profile;
  profile.input_density = job.activity;
  const opt::CircuitEvaluator eval(nl, cfg.tech, profile,
                                   {.clock_frequency = 1.0 / tc});
  const opt::OptimizationResult r = opt::RobustOptimizer(eval, {}).run();
  EXPECT_EQ(env.get_number("energy_total", 0.0), r.energy.total());
  EXPECT_EQ(env.get_number("vdd", 0.0), r.vdd);
  EXPECT_EQ(env.get_number("vts_primary", 0.0), r.vts_primary);
}

}  // namespace
}  // namespace minergy::serve
