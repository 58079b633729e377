// Observability layer: counters/gauges/histograms, Chrome-trace spans, the
// RunReport telemetry carried by every OptimizationResult, and the daemon's
// JSONL event log.
//
// Metric-collection state is process-global, so every test restores the
// enabled flag and resets the registry/tracer it touched (the ObsTest
// fixture; ExposeTest does the same for the event log); the suite runs
// under the CTest label `obs`, also under ThreadSanitizer.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "bench_suite/iscas.h"
#include "obs/eventlog.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "opt/evaluator.h"
#include "opt/joint_optimizer.h"
#include "opt/robust_optimizer.h"
#include "util/check.h"
#include "util/fault_injection.h"
#include "util/json.h"

namespace minergy {
namespace {

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = obs::enabled();
    obs::Registry::instance().reset();
    obs::Tracer::instance().clear();
  }
  void TearDown() override {
    obs::set_enabled(was_enabled_);
    obs::Registry::instance().reset();
    obs::Tracer::instance().clear();
  }

 private:
  bool was_enabled_ = false;
};

// --- counters / gauges / histograms ----------------------------------------

TEST_F(ObsTest, DisabledCountersHaveNoSideEffects) {
  obs::set_enabled(false);
  obs::Counter& c = obs::counter("test.disabled.counter");
  c.reset();
  for (int i = 0; i < 1000; ++i) c.add();
  EXPECT_EQ(c.value(), 0);

  obs::Histogram& h = obs::histogram("test.disabled.hist");
  h.reset();
  h.record(42.0);
  EXPECT_EQ(h.count(), 0);
  {
    const obs::ScopedTimer timer(h);
  }
  EXPECT_EQ(h.count(), 0);
}

TEST_F(ObsTest, ConcurrentIncrementsAreLossless) {
  obs::set_enabled(true);
  obs::Counter& c = obs::counter("test.concurrent.counter");
  c.reset();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.add();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::int64_t>(kThreads) * kPerThread);
}

TEST_F(ObsTest, RegistryReturnsStableReferences) {
  obs::set_enabled(true);
  obs::Counter& a = obs::counter("test.stable");
  obs::Counter& b = obs::counter("test.stable");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(b.value(), 3);
}

TEST_F(ObsTest, HistogramPercentilesBracketRecordedValues) {
  obs::set_enabled(true);
  obs::Histogram& h = obs::histogram("test.hist.percentile");
  h.reset();
  for (int i = 1; i <= 1000; ++i) h.record(static_cast<double>(i));
  EXPECT_EQ(h.count(), 1000);
  const double p50 = h.percentile(0.50);
  const double p95 = h.percentile(0.95);
  // Log-bucketed: answers are upper bounds of the containing power-of-two
  // bucket, within a factor of 2 of the exact order statistic.
  EXPECT_GE(p50, 500.0 / 2.0);
  EXPECT_LE(p50, 500.0 * 2.0);
  EXPECT_GE(p95, p50);
  EXPECT_LE(p95, 950.0 * 2.0);
}

TEST_F(ObsTest, HistogramSubOctaveBucketsSeparateCloseValues) {
  obs::set_enabled(true);
  // 5,000 and 6,000 share the octave (4096, 8192]; its sub-buckets tell
  // them apart, so a 20% change in a timing shows in its p50.
  obs::Histogram& a = obs::histogram("test.hist.sub_5000");
  obs::Histogram& b = obs::histogram("test.hist.sub_6000");
  a.reset();
  b.reset();
  for (int i = 0; i < 10; ++i) {
    a.record(5000.0);
    b.record(6000.0);
  }
  EXPECT_LT(a.percentile(0.5), b.percentile(0.5));
  EXPECT_GE(a.percentile(0.5), 5000.0);
  EXPECT_LE(a.percentile(0.5), 5000.0 * (1.0 + 1.0 / 8.0));
  EXPECT_GE(b.percentile(0.5), 6000.0);
  EXPECT_LE(b.percentile(0.5), 6000.0 * (1.0 + 1.0 / 8.0));
}

TEST_F(ObsTest, HistogramValueOnASubBucketBoundLandsInTheBucketItBounds) {
  obs::set_enabled(true);
  obs::Histogram& h = obs::histogram("test.hist.bounds");
  for (const int b : {0, 7, 8, 261, 263, 264, 300,
                      obs::Histogram::kBuckets - 2}) {
    h.reset();
    const double bound = obs::Histogram::bucket_upper_bound(b);
    h.record(bound);
    EXPECT_EQ(h.bucket_count(b), 1) << "bucket " << b << " bound " << bound;
    EXPECT_EQ(h.percentile(1.0), bound);
    // The next value up starts the next bucket.
    h.reset();
    h.record(std::nextafter(bound, 2.0 * bound));
    EXPECT_EQ(h.bucket_count(b + 1), 1) << "bucket " << b + 1;
  }
  // Octave bounds are the last sub-bucket's bound: powers of two.
  EXPECT_EQ(obs::Histogram::bucket_upper_bound(
                (obs::Histogram::kOriginExp + 10) *
                    obs::Histogram::kSubBuckets +
                obs::Histogram::kSubBuckets - 1),
            1024.0);
}

TEST_F(ObsTest, RegistrySnapshotsReadEveryInstrumentKind) {
  obs::set_enabled(true);
  obs::counter("test.snapshot.requests").add(7);
  obs::gauge("test.snapshot.depth").set(3.5);
  obs::gauge(obs::labeled_name("test.snapshot.state", "circuit", "s27"))
      .set(1.0);
  obs::gauge(obs::labeled_name("test.snapshot.state", "circuit", "s298"))
      .set(0.5);
  obs::Histogram& h = obs::histogram("test.snapshot.latency_micros");
  h.record(3.0);
  h.record(100.0);
  h.record(100000.0);
  // Registered before any sample lands, as a freshly started daemon's
  // histograms are: its aggregates read 0, never NaN.
  obs::histogram("test.snapshot.empty_micros");

  EXPECT_EQ(obs::Registry::instance().counter_snapshot().at(
                "test.snapshot.requests"),
            7);
  const auto gauges = obs::Registry::instance().gauge_snapshot();
  EXPECT_EQ(gauges.at("test.snapshot.depth"), 3.5);
  EXPECT_EQ(gauges.at("test.snapshot.state{circuit=\"s27\"}"), 1.0);
  EXPECT_EQ(gauges.at("test.snapshot.state{circuit=\"s298\"}"), 0.5);
  // A family's label children sort next to each other.
  const auto child = gauges.find("test.snapshot.state{circuit=\"s298\"}");
  ASSERT_NE(child, gauges.begin());
  EXPECT_EQ(std::prev(child)->first, "test.snapshot.state{circuit=\"s27\"}");

  const auto hists = obs::Registry::instance().histogram_snapshot();
  const obs::HistogramSnapshot& full = hists.at("test.snapshot.latency_micros");
  EXPECT_EQ(full.count, 3);
  EXPECT_GT(full.sum, 0.0);
  EXPECT_GT(full.p50, 0.0);
  EXPECT_LE(full.p50, full.p95);
  EXPECT_LE(full.p95, full.p99);
  const obs::HistogramSnapshot& empty = hists.at("test.snapshot.empty_micros");
  EXPECT_EQ(empty.count, 0);
  for (const double v : {empty.sum, empty.p50, empty.p95, empty.p99}) {
    EXPECT_EQ(v, 0.0);
  }
  obs::histogram("test.snapshot.empty_micros").record(42.0);
  const obs::HistogramSnapshot one = obs::Registry::instance()
                                         .histogram_snapshot()
                                         .at("test.snapshot.empty_micros");
  EXPECT_EQ(one.count, 1);
  EXPECT_TRUE(std::isfinite(one.p50));
  EXPECT_GE(one.p50, 42.0);
}

// Writer threads mutate counters, gauges and histograms while reader
// threads take snapshots, as the daemon's periodic perf-record flush does;
// under ThreadSanitizer this is the Registry's data-race oracle.
TEST_F(ObsTest, SnapshotsRunConcurrentlyWithWriters) {
  obs::set_enabled(true);
  obs::Counter& c = obs::counter("test.snapshot.load");
  obs::Histogram& h = obs::histogram("test.snapshot.load_micros");
  constexpr int kWriters = 2;
  constexpr int kPerWriter = 20000;
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&stop] {
      std::int64_t last = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::int64_t now =
            obs::Registry::instance().counter_snapshot()["test.snapshot.load"];
        EXPECT_GE(now, last) << "a counter snapshot went backwards";
        last = now;
        obs::Registry::instance().gauge_snapshot();
        obs::Registry::instance().histogram_snapshot();
      }
    });
  }
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&c, &h] {
      for (int i = 0; i < kPerWriter; ++i) {
        c.add();
        h.record(static_cast<double>((i % 1000) + 1));
        obs::gauge("test.snapshot.load_gauge").set(static_cast<double>(i));
      }
    });
  }
  for (std::thread& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();
  const std::int64_t total = static_cast<std::int64_t>(kWriters) * kPerWriter;
  EXPECT_EQ(c.value(), total);
  EXPECT_EQ(obs::Registry::instance()
                .histogram_snapshot()
                .at("test.snapshot.load_micros")
                .count,
            total);
}

// --- tracer -----------------------------------------------------------------

TEST_F(ObsTest, TraceJsonIsWellFormedAndNested) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.start();
  {
    const obs::Span outer("outer");
    {
      const obs::Span inner("inner");
    }
    {
      const obs::Span inner2("inner2");
    }
    tracer.instant("marker", "test");
  }
  tracer.stop();
  ASSERT_EQ(tracer.event_count(), 4u);

  const util::JsonValue root =
      util::JsonValue::parse(tracer.to_json(), "trace");
  const auto& events = root.at("traceEvents").items();
  ASSERT_EQ(events.size(), 4u);
  // Spans close innermost-first; the RAII order guarantees proper nesting.
  double outer_ts = 0.0, outer_end = 0.0;
  for (const util::JsonValue& e : events) {
    if (e.at("name").as_string() == "outer") {
      outer_ts = e.at("ts").as_number();
      outer_end = outer_ts + e.at("dur").as_number();
    }
  }
  for (const util::JsonValue& e : events) {
    if (e.at("ph").as_string() != "X") continue;
    const double ts = e.at("ts").as_number();
    const double end = ts + e.at("dur").as_number();
    EXPECT_GE(ts, outer_ts - 1e-6);
    EXPECT_LE(end, outer_end + 1e-6);
  }
}

TEST_F(ObsTest, InactiveTracerRecordsNothing) {
  obs::Tracer& tracer = obs::Tracer::instance();
  ASSERT_FALSE(tracer.active());
  {
    const obs::Span span("should.not.appear");
    tracer.instant("neither", "test");
  }
  EXPECT_EQ(tracer.event_count(), 0u);
}

// --- run report -------------------------------------------------------------

obs::RunReport make_report() {
  obs::RunReport rep;
  rep.optimizer = "joint";
  rep.circuit = "c17";
  rep.feasible = true;
  rep.vdd = 0.42;
  rep.vts_primary = 0.17;
  rep.energy_total = 3.25e-15;
  rep.static_energy = 1.0e-15;
  rep.dynamic_energy = 2.25e-15;
  rep.critical_delay = 2.5e-9;
  rep.runtime_seconds = 0.125;
  rep.circuit_evaluations = 321;
  rep.tier = "joint";
  rep.truncated = true;
  rep.truncation_reason = "wall clock";
  for (int i = 0; i < 3; ++i) {
    obs::TrajectoryPoint p;
    p.phase = i == 2 ? "refine" : "sweep";
    p.vdd = 1.0 - 0.1 * i;
    p.vts = 0.1 + 0.01 * i;
    p.energy = 1e-14 / (i + 1);
    p.critical_delay = 2e-9;
    p.feasible = true;
    p.accepted = i != 1;
    rep.add_point(std::move(p));
  }
  obs::TierRecord t;
  t.tier = "joint";
  t.wall_seconds = 0.125;
  t.selected = true;
  rep.tiers.push_back(std::move(t));
  rep.counters["opt.joint.probes"] = 321;
  return rep;
}

TEST_F(ObsTest, RunReportRoundTripsThroughJson) {
  const obs::RunReport rep = make_report();
  const obs::RunReport back = obs::RunReport::from_json(rep.to_json());

  EXPECT_EQ(back.optimizer, rep.optimizer);
  EXPECT_EQ(back.circuit, rep.circuit);
  EXPECT_EQ(back.feasible, rep.feasible);
  EXPECT_DOUBLE_EQ(back.vdd, rep.vdd);
  EXPECT_DOUBLE_EQ(back.energy_total, rep.energy_total);
  EXPECT_DOUBLE_EQ(back.critical_delay, rep.critical_delay);
  EXPECT_EQ(back.circuit_evaluations, rep.circuit_evaluations);
  EXPECT_EQ(back.tier, rep.tier);
  EXPECT_TRUE(back.truncated);
  EXPECT_EQ(back.truncation_reason, rep.truncation_reason);

  ASSERT_EQ(back.trajectory.size(), rep.trajectory.size());
  for (std::size_t i = 0; i < rep.trajectory.size(); ++i) {
    EXPECT_EQ(back.trajectory[i].iteration, rep.trajectory[i].iteration);
    EXPECT_EQ(back.trajectory[i].phase, rep.trajectory[i].phase);
    EXPECT_DOUBLE_EQ(back.trajectory[i].energy, rep.trajectory[i].energy);
    EXPECT_EQ(back.trajectory[i].accepted, rep.trajectory[i].accepted);
  }
  ASSERT_EQ(back.tiers.size(), 1u);
  EXPECT_EQ(back.tiers[0].tier, "joint");
  EXPECT_TRUE(back.tiers[0].selected);
  EXPECT_EQ(back.counters.at("opt.joint.probes"), 321);

  const std::vector<double> acc = back.accepted_energies();
  ASSERT_EQ(acc.size(), 2u);
  EXPECT_GE(acc[0], acc[1]);
}

TEST_F(ObsTest, RunReportRejectsWrongSchema) {
  EXPECT_THROW(obs::RunReport::from_json("{\"schema\":\"bogus.v9\"}"),
               util::ParseError);
  EXPECT_THROW(obs::RunReport::from_json("not json at all"),
               util::ParseError);
}

// --- end-to-end: optimizer runs fill the report ------------------------------

TEST_F(ObsTest, JointRunProducesMonotoneAcceptedTrajectory) {
  obs::set_enabled(true);
  const netlist::Netlist nl = bench_suite::make_circuit("c17");
  activity::ActivityProfile profile;
  profile.input_density = 0.3;
  const opt::CircuitEvaluator eval(nl, tech::Technology::generic350(),
                                   profile, {.clock_frequency = 100e6});
  const opt::OptimizationResult r = opt::JointOptimizer(eval).run();
  ASSERT_TRUE(r.feasible);

  const obs::RunReport& rep = r.report;
  EXPECT_EQ(rep.optimizer, "joint");
  EXPECT_EQ(rep.circuit, nl.name());
  EXPECT_TRUE(rep.feasible);
  EXPECT_DOUBLE_EQ(rep.energy_total, r.energy.total());
  EXPECT_FALSE(rep.trajectory.empty());

  const std::vector<double> acc = rep.accepted_energies();
  ASSERT_FALSE(acc.empty());
  for (std::size_t i = 1; i < acc.size(); ++i) {
    EXPECT_LE(acc[i], acc[i - 1] * (1.0 + 1e-12))
        << "accepted energy rose at index " << i;
  }
  // The final accepted energy is the returned optimum.
  EXPECT_NEAR(acc.back(), r.energy.total(), 1e-9 * r.energy.total());

  // Counters attributed to the run.
  EXPECT_GT(rep.counters.at("opt.joint.probes"), 0);
  EXPECT_GT(rep.counters.at("opt.eval.sta_calls"), 0);
}

TEST_F(ObsTest, RobustRunRecordsSelectedTier) {
  const netlist::Netlist nl = bench_suite::make_circuit("c17");
  activity::ActivityProfile profile;
  profile.input_density = 0.3;
  const opt::CircuitEvaluator eval(nl, tech::Technology::generic350(),
                                   profile, {.clock_frequency = 100e6});
  const opt::OptimizationResult r = opt::RobustOptimizer(eval).run();
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.report.optimizer, "robust");
  ASSERT_FALSE(r.report.tiers.empty());
  int selected = 0;
  for (const obs::TierRecord& t : r.report.tiers) {
    EXPECT_GE(t.wall_seconds, 0.0);
    if (t.selected) {
      ++selected;
      EXPECT_TRUE(t.failure_reason.empty());
      EXPECT_EQ(t.tier, r.report.tier);
    } else {
      EXPECT_FALSE(t.failure_reason.empty());
    }
  }
  EXPECT_EQ(selected, 1);
}

TEST_F(ObsTest, FaultCatalogTallyFillsCounterFamily) {
  obs::set_enabled(true);
  const fault::CatalogTally tally = fault::run_fault_catalogs();
  EXPECT_EQ(tally.total_fail(), 0)
      << "fault contract broken: " << tally.failures.size() << " cases";
  EXPECT_GT(tally.tech_pass, 0);
  EXPECT_GT(tally.parser_pass, 0);
  EXPECT_GT(tally.netlist_pass, 0);
  EXPECT_GT(tally.stress_pass, 0);
  EXPECT_EQ(obs::counter("fault.tech.pass").value(), tally.tech_pass);
  EXPECT_EQ(obs::counter("fault.parser.pass").value(), tally.parser_pass);
  EXPECT_EQ(obs::counter("fault.netlist.pass").value(), tally.netlist_pass);
  EXPECT_EQ(obs::counter("fault.stress.pass").value(), tally.stress_pass);
  EXPECT_EQ(obs::counter("fault.tech.fail").value(), 0);
}

// --- event log and labeled names -------------------------------------------

class ExposeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = obs::enabled();
    obs::set_enabled(true);
    obs::Registry::instance().reset();
  }
  void TearDown() override {
    obs::EventLog::instance().close();
    obs::set_enabled(was_enabled_);
    obs::Registry::instance().reset();
  }

 private:
  bool was_enabled_ = false;
};

TEST_F(ExposeTest, LabeledNameKeepsLabelSet) {
  const std::string name =
      obs::labeled_name("serve.breaker.state", "circuit", "s27");
  EXPECT_EQ(name, "serve.breaker.state{circuit=\"s27\"}");
  // Quotes and backslashes in values are escaped, not injected.
  EXPECT_EQ(obs::labeled_name("f.g", "k", "a\"b\\c"),
            "f.g{k=\"a\\\"b\\\\c\"}");
}

std::string scratch_log_path(const char* tag) {
  return ::testing::TempDir() + "minergy_eventlog_" + tag + "_" +
         std::to_string(::getpid()) + ".jsonl";
}

std::vector<util::JsonValue> read_events(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::vector<util::JsonValue> events;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    events.push_back(util::JsonValue::parse(line, path));
  }
  return events;
}

TEST_F(ExposeTest, EventLogLinesParseWithStrictSeq) {
  const std::string path = scratch_log_path("basic");
  std::string error;
  ASSERT_TRUE(obs::EventLog::instance().open(path, 1 << 20, &error)) << error;

  obs::Event claimed;
  claimed.kind = "job_claimed";
  claimed.job = "j-0001";
  claimed.circuit = "s27";
  claimed.attempt = 1;
  claimed.num.push_back({"queue_wait_s", 0.25});
  obs::event(claimed);

  obs::Event done;
  done.kind = "job_done";
  done.job = "j-0001";
  done.circuit = "s27";
  done.attempt = 1;
  obs::event(done);

  obs::EventLog::instance().close();

  const std::vector<util::JsonValue> events = read_events(path);
  ASSERT_EQ(events.size(), 2u);
  std::int64_t prev = 0;
  for (const util::JsonValue& e : events) {
    EXPECT_EQ(e.get_string("schema", ""), obs::kEventSchema);
    const std::int64_t seq = static_cast<std::int64_t>(e.at("seq").as_number());
    EXPECT_GT(seq, prev);
    prev = seq;
  }
  EXPECT_EQ(events[0].get_string("kind", ""), "job_claimed");
  EXPECT_EQ(events[0].get_string("span", ""), "j-0001#1");
  EXPECT_NEAR(events[0].get_number("queue_wait_s", 0.0), 0.25, 1e-12);
  EXPECT_EQ(events[1].get_string("kind", ""), "job_done");
  std::remove(path.c_str());
}

TEST_F(ExposeTest, EventLogRotatesAtSizeCapAndKeepsSeq) {
  const std::string path = scratch_log_path("rotate");
  std::string error;
  // A cap small enough that a handful of events forces rotation.
  ASSERT_TRUE(obs::EventLog::instance().open(path, 512, &error)) << error;
  for (int i = 0; i < 12; ++i) {
    obs::Event e;
    e.kind = "worker_spawned";
    e.detail = "padding padding padding padding padding";
    obs::event(e);
  }
  const std::int64_t final_seq = obs::EventLog::instance().last_seq();
  obs::EventLog::instance().close();

  const std::vector<util::JsonValue> tail = read_events(path);
  const std::vector<util::JsonValue> head = read_events(path + ".1");
  ASSERT_FALSE(tail.empty());
  ASSERT_FALSE(head.empty());
  // Single-level rotation: .1 holds the most recently rotated segment and
  // the live tail continues its seq with a log_rotated marker first —
  // never resetting or repeating, so the two files splice seamlessly.
  const std::int64_t head_last =
      static_cast<std::int64_t>(head.back().at("seq").as_number());
  EXPECT_EQ(static_cast<std::int64_t>(tail.front().at("seq").as_number()),
            head_last + 1);
  EXPECT_EQ(tail.front().get_string("kind", ""), "log_rotated");
  EXPECT_EQ(static_cast<std::int64_t>(tail.back().at("seq").as_number()),
            final_seq);
  std::int64_t prev = 0;
  for (const util::JsonValue& e : head) {
    const std::int64_t seq = static_cast<std::int64_t>(e.at("seq").as_number());
    EXPECT_GT(seq, prev);
    prev = seq;
  }
  for (const util::JsonValue& e : tail) {
    const std::int64_t seq = static_cast<std::int64_t>(e.at("seq").as_number());
    EXPECT_GT(seq, prev);
    prev = seq;
  }
  std::remove(path.c_str());
  std::remove((path + ".1").c_str());
}

TEST_F(ExposeTest, EventLogOpenRotatesPreviousRun) {
  const std::string path = scratch_log_path("reopen");
  std::string error;
  ASSERT_TRUE(obs::EventLog::instance().open(path, 1 << 20, &error)) << error;
  obs::Event e;
  e.kind = "daemon_start";
  obs::event(e);
  obs::EventLog::instance().close();

  // A second run rotates the first segment aside and restarts seq at 1 —
  // the verifier's claim/finalize pairing oracle depends on this.
  ASSERT_TRUE(obs::EventLog::instance().open(path, 1 << 20, &error)) << error;
  obs::Event e2;
  e2.kind = "daemon_start";
  obs::event(e2);
  obs::EventLog::instance().close();

  const std::vector<util::JsonValue> fresh = read_events(path);
  const std::vector<util::JsonValue> old = read_events(path + ".1");
  ASSERT_EQ(fresh.size(), 1u);
  ASSERT_EQ(old.size(), 1u);
  EXPECT_EQ(static_cast<std::int64_t>(fresh[0].at("seq").as_number()), 1);
  std::remove(path.c_str());
  std::remove((path + ".1").c_str());
}

TEST_F(ExposeTest, DisarmedEventIsNoOp) {
  obs::EventLog::instance().close();
  EXPECT_FALSE(obs::EventLog::instance().armed());
  obs::Event e;
  e.kind = "job_claimed";
  obs::event(e);  // must not crash, write, or arm
  EXPECT_FALSE(obs::EventLog::instance().armed());
}

}  // namespace
}  // namespace minergy
