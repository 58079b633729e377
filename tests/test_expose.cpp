// Exposition server + event log: the live-telemetry surface of PR 6.
//
// Covers the Prometheus renderer (name translation, cumulative buckets,
// percentile gauges), the HTTP responder's protocol behaviour (correct
// statuses for malformed traffic, never a crash), the publish/scrape path
// for /health-style documents, and the JSONL event log (strict seq
// ordering, size-cap rotation with continuation, disarmed no-op). The
// concurrent-scrape tests are the TSan oracle for the server's
// shared-state design; run them under MINERGY_SANITIZE=thread.
//
// Registry/EventLog state is process-global, so every test restores the
// enabled flag and resets what it touched (CTest label `obs`).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/eventlog.h"
#include "obs/expose.h"
#include "obs/metrics.h"
#include "util/json.h"

namespace minergy {
namespace {

class ExposeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = obs::enabled();
    obs::set_enabled(true);
    obs::Registry::instance().reset();
  }
  void TearDown() override {
    obs::ExpositionServer::instance().stop();
    obs::EventLog::instance().close();
    obs::set_enabled(was_enabled_);
    obs::Registry::instance().reset();
  }

 private:
  bool was_enabled_ = false;
};

// Raw-socket HTTP exchange: send `request` verbatim, read to EOF. The
// server speaks HTTP/1.0 Connection: close, so EOF delimits the response.
std::string http_exchange(int port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return {};
  }
  std::size_t off = 0;
  while (off < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + off, request.size() - off, 0);
    if (n <= 0) break;
    off += static_cast<std::size_t>(n);
  }
  ::shutdown(fd, SHUT_WR);
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string http_get(int port, const std::string& path) {
  return http_exchange(port, "GET " + path + " HTTP/1.0\r\n\r\n");
}

std::string status_line(const std::string& response) {
  return response.substr(0, response.find("\r\n"));
}

std::string body_of(const std::string& response) {
  const std::size_t pos = response.find("\r\n\r\n");
  return pos == std::string::npos ? std::string() : response.substr(pos + 4);
}

int start_ephemeral() {
  std::string error;
  EXPECT_TRUE(obs::ExpositionServer::instance().start(0, &error)) << error;
  const int port = obs::ExpositionServer::instance().port();
  EXPECT_GT(port, 0);
  return port;
}

// --- name translation ------------------------------------------------------

TEST_F(ExposeTest, PrometheusNameTranslation) {
  EXPECT_EQ(obs::prometheus_name("serve.job.e2e_micros"),
            "serve_job_e2e_micros");
  EXPECT_EQ(obs::prometheus_name("io.envelope.crc-mismatch"),
            "io_envelope_crc_mismatch");
  EXPECT_EQ(obs::prometheus_name("already_fine:name"), "already_fine:name");
}

TEST_F(ExposeTest, LabeledNameKeepsLabelSet) {
  const std::string name =
      obs::labeled_name("serve.breaker.state", "circuit", "s27");
  EXPECT_EQ(name, "serve.breaker.state{circuit=\"s27\"}");
  // The renderer sanitizes only the family, never the label set.
  EXPECT_EQ(obs::prometheus_name(name),
            "serve_breaker_state{circuit=\"s27\"}");
  // Quotes and backslashes in values are escaped, not injected.
  EXPECT_EQ(obs::labeled_name("f.g", "k", "a\"b\\c"),
            "f.g{k=\"a\\\"b\\\\c\"}");
}

// --- Prometheus rendering --------------------------------------------------

TEST_F(ExposeTest, RenderCountersGaugesHistograms) {
  obs::counter("test.expose.requests").add(7);
  obs::gauge("test.expose.depth").set(3.5);
  obs::Histogram& h = obs::histogram("test.expose.latency_micros");
  h.record(3.0);
  h.record(100.0);
  h.record(100000.0);

  const std::string text = obs::ExpositionServer::render_prometheus();
  EXPECT_NE(text.find("# TYPE test_expose_requests counter"),
            std::string::npos);
  EXPECT_NE(text.find("test_expose_requests 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE test_expose_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("test_expose_depth 3.5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE test_expose_latency_micros histogram"),
            std::string::npos);
  EXPECT_NE(text.find("test_expose_latency_micros_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("test_expose_latency_micros_count 3"),
            std::string::npos);
  EXPECT_NE(text.find("test_expose_latency_micros_sum"), std::string::npos);
  EXPECT_NE(text.find("test_expose_latency_micros_p50"), std::string::npos);
  EXPECT_NE(text.find("test_expose_latency_micros_p99"), std::string::npos);
}

TEST_F(ExposeTest, HistogramBucketsAreCumulativeAndMonotone) {
  obs::Histogram& h = obs::histogram("test.expose.cumulative");
  for (int i = 0; i < 32; ++i) h.record(static_cast<double>(1 << (i % 12)));

  const std::string text = obs::ExpositionServer::render_prometheus();
  std::istringstream in(text);
  std::string line;
  std::int64_t prev = -1;
  std::int64_t inf_count = -1;
  std::int64_t total = -1;
  while (std::getline(in, line)) {
    if (line.rfind("test_expose_cumulative_bucket{", 0) == 0) {
      const std::int64_t v = std::stoll(line.substr(line.rfind(' ') + 1));
      EXPECT_GE(v, prev) << "bucket series must be cumulative: " << line;
      prev = v;
      if (line.find("le=\"+Inf\"") != std::string::npos) inf_count = v;
    } else if (line.rfind("test_expose_cumulative_count ", 0) == 0) {
      total = std::stoll(line.substr(line.rfind(' ') + 1));
    }
  }
  EXPECT_EQ(inf_count, 32);
  EXPECT_EQ(total, 32);
}

TEST_F(ExposeTest, EmptyHistogramOmitsQuantileSiblingsAndNeverRendersNan) {
  // A freshly started daemon registers latency histograms before any sample
  // lands. The family must still render (count 0, +Inf bucket 0) so scrapers
  // see the series exists, but the _p50/_p95/_p99 sibling gauges are
  // omitted: there is no meaningful quantile of nothing, and a NaN value
  // line breaks strict Prometheus parsers.
  obs::histogram("test.expose.empty_micros");
  const std::string text = obs::ExpositionServer::render_prometheus();
  EXPECT_NE(text.find("test_expose_empty_micros_bucket{le=\"+Inf\"} 0"),
            std::string::npos);
  EXPECT_NE(text.find("test_expose_empty_micros_count 0"), std::string::npos);
  EXPECT_EQ(text.find("test_expose_empty_micros_p50"), std::string::npos);
  EXPECT_EQ(text.find("test_expose_empty_micros_p95"), std::string::npos);
  EXPECT_EQ(text.find("test_expose_empty_micros_p99"), std::string::npos);
  EXPECT_EQ(text.find("nan"), std::string::npos) << text;
  EXPECT_EQ(text.find("NaN"), std::string::npos) << text;
  EXPECT_EQ(text.find("inf "), std::string::npos) << text;

  // Once a sample lands, the siblings appear with finite values.
  obs::histogram("test.expose.empty_micros").record(42.0);
  const std::string after = obs::ExpositionServer::render_prometheus();
  EXPECT_NE(after.find("test_expose_empty_micros_p50"), std::string::npos);
  EXPECT_EQ(after.find("nan"), std::string::npos) << after;
}

TEST_F(ExposeTest, LabeledGaugeRendersWithLabels) {
  obs::gauge(obs::labeled_name("serve.breaker.state", "circuit", "s27"))
      .set(1.0);
  const std::string text = obs::ExpositionServer::render_prometheus();
  EXPECT_NE(text.find("serve_breaker_state{circuit=\"s27\"} 1"),
            std::string::npos);
  // Exactly one TYPE line for the family even with many label children.
  obs::gauge(obs::labeled_name("serve.breaker.state", "circuit", "s298"))
      .set(0.0);
  const std::string again = obs::ExpositionServer::render_prometheus();
  const std::string type_line = "# TYPE serve_breaker_state gauge";
  const std::size_t first = again.find(type_line);
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(again.find(type_line, first + 1), std::string::npos);
}

// --- HTTP behaviour --------------------------------------------------------

TEST_F(ExposeTest, StartStopEphemeralPort) {
  const int port = start_ephemeral();
  EXPECT_TRUE(obs::ExpositionServer::instance().running());
  EXPECT_GT(port, 0);
  // Double-start is refused, not fatal.
  std::string error;
  EXPECT_FALSE(obs::ExpositionServer::instance().start(0, &error));
  obs::ExpositionServer::instance().stop();
  EXPECT_FALSE(obs::ExpositionServer::instance().running());
  obs::ExpositionServer::instance().stop();  // idempotent
}

TEST_F(ExposeTest, ScrapeMetricsOverHttp) {
  obs::counter("test.expose.scraped").add(11);
  const int port = start_ephemeral();
  const std::string response = http_get(port, "/metrics");
  EXPECT_EQ(status_line(response), "HTTP/1.0 200 OK");
  EXPECT_NE(response.find("text/plain"), std::string::npos);
  EXPECT_NE(body_of(response).find("test_expose_scraped 11"),
            std::string::npos);
}

TEST_F(ExposeTest, PublishedDocumentServedFromMemory) {
  const int port = start_ephemeral();
  EXPECT_EQ(status_line(http_get(port, "/health")), "HTTP/1.0 404 Not Found");
  obs::ExpositionServer::instance().publish(
      "/health", "application/json",
      "{\"schema\":\"minergy.health.v1\",\"state\":\"serving\"}");
  const std::string response = http_get(port, "/health");
  EXPECT_EQ(status_line(response), "HTTP/1.0 200 OK");
  EXPECT_NE(body_of(response).find("\"state\":\"serving\""),
            std::string::npos);
  // publish replaces, never appends.
  obs::ExpositionServer::instance().publish(
      "/health", "application/json",
      "{\"schema\":\"minergy.health.v1\",\"state\":\"draining\"}");
  EXPECT_NE(body_of(http_get(port, "/health")).find("draining"),
            std::string::npos);
}

TEST_F(ExposeTest, PublishedStatusAndExtraHeadersAreServed) {
  // The degraded readiness path: /health publishes as 503 with a
  // Retry-After header so load balancers back off, while /metrics stays 200
  // (a degraded service must remain scrapable).
  const int port = start_ephemeral();
  obs::ExpositionServer::instance().publish(
      "/health", "application/json",
      "{\"schema\":\"minergy.health.v1\",\"status\":\"degraded\"}", 503,
      "Retry-After: 3\r\n");
  const std::string response = http_get(port, "/health");
  EXPECT_EQ(status_line(response), "HTTP/1.0 503 Service Unavailable");
  EXPECT_NE(response.find("Retry-After: 3\r\n"), std::string::npos);
  EXPECT_NE(body_of(response).find("\"status\":\"degraded\""),
            std::string::npos);
  EXPECT_EQ(status_line(http_get(port, "/metrics")), "HTTP/1.0 200 OK");
  // Recovery republishes as a plain 200 with no stale extra headers.
  obs::ExpositionServer::instance().publish(
      "/health", "application/json",
      "{\"schema\":\"minergy.health.v1\",\"status\":\"ok\"}");
  const std::string recovered = http_get(port, "/health");
  EXPECT_EQ(status_line(recovered), "HTTP/1.0 200 OK");
  EXPECT_EQ(recovered.find("Retry-After"), std::string::npos);
}

TEST_F(ExposeTest, MalformedRequestsGetTypedErrorsNeverCrash) {
  const int port = start_ephemeral();
  EXPECT_EQ(status_line(http_exchange(port, "POST /metrics HTTP/1.0\r\n\r\n")),
            "HTTP/1.0 405 Method Not Allowed");
  EXPECT_EQ(status_line(http_get(port, "/no-such-path")),
            "HTTP/1.0 404 Not Found");
  EXPECT_EQ(status_line(http_exchange(port, "garbage\r\n\r\n")),
            "HTTP/1.0 400 Bad Request");
  // An unterminated request line past the cap is rejected, not buffered.
  const std::string oversized =
      "GET /" +
      std::string(obs::ExpositionServer::kMaxRequestBytes + 64, 'a');
  EXPECT_EQ(status_line(http_exchange(port, oversized)),
            "HTTP/1.0 400 Bad Request");
  // A client that connects and immediately hangs up is not an event.
  {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
              0);
    ::close(fd);
  }
  // The server survives all of the above and still serves.
  EXPECT_EQ(status_line(http_get(port, "/metrics")), "HTTP/1.0 200 OK");
}

TEST_F(ExposeTest, ConcurrentScrapeUnderLoad) {
  // The TSan oracle: writer threads mutate the Registry and republish
  // documents while scraper threads hammer every endpoint. Any lock or
  // atomic missing from the server's shared-state design fires here.
  obs::histogram("test.expose.load_micros");
  const int port = start_ephemeral();
  std::atomic<bool> stop{false};
  std::atomic<int> scrape_failures{0};

  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&stop, w] {
      obs::Counter& c = obs::counter("test.expose.load");
      obs::Histogram& h = obs::histogram("test.expose.load_micros");
      int i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        c.add();
        h.record(static_cast<double>((i++ % 1000) + 1));
        obs::gauge("test.expose.load_gauge").set(static_cast<double>(i));
        if (i % 64 == 0) {
          obs::ExpositionServer::instance().publish(
              "/health", "application/json",
              "{\"state\":\"serving\",\"tick\":" + std::to_string(i) + "}");
        }
        (void)w;
      }
    });
  }
  std::vector<std::thread> scrapers;
  for (int s = 0; s < 3; ++s) {
    scrapers.emplace_back([&stop, &scrape_failures, port] {
      const char* paths[] = {"/metrics", "/health", "/metrics"};
      int i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::string response = http_get(port, paths[i++ % 3]);
        if (response.rfind("HTTP/1.0 ", 0) != 0) {
          scrape_failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : writers) t.join();
  for (std::thread& t : scrapers) t.join();
  EXPECT_EQ(scrape_failures.load(), 0);
  EXPECT_GT(obs::ExpositionServer::instance().requests_served(), 0);
}

// --- event log -------------------------------------------------------------

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
