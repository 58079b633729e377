#include "obs/session.h"

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "obs/eventlog.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/clock.h"
#include "util/json.h"

namespace minergy::obs {

Session::Session(const util::Cli& cli, std::string default_name)
    : name_(std::move(default_name)) {
  trace_path_ = cli.get("trace", std::string());
  metrics_ = cli.get("metrics", false) || cli.get("verbose", false);
  if (cli.has("perf-record")) {
    perf_path_ = cli.get("perf-record", std::string());
    // Bare --perf-record (boolean form) selects the conventional filename.
    if (perf_path_.empty() || perf_path_ == "true") {
      perf_path_ = "BENCH_" + name_ + ".json";
    }
  }
  const bool event_log = cli.has("event-log");
  if (!trace_path_.empty() || metrics_ || !perf_path_.empty() || event_log) {
    set_enabled(true);
    start_us_ = util::monotonic_micros();
  }
  if (!trace_path_.empty()) Tracer::instance().start();
  if (event_log) {
    const std::string path = cli.get("event-log", std::string());
    const std::int64_t max_bytes =
        static_cast<std::int64_t>(cli.get("event-log-max-kb", 8192.0)) * 1024;
    std::string error;
    if (path.empty() || path == "true" ||
        !EventLog::instance().open(path, max_bytes, &error)) {
      throw std::runtime_error("--event-log: cannot open " +
                               (path.empty() ? "(missing FILE)" : error));
    }
    event_log_ = true;
  }
}

std::string Session::perf_record_json() const {
  util::JsonWriter w(1);
  w.begin_object();
  w.kv("schema", "minergy.perf_record.v1");
  w.kv("bench", name_);
  w.kv("wall_seconds", (util::monotonic_micros() - start_us_) * 1e-6);
  w.key("counters").begin_object();
  for (const auto& [name, v] : Registry::instance().counter_snapshot()) {
    if (v != 0) w.kv(name, v);
  }
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& [name, v] : Registry::instance().gauge_snapshot()) {
    if (v != 0.0) w.kv(name, v);
  }
  w.end_object();
  w.key("histograms").begin_object();
  for (const auto& [name, h] : Registry::instance().histogram_snapshot()) {
    if (h.count == 0) continue;
    w.key(name).begin_object();
    w.kv("count", h.count);
    w.kv("sum", h.sum);
    w.kv("p50", h.p50);
    w.kv("p95", h.p95);
    w.kv("p99", h.p99);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return w.str();
}

void Session::finish() {
  if (finished_) return;
  finished_ = true;
  if (event_log_) EventLog::instance().close();
  if (!trace_path_.empty()) {
    Tracer::instance().stop();
    if (Tracer::instance().write_file(trace_path_)) {
      std::fprintf(stderr, "[obs] trace: %s (%zu events)\n",
                   trace_path_.c_str(), Tracer::instance().event_count());
    } else {
      std::fprintf(stderr, "[obs] error: cannot write trace to %s\n",
                   trace_path_.c_str());
    }
  }
  if (!perf_path_.empty()) {
    std::ofstream out(perf_path_);
    if (out) {
      out << perf_record_json() << '\n';
      std::fprintf(stderr, "[obs] perf record: %s\n", perf_path_.c_str());
    } else {
      std::fprintf(stderr, "[obs] error: cannot write perf record to %s\n",
                   perf_path_.c_str());
    }
  }
  if (metrics_) {
    std::printf("\n== observability counters ==\n%s",
                Registry::instance().to_table().c_str());
  }
}

Session::~Session() { finish(); }

}  // namespace minergy::obs
