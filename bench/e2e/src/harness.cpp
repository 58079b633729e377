#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "util/json.h"

namespace e2e {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

double peak_rss_mb() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  // ru_maxrss is in KiB on Linux.
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;
}

double Spans::time(const char* name, const std::string& item,
                   const std::function<void()>& fn) {
  const std::int64_t id = next_id_++;
  const std::int64_t parent = open_.empty() ? -1 : open_.back();
  open_.push_back(id);
  const double start = now_s();
  try {
    fn();
  } catch (...) {
    open_.pop_back();
    throw;
  }
  const double end = now_s();
  open_.pop_back();
  if (recording_) records_.push_back({name, item, start, end, id, parent});
  return end - start;
}

void Spans::record(const char* name, const std::string& item, double start_s,
                   double end_s) {
  const std::int64_t id = next_id_++;
  if (recording_) records_.push_back({name, item, start_s, end_s, id, -1});
}

std::vector<double> Spans::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Record& r : records_) {
    if (r.name == name) out.push_back(r.end_s - r.start_s);
  }
  return out;
}

bool Spans::write_chrome_trace(const std::string& path) const {
  double origin = records_.empty() ? 0.0 : records_.front().start_s;
  for (const Record& r : records_) origin = std::min(origin, r.start_s);
  minergy::util::JsonWriter w(0);
  w.begin_object();
  w.key("traceEvents").begin_array();
  for (const Record& r : records_) {
    w.begin_object();
    w.kv("name", r.name);
    w.kv("cat", "e2e");
    w.kv("ph", "X");
    w.kv("ts", (r.start_s - origin) * 1e6);
    w.kv("dur", (r.end_s - r.start_s) * 1e6);
    w.kv("pid", 1);
    w.kv("tid", 1);
    w.key("args").begin_object();
    w.kv("id", r.id);
    w.kv("parent", r.parent);
    w.kv("item", r.item);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.kv("displayTimeUnit", "ms");
  w.end_object();
  std::ofstream out(path);
  out << w.str() << '\n';
  return static_cast<bool>(out);
}

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    fail("metric " + name + " is not finite");
    value = 0.0;
  }
  metrics_.push_back({name, value, unit});
}

void Result::note(const std::string& key, const std::string& text) {
  notes_.emplace_back(key, text);
}

void Result::fail(const std::string& why) {
  std::fprintf(stderr, "e2e: CHECK FAILED: %s\n", why.c_str());
  errors_.push_back(why);
}

std::string Result::to_json() const {
  minergy::util::JsonWriter w(0);
  w.begin_object();
  w.kv("correct", correct());
  w.kv("attempted", attempted_);
  w.kv("failed", failed_);
  w.key("metrics").begin_object();
  for (const Metric& m : metrics_) {
    w.key(m.name).begin_object();
    w.kv("value", m.value);
    w.kv("unit", m.unit);
    w.end_object();
  }
  w.end_object();
  w.key("notes").begin_object();
  for (const auto& [k, v] : notes_) w.kv(k, v);
  w.end_object();
  w.key("errors").begin_array();
  for (const std::string& e : errors_) w.value(e);
  w.end_array();
  w.key("fingerprints").begin_array();
  for (const std::string& f : fingerprints_) w.value(f);
  w.end_array();
  w.end_object();
  return w.str();
}

std::string hexf(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

std::string tail_text(const std::vector<double>& ms, double q,
                      const std::string& what) {
  char buf[128];
  std::snprintf(buf, sizeof buf, "%.3f ms (p%.0f of %zu %s, %.0f beyond)",
                quantile(ms, q), q * 100.0, ms.size(), what.c_str(),
                std::floor((1.0 - q) * static_cast<double>(ms.size())));
  return buf;
}

}  // namespace e2e
