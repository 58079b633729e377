#include "obs/metrics.h"

#include <cmath>
#include <cstdio>

#include "util/table.h"

namespace minergy::obs {

void Histogram::record(double v) {
  if (!enabled()) return;
  int b = 0;
  if (std::isfinite(v) && v > 0.0) {
    // ilogb(v) is floor(log2(v)); octave o's upper bound is
    // 2^(o-kOriginExp), so a value in (2^e, 2^(e+1)] belongs to octave
    // e+1+kOriginExp. Exact powers of two sit on their octave's upper bound.
    int e = std::ilogb(v);
    if (std::ldexp(1.0, e) == v) --e;
    const int octave = e + 1 + kOriginExp;
    if (octave < 0) {
      b = 0;
    } else if (octave >= kOctaves) {
      b = kBuckets - 1;
    } else {
      // v / 2^e - 1 lies in (0, 1] and is exact, so is its scaling to
      // sub-buckets: a value on a sub-bucket bound lands in the bucket it
      // bounds from above.
      const double frac = std::ldexp(v, -e) - 1.0;
      const int sub = static_cast<int>(
                          std::ceil(frac * static_cast<double>(kSubBuckets))) -
                      1;
      b = octave * kSubBuckets + sub;
    }
  } else if (!std::isfinite(v)) {
    b = kBuckets - 1;
  }
  buckets_[static_cast<std::size_t>(b)].fetch_add(1, std::memory_order_relaxed);
}

std::int64_t Histogram::count() const {
  std::int64_t n = 0;
  for (const auto& b : buckets_) n += b.load(std::memory_order_relaxed);
  return n;
}

double Histogram::octave_upper_bound(int o) {
  return std::ldexp(1.0, o - kOriginExp);
}

double Histogram::bucket_upper_bound(int b) {
  // Sub-bucket j of an octave with upper bound u ends at
  // u/2 * (1 + (j+1)/kSubBuckets).
  const int sub = b % kSubBuckets;
  return octave_upper_bound(b / kSubBuckets) *
         static_cast<double>(kSubBuckets + sub + 1) / (2.0 * kSubBuckets);
}

double Histogram::sum() const {
  double s = 0.0;
  for (int b = 0; b < kBuckets; ++b) {
    const std::int64_t n = buckets_[static_cast<std::size_t>(b)].load(
        std::memory_order_relaxed);
    if (n == 0) continue;
    // Bucket midpoint: its upper bound less half a sub-bucket width (a
    // sub-bucket spans 1/(2 kSubBuckets) of its octave's upper bound).
    const double half_width =
        octave_upper_bound(b / kSubBuckets) / (4.0 * kSubBuckets);
    s += static_cast<double>(n) * (bucket_upper_bound(b) - half_width);
  }
  return s;
}

double Histogram::percentile(double p) const {
  const std::int64_t total = count();
  // Degenerate inputs must not leak NaN into perf records: an empty
  // histogram and a non-positive/NaN quantile both read 0; quantiles above
  // 1 saturate at the top bucket.
  if (total == 0 || !(p > 0.0)) return 0.0;
  if (p > 1.0) p = 1.0;
  const double target = p * static_cast<double>(total);
  std::int64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    seen += buckets_[static_cast<std::size_t>(b)].load(
        std::memory_order_relaxed);
    if (static_cast<double>(seen) >= target) return bucket_upper_bound(b);
  }
  return bucket_upper_bound(kBuckets - 1);
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
}

Registry& Registry::instance() {
  static Registry* r = new Registry();  // leaked: outlives static dtors
  return *r;
}

Counter& Registry::counter(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = counters_.find(name);
  if (it != counters_.end()) return it->second;
  return counters_.try_emplace(std::string(name)).first->second;
}

Gauge& Registry::gauge(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) return it->second;
  return gauges_.try_emplace(std::string(name)).first->second;
}

Histogram& Registry::histogram(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  return histograms_.try_emplace(std::string(name)).first->second;
}

std::map<std::string, std::int64_t> Registry::counter_snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, std::int64_t> out;
  for (const auto& [name, c] : counters_) out[name] = c.value();
  return out;
}

std::map<std::string, double> Registry::gauge_snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, double> out;
  for (const auto& [name, g] : gauges_) out[name] = g.value();
  return out;
}

std::map<std::string, HistogramSnapshot> Registry::histogram_snapshot()
    const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, HistogramSnapshot> out;
  for (const auto& [name, h] : histograms_) {
    HistogramSnapshot snap;
    snap.count = h.count();
    snap.sum = h.sum();
    snap.p50 = h.percentile(0.50);
    snap.p95 = h.percentile(0.95);
    snap.p99 = h.percentile(0.99);
    out[name] = snap;
  }
  return out;
}

std::string labeled_name(std::string_view family, std::string_view key,
                         std::string_view value) {
  std::string out(family);
  out += '{';
  out += key;
  out += "=\"";
  for (const char c : value) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += "\"}";
  return out;
}

void Registry::reset() {
  const std::lock_guard<std::mutex> lock(mu_);
  for (auto& kv : counters_) kv.second.reset();
  for (auto& kv : gauges_) kv.second.reset();
  for (auto& kv : histograms_) kv.second.reset();
}

std::string Registry::to_table() const {
  const std::lock_guard<std::mutex> lock(mu_);
  util::Table table({"metric", "kind", "value", "p50", "p95"});
  for (const auto& [name, c] : counters_) {
    if (c.value() == 0) continue;
    table.begin_row().add(name).add("counter").add(
        std::to_string(c.value())).add("-").add("-");
  }
  for (const auto& [name, g] : gauges_) {
    if (g.value() == 0.0) continue;
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6g", g.value());
    table.begin_row().add(name).add("gauge").add(buf).add("-").add("-");
  }
  for (const auto& [name, h] : histograms_) {
    if (h.count() == 0) continue;
    char p50[32], p95[32];
    std::snprintf(p50, sizeof p50, "%.3g", h.percentile(0.50));
    std::snprintf(p95, sizeof p95, "%.3g", h.percentile(0.95));
    table.begin_row()
        .add(name)
        .add("histogram")
        .add(std::to_string(h.count()))
        .add(p50)
        .add(p95);
  }
  return table.to_text();
}

}  // namespace minergy::obs
