// Counters, gauges and log-bucket histograms for the optimizer stack.
//
// Design goals, in order:
//   1. Near-zero cost when disabled: an instrumentation site is one relaxed
//      atomic load and a predictable branch; no clocks, no locks, and zero
//      allocations on the increment path (registration allocates once).
//   2. Thread-safe when enabled: counters/gauges are single atomics with
//      relaxed ordering (they are statistics, not synchronization);
//      histograms are arrays of atomics.
//   3. Stable addresses: Registry hands out references that live for the
//      process, so hot paths cache them in function-local statics and pay
//      the name lookup exactly once.
//
// Collection is process-global and off by default; obs::set_enabled(true)
// (or an obs::Session built from --metrics/--trace/--report flags) turns it
// on. The metric catalogue is documented in docs/OBSERVABILITY.md.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

#include "util/clock.h"

namespace minergy::obs {

namespace detail {
// Single global switch. Relaxed is sufficient: a torn view costs at most a
// few missed samples around the toggle, never corruption.
inline std::atomic<bool> g_enabled{false};
}  // namespace detail

inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
inline void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

// Monotonically increasing event count.
class Counter {
 public:
  void add(std::int64_t n = 1) {
    if (!enabled()) return;
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

// Last-written value (e.g. the best energy seen so far).
class Gauge {
 public:
  void set(double v) {
    if (!enabled()) return;
    v_.store(v, std::memory_order_relaxed);
  }
  double value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

// Log-linear histogram over positive values. Octave o covers
// 2^(o-kOriginExp-1) < v <= 2^(o-kOriginExp) and is split into kSubBuckets
// equal-width sub-buckets, each holding the values above its lower bound up
// to and including its upper bound; values <= 2^-33 land in the first
// bucket, values above 2^31 and non-finite ones in the last. Covers ~19
// decades (microsecond timings through energy magnitudes) with a relative
// resolution of 1/16 to 1/8. The Prometheus exposition sums each octave's
// sub-buckets into one power-of-two `le` series.
class Histogram {
 public:
  static constexpr int kOctaves = 64;
  static constexpr int kSubBuckets = 8;
  static constexpr int kBuckets = kOctaves * kSubBuckets;
  static constexpr int kOriginExp = 32;  // octave 0 upper bound = 2^-32

  void record(double v);

  std::int64_t count() const;
  double sum() const;  // approximate: bucket midpoints x counts
  std::int64_t bucket_count(int b) const {
    return buckets_[static_cast<std::size_t>(b)].load(
        std::memory_order_relaxed);
  }
  static double bucket_upper_bound(int b);
  static double octave_upper_bound(int o);
  // Upper bound of the bucket containing the p-quantile (p in [0, 1]).
  double percentile(double p) const;
  void reset();

 private:
  std::array<std::atomic<std::int64_t>, kBuckets> buckets_{};
};

// Records the elapsed time of a scope into a histogram, in microseconds.
// When collection is disabled the constructor reads one atomic and the
// clock is never touched.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& h)
      : h_(enabled() ? &h : nullptr),
        start_us_(h_ != nullptr ? util::monotonic_micros() : 0.0) {}
  ~ScopedTimer() {
    if (h_ != nullptr) h_->record(util::monotonic_micros() - start_us_);
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* h_;
  double start_us_;
};

// Point-in-time copy of one histogram: raw bucket counts plus the derived
// aggregates the Prometheus exposition and perf records need.
struct HistogramSnapshot {
  std::array<std::int64_t, Histogram::kBuckets> buckets{};
  std::int64_t count = 0;
  double sum = 0.0;  // approximate: bucket midpoints x counts
  double p50 = 0.0;  // bucket upper bounds containing each quantile
  double p95 = 0.0;
  double p99 = 0.0;
};

// Name -> instrument registry. Lookup takes a mutex; instruments are stored
// node-stably so returned references remain valid forever. Hot paths are
// expected to cache the reference:
//
//   static obs::Counter& c = obs::counter("timing.sta.runs");
//   c.add();
class Registry {
 public:
  static Registry& instance();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  // Snapshot of every registered counter's current value (including zeros).
  std::map<std::string, std::int64_t> counter_snapshot() const;
  std::map<std::string, double> gauge_snapshot() const;
  std::map<std::string, HistogramSnapshot> histogram_snapshot() const;

  // Zeroes every instrument (registration survives; addresses are stable).
  void reset();

  // Aligned human-readable table of all non-zero instruments (util::Table).
  std::string to_table() const;

 private:
  Registry() = default;

  mutable std::mutex mu_;
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

inline Counter& counter(std::string_view name) {
  return Registry::instance().counter(name);
}
inline Gauge& gauge(std::string_view name) {
  return Registry::instance().gauge(name);
}
inline Histogram& histogram(std::string_view name) {
  return Registry::instance().histogram(name);
}

// Builds the labeled-instrument naming convention understood by the
// Prometheus exposition (obs/expose.h): `family{key="value"}`. The family
// part is translated to a Prometheus name; the label set is emitted
// verbatim (value quotes/backslashes escaped here). Instruments sharing a
// family but differing in label sort adjacently in the registry, so the
// exposition emits one TYPE line per family.
std::string labeled_name(std::string_view family, std::string_view key,
                         std::string_view value);

}  // namespace minergy::obs
