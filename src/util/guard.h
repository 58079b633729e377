// Numeric guards and runaway-search watchdogs.
//
// The transregional delay model is numerically treacherous near Vdd ≈ Vts:
// subthreshold currents are exponentially small, every delay divides by a
// drive current, and energies scale with Vdd^2 over many orders of
// magnitude. A degenerate technology file or pathological netlist can push
// any of those past double precision, and a NaN that enters STA silently
// propagates into the "optimal" energy result. These helpers convert such
// silent corruption into typed, contextual errors at the module boundaries
// (see docs/ROBUSTNESS.md for the full taxonomy), and bound every nested
// search with a wall-clock/evaluation-count budget so ill-conditioned cost
// surfaces stall a probe, not the process.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

namespace minergy::util {

// Thrown when a model or analysis produces a non-finite (or otherwise
// non-physical) value. `context` names the quantity and, when known, the
// gate or net it was computed for, so the failure is actionable.
class NumericError : public std::runtime_error {
 public:
  NumericError(double value, const std::string& context);

  double value() const { return value_; }
  const std::string& context() const { return context_; }

 private:
  double value_;
  std::string context_;
};

// Returns `value` unchanged when it is finite; throws NumericError otherwise.
double finite_or_throw(double value, const std::string& context);

// Same, additionally requiring value >= 0 (delays, energies, capacitances).
double finite_nonneg_or_throw(double value, const std::string& context);

// Resource budget for one optimization run. Default-constructed budgets are
// unlimited, so existing call sites pay nothing for the plumbing.
struct WatchdogBudget {
  // Wall-clock limit in seconds; infinity = unlimited.
  double wall_seconds = std::numeric_limits<double>::infinity();
  // Circuit-evaluation (size + STA + energy pass) limit; <= 0 = unlimited.
  std::int64_t max_evaluations = 0;

  bool unlimited() const {
    return wall_seconds == std::numeric_limits<double>::infinity() &&
           max_evaluations <= 0;
  }
};

// Deadline + evaluation-count watchdog. Optimizers call note_evaluation()
// once per circuit evaluation and poll expired() between probes; an expired
// watchdog means "stop searching and return the best state seen so far,
// flagged truncated" — it is a budget, not an error.
class Watchdog {
 public:
  // Unlimited watchdog: never expires.
  Watchdog() : Watchdog(WatchdogBudget{}) {}
  // The wall clock starts at construction; restart() rewinds it.
  explicit Watchdog(const WatchdogBudget& budget);

  void restart();

  // Counts `n` circuit evaluations; returns expired() for convenience.
  bool note_evaluation(std::int64_t n = 1);

  bool expired() const;
  // nullptr while not expired; otherwise a stable description of which
  // budget ran out ("evaluation budget" / "wall-clock deadline").
  const char* expiry_reason() const;

  std::int64_t evaluations() const {
    return evaluations_.load(std::memory_order_relaxed);
  }
  double elapsed_seconds() const;
  const WatchdogBudget& budget() const { return budget_; }

 private:
  WatchdogBudget budget_;
  std::chrono::steady_clock::time_point start_;
  // Atomic, so one watchdog may be shared by several threads; the count is
  // a budget, not a result, so relaxed ordering is enough.
  std::atomic<std::int64_t> evaluations_{0};
};

}  // namespace minergy::util
