// Monotonic clock shim shared by the observability layer, plus the
// injectable Clock used by the service plane for every duration decision.
//
// All timestamps in traces and perf records are microseconds since a
// process-stable epoch (the first call in the process), so events from
// different modules line up on one axis and the numbers stay small enough
// for exact double arithmetic over any realistic run length.
//
// The service plane (retry not_before, job timestamps) must never misbehave
// when the wall clock steps backwards (NTP slew, VM resume, operator
// `date -s`). Those call sites therefore take their "now" from
// Clock::unix_monotone(): a unix-epoch timestamp whose LEVEL comes from the
// wall clock but whose FORWARD PROGRESS is guaranteed by CLOCK_MONOTONIC —
// it is clamped to be non-decreasing within the process, so a backward wall
// jump can never produce a negative backoff. Tests substitute VirtualClock
// and jump the wall component by ±1 h to prove it.
#pragma once

#include <chrono>

namespace minergy::util {

// Microseconds since the process-stable epoch. Monotonic (steady_clock).
inline double monotonic_micros() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

inline double monotonic_seconds() { return monotonic_micros() * 1e-6; }

// Injectable time source. The two virtual primitives are the raw clocks;
// unix_monotone() composes them into the timestamp the service plane uses.
class Clock {
 public:
  Clock() = default;
  virtual ~Clock() = default;
  Clock(const Clock&) = delete;
  Clock& operator=(const Clock&) = delete;

  // Seconds on a monotonic axis (CLOCK_MONOTONIC). Only differences are
  // meaningful; the epoch is unspecified.
  virtual double monotonic() const;

  // Raw wall clock, seconds since the unix epoch. May jump either way.
  virtual double wall_unix() const;

  // Unix-epoch seconds that never decrease within this process: the wall
  // clock, floor-clamped so that between two calls it advances by at least
  // the CLOCK_MONOTONIC elapsed time. Forward wall jumps pass through
  // (timestamps stay meaningful to external observers); backward jumps are
  // absorbed. Thread-safe.
  double unix_monotone();

  // The process-wide real clock.
  static Clock& system();

 private:
  // Floor state for unix_monotone(): the last returned value and the
  // monotonic reading at which it was returned. Guarded by a mutex in the
  // implementation file (kept out of the header to avoid <mutex> here).
  struct Floor;
  Floor& floor();
};

// Deterministic clock for unit tests. Both axes start at the given values
// and move only when told to; jump_wall() steps the wall clock alone,
// modelling NTP corrections.
class VirtualClock final : public Clock {
 public:
  explicit VirtualClock(double wall_unix0 = 1.7e9, double monotonic0 = 0.0)
      : wall_(wall_unix0), mono_(monotonic0) {}

  double monotonic() const override { return mono_; }
  double wall_unix() const override { return wall_; }

  // Real time passing: both axes advance together.
  void advance(double seconds) {
    mono_ += seconds;
    wall_ += seconds;
  }

  // A wall-clock step (either sign); the monotonic axis is unaffected.
  void jump_wall(double seconds) { wall_ += seconds; }

 private:
  double wall_;
  double mono_;
};

}  // namespace minergy::util
