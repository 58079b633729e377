// Per-circuit crash-loop breaker for the optimization service.
//
// A netlist that reliably kills or wedges its worker (a pathological cone,
// a technology corner that NaN-storms, a bug) must not be allowed to eat
// the whole retry/backoff budget of the daemon over and over: after
// `threshold` consecutive worker deaths for one circuit the breaker trips
// and subsequent jobs for that circuit are quarantined immediately
// ("short-circuited") instead of executed. After `cooldown_seconds` the
// breaker goes half-open and lets exactly one probe job through; a clean
// result closes it again, another death re-trips it for a fresh cooldown.
//
// Only infrastructure-level deaths (crash, timeout, worker error) count —
// a typed optimization failure (infeasible, uncertified) is a *result*, not
// a supervision event, and resets the streak like a success does.
//
// State is in-memory per daemon: a restart starts closed, which is safe —
// the jobs a tripped breaker would have short-circuited are still subject
// to their own retry budgets.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace minergy::serve {

struct BreakerOptions {
  int threshold = 3;               // consecutive deaths that trip
  double cooldown_seconds = 30.0;  // open -> half-open delay
};

class CircuitBreaker {
 public:
  explicit CircuitBreaker(BreakerOptions opts = {});

  // A worker for `circuit` produced a result envelope (any verdict).
  void record_success(const std::string& circuit);
  // A worker for `circuit` crashed, timed out, or exited without a result.
  void record_death(const std::string& circuit, double now_unix);

  // True when jobs for `circuit` should be short-circuited to quarantine.
  // In the half-open window this returns false exactly once (the probe) and
  // true again until that probe's outcome is recorded.
  bool should_short_circuit(const std::string& circuit, double now_unix);

  std::vector<std::string> open_circuits(double now_unix) const;

 private:
  struct State {
    int consecutive_deaths = 0;
    bool tripped = false;
    double tripped_at = 0.0;
    bool probe_in_flight = false;
  };

  BreakerOptions opts_;
  std::map<std::string, State> by_circuit_;
};

}  // namespace minergy::serve
