#include "serve/breaker.h"

#include "obs/eventlog.h"
#include "obs/metrics.h"

namespace minergy::serve {

namespace {

// Per-circuit state gauge: 0 = closed, 0.5 = half-open (probe in flight),
// 1 = open.
void set_state_gauge(const std::string& circuit, double state) {
  obs::gauge(obs::labeled_name("serve.breaker.state", "circuit", circuit))
      .set(state);
}

void breaker_event(const char* kind, const std::string& circuit,
                   const std::string& severity, const std::string& detail) {
  obs::Event e;
  e.kind = kind;
  e.severity = severity;
  e.circuit = circuit;
  e.detail = detail;
  obs::event(e);
}

}  // namespace

CircuitBreaker::CircuitBreaker(BreakerOptions opts) : opts_(opts) {}

void CircuitBreaker::record_success(const std::string& circuit) {
  State& s = by_circuit_[circuit];
  if (s.tripped) {
    obs::counter("serve.breaker.resets").add();
    breaker_event("breaker_close", circuit, "info",
                  "probe succeeded; breaker closed");
  }
  s = State{};
  set_state_gauge(circuit, 0.0);
}

void CircuitBreaker::record_death(const std::string& circuit,
                                  double now_unix) {
  State& s = by_circuit_[circuit];
  ++s.consecutive_deaths;
  if (s.tripped && s.probe_in_flight) {
    // The half-open probe died: re-trip for a fresh cooldown.
    s.probe_in_flight = false;
    s.tripped_at = now_unix;
    obs::counter("serve.breaker.trips").add();
    set_state_gauge(circuit, 1.0);
    breaker_event("breaker_trip", circuit, "warn",
                  "half-open probe died; re-tripped");
    return;
  }
  if (!s.tripped && s.consecutive_deaths >= opts_.threshold) {
    s.tripped = true;
    s.tripped_at = now_unix;
    obs::counter("serve.breaker.trips").add();
    set_state_gauge(circuit, 1.0);
    breaker_event("breaker_trip", circuit, "warn",
                  std::to_string(s.consecutive_deaths) +
                      " consecutive worker deaths");
  }
}

bool CircuitBreaker::should_short_circuit(const std::string& circuit,
                                          double now_unix) {
  auto it = by_circuit_.find(circuit);
  if (it == by_circuit_.end() || !it->second.tripped) return false;
  State& s = it->second;
  if (s.probe_in_flight) return true;
  if (now_unix - s.tripped_at >= opts_.cooldown_seconds) {
    // Half-open: let one probe through; its outcome decides what happens.
    s.probe_in_flight = true;
    obs::counter("serve.breaker.probes").add();
    set_state_gauge(circuit, 0.5);
    breaker_event("breaker_probe", circuit, "info",
                  "cooldown elapsed; admitting one probe");
    return false;
  }
  obs::counter("serve.breaker.short_circuits").add();
  return true;
}

std::vector<std::string> CircuitBreaker::open_circuits(
    double now_unix) const {
  std::vector<std::string> open;
  for (const auto& [circuit, s] : by_circuit_) {
    if (s.tripped &&
        (s.probe_in_flight ||
         now_unix - s.tripped_at < opts_.cooldown_seconds)) {
      open.push_back(circuit);
    }
  }
  return open;
}

}  // namespace minergy::serve
