#include "timing/sta.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "obs/metrics.h"
#include "util/check.h"

namespace minergy::timing {
namespace {

// Both forms of run_sta: the forward pass timing each gate with
// delay_of(id, max_fanin_delay), the critical path, and with_slack the
// backward pass. Counts the run; the caller counts its delay evaluations.
// delay_of is taken by value, so state it carries (an OperatingPointMemo)
// is local here and not reloaded after every store to the report.
template <class DelayOf>
TimingReport analyze(const netlist::Netlist& nl, double cycle_time,
                     bool with_slack, DelayOf delay_of) {
  static obs::Counter& c_runs = obs::counter("timing.sta.runs");
  static obs::Histogram& h_micros = obs::histogram("timing.sta.micros");
  c_runs.add();
  const obs::ScopedTimer timer(h_micros);

  TimingReport r;
  r.gate_delay.assign(nl.size(), 0.0);
  r.arrival.assign(nl.size(), 0.0);

  // Forward pass: delays and arrivals together (slope coupling), in
  // topological order so every fanin is final before it is read.
  std::vector<netlist::GateId> worst_fanin(nl.size(), netlist::kInvalidGate);
  for (netlist::GateId id : nl.combinational()) {
    const FaninScan f =
        scan_fanins(nl, id, r.gate_delay.data(), r.arrival.data());
    const double delay = delay_of(id, f.max_fanin_delay);
    r.gate_delay[id] = delay;
    r.arrival[id] = f.arrival + delay;
    worst_fanin[id] = f.worst_fanin;
  }

  // Critical endpoint.
  const netlist::GateId worst_end = latest_sink(nl, r.arrival.data());
  if (worst_end != netlist::kInvalidGate) {
    r.critical_delay = r.arrival[worst_end];
    for (netlist::GateId id = worst_end; id != netlist::kInvalidGate;
         id = worst_fanin[id]) {
      r.critical_path.push_back(id);
    }
    std::reverse(r.critical_path.begin(), r.critical_path.end());
  }
  if (!with_slack) return r;

  // Backward pass: required times -> slack. Pull form of the classic
  // push-form relaxation: a gate's required time is the min over its
  // combinational fanouts of (their required - their delay), seeded with
  // cycle_time at sink drivers. Reverse topological order makes every
  // fanout final before it is pulled from.
  r.slack.assign(nl.size(), 0.0);
  std::vector<double> required(nl.size(),
                               std::numeric_limits<double>::infinity());
  std::vector<char> is_sink(nl.size(), 0);
  for (netlist::GateId id : nl.sink_drivers()) is_sink[id] = 1;
  const auto& topo = nl.combinational();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const netlist::GateId id = *it;
    double req = is_sink[id] ? cycle_time
                             : std::numeric_limits<double>::infinity();
    for (netlist::GateId o : nl.fanouts_of(id)) {
      if (nl.is_logic(o)) {
        req = std::min(req, required[o] - r.gate_delay[o]);
      }
    }
    required[id] = req;
  }
  for (netlist::GateId id : nl.combinational()) {
    r.slack[id] = std::isinf(required[id]) ? cycle_time - r.arrival[id]
                                           : required[id] - r.arrival[id];
  }
  return r;
}

}  // namespace

TimingReport run_sta(const DelayCalculator& calc,
                     std::span<const double> widths, double vdd,
                     std::span<const double> vts, double cycle_time) {
  std::vector<double> v(calc.netlist().size(), vdd);
  return run_sta(calc, widths, std::span<const double>(v), vts, cycle_time);
}

TimingReport run_sta(const DelayCalculator& calc,
                     std::span<const double> widths,
                     std::span<const double> vdd,
                     std::span<const double> vts, double cycle_time) {
  const netlist::Netlist& nl = calc.netlist();
  MINERGY_CHECK(widths.size() == nl.size());
  MINERGY_CHECK(vdd.size() == nl.size());
  MINERGY_CHECK(vts.size() == nl.size());
  // One delay eval and load sum per logic gate, added in bulk.
  const auto gates = static_cast<std::int64_t>(nl.num_combinational());
  count_delay_work(gates, gates);
  return analyze(nl, cycle_time, /*with_slack=*/true,
                 [&calc, widths, vdd, vts,
                  op = tech::OperatingPointMemo(calc.device())](
                     netlist::GateId id, double max_fanin_delay) mutable {
                   return calc.gate_delay_uncounted(
                       id, widths, op.at(vdd[id], vts[id]), max_fanin_delay);
                 });
}

TimingReport run_sta(const netlist::Netlist& nl,
                     std::span<const LoadTerms> terms, double cycle_time,
                     bool with_slack) {
  MINERGY_CHECK(terms.size() == nl.size());
  // One delay eval per logic gate, added in bulk; no load sums.
  count_delay_work(static_cast<std::int64_t>(nl.num_combinational()), 0);
  return analyze(nl, cycle_time, with_slack,
                 [terms](netlist::GateId id, double max_fanin_delay) {
                   return terms[id].delay(max_fanin_delay);
                 });
}

TimingReport run_sta(const DelayCalculator& calc,
                     std::span<const double> widths, double vdd, double vts,
                     double cycle_time) {
  std::vector<double> v(calc.netlist().size(), vts);
  return run_sta(calc, widths, vdd, std::span<const double>(v), cycle_time);
}

MinTimingReport run_min_sta(const DelayCalculator& calc,
                            std::span<const double> widths, double vdd,
                            std::span<const double> vts) {
  const netlist::Netlist& nl = calc.netlist();
  MINERGY_CHECK(widths.size() == nl.size());
  MINERGY_CHECK(vts.size() == nl.size());

  static obs::Counter& c_runs = obs::counter("timing.sta.min_runs");
  c_runs.add();

  MinTimingReport r;
  r.gate_delay.assign(nl.size(), 0.0);
  r.arrival.assign(nl.size(), 0.0);
  std::vector<netlist::GateId> best_fanin(nl.size(), netlist::kInvalidGate);

  for (netlist::GateId id : nl.combinational()) {
    const std::span<const netlist::GateId> fanins = nl.fanins_of(id);
    double min_fanin_delay = std::numeric_limits<double>::infinity();
    double min_fanin_arrival = std::numeric_limits<double>::infinity();
    netlist::GateId argmin = netlist::kInvalidGate;
    for (netlist::GateId f : fanins) {
      min_fanin_delay = std::min(min_fanin_delay, r.gate_delay[f]);
      if (r.arrival[f] <= min_fanin_arrival) {
        min_fanin_arrival = r.arrival[f];
        argmin = nl.is_logic(f) ? f : netlist::kInvalidGate;
      }
    }
    if (fanins.empty()) {
      min_fanin_delay = 0.0;
      min_fanin_arrival = 0.0;
    }
    r.gate_delay[id] =
        calc.gate_delay_min(id, widths, vdd, vts[id], min_fanin_delay);
    r.arrival[id] = min_fanin_arrival + r.gate_delay[id];
    best_fanin[id] = argmin;
  }

  netlist::GateId best_end = netlist::kInvalidGate;
  for (netlist::GateId id : nl.sink_drivers()) {
    if (best_end == netlist::kInvalidGate ||
        r.arrival[id] < r.arrival[best_end]) {
      best_end = id;
    }
  }
  if (best_end != netlist::kInvalidGate) {
    r.shortest_delay = r.arrival[best_end];
    for (netlist::GateId id = best_end; id != netlist::kInvalidGate;
         id = best_fanin[id]) {
      r.shortest_path.push_back(id);
    }
    std::reverse(r.shortest_path.begin(), r.shortest_path.end());
  }
  return r;
}

bool hold_safe(const MinTimingReport& report, double hold_margin) {
  return report.shortest_delay >= hold_margin;
}

}  // namespace minergy::timing
