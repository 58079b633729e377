// Static timing analysis over the combinational core.
//
// Gate delays couple through the input-slope term (a gate's delay depends on
// its slowest fanin's *delay*, Eq. A3), so delays and arrivals are both
// computed in one topological pass.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "timing/delay_model.h"

namespace minergy::timing {

// One gate of the forward pass.
struct ForwardStep {
  double delay = 0.0;
  double arrival = 0.0;
  // The logic fanin that set the arrival (the last of equal arrivals);
  // kInvalidGate when a source did.
  netlist::GateId worst_fanin = netlist::kInvalidGate;
};

// Gate id's delay and arrival from its fanins' final delays and arrivals
// (both indexed by gate id, 0 at sources): the slope input is the largest
// fanin delay, sources included, and the arrival the latest fanin arrival
// plus the gate's own delay. run_sta and opt::MoveEvaluator both time
// gates with this one function, so their results agree bit for bit.
// Uncounted: callers add their timing.delay.gate_evals in bulk.
inline ForwardStep forward_step(const DelayCalculator& calc,
                                netlist::GateId id,
                                std::span<const double> widths,
                                const tech::OperatingPoint& op,
                                const double* gate_delay,
                                const double* arrival) {
  const netlist::Netlist& nl = calc.netlist();
  double max_fanin_delay = 0.0;
  ForwardStep s;
  for (netlist::GateId f : nl.fanins_of(id)) {
    max_fanin_delay = std::max(max_fanin_delay, gate_delay[f]);
    if (arrival[f] >= s.arrival) {
      s.arrival = arrival[f];
      s.worst_fanin = nl.is_logic(f) ? f : netlist::kInvalidGate;
    }
  }
  s.delay = calc.gate_delay_uncounted(id, widths, op, max_fanin_delay);
  s.arrival += s.delay;
  return s;
}

// The sink driver (primary-output or DFF D-pin driver) with the latest
// arrival, the first of equal ones; kInvalidGate when there is none. Its
// arrival is the critical delay.
inline netlist::GateId latest_sink(const netlist::Netlist& nl,
                                   const double* arrival) {
  netlist::GateId worst = netlist::kInvalidGate;
  for (netlist::GateId id : nl.sink_drivers()) {
    if (worst == netlist::kInvalidGate || arrival[id] > arrival[worst]) {
      worst = id;
    }
  }
  return worst;
}

struct TimingReport {
  std::vector<double> gate_delay;  // per gate id; 0 for sources
  std::vector<double> arrival;     // per gate id; 0 at sources
  double critical_delay = 0.0;     // max arrival over PO / DFF-D drivers
  std::vector<netlist::GateId> critical_path;  // source-side first

  // Required times / slack against a cycle constraint.
  std::vector<double> slack;  // per gate id (filled by run_sta)
};

// vts is indexed by gate id (per-gate thresholds support the paper's
// multiple-threshold mode; pass the same value everywhere for n_v = 1).
TimingReport run_sta(const DelayCalculator& calc, std::span<const double> widths,
                     double vdd, std::span<const double> vts,
                     double cycle_time);

// Convenience overload: uniform threshold.
TimingReport run_sta(const DelayCalculator& calc, std::span<const double> widths,
                     double vdd, double vts, double cycle_time);

// Fully per-gate operating point (multiple supply *and* threshold
// voltages — the paper's "more than one threshold or power supply voltage
// if desired"). vdd indexed by gate id.
TimingReport run_sta(const DelayCalculator& calc, std::span<const double> widths,
                     std::span<const double> vdd, std::span<const double> vts,
                     double cycle_time);

// --- Min-delay (hold) analysis ---------------------------------------------

struct MinTimingReport {
  std::vector<double> gate_delay;  // contamination delay per gate id
  std::vector<double> arrival;     // earliest arrival per gate id
  // Shortest source-to-sink path delay (the hold-critical number).
  double shortest_delay = 0.0;
  std::vector<netlist::GateId> shortest_path;  // source-side first
};

// Earliest-arrival propagation using the best-case gate delays. A register
// transfer is hold-safe when shortest_delay >= hold_margin (e.g. the
// (1 - b) * T_c skew budget the max-delay side reserved).
MinTimingReport run_min_sta(const DelayCalculator& calc,
                            std::span<const double> widths, double vdd,
                            std::span<const double> vts);

bool hold_safe(const MinTimingReport& report, double hold_margin);

}  // namespace minergy::timing
