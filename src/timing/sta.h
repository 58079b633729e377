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

// The fanin side of gate id's forward step, from its fanins' final delays
// and arrivals (both indexed by gate id, 0 at sources): the gate's delay is
// its own Eq. (A3) at max_fanin_delay, and its arrival that delay added to
// `arrival`. Both forms of run_sta and opt::MoveEvaluator time gates
// through this one function, so their results agree bit for bit.
struct FaninScan {
  // The slope input: the largest fanin delay, sources included.
  double max_fanin_delay = 0.0;
  // The latest fanin arrival, to which the gate's own delay is added, and
  // the logic fanin that set it (the last of equal arrivals; kInvalidGate
  // when a source did).
  double arrival = 0.0;
  netlist::GateId worst_fanin = netlist::kInvalidGate;
};
inline FaninScan scan_fanins(const netlist::Netlist& nl, netlist::GateId id,
                             const double* gate_delay,
                             const double* arrival) {
  FaninScan f;
  for (netlist::GateId in : nl.fanins_of(id)) {
    f.max_fanin_delay = std::max(f.max_fanin_delay, gate_delay[in]);
    if (arrival[in] >= f.arrival) {
      f.arrival = arrival[in];
      f.worst_fanin = nl.is_logic(in) ? in : netlist::kInvalidGate;
    }
  }
  return f;
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

  // Required times / slack against a cycle constraint, per gate id. Every
  // width-reading run_sta fills it; the load-term form only when asked to,
  // and leaves it empty otherwise.
  std::vector<double> slack;
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

// The load-term form: each logic gate's delay is terms[id].delay(slowest
// fanin delay), from the terms opt::GateSizer returns with its widths
// (indexed by gate id), so only the slope recurrence is evaluated and no
// fanout load is summed. Bit-identical to the width-reading run_sta at the
// widths and operating points the terms were taken at. The backward pass
// runs only `with_slack`.
TimingReport run_sta(const netlist::Netlist& nl,
                     std::span<const LoadTerms> terms, double cycle_time,
                     bool with_slack);

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
