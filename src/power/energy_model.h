// Energy models (Appendix A.1 of the paper).
//
// Static energy per cycle of gate i:   E_si = Vdd * w_i * Ioff / f_c
// Dynamic energy per cycle of gate i:
//   E_di = 1/2 * a_i * Vdd^2 * [ w_i*(C_PD + (f_in-1)*C_m)
//                                + sum_j (w_j*C_t + C_INT_j) ]
// where a_i is the transition density at the gate's output. The paper
// neglects short-circuit dissipation (an order of magnitude below switching
// under typical slopes; Veendrick 1984) but announces it for "the next
// version of the optimization tool" — we implement that next version as an
// optional component:
//
//   E_sc,i = a_i/6 * w_i * I_D(Vdd/2, Vts) * tau_in * max(0, Vdd - 2*Vts)
//
// a Veendrick-style estimate built from the same transregional current:
// during an input ramp of duration tau_in both networks conduct roughly the
// midpoint current over the (Vdd - 2*Vts)/Vdd fraction of the swing. It
// vanishes smoothly in subthreshold operation, where I_D(Vdd/2, Vts) is
// exponentially small.
#pragma once

#include <span>

#include "activity/activity.h"
#include "interconnect/wire_model.h"
#include "netlist/netlist.h"
#include "tech/device_model.h"
#include "util/check.h"

namespace minergy::power {

struct EnergyBreakdown {
  double static_energy = 0.0;         // J per cycle
  double dynamic_energy = 0.0;        // J per cycle
  double short_circuit_energy = 0.0;  // J per cycle (optional component)

  double total() const {
    return static_energy + dynamic_energy + short_circuit_energy;
  }

  EnergyBreakdown& operator+=(const EnergyBreakdown& other) {
    static_energy += other.static_energy;
    dynamic_energy += other.dynamic_energy;
    short_circuit_energy += other.short_circuit_energy;
    return *this;
  }
};

// Reads the same flat per-gate inputs as timing::DelayCalculator: the
// netlist's CSR adjacency and role bytes, the wire model's per-net net_cap
// table and DeviceModel::self_cap_per_wunit; no per-model copy of them.
class EnergyModel {
 public:
  // clock_frequency is f_c (Hz); activities are transitions per cycle.
  EnergyModel(const netlist::Netlist& nl, const tech::DeviceModel& dev,
              const interconnect::WireLoads& wires,
              const activity::ActivityResult& act, double clock_frequency);

  double clock_frequency() const { return fc_; }

  // Energy per cycle of one logic gate at the given operating point
  // (static + dynamic; short-circuit is opt-in below). Each call adds one to
  // power.energy.gate_evals.
  EnergyBreakdown gate_energy(netlist::GateId id,
                              std::span<const double> widths, double vdd,
                              double vts) const;
  // Same, with the device terms precomputed (DeviceModel::operating_point);
  // bit-identical to the (vdd, vts) form, which wraps it.
  EnergyBreakdown gate_energy(netlist::GateId id,
                              std::span<const double> widths,
                              const tech::OperatingPoint& op) const;
  // Same, without the counter bump, for loops that add their evaluation
  // count once per call (total_energy, opt::CircuitEvaluator::energy).
  EnergyBreakdown gate_energy_uncounted(netlist::GateId id,
                                        std::span<const double> widths,
                                        const tech::OperatingPoint& op) const {
    return gate_energy_at(id, widths, op.vdd, op.ioff);
  }

  // Short-circuit energy per cycle for an input transition time tau_in (s).
  double short_circuit_energy(netlist::GateId id,
                              std::span<const double> widths, double vdd,
                              double vts, double input_transition) const;

  // Switched capacitance of logic gate id, the bracket of E_di: its own
  // parasitics and stack internals, then the receiver inputs of its
  // fanouts in netlist order, the primary-output pin and the wire. One pass
  // over its fanouts; uncounted.
  double switched_cap(netlist::GateId id,
                      std::span<const double> widths) const {
    MINERGY_CHECK(id < nl_.size());
    MINERGY_CHECK(nl_.is_logic(id));
    double cap = widths[id] * dev_.self_cap_per_wunit(
                                  static_cast<int>(nl_.fanins_of(id).size()));
    for (const netlist::GateId out : nl_.fanouts_of(id)) {
      cap += nl_.is_logic(out) ? widths[out] * cin_ : po_load_cap_;
    }
    if (nl_.is_po(id)) cap += po_load_cap_;
    return cap + net_cap_[id];
  }

  // E_si and E_di of one gate of width w, switched capacitance `cap`,
  // transition density `density` and leakage `ioff` per width unit at
  // supply vdd and clock fc: the one place Eq. (A1) is evaluated (every
  // gate_energy and opt::MoveEvaluator call it).
  static EnergyBreakdown gate_terms(double w, double cap, double density,
                                    double vdd, double ioff, double fc) {
    EnergyBreakdown e;
    // E_s = Vdd * w * Ioff / f_c (leakage flows for the full cycle).
    e.static_energy = vdd * w * ioff / fc;
    e.dynamic_energy = 0.5 * density * vdd * vdd * cap;
    return e;
  }

  // Network total over all logic gates. vts indexed by gate id.
  EnergyBreakdown total_energy(std::span<const double> widths, double vdd,
                               std::span<const double> vts) const;
  EnergyBreakdown total_energy(std::span<const double> widths, double vdd,
                               double vts) const;

  // Average power (W) = energy per cycle * f_c.
  double total_power(std::span<const double> widths, double vdd,
                     double vts) const;

 private:
  // gate_energy with the leakage current per width unit already evaluated;
  // uncounted.
  EnergyBreakdown gate_energy_at(netlist::GateId id,
                                 std::span<const double> widths, double vdd,
                                 double ioff) const {
    const double cap = switched_cap(id, widths);
    return gate_terms(widths[id], cap, act_.density[id], vdd, ioff, fc_);
  }

  const netlist::Netlist& nl_;
  const tech::DeviceModel& dev_;
  const activity::ActivityResult& act_;
  std::span<const double> net_cap_;  // the wire model's per-net table
  double fc_;
  double po_load_cap_;
  double cin_;
};

}  // namespace minergy::power
