#include "power/energy_model.h"

#include <vector>

#include "obs/metrics.h"
#include "util/check.h"

namespace minergy::power {

EnergyModel::EnergyModel(const netlist::Netlist& nl,
                         const tech::DeviceModel& dev,
                         const interconnect::WireLoads& wires,
                         const activity::ActivityResult& act,
                         double clock_frequency)
    : nl_(nl), dev_(dev), wires_(wires), act_(act), fc_(clock_frequency) {
  MINERGY_CHECK(nl.finalized());
  MINERGY_CHECK(clock_frequency > 0.0);
  MINERGY_CHECK(act.density.size() == nl.size());
  po_load_cap_ = dev_.technology().po_load_w * dev_.cin_per_wunit();
}

EnergyBreakdown EnergyModel::gate_energy(netlist::GateId id,
                                         std::span<const double> widths,
                                         double vdd, double vts) const {
  return gate_energy_at(id, widths, vdd, dev_.ioff_per_wunit(vts));
}

EnergyBreakdown EnergyModel::gate_energy(netlist::GateId id,
                                         std::span<const double> widths,
                                         const tech::OperatingPoint& op) const {
  return gate_energy_at(id, widths, op.vdd, op.ioff);
}

EnergyBreakdown EnergyModel::gate_energy_at(netlist::GateId id,
                                            std::span<const double> widths,
                                            double vdd, double ioff) const {
  const netlist::Gate& g = nl_.gate(id);
  MINERGY_CHECK(netlist::is_combinational(g.type));
  const double w = widths[id];

  static obs::Counter& c_evals = obs::counter("power.energy.gate_evals");
  c_evals.add();

  EnergyBreakdown e;
  // E_s = Vdd * w * Ioff / f_c (leakage flows for the full cycle).
  e.static_energy = vdd * w * ioff / fc_;

  // Switched capacitance: own parasitics + stack internals + receiver
  // inputs + wire.
  const double fin = static_cast<double>(g.fanin_count());
  double cap =
      w * (dev_.cpar_per_wunit() + (fin - 1.0) * dev_.cmid_per_wunit());
  for (netlist::GateId out : g.fanouts) {
    cap += netlist::is_combinational(nl_.gate(out).type)
               ? widths[out] * dev_.cin_per_wunit()
               : po_load_cap_;
  }
  if (g.is_primary_output) cap += po_load_cap_;
  cap += wires_.net_cap(id);

  e.dynamic_energy = 0.5 * act_.density[id] * vdd * vdd * cap;
  return e;
}

double EnergyModel::short_circuit_energy(netlist::GateId id,
                                         std::span<const double> widths,
                                         double vdd, double vts,
                                         double input_transition) const {
  const netlist::Gate& g = nl_.gate(id);
  MINERGY_CHECK(netlist::is_combinational(g.type));
  static obs::Counter& c_evals =
      obs::counter("power.energy.short_circuit_evals");
  c_evals.add();
  const double window = vdd - 2.0 * vts;
  if (window <= 0.0 || input_transition <= 0.0) return 0.0;
  const double i_mid = widths[id] * dev_.idrive_per_wunit(0.5 * vdd, vts) /
                       tech::DeviceModel::stack_factor(g.fanin_count());
  return act_.density[id] / 6.0 * i_mid * input_transition * window;
}

EnergyBreakdown EnergyModel::total_energy(std::span<const double> widths,
                                          double vdd,
                                          std::span<const double> vts) const {
  MINERGY_CHECK(widths.size() == nl_.size());
  MINERGY_CHECK(vts.size() == nl_.size());
  EnergyBreakdown total;
  tech::OperatingPointMemo op(dev_);
  for (netlist::GateId id : nl_.combinational()) {
    total += gate_energy(id, widths, op.at(vdd, vts[id]));
  }
  return total;
}

EnergyBreakdown EnergyModel::total_energy(std::span<const double> widths,
                                          double vdd, double vts) const {
  std::vector<double> v(nl_.size(), vts);
  return total_energy(widths, vdd, std::span<const double>(v));
}

double EnergyModel::total_power(std::span<const double> widths, double vdd,
                                double vts) const {
  return total_energy(widths, vdd, vts).total() * fc_;
}

}  // namespace minergy::power
