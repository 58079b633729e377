#include "power/energy_model.h"

#include <cstdint>
#include <vector>

#include "obs/metrics.h"
#include "util/check.h"

namespace minergy::power {

namespace {

obs::Counter& energy_evals() {
  static obs::Counter& c = obs::counter("power.energy.gate_evals");
  return c;
}

}  // namespace

EnergyModel::EnergyModel(const netlist::Netlist& nl,
                         const tech::DeviceModel& dev,
                         const interconnect::WireLoads& wires,
                         const activity::ActivityResult& act,
                         double clock_frequency)
    : nl_(nl),
      dev_(dev),
      act_(act),
      net_cap_(wires.net_caps()),
      fc_(clock_frequency) {
  MINERGY_CHECK(nl.finalized());
  MINERGY_CHECK(clock_frequency > 0.0);
  MINERGY_CHECK(act.density.size() == nl.size());
  MINERGY_CHECK(net_cap_.size() == nl.size());
  po_load_cap_ = dev_.technology().po_load_w * dev_.cin_per_wunit();
  cin_ = dev_.cin_per_wunit();
}

EnergyBreakdown EnergyModel::gate_energy(netlist::GateId id,
                                         std::span<const double> widths,
                                         double vdd, double vts) const {
  energy_evals().add();
  return gate_energy_at(id, widths, vdd, dev_.ioff_per_wunit(vts));
}

EnergyBreakdown EnergyModel::gate_energy(netlist::GateId id,
                                         std::span<const double> widths,
                                         const tech::OperatingPoint& op) const {
  energy_evals().add();
  return gate_energy_at(id, widths, op.vdd, op.ioff);
}

double EnergyModel::short_circuit_energy(netlist::GateId id,
                                         std::span<const double> widths,
                                         double vdd, double vts,
                                         double input_transition) const {
  MINERGY_CHECK(id < nl_.size());
  MINERGY_CHECK(nl_.is_logic(id));
  static obs::Counter& c_evals =
      obs::counter("power.energy.short_circuit_evals");
  c_evals.add();
  const double window = vdd - 2.0 * vts;
  if (window <= 0.0 || input_transition <= 0.0) return 0.0;
  const double i_mid =
      widths[id] * dev_.idrive_per_wunit(0.5 * vdd, vts) /
      tech::DeviceModel::stack_factor(
          static_cast<int>(nl_.fanins_of(id).size()));
  return act_.density[id] / 6.0 * i_mid * input_transition * window;
}

EnergyBreakdown EnergyModel::total_energy(std::span<const double> widths,
                                          double vdd,
                                          std::span<const double> vts) const {
  MINERGY_CHECK(widths.size() == nl_.size());
  MINERGY_CHECK(vts.size() == nl_.size());
  energy_evals().add(static_cast<std::int64_t>(nl_.num_combinational()));
  EnergyBreakdown total;
  tech::OperatingPointMemo op(dev_);
  for (netlist::GateId id : nl_.combinational()) {
    total += gate_energy_uncounted(id, widths, op.at(vdd, vts[id]));
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
