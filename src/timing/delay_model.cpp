#include "timing/delay_model.h"

#include <cmath>
#include <limits>

#include "obs/metrics.h"
#include "util/check.h"

namespace minergy::timing {

DelayCalculator::DelayCalculator(const netlist::Netlist& nl,
                                 const tech::DeviceModel& dev,
                                 const interconnect::WireLoads& wires)
    : nl_(nl), dev_(dev), wires_(wires) {
  MINERGY_CHECK(nl.finalized());
  po_load_cap_ = dev_.technology().po_load_w * dev_.cin_per_wunit();
}

double DelayCalculator::receiver_cap(netlist::GateId id,
                                     std::span<const double> widths) const {
  const netlist::Gate& g = nl_.gate(id);
  double c = g.is_primary_output ? po_load_cap_ : 0.0;
  for (netlist::GateId out : g.fanouts) {
    if (netlist::is_combinational(nl_.gate(out).type)) {
      c += widths[out] * dev_.cin_per_wunit();
    } else {
      c += po_load_cap_;  // DFF D-pin
    }
  }
  return c;
}

double DelayCalculator::self_cap_per_wunit(int fanin) const {
  return dev_.cpar_per_wunit() +
         (static_cast<double>(fanin) - 1.0) * dev_.cmid_per_wunit();
}

double DelayCalculator::load_cap(netlist::GateId id,
                                 std::span<const double> widths) const {
  const double self =
      widths[id] * self_cap_per_wunit(nl_.gate(id).fanin_count());
  return self + receiver_cap(id, widths) + wires_.net_cap(id);
}

namespace {

// Per-width-unit drive of a gate with `fanin` inputs: the stack-divided
// switching current less the leakage of its fanin off-devices.
double drive_per_wunit(const tech::OperatingPoint& op, int fanin) {
  return op.idrive / tech::DeviceModel::stack_factor(fanin) -
         static_cast<double>(fanin) * op.ioff;
}

}  // namespace

DelayComponents DelayCalculator::gate_delay_components(
    netlist::GateId id, std::span<const double> widths, double vdd, double vts,
    double max_fanin_delay) const {
  return components(id, widths, dev_.operating_point(vdd, vts),
                    max_fanin_delay, nullptr);
}

DelayComponents DelayCalculator::components(netlist::GateId id,
                                            std::span<const double> widths,
                                            const tech::OperatingPoint& op,
                                            double max_fanin_delay,
                                            double* c_recv) const {
  const netlist::Gate& g = nl_.gate(id);
  MINERGY_CHECK(netlist::is_combinational(g.type));
  const double w = widths[id];

  // The single hottest call in the stack (every STA gate visit and every
  // width solve lands here); the counter is one relaxed add.
  static obs::Counter& c_evals = obs::counter("timing.delay.gate_evals");
  c_evals.add();

  DelayComponents c;
  c.slope = op.k_slope * max_fanin_delay;

  const double drive = w * drive_per_wunit(op, g.fanin_count());
  if (drive <= 0.0) {
    c.switching = std::numeric_limits<double>::infinity();
    return c;
  }
  // load_cap(), with the receiver sum shared by the wire-RC term.
  const double recv = receiver_cap(id, widths);
  const double net = wires_.net_cap(id);
  const double load = w * self_cap_per_wunit(g.fanin_count()) + recv + net;
  c.switching = 0.5 * op.vdd * load / drive;
  c.wire_rc = wires_.net_res(id) * (0.5 * net + recv);
  c.flight = wires_.flight_time(id);
  if (c_recv != nullptr) *c_recv = recv;
  return c;
}

double DelayCalculator::gate_delay(netlist::GateId id,
                                   std::span<const double> widths, double vdd,
                                   double vts, double max_fanin_delay) const {
  return gate_delay(id, widths, dev_.operating_point(vdd, vts),
                    max_fanin_delay);
}

double DelayCalculator::gate_delay(netlist::GateId id,
                                   std::span<const double> widths,
                                   const tech::OperatingPoint& op,
                                   double max_fanin_delay) const {
  return components(id, widths, op, max_fanin_delay, nullptr).total();
}

WidthTerms DelayCalculator::width_terms(netlist::GateId id,
                                        std::span<const double> widths,
                                        const tech::OperatingPoint& op,
                                        double max_fanin_delay) const {
  double c_recv = 0.0;
  const DelayComponents c =
      components(id, widths, op, max_fanin_delay, &c_recv);
  WidthTerms t;
  t.delay = c.total();
  const int fin = nl_.gate(id).fanin_count();
  const double k = drive_per_wunit(op, fin);
  if (k <= 0.0) {
    t.a = t.b = std::numeric_limits<double>::infinity();
    return t;
  }
  t.a = c.slope + 0.5 * op.vdd * self_cap_per_wunit(fin) / k + c.wire_rc +
        c.flight;
  t.b = 0.5 * op.vdd * (c_recv + wires_.net_cap(id)) / k;
  return t;
}

double DelayCalculator::gate_delay_min(netlist::GateId id,
                                       std::span<const double> widths,
                                       double vdd, double vts,
                                       double min_fanin_delay) const {
  const netlist::Gate& g = nl_.gate(id);
  MINERGY_CHECK(netlist::is_combinational(g.type));
  const double w = widths[id];
  const int fin = g.fanin_count();

  static obs::Counter& c_evals = obs::counter("timing.delay.min_gate_evals");
  c_evals.add();

  const double slope = dev_.slope_coefficient(vdd, vts) * min_fanin_delay;
  // Parallel-network transition: no stack division.
  const double drive =
      w * (dev_.idrive_per_wunit(vdd, vts) -
           static_cast<double>(fin) * dev_.ioff_per_wunit(vts));
  if (drive <= 0.0) return std::numeric_limits<double>::infinity();
  const double switching = 0.5 * vdd * load_cap(id, widths) / drive;
  const double wire_rc = wires_.net_res(id) *
                         (0.5 * wires_.net_cap(id) + receiver_cap(id, widths));
  return slope + switching + wire_rc + wires_.flight_time(id);
}

double DelayCalculator::intrinsic_delay_floor(netlist::GateId id,
                                              std::span<const double> widths,
                                              double vdd, double vts) const {
  // Evaluate at maximum width with zero fanin delay: everything except the
  // slope term, at the strongest drive the technology allows.
  std::vector<double> w(widths.begin(), widths.end());
  w[id] = dev_.technology().w_max;
  return gate_delay(id, w, vdd, vts, 0.0);
}

}  // namespace minergy::timing
