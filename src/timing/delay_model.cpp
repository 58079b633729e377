#include "timing/delay_model.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/metrics.h"
#include "util/check.h"

namespace minergy::timing {
namespace {

// The single hottest counter in the stack: one relaxed add per gate_delay
// or width_terms call; run_sta and GateSizer add theirs once per call.
obs::Counter& gate_evals() {
  static obs::Counter& c = obs::counter("timing.delay.gate_evals");
  return c;
}

}  // namespace

DelayCalculator::DelayCalculator(const netlist::Netlist& nl,
                                 const tech::DeviceModel& dev,
                                 const interconnect::WireLoads& wires)
    : nl_(nl),
      dev_(dev),
      net_cap_(wires.net_caps()),
      net_res_(wires.net_resistances()),
      flight_(wires.flight_times()) {
  MINERGY_CHECK(nl.finalized());
  MINERGY_CHECK(net_cap_.size() == nl.size());
  po_load_cap_ = dev_.technology().po_load_w * dev_.cin_per_wunit();
  cin_ = dev_.cin_per_wunit();
  std::size_t max_fanin = 0;
  for (netlist::GateId id = 0; id < nl.size(); ++id) {
    max_fanin = std::max(max_fanin, nl.fanins_of(id).size());
  }
  for (std::size_t f = 0; f <= max_fanin; ++f) {
    const int fanin = static_cast<int>(f);
    by_fanin_.push_back({dev_.self_cap_per_wunit(fanin),
                         tech::DeviceModel::stack_factor(fanin),
                         static_cast<double>(fanin)});
  }
}

double DelayCalculator::load_cap(netlist::GateId id,
                                 std::span<const double> widths) const {
  check_id(id);
  const double self = widths[id] * consts(id).self_cap;
  return self + receivers(id, widths) + net_cap_[id];
}

DelayComponents DelayCalculator::gate_delay_components(
    netlist::GateId id, std::span<const double> widths, double vdd, double vts,
    double max_fanin_delay) const {
  gate_evals().add();
  return components(id, widths, dev_.operating_point(vdd, vts),
                    max_fanin_delay, nullptr);
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
  gate_evals().add();
  return gate_delay_uncounted(id, widths, op, max_fanin_delay);
}

WidthTerms DelayCalculator::width_terms(netlist::GateId id,
                                        std::span<const double> widths,
                                        const tech::OperatingPoint& op,
                                        double max_fanin_delay) const {
  gate_evals().add();
  return width_terms_uncounted(id, widths, op, max_fanin_delay);
}

WidthTerms DelayCalculator::width_terms_uncounted(
    netlist::GateId id, std::span<const double> widths,
    const tech::OperatingPoint& op, double max_fanin_delay) const {
  double c_recv = 0.0;
  const DelayComponents c =
      components(id, widths, op, max_fanin_delay, &c_recv);
  WidthTerms t;
  t.delay = c.total();
  const GateConsts& g = consts(id);
  const double k = drive_per_wunit(op, g);
  if (k <= 0.0) {
    t.a = t.b = std::numeric_limits<double>::infinity();
    return t;
  }
  t.a = c.slope + 0.5 * op.vdd * g.self_cap / k + c.wire_rc + c.flight;
  t.b = 0.5 * op.vdd * (c_recv + net_cap_[id]) / k;
  return t;
}

double DelayCalculator::gate_delay_min(netlist::GateId id,
                                       std::span<const double> widths,
                                       double vdd, double vts,
                                       double min_fanin_delay) const {
  check_id(id);
  MINERGY_CHECK(nl_.is_logic(id));
  const double w = widths[id];

  static obs::Counter& c_evals = obs::counter("timing.delay.min_gate_evals");
  c_evals.add();

  const double slope = dev_.slope_coefficient(vdd, vts) * min_fanin_delay;
  // Parallel-network transition: no stack division.
  const double drive = w * (dev_.idrive_per_wunit(vdd, vts) -
                            consts(id).fanin * dev_.ioff_per_wunit(vts));
  if (drive <= 0.0) return std::numeric_limits<double>::infinity();
  const double switching = 0.5 * vdd * load_cap(id, widths) / drive;
  const double wire_rc =
      net_res_[id] * (0.5 * net_cap_[id] + receivers(id, widths));
  return slope + switching + wire_rc + flight_[id];
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
