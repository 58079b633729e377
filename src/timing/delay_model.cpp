#include "timing/delay_model.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/metrics.h"
#include "util/check.h"

namespace minergy::timing {

// The hottest counters in the stack: each gate_delay / width_terms call
// adds one to both; run_sta, opt::GateSizer and opt::MoveEvaluator add
// theirs once per call, a load sum only where they read fanout widths.
void count_delay_work(std::int64_t gate_evals, std::int64_t load_sums) {
  static obs::Counter& c_evals = obs::counter("timing.delay.gate_evals");
  static obs::Counter& c_sums = obs::counter("timing.delay.load_sums");
  c_evals.add(gate_evals);
  c_sums.add(load_sums);
}

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

WidthTerms WidthCurve::terms(double w) const {
  const DelayComponents c = components(w);
  WidthTerms t;
  t.delay = c.total();
  const double k = drive_.per_wunit;
  if (k <= 0.0) {
    t.a = t.b = std::numeric_limits<double>::infinity();
    return t;
  }
  // A dead drive (w <= 0 here) left the wire terms at 0 in c; the receiver
  // load goes with them.
  const double recv = w * k <= 0.0 ? 0.0 : load_.recv;
  t.a = c.slope + drive_.half_vdd * load_.self_cap / k + c.wire_rc + c.flight;
  t.b = drive_.half_vdd * (recv + load_.net) / k;
  return t;
}

DelayComponents DelayCalculator::gate_delay_components(
    netlist::GateId id, std::span<const double> widths, double vdd, double vts,
    double max_fanin_delay) const {
  count_delay_work(1, 1);
  return curve(id, widths, dev_.operating_point(vdd, vts), max_fanin_delay)
      .components(widths[id]);
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
  count_delay_work(1, 1);
  return gate_delay_uncounted(id, widths, op, max_fanin_delay);
}

WidthTerms DelayCalculator::width_terms(netlist::GateId id,
                                        std::span<const double> widths,
                                        const tech::OperatingPoint& op,
                                        double max_fanin_delay) const {
  count_delay_work(1, 1);
  return curve(id, widths, op, max_fanin_delay).terms(widths[id]);
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
