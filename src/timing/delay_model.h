// Transregional gate-delay model (Eq. A3 of the paper).
//
// The worst-case propagation delay of gate i is the sum of four components:
//
//   t_di = k_slope(Vts/Vdd) * max_j t_d(fanin_j)            (input slope)
//        + (Vdd/2) * C_L / (I_D*w_i/s_stack - f_in*w_i*Ioff) (switching)
//        + R_INT * (C_INT/2 + C_receivers)                   (wire RC)
//        + L_INT / v                                         (time of flight)
//
// with C_L = w_i*(C_PD + (f_in-1)*C_m) + sum_j (w_j*C_t + C_INT).
// The drive current is the transregional alpha-power model from tech/, so
// the same expression covers super- and subthreshold operation.
#pragma once

#include <limits>
#include <span>
#include <vector>

#include "interconnect/wire_model.h"
#include "netlist/netlist.h"
#include "tech/device_model.h"
#include "util/check.h"

namespace minergy::timing {

struct DelayComponents {
  double slope = 0.0;
  double switching = 0.0;
  double wire_rc = 0.0;
  double flight = 0.0;
  double total() const { return slope + switching + wire_rc + flight; }
};

// The delay of one gate as a function of its own width w, with the fanout
// widths, the slope input and the operating point held fixed. Eq. (A3) is
// then exactly d(w) = a + b/w: the self-load part of C_L scales with w like
// the drive does, the receiver and wire load do not.
struct WidthTerms {
  double a = 0.0;  // slope + self-load switching + wire RC + flight (s)
  double b = 0.0;  // (Vdd/2) * (C_receivers + C_INT) / k  (s * width)
  // gate_delay(...) at the width the terms were taken at, bit for bit.
  double delay = 0.0;
};

// Bound to one netlist / technology / wire model; stateless over the
// optimization variables (widths, Vdd, Vts), which are passed per call so
// the optimizer can probe candidate states cheaply.
//
// The kernels read flat per-gate inputs only: the netlist's CSR adjacency
// and role bytes (Netlist::fanouts_of, is_logic, is_po), the wire model's
// per-net tables (WireLoads::net_caps etc., read once when it was built)
// and the device constants of each fanin count, filled here at
// construction.
// Every expression keeps the operands and the order of Eq. (A3) as written
// below, so results do not depend on which entry point computed them.
class DelayCalculator {
 public:
  DelayCalculator(const netlist::Netlist& nl, const tech::DeviceModel& dev,
                  const interconnect::WireLoads& wires);

  const netlist::Netlist& netlist() const { return nl_; }
  const tech::DeviceModel& device() const { return dev_; }

  // Total switched/driven load at gate id's output (F). `widths` is indexed
  // by gate id; non-logic entries are ignored. Fanout loads use the fanout
  // gate's width (DFF and primary-output pins present the technology's
  // po_load_w equivalent width).
  double load_cap(netlist::GateId id, std::span<const double> widths) const;

  // Receiver-side input capacitance only (used for the wire RC term): the
  // primary-output pin first, then each fanout in netlist order.
  double receiver_cap(netlist::GateId id, std::span<const double> widths) const {
    check_id(id);
    return receivers(id, widths);
  }

  // Worst-case delay of gate id. max_fanin_delay is the largest delay among
  // the gate's logic fanins (0 at sources). Returns +inf when the drive
  // current is non-positive (leakage exceeds drive). Each call adds one to
  // timing.delay.gate_evals.
  double gate_delay(netlist::GateId id, std::span<const double> widths,
                    double vdd, double vts, double max_fanin_delay) const;
  // Same, with the device terms precomputed (DeviceModel::operating_point);
  // bit-identical to the (vdd, vts) form, which wraps it.
  double gate_delay(netlist::GateId id, std::span<const double> widths,
                    const tech::OperatingPoint& op,
                    double max_fanin_delay) const;

  DelayComponents gate_delay_components(netlist::GateId id,
                                        std::span<const double> widths,
                                        double vdd, double vts,
                                        double max_fanin_delay) const;

  // The (a, b) of d(w) = a + b/w for gate id, from one delay evaluation at
  // widths[id] (counted as one gate eval). With drive k = I_D/s_stack -
  // f_in*I_off <= 0 no width helps: a = b = +inf.
  WidthTerms width_terms(netlist::GateId id, std::span<const double> widths,
                         const tech::OperatingPoint& op,
                         double max_fanin_delay) const;

  // gate_delay and width_terms without the timing.delay.gate_evals bump,
  // for kernel loops that add their evaluation count once per call
  // (run_sta, opt::GateSizer). Same results, same checks.
  double gate_delay_uncounted(netlist::GateId id,
                              std::span<const double> widths,
                              const tech::OperatingPoint& op,
                              double max_fanin_delay) const {
    return components(id, widths, op, max_fanin_delay, nullptr).total();
  }
  WidthTerms width_terms_uncounted(netlist::GateId id,
                                   std::span<const double> widths,
                                   const tech::OperatingPoint& op,
                                   double max_fanin_delay) const;

  // Best-case (contamination) delay for min-delay/hold analysis: the
  // fastest of the two output transitions switches through the *parallel*
  // network (stack factor 1) with the earliest-arriving input
  // (min_fanin_delay in the slope term). Always <= gate_delay(...) given
  // min_fanin_delay <= max_fanin_delay.
  double gate_delay_min(netlist::GateId id, std::span<const double> widths,
                        double vdd, double vts,
                        double min_fanin_delay) const;

  // Intrinsic (self-loaded, zero fanin-delay) lower bound on the gate's
  // delay at the given operating point — the floor the width search
  // approaches as w -> w_max.
  double intrinsic_delay_floor(netlist::GateId id,
                               std::span<const double> widths, double vdd,
                               double vts) const;

 private:
  // Device constants of a gate with a given fanin count.
  struct GateConsts {
    double self_cap;  // DeviceModel::self_cap_per_wunit(fanin)
    double stack;     // DeviceModel::stack_factor(fanin)
    double fanin;     // the fanin count
  };

  // The id range check that replaces Gate lookups by id.
  void check_id(netlist::GateId id) const {
    MINERGY_CHECK(id < nl_.size());
  }
  const GateConsts& consts(netlist::GateId id) const {
    return by_fanin_[nl_.fanins_of(id).size()];
  }
  // Per-width-unit drive of gate id: the stack-divided switching current
  // less the leakage of its fanin off-devices.
  double drive_per_wunit(const tech::OperatingPoint& op,
                         const GateConsts& k) const {
    return op.idrive / k.stack - k.fanin * op.ioff;
  }
  double receivers(netlist::GateId id, std::span<const double> widths) const {
    double c = nl_.is_po(id) ? po_load_cap_ : 0.0;
    for (const netlist::GateId out : nl_.fanouts_of(id)) {
      c += nl_.is_logic(out) ? widths[out] * cin_ : po_load_cap_;
    }
    return c;
  }
  // gate_delay_components, uncounted; also stores the receiver capacitance
  // it summed in *c_recv (when non-null and the drive is positive).
  DelayComponents components(netlist::GateId id,
                             std::span<const double> widths,
                             const tech::OperatingPoint& op,
                             double max_fanin_delay, double* c_recv) const {
    check_id(id);
    MINERGY_CHECK(nl_.is_logic(id));
    const double w = widths[id];
    const GateConsts& k = consts(id);

    DelayComponents c;
    c.slope = op.k_slope * max_fanin_delay;

    const double drive = w * drive_per_wunit(op, k);
    if (drive <= 0.0) {
      c.switching = std::numeric_limits<double>::infinity();
      return c;
    }
    // load_cap(), with the receiver sum shared by the wire-RC term.
    const double recv = receivers(id, widths);
    const double net = net_cap_[id];
    const double load = w * k.self_cap + recv + net;
    c.switching = 0.5 * op.vdd * load / drive;
    c.wire_rc = net_res_[id] * (0.5 * net + recv);
    c.flight = flight_[id];
    if (c_recv != nullptr) *c_recv = recv;
    return c;
  }

  const netlist::Netlist& nl_;
  const tech::DeviceModel& dev_;
  double po_load_cap_;  // F, fixed pin load for POs and DFF D-pins
  double cin_;          // F per width unit of a receiving input
  std::vector<GateConsts> by_fanin_;  // indexed by fanin count
  // The wire model's per-net tables.
  std::span<const double> net_cap_, net_res_, flight_;
};

}  // namespace minergy::timing
