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

#include <cstdint>
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

// One logic gate's Eq. (A3) delay at a fixed width and operating point, as
// a function of its slowest fanin's delay d:
//   delay(d) = k_slope * d + switching + wire_rc + flight
// (switching = +inf, wire_rc = flight = 0 at a dead drive). STA over these
// evaluates only the slope recurrence (run_sta's load-term form).
struct LoadTerms {
  double k_slope = 0.0;
  double switching = 0.0;
  double wire_rc = 0.0;
  double flight = 0.0;
  double delay(double max_fanin_delay) const {
    return k_slope * max_fanin_delay + switching + wire_rc + flight;
  }
};

// The operands of one gate's Eq. (A3) that do not depend on its own width w
// (the slope term, the receiver and wire load, the wire RC, the flight time
// and the drive per width unit), read in one pass over its fanouts by
// DelayCalculator::curve. Every max delay of the gate is evaluated by
// components(), in one fixed operand order, so a value does not depend on
// which entry point or which curve computed it.
class WidthCurve {
 public:
  // The four components at width w. A drive w*k <= 0 (leakage exceeds
  // drive, or w <= 0) gives switching = +inf and no wire terms.
  DelayComponents components(double w) const {
    DelayComponents c;
    c.slope = slope_;
    const double drive = w * drive_per_wunit_;
    if (drive <= 0.0) {
      c.switching = std::numeric_limits<double>::infinity();
      return c;
    }
    const double load = w * self_cap_ + recv_ + net_;
    c.switching = half_vdd_ * load / drive;
    c.wire_rc = wire_rc_;
    c.flight = flight_;
    return c;
  }
  double delay(double w) const { return components(w).total(); }
  // The (a, b) of d(w) = a + b/w and delay(w). With drive per width unit
  // k <= 0 no width helps: a = b = +inf. At w <= 0 the terms leave out the
  // wire and receiver load, as components(w) does.
  WidthTerms terms(double w) const;
  // Everything but the slope input, at width w.
  LoadTerms load_terms(double w) const {
    const DelayComponents c = components(w);
    return {k_slope_, c.switching, c.wire_rc, c.flight};
  }

 private:
  friend class DelayCalculator;
  WidthCurve() = default;

  double k_slope_ = 0.0;          // OperatingPoint::k_slope
  double slope_ = 0.0;            // k_slope * max_fanin_delay
  double drive_per_wunit_ = 0.0;  // I_D/s_stack - f_in*I_off
  double half_vdd_ = 0.0;         // Vdd/2
  double self_cap_ = 0.0;         // per width unit
  double recv_ = 0.0;             // receiver input capacitance
  double net_ = 0.0;              // C_INT
  double wire_rc_ = 0.0;          // R_INT * (C_INT/2 + recv)
  double flight_ = 0.0;           // L_INT / v
};

// Adds to timing.delay.gate_evals and timing.delay.load_sums, for the
// kernel loops that count the work of the uncounted entry points
// (DelayCalculator::curve, gate_delay_uncounted) once per call.
void count_delay_work(std::int64_t gate_evals, std::int64_t load_sums);

// Bound to one netlist / technology / wire model; stateless over the
// optimization variables (widths, Vdd, Vts), which are passed per call so
// the optimizer can probe candidate states cheaply.
//
// The kernels read flat per-gate inputs only: the netlist's CSR adjacency
// and role bytes (Netlist::fanouts_of, is_logic, is_po), the wire model's
// per-net tables (WireLoads::net_caps etc., read once when it was built)
// and the device constants of each fanin count, filled here at
// construction. Every max-delay entry point goes through curve(), so
// Eq. (A3) is evaluated in one place (WidthCurve::components).
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

  // The width curve of logic gate id: Eq. (A3) with its fanout widths
  // (read from `widths`), slope input and operating point fixed. One pass
  // over the gate's fanouts; uncounted. A caller counts one load sum per
  // curve and one gate eval per delay it evaluates from the curve, in bulk
  // (count_delay_work).
  WidthCurve curve(netlist::GateId id, std::span<const double> widths,
                   const tech::OperatingPoint& op,
                   double max_fanin_delay) const {
    check_id(id);
    MINERGY_CHECK(nl_.is_logic(id));
    const GateConsts& k = consts(id);
    WidthCurve c;
    c.k_slope_ = op.k_slope;
    c.slope_ = op.k_slope * max_fanin_delay;
    c.drive_per_wunit_ = op.idrive / k.stack - k.fanin * op.ioff;
    c.half_vdd_ = 0.5 * op.vdd;
    c.self_cap_ = k.self_cap;
    c.recv_ = receivers(id, widths);
    c.net_ = net_cap_[id];
    c.wire_rc_ = net_res_[id] * (0.5 * c.net_ + c.recv_);
    c.flight_ = flight_[id];
    return c;
  }

  // Worst-case delay of gate id: curve(...).delay(widths[id]).
  // max_fanin_delay is the largest delay among the gate's logic fanins (0 at
  // sources). Returns +inf when the drive current is non-positive (leakage
  // exceeds drive). Each call adds one to timing.delay.gate_evals and one
  // to timing.delay.load_sums.
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

  // curve(...).terms(widths[id]): the (a, b) of d(w) = a + b/w for gate id,
  // counted as one gate eval and one load sum.
  WidthTerms width_terms(netlist::GateId id, std::span<const double> widths,
                         const tech::OperatingPoint& op,
                         double max_fanin_delay) const;

  // gate_delay without the counter bumps, for kernel loops that add their
  // counts once per call (timing::forward_step). Same result, same checks.
  double gate_delay_uncounted(netlist::GateId id,
                              std::span<const double> widths,
                              const tech::OperatingPoint& op,
                              double max_fanin_delay) const {
    return curve(id, widths, op, max_fanin_delay).delay(widths[id]);
  }

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
  double receivers(netlist::GateId id, std::span<const double> widths) const {
    double c = nl_.is_po(id) ? po_load_cap_ : 0.0;
    for (const netlist::GateId out : nl_.fanouts_of(id)) {
      c += nl_.is_logic(out) ? widths[out] * cin_ : po_load_cap_;
    }
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
