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

// The operating-point side of one logic gate's Eq. (A3): the slope
// coefficient, Vdd/2 and the drive per width unit I_D/s_stack - f_in*I_off
// (DelayCalculator::gate_drive).
struct GateDrive {
  double k_slope = 0.0;   // OperatingPoint::k_slope
  double half_vdd = 0.0;  // Vdd/2
  double per_wunit = 0.0;
};

// The width side of one logic gate's Eq. (A3) with its own width w left
// out: C_L = w*self_cap + recv + net, and the wire terms. recv and wire_rc
// read the fanout widths (DelayCalculator::gate_load, one pass over the
// fanouts); the rest are constants of the gate.
struct GateLoad {
  double self_cap = 0.0;  // per width unit
  double recv = 0.0;      // receiver input capacitance
  double net = 0.0;       // C_INT
  double wire_rc = 0.0;   // R_INT * (C_INT/2 + recv)
  double flight = 0.0;    // L_INT / v
};

// Eq. (A3) at width w, less the slope input: the one place it is evaluated
// (WidthCurve and opt::MoveEvaluator both call it), in one fixed operand
// order, so a delay does not depend on which entry point computed it. A
// drive w*k <= 0 (leakage exceeds drive, or w <= 0) gives switching = +inf
// and no wire terms.
inline LoadTerms eq_a3(const GateDrive& drive, const GateLoad& load,
                       double w) {
  const double current = w * drive.per_wunit;
  if (current <= 0.0) {
    return {drive.k_slope, std::numeric_limits<double>::infinity(), 0.0, 0.0};
  }
  const double cap = w * load.self_cap + load.recv + load.net;
  return {drive.k_slope, drive.half_vdd * cap / current, load.wire_rc,
          load.flight};
}

// One gate's Eq. (A3) as a function of its own width w, with its fanout
// widths, slope input and operating point fixed (DelayCalculator::curve,
// one pass over the gate's fanouts). Every max delay of a gate is
// evaluated through eq_a3.
class WidthCurve {
 public:
  // The four components at width w.
  DelayComponents components(double w) const {
    const LoadTerms t = eq_a3(drive_, load_, w);
    return {slope_, t.switching, t.wire_rc, t.flight};
  }
  double delay(double w) const { return components(w).total(); }
  // The (a, b) of d(w) = a + b/w and delay(w). With drive per width unit
  // k <= 0 no width helps: a = b = +inf. At w <= 0 the terms leave out the
  // wire and receiver load, as components(w) does.
  WidthTerms terms(double w) const;
  // Everything but the slope input, at width w.
  LoadTerms load_terms(double w) const { return eq_a3(drive_, load_, w); }

 private:
  friend class DelayCalculator;
  WidthCurve() = default;

  double slope_ = 0.0;  // k_slope * max_fanin_delay
  GateDrive drive_;
  GateLoad load_;
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
// construction. Every max-delay entry point goes through curve(), whose
// operands gate_drive and gate_load also hand out for callers that keep
// them (opt::MoveEvaluator), and Eq. (A3) is evaluated in one place
// (eq_a3).
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
    check_logic(id);
    const GateConsts& k = consts(id);
    WidthCurve c;
    c.slope_ = op.k_slope * max_fanin_delay;
    // The drive's division before the fanout loop, which it overlaps.
    c.drive_ = drive_of(k, op);
    c.load_ = load_of(id, widths, k);
    return c;
  }

  // The operating-point side of logic gate id's Eq. (A3) at `op`.
  GateDrive gate_drive(netlist::GateId id,
                       const tech::OperatingPoint& op) const {
    check_logic(id);
    return drive_of(consts(id), op);
  }

  // The width side of logic gate id's Eq. (A3) over the fanout widths in
  // `widths`: one pass over its fanouts; uncounted, like curve().
  GateLoad gate_load(netlist::GateId id,
                     std::span<const double> widths) const {
    check_logic(id);
    return load_of(id, widths, consts(id));
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
  // counts once per call (run_sta). Same result, same checks.
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
  void check_logic(netlist::GateId id) const {
    check_id(id);
    MINERGY_CHECK(nl_.is_logic(id));
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
  static GateDrive drive_of(const GateConsts& k,
                            const tech::OperatingPoint& op) {
    return {op.k_slope, 0.5 * op.vdd, op.idrive / k.stack - k.fanin * op.ioff};
  }
  GateLoad load_of(netlist::GateId id, std::span<const double> widths,
                   const GateConsts& k) const {
    const double recv = receivers(id, widths);
    return {k.self_cap, recv, net_cap_[id],
            net_res_[id] * (0.5 * net_cap_[id] + recv), flight_[id]};
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
