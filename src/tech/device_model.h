// Transregional MOSFET model (Appendix A.2 of the paper).
//
// Drive current follows the Sakurai–Newton alpha-power law in strong
// inversion and is extended with an exponential subthreshold tail below a
// small overdrive Vov0 = blend_overdrive_factor * n * vT, so the model is
// continuous and strictly monotone across the sub/superthreshold boundary
// ("transregional"). This is what lets the optimizer push Vdd at or below
// Vts when the delay budget allows subthreshold switching.
//
// All *_per_wunit quantities are expressed per dimensionless width unit
// w (the paper's convention: device width = w * F); the factors of F and
// of the PMOS beta-ratio are folded in here so downstream code never
// handles meters of width.
#pragma once

#include "tech/technology.h"

namespace minergy::tech {

// The device terms of one (Vdd, Vts) operating point. Every gate-delay and
// leakage evaluation at that point reads these, and each costs a pow/exp,
// so per-gate loops compute them once per distinct (vdd, vts) instead of
// once per gate.
struct OperatingPoint {
  double vdd = 0.0;
  double vts = 0.0;
  double idrive = 0.0;   // idrive_per_wunit(vdd, vts)
  double ioff = 0.0;     // ioff_per_wunit(vts)
  double k_slope = 0.0;  // slope_coefficient(vdd, vts)
};

class DeviceModel {
 public:
  explicit DeviceModel(const Technology& tech);

  const Technology& technology() const { return tech_; }

  // --- Currents (A per width unit w) -------------------------------------
  // Switching drain current at gate/drain voltage vdd, threshold vts.
  // Continuous, strictly increasing in vdd, strictly decreasing in vts.
  double idrive_per_wunit(double vdd, double vts) const;

  // Off-state (Vgs = 0) leakage: subthreshold conduction + junction leakage.
  // Strictly decreasing in vts. Both N and P leakage paths are included via
  // the (1 + beta) total leaking width.
  double ioff_per_wunit(double vts) const;

  // Subthreshold boundary overdrive Vov0 (V).
  double blend_overdrive() const { return vov0_; }

  // --- Capacitances (F per width unit w) ----------------------------------
  // Gate-input capacitance of one logic input (NMOS + PMOS gates).
  double cin_per_wunit() const { return cin_; }
  // Output-node parasitic (drain junction + overlap + fringe, N + P).
  double cpar_per_wunit() const { return cpar_; }
  // Intermediate node of a series stack.
  double cmid_per_wunit() const { return cmid_; }
  // Output-node self-load of a gate with `fanin` inputs, C_PD + (f_in - 1)
  // * C_m: the one expression the delay and energy models both use.
  double self_cap_per_wunit(int fanin) const {
    return cpar_ + (static_cast<double>(fanin) - 1.0) * cmid_;
  }

  // --- Delay-model coefficients -------------------------------------------
  // Input-slope coefficient of Eq. (A3): the fraction of the slowest fanin
  // delay that adds to this gate's delay,
  //   k_slope = 1/2 - (1 - vts/vdd) / (1 + alpha),
  // clamped to [0, 1/2]; increasing in vts/vdd (slow input edges hurt more
  // when the gate switches late in the swing).
  double slope_coefficient(double vdd, double vts) const;

  // All of the above at one (vdd, vts).
  OperatingPoint operating_point(double vdd, double vts) const;

  // Worst-case series-stack current-division factor for a gate with
  // fanin inputs (INV/BUF = 1, n-input NAND/NOR = n).
  static double stack_factor(int fanin);

 private:
  double super_current(double vov) const;  // pc*F*(vov)^alpha per w unit

  Technology tech_;
  double vov0_;       // blend overdrive (V)
  double i_at_vov0_;  // current per w unit at vov0 (A)
  double cin_, cpar_, cmid_;
};

// The operating point of the previous lookup, recomputed only when (vdd,
// vts) differs from it. A per-gate loop keeps one as a local: uniform
// flows compute the device terms once per loop, while per-gate
// multi-Vdd/multi-Vt vectors still get each gate's exact terms.
class OperatingPointMemo {
 public:
  explicit OperatingPointMemo(const DeviceModel& dev) : dev_(dev) {}

  const OperatingPoint& at(double vdd, double vts) {
    if (!valid_ || vdd != op_.vdd || vts != op_.vts) {
      op_ = dev_.operating_point(vdd, vts);
      valid_ = true;
    }
    return op_;
  }

 private:
  const DeviceModel& dev_;
  OperatingPoint op_;
  bool valid_ = false;
};

}  // namespace minergy::tech
