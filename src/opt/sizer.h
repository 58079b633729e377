// Inner loop of Procedure 2: per-gate minimum-width selection.
//
// Given per-gate delay budgets t_MAX,i and a candidate (Vdd, Vts), each
// gate's width is the smallest w in [w_min, w_max] whose worst-case delay
// meets its budget. With the fanout widths and the slope input fixed, the
// Appendix A.2 delay is exactly d(w) = a + b/w (DelayCalculator::
// width_terms), so that width has a closed form, w* = b / (t_MAX - a):
// one decomposition eval, one confirming eval at w*, no search. Gates are
// processed output-side first so every gate sees its final fanout loads;
// the slope term conservatively uses the fanins' *budgets* (their actual
// delays can only be smaller).
#pragma once

#include <span>
#include <vector>

#include "timing/delay_model.h"
#include "timing/sta.h"

namespace minergy::opt {

struct SizingResult {
  std::vector<double> widths;  // per gate id (w_min for non-logic entries)
  bool all_budgets_met = false;
  int gates_missed = 0;  // budgets unreachable even at w_max
};

class GateSizer {
 public:
  explicit GateSizer(const timing::DelayCalculator& calc);

  // t_max indexed by gate id; vts is the *delay-corner* threshold per gate.
  // Every returned width meets its budget under DelayCalculator::gate_delay;
  // a gate that cannot, even at w_max, gets w_max and counts as missed.
  // `steps` is ignored and stays only for source compatibility.
  SizingResult size(std::span<const double> t_max, double vdd,
                    std::span<const double> vts, int steps = 10) const;

  // Width-recovery pass (the paper's Section-4.2 "post processing of delay
  // assignments"): Procedure-1 budgets can starve gates on already-consumed
  // paths, forcing them far wider than the circuit needs. Given a sized
  // state and its STA report, redistribute each gate's positive slack into
  // a relaxed budget
  //     t_rec(g) = d(g) * limit / (limit - slack(g))
  // (the zero-slack rule: since slack(g) <= slack(p) for every path p
  // through g, all path budget sums stay <= limit) and re-solve the
  // minimum width against it, never increasing any width (a gate whose
  // relaxed budget its current width cannot meet keeps that width).
  // Callers must re-verify with a full STA; recovery is monotone in
  // energy. `steps` is ignored, as in size().
  SizingResult recover(std::span<const double> widths, double vdd,
                       std::span<const double> vts, double cycle_limit,
                       const timing::TimingReport& report,
                       int steps = 10) const;

 private:
  const timing::DelayCalculator& calc_;
};

}  // namespace minergy::opt
