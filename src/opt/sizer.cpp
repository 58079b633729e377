#include "opt/sizer.h"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "obs/metrics.h"
#include "timing/sta.h"
#include "util/check.h"

namespace minergy::opt {
namespace {

struct WidthSolve {
  double width = 0.0;
  bool met = false;  // the delay at `width` meets the budget
  int evals = 0;     // delay evaluations it took
};

// Confirming evals allowed after the first, each with twice the previous
// nudge, before the last one tries the upper bound itself.
constexpr int kMaxNudges = 4;

// The smallest width in [w_min, w_hi] whose delay on `curve` meets
// `budget`, or {w_hi, false} when none does. Its delay evals are uncounted;
// the caller adds them to timing.delay.gate_evals in bulk.
WidthSolve solve_width(const timing::WidthCurve& curve, double budget,
                       double w_min, double w_hi) {
  const timing::WidthTerms t = curve.terms(w_min);
  if (t.delay <= budget) return {w_min, true, 1};
  // No width reaches a budget at or below the width-independent part
  // (this also covers drive k <= 0, where a = +inf).
  if (!(budget > t.a)) return {w_hi, false, 1};
  const double w_star = t.b / (budget - t.a);
  if (!(w_star <= w_hi)) return {w_hi, false, 1};

  // The curve's delay rounds differently from a + b/w, so w* itself can
  // miss the budget by an ulp or two of it. Raising w by the relative
  // amount nudge lowers b/w by nudge * (budget - a): start at 2 ulps of the
  // budget.
  double nudge =
      2.0 * std::numeric_limits<double>::epsilon() * budget / (budget - t.a);
  const double w = std::max(w_min, w_star);
  for (int i = 0;; ++i) {
    const double cand =
        i < kMaxNudges ? std::min(w_hi, w * (1.0 + nudge)) : w_hi;
    if (curve.delay(cand) <= budget) return {cand, true, i + 2};
    if (cand >= w_hi) return {w_hi, false, i + 2};
    nudge *= 2.0;
  }
}

// Worst-case input-edge contribution: the largest budget among the gate's
// logic fanins.
double slope_input(const netlist::Netlist& nl, netlist::GateId id,
                   std::span<const double> budgets) {
  double slope_in = 0.0;
  for (netlist::GateId f : nl.fanins_of(id)) {
    if (nl.is_logic(f)) slope_in = std::max(slope_in, budgets[f]);
  }
  return slope_in;
}

}  // namespace

GateSizer::GateSizer(const timing::DelayCalculator& calc) : calc_(calc) {}

SizingResult GateSizer::size(std::span<const double> t_max, double vdd,
                             std::span<const double> vts,
                             [[maybe_unused]] int steps) const {
  const netlist::Netlist& nl = calc_.netlist();
  const tech::Technology& tech = calc_.device().technology();
  MINERGY_CHECK(t_max.size() == nl.size());
  MINERGY_CHECK(vts.size() == nl.size());

  static obs::Counter& c_calls = obs::counter("opt.sizer.size_calls");
  static obs::Counter& c_gates = obs::counter("opt.sizer.width_searches");
  const auto gates = static_cast<std::int64_t>(nl.num_combinational());
  c_calls.add();
  c_gates.add(gates);

  SizingResult r;
  r.widths.assign(nl.size(), tech.w_min);
  r.terms.assign(nl.size(), timing::LoadTerms{});
  r.all_budgets_met = true;

  // Reverse topological order: the delay model reads the widths of the
  // gate's fanouts (load), which are final by the time the gate is sized.
  tech::OperatingPointMemo op(calc_.device());
  std::int64_t evals = 0;
  const auto& topo = nl.combinational();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const netlist::GateId id = *it;
    const timing::WidthCurve curve = calc_.curve(
        id, r.widths, op.at(vdd, vts[id]), slope_input(nl, id, t_max));
    const WidthSolve s =
        solve_width(curve, t_max[id], tech.w_min, tech.w_max);
    evals += s.evals;
    // A miss takes the fastest width.
    r.widths[id] = s.width;
    r.terms[id] = curve.load_terms(s.width);
    if (!s.met) {
      r.all_budgets_met = false;
      ++r.gates_missed;
    }
  }
  timing::count_delay_work(evals, gates);
  return r;
}

SizingResult GateSizer::recover(std::span<const double> widths, double vdd,
                                std::span<const double> vts,
                                double cycle_limit,
                                const timing::TimingReport& report,
                                [[maybe_unused]] int steps) const {
  const netlist::Netlist& nl = calc_.netlist();
  const tech::Technology& tech = calc_.device().technology();
  MINERGY_CHECK(widths.size() == nl.size());
  MINERGY_CHECK(cycle_limit > 0.0);
  MINERGY_CHECK_MSG(report.slack.size() == nl.size(),
                    "width recovery needs an STA report with slack");

  static obs::Counter& c_calls = obs::counter("opt.sizer.recover_calls");
  c_calls.add();

  // Relaxed per-gate budgets from the slack redistribution rule. Gates with
  // non-positive slack keep exactly their current delay.
  std::vector<double> t_rec(nl.size(), 0.0);
  for (netlist::GateId id : nl.combinational()) {
    const double slack = std::max(0.0, report.slack[id]);
    const double denom = std::max(cycle_limit - slack, 1e-3 * cycle_limit);
    t_rec[id] = report.gate_delay[id] * cycle_limit / denom;
  }

  SizingResult r;
  r.widths.assign(widths.begin(), widths.end());
  r.terms.assign(nl.size(), timing::LoadTerms{});
  r.all_budgets_met = true;

  // Same reverse topological order (and the same argument) as size(), with
  // the fanins' relaxed budgets as the conservative slope input.
  tech::OperatingPointMemo op(calc_.device());
  std::int64_t evals = 0;
  const auto& topo = nl.combinational();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const netlist::GateId id = *it;
    const double w_old = r.widths[id];
    const tech::OperatingPoint& gate_op = op.at(vdd, vts[id]);
    if (w_old <= tech.w_min * (1.0 + 1e-12)) {
      // Not re-solved, but its fanouts may have shrunk: its terms at w_old
      // over their final widths. The slope input does not enter them.
      r.terms[id] = calc_.curve(id, r.widths, gate_op, 0.0).load_terms(w_old);
      continue;
    }
    // A miss means the relaxed slope input exceeds what this gate can
    // absorb even at its current width: it keeps w_old, never upsizing.
    const timing::WidthCurve curve =
        calc_.curve(id, r.widths, gate_op, slope_input(nl, id, t_rec));
    const WidthSolve s = solve_width(curve, t_rec[id], tech.w_min, w_old);
    r.widths[id] = s.width;
    r.terms[id] = curve.load_terms(s.width);
    evals += s.evals;
  }
  timing::count_delay_work(evals,
                           static_cast<std::int64_t>(nl.num_combinational()));
  return r;
}

}  // namespace minergy::opt
