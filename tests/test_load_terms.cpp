// Load terms shared by sizing and timing, against the per-candidate path.
//
// GateSizer solves each gate on one timing::WidthCurve (one fanout-load sum
// per gate per pass) and returns each gate's timing::LoadTerms, from which
// run_sta's load-term form evaluates only the slope recurrence. The
// references below are the composition this replaced: every candidate
// width written into the width vector and timed by a fresh gate_delay, and
// every STA reading the widths. Everything is compared bit for bit, on the
// 8 paper circuits and a generated 1.6k-gate netlist, over a (Vdd, Vts)
// grid with a dead-drive corner and budgets tight enough to miss at w_max.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "activity/activity.h"
#include "bench_suite/experiment.h"
#include "bench_suite/iscas.h"
#include "interconnect/wire_model.h"
#include "netlist/generator.h"
#include "opt/evaluator.h"
#include "opt/joint_optimizer.h"
#include "opt/sizer.h"
#include "tech/device_model.h"
#include "timing/delay_budget.h"
#include "timing/delay_model.h"
#include "timing/sta.h"

namespace minergy {
namespace {

using netlist::GateId;
using netlist::Netlist;

bool same(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same(a[i], b[i])) return false;
  }
  return true;
}

// large_joint's shape.
Netlist gen1600() {
  netlist::GeneratorSpec spec;
  spec.name = "gen1600";
  spec.num_gates = 1600;
  spec.depth = 1600 / 64;
  spec.num_dffs = 1600 / 12;
  spec.num_inputs = 1600 / 50;
  spec.num_outputs = 1600 / 50;
  spec.seed = 7;
  return netlist::generate_random_logic(spec);
}

const std::vector<Netlist>& circuits() {
  static const std::vector<Netlist> out = [] {
    std::vector<Netlist> c;
    for (const bench_suite::CircuitSpec& spec : bench_suite::paper_circuits()) {
      c.push_back(bench_suite::make_circuit(spec));
    }
    c.push_back(gen1600());
    return c;
  }();
  return out;
}

// The timing models of one netlist.
struct Models {
  explicit Models(const Netlist& netlist)
      : nl(netlist),
        tech(tech::Technology::generic350()),
        dev(tech),
        wires(tech, nl),
        calc(nl, dev, wires),
        budgeter(nl) {}

  const Netlist& nl;
  tech::Technology tech;
  tech::DeviceModel dev;
  interconnect::WireModel wires;
  timing::DelayCalculator calc;
  timing::DelayBudgeter budgeter;
};

// (Vdd, Vts) above, near and below threshold; at (0.12, 0.1) the fanin
// off-devices' leakage exceeds the drive of stacked gates (k <= 0).
constexpr std::array<std::array<double, 2>, 5> kGrid = {
    {{3.3, 0.7}, {1.2, 0.2}, {0.6, 0.15}, {0.45, 0.35}, {0.12, 0.1}}};

// ------------------------------------------------------- the replaced path

// The width solve as it was: each candidate is written into `widths` and
// timed by a fresh evaluation that re-sums the gate's fanout load.
std::pair<double, bool> per_candidate_solve(const timing::DelayCalculator& calc,
                                            GateId id,
                                            std::vector<double>& widths,
                                            const tech::OperatingPoint& op,
                                            double slope_in, double budget,
                                            double w_min, double w_hi) {
  widths[id] = w_min;
  const timing::WidthTerms t = calc.width_terms(id, widths, op, slope_in);
  if (t.delay <= budget) return {w_min, true};
  if (!(budget > t.a)) return {w_hi, false};
  const double w_star = t.b / (budget - t.a);
  if (!(w_star <= w_hi)) return {w_hi, false};
  double nudge =
      2.0 * std::numeric_limits<double>::epsilon() * budget / (budget - t.a);
  const double w = std::max(w_min, w_star);
  for (int i = 0;; ++i) {
    const double cand = i < 4 ? std::min(w_hi, w * (1.0 + nudge)) : w_hi;
    widths[id] = cand;
    if (calc.gate_delay(id, widths, op, slope_in) <= budget) {
      return {cand, true};
    }
    if (cand >= w_hi) return {w_hi, false};
    nudge *= 2.0;
  }
}

double slope_input(const Netlist& nl, GateId id,
                   std::span<const double> budgets) {
  double slope_in = 0.0;
  for (GateId f : nl.fanins_of(id)) {
    if (nl.is_logic(f)) slope_in = std::max(slope_in, budgets[f]);
  }
  return slope_in;
}

opt::SizingResult ref_size(const timing::DelayCalculator& calc,
                           std::span<const double> t_max, double vdd,
                           std::span<const double> vts) {
  const Netlist& nl = calc.netlist();
  const tech::Technology& tech = calc.device().technology();
  opt::SizingResult r;
  r.widths.assign(nl.size(), tech.w_min);
  r.all_budgets_met = true;
  const auto& topo = nl.combinational();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const GateId id = *it;
    const auto [width, met] = per_candidate_solve(
        calc, id, r.widths, calc.device().operating_point(vdd, vts[id]),
        slope_input(nl, id, t_max), t_max[id], tech.w_min, tech.w_max);
    r.widths[id] = width;
    if (!met) {
      r.all_budgets_met = false;
      ++r.gates_missed;
    }
  }
  return r;
}

// Also counts the gates it skips at w_min into *skipped.
std::vector<double> ref_recover(const timing::DelayCalculator& calc,
                                std::span<const double> widths, double vdd,
                                std::span<const double> vts,
                                double cycle_limit,
                                const timing::TimingReport& report,
                                int* skipped = nullptr) {
  const Netlist& nl = calc.netlist();
  const tech::Technology& tech = calc.device().technology();
  std::vector<double> t_rec(nl.size(), 0.0);
  for (GateId id : nl.combinational()) {
    const double slack = std::max(0.0, report.slack[id]);
    const double denom = std::max(cycle_limit - slack, 1e-3 * cycle_limit);
    t_rec[id] = report.gate_delay[id] * cycle_limit / denom;
  }
  std::vector<double> w(widths.begin(), widths.end());
  const auto& topo = nl.combinational();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const GateId id = *it;
    const double w_old = w[id];
    if (w_old <= tech.w_min * (1.0 + 1e-12)) {
      if (skipped != nullptr) ++*skipped;
      continue;
    }
    w[id] = per_candidate_solve(calc, id, w,
                                calc.device().operating_point(vdd, vts[id]),
                                slope_input(nl, id, t_rec), t_rec[id],
                                tech.w_min, w_old)
                .first;
  }
  return w;
}

// CircuitEvaluator::size_to_budgets as it was: the replaced sizing, and a
// width-reading STA with slack after every pass.
opt::SizedState ref_size_to_budgets(const opt::CircuitEvaluator& eval,
                                    const timing::BudgetResult& budgets,
                                    double vdd, std::vector<double> vts,
                                    double limit, int recovery_passes) {
  std::vector<double> vts_corner(vts.size());
  for (std::size_t i = 0; i < vts.size(); ++i) {
    vts_corner[i] = eval.delay_vts(vts[i]);
  }
  const timing::DelayCalculator& calc = eval.delay_calculator();
  opt::SizedState s;
  s.state.vdd = vdd;
  s.state.vts = std::move(vts);
  s.state.widths = ref_size(calc, budgets.t_max, vdd, vts_corner).widths;
  auto meets = [&](const timing::TimingReport& r) {
    return r.critical_delay <= limit * (1.0 + 1e-9);
  };
  s.report = eval.sta(s.state, limit);
  s.feasible = meets(s.report);
  if (!s.feasible) return s;
  for (int pass = 0; pass < recovery_passes; ++pass) {
    opt::CircuitState candidate = s.state;
    candidate.widths =
        ref_recover(calc, s.state.widths, vdd, vts_corner, limit, s.report);
    timing::TimingReport check = eval.sta(candidate, limit);
    if (!meets(check)) break;
    s.state = std::move(candidate);
    s.report = std::move(check);
  }
  return s;
}

// minimum_cycle_time as it was: the replaced sizing and a width-reading STA.
double ref_minimum_cycle_time(const timing::DelayCalculator& calc,
                              const timing::DelayBudgeter& budgeter,
                              double skew_b, double vts, double stop_at) {
  const Netlist& nl = calc.netlist();
  const double vdd_max = calc.device().technology().vdd_max;
  const std::vector<double> vts_corner(nl.size(), vts);
  auto feasible_at = [&](double tc) {
    const timing::BudgetResult budgets =
        budgeter.assign(tc, {.clock_skew_b = skew_b});
    const std::vector<double> widths =
        ref_size(calc, budgets.t_max, vdd_max, vts_corner).widths;
    return timing::run_sta(calc, widths, vdd_max,
                           std::span<const double>(vts_corner), tc)
               .critical_delay <= skew_b * tc;
  };
  double hi = 1e-9;
  while (!feasible_at(hi) && hi < 1.0) hi *= 2.0;
  double lo = hi / 2.0;
  for (int i = 0; i < 40 && !(hi <= stop_at); ++i) {
    const double mid = 0.5 * (lo + hi);
    if (feasible_at(mid)) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return hi;
}

// ------------------------------------------------------------------ checks

void expect_same_report(const timing::TimingReport& got,
                        const timing::TimingReport& want, bool with_slack,
                        const std::string& what) {
  EXPECT_TRUE(same(got.gate_delay, want.gate_delay)) << what;
  EXPECT_TRUE(same(got.arrival, want.arrival)) << what;
  EXPECT_TRUE(same(got.critical_delay, want.critical_delay)) << what;
  EXPECT_EQ(got.critical_path, want.critical_path) << what;
  if (with_slack) {
    EXPECT_TRUE(same(got.slack, want.slack)) << what;
  } else {
    EXPECT_TRUE(got.slack.empty()) << what;
  }
}

TEST(LoadTerms, CurveDelayEqualsGateDelayAtRandomWidths) {
  std::mt19937_64 rng(20261018);
  int dead = 0;
  for (const Netlist& nl : circuits()) {
    SCOPED_TRACE(nl.name());
    const Models m(nl);
    std::uniform_real_distribution<double> width(m.tech.w_min, m.tech.w_max);
    std::uniform_real_distribution<double> slope(0.0, 5e-10);
    std::vector<double> w(nl.size());
    for (double& x : w) x = width(rng);
    int mismatches = 0;
    for (const auto& [vdd, vts] : kGrid) {
      const tech::OperatingPoint op = m.dev.operating_point(vdd, vts);
      for (GateId id : nl.combinational()) {
        const double slope_in = slope(rng);
        const timing::WidthCurve curve = m.calc.curve(id, w, op, slope_in);
        std::vector<double> probe = w;
        // Random widths, and w = 0, where the drive is dead at any k.
        for (const double wi : {width(rng), width(rng), 0.0}) {
          probe[id] = wi;
          const double want =
              m.calc.gate_delay_uncounted(id, probe, op, slope_in);
          mismatches += same(curve.delay(wi), want) ? 0 : 1;
          const timing::WidthTerms t = curve.terms(wi);
          const timing::WidthTerms u =
              m.calc.width_terms(id, probe, op, slope_in);
          mismatches +=
              same(t.a, u.a) && same(t.b, u.b) && same(t.delay, want) ? 0 : 1;
          const timing::LoadTerms lt = curve.load_terms(wi);
          mismatches += same(lt.delay(slope_in), want) ? 0 : 1;
          dead += (wi > 0.0 && std::isinf(want)) ? 1 : 0;
        }
      }
    }
    EXPECT_EQ(mismatches, 0);
  }
  // The grid reached the dead-drive branch at positive widths.
  EXPECT_GT(dead, 0);
}

TEST(LoadTerms, SizingAndLoadTermStaMatchThePerCandidatePath) {
  int missed = 0, skipped = 0;
  for (const Netlist& nl : circuits()) {
    const Models m(nl);
    const opt::GateSizer sizer(m.calc);
    for (const auto& [vdd, vts0] : kGrid) {
      const std::vector<double> vts(nl.size(), vts0);
      const std::vector<double> w_min(nl.size(), m.tech.w_min);
      const double d0 =
          timing::run_sta(m.calc, w_min, vdd, std::span<const double>(vts),
                          1.0)
              .critical_delay;
      // Budgets from a cycle time around the critical delay at w_min: a
      // tight one misses at w_max, a loose one leaves gates at w_min. At
      // the dead corner d0 is +inf; a fixed cycle time stands in.
      for (const double factor : {0.4, 1.3}) {
        const double tc = std::isfinite(d0) ? factor * d0 : factor * 1e-8;
        SCOPED_TRACE(nl.name() + " vdd=" + std::to_string(vdd) +
                     " factor=" + std::to_string(factor));
        const timing::BudgetResult budgets = m.budgeter.assign(tc);
        const opt::SizingResult got = sizer.size(budgets.t_max, vdd, vts);
        const opt::SizingResult want =
            ref_size(m.calc, budgets.t_max, vdd, vts);
        EXPECT_TRUE(same(got.widths, want.widths));
        EXPECT_EQ(got.gates_missed, want.gates_missed);
        EXPECT_EQ(got.all_budgets_met, want.all_budgets_met);
        missed += got.gates_missed;

        const double limit = 0.95 * tc;
        const timing::TimingReport plain = timing::run_sta(
            m.calc, got.widths, vdd, std::span<const double>(vts), limit);
        for (const bool with_slack : {true, false}) {
          expect_same_report(
              timing::run_sta(nl, got.terms, limit, with_slack), plain,
              with_slack, "size");
        }

        const opt::SizingResult rec =
            sizer.recover(got.widths, vdd, vts, limit, plain);
        EXPECT_TRUE(same(rec.widths, ref_recover(m.calc, got.widths, vdd, vts,
                                                 limit, plain, &skipped)));
        const timing::TimingReport rec_plain = timing::run_sta(
            m.calc, rec.widths, vdd, std::span<const double>(vts), limit);
        for (const bool with_slack : {true, false}) {
          expect_same_report(
              timing::run_sta(nl, rec.terms, limit, with_slack), rec_plain,
              with_slack, "recover");
        }
      }
    }
  }
  // Tight budgets missed at w_max, and recovery skipped gates at w_min
  // (whose terms it still retook over their shrunk fanouts).
  EXPECT_GT(missed, 0);
  EXPECT_GT(skipped, 0);
}

TEST(LoadTerms, RecoverRejectsAReportWithoutSlack) {
  const Netlist nl = bench_suite::make_circuit("s298*");
  const Models m(nl);
  const opt::GateSizer sizer(m.calc);
  const std::vector<double> vts(m.nl.size(), 0.2);
  const timing::BudgetResult budgets = m.budgeter.assign(5e-9);
  const opt::SizingResult sized = sizer.size(budgets.t_max, 1.2, vts);
  const double limit = 0.95 * 5e-9;
  const timing::TimingReport no_slack =
      timing::run_sta(m.nl, sized.terms, limit, /*with_slack=*/false);
  ASSERT_TRUE(no_slack.slack.empty());
  EXPECT_THROW((void)sizer.recover(sized.widths, 1.2, vts, limit, no_slack),
               std::logic_error);
  const timing::TimingReport with_slack =
      timing::run_sta(m.nl, sized.terms, limit, /*with_slack=*/true);
  EXPECT_NO_THROW((void)sizer.recover(sized.widths, 1.2, vts, limit,
                                      with_slack));
}

TEST(LoadTerms, MinimumCycleTimeMatchesThePerCandidatePath) {
  const bench_suite::ExperimentConfig cfg;
  for (const Netlist& nl : circuits()) {
    SCOPED_TRACE(nl.name());
    const Models m(nl);
    for (const double vts : {m.tech.vts_min, cfg.tech.nominal_vts}) {
      for (const double stop_at : {0.0, 1.0 / cfg.clock_frequency}) {
        const double want = ref_minimum_cycle_time(
            m.calc, m.budgeter, cfg.opts.skew_b, vts, stop_at);
        EXPECT_TRUE(same(opt::minimum_cycle_time(m.calc, m.budgeter,
                                                 cfg.opts.skew_b, vts, stop_at),
                         want))
            << "vts=" << vts << " stop_at=" << stop_at;
      }
    }
    // The evaluator's method wraps the free function at its delay corner.
    const opt::CircuitEvaluator eval(nl, m.tech, activity::ActivityProfile{},
                                     {.clock_frequency = 300e6});
    EXPECT_TRUE(same(eval.minimum_cycle_time(cfg.opts.skew_b),
                     ref_minimum_cycle_time(m.calc, m.budgeter,
                                            cfg.opts.skew_b, m.tech.vts_min,
                                            0.0)));
  }
}

TEST(LoadTerms, JointRunMatchesThePerCandidatePath) {
  const bench_suite::ExperimentConfig cfg;
  for (const Netlist& nl : circuits()) {
    SCOPED_TRACE(nl.name());
    const double tc = bench_suite::choose_cycle_time(nl, cfg, nullptr);
    activity::ActivityProfile profile;
    profile.input_density = 0.5;
    const opt::CircuitEvaluator eval(nl, cfg.tech, profile,
                                     {.clock_frequency = 1.0 / tc});
    const opt::OptimizationResult res = opt::JointOptimizer(eval, cfg.opts).run();
    ASSERT_TRUE(res.feasible);

    const timing::BudgetResult budgets = eval.budgeter().assign(
        eval.cycle_time(), {.clock_skew_b = cfg.opts.skew_b});
    const double limit = cfg.opts.skew_b * eval.cycle_time();
    auto ref_probe = [&](double vdd, std::vector<double> vts) {
      return ref_size_to_budgets(eval, budgets, vdd, std::move(vts), limit,
                                 cfg.opts.recovery_passes);
    };
    // Every probe the run recorded, re-made along the replaced path.
    ASSERT_EQ(res.report.trajectory.size(), 244u);
    int mismatches = 0;
    for (const obs::TrajectoryPoint& tp : res.report.trajectory) {
      const opt::SizedState s =
          ref_probe(tp.vdd, std::vector<double>(nl.size(), tp.vts));
      const double energy =
          eval.energy(s.state, s.report.gate_delay).total();
      mismatches += same(tp.energy, energy) &&
                            same(tp.critical_delay, s.report.critical_delay) &&
                            tp.feasible == s.feasible
                        ? 0
                        : 1;
    }
    EXPECT_EQ(mismatches, 0);
    // And the answer itself: widths, energy, Vdd and Vts.
    const opt::SizedState s = ref_probe(res.vdd, res.state.vts);
    EXPECT_TRUE(same(res.state.widths, s.state.widths));
    EXPECT_TRUE(same(res.energy.total(),
                     eval.energy(s.state, s.report.gate_delay).total()));
    EXPECT_TRUE(same(res.vdd, s.state.vdd));
    EXPECT_TRUE(same(res.vts_primary, s.state.vts[0]));
  }
}

}  // namespace
}  // namespace minergy
