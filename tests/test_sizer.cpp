#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <string>

#include "bench_suite/iscas.h"
#include "interconnect/wire_model.h"
#include "netlist/generator.h"
#include "obs/metrics.h"
#include "opt/sizer.h"
#include "timing/delay_budget.h"
#include "timing/sta.h"

namespace minergy::opt {
namespace {

using netlist::GateId;
using netlist::Netlist;

struct Fixture {
  explicit Fixture(std::uint64_t seed = 3)
      : nl(make(seed)),
        tech(tech::Technology::generic350()),
        dev(tech),
        wires(tech, nl),
        calc(nl, dev, wires),
        budgeter(nl) {}

  static Netlist make(std::uint64_t seed) {
    netlist::GeneratorSpec spec;
    spec.num_inputs = 8;
    spec.num_gates = 70;
    spec.depth = 8;
    spec.num_dffs = 4;
    spec.seed = seed;
    return netlist::generate_random_logic(spec);
  }

  Netlist nl;
  tech::Technology tech;
  tech::DeviceModel dev;
  interconnect::WireModel wires;
  timing::DelayCalculator calc;
  timing::DelayBudgeter budgeter;
};

TEST(GateSizer, MeetsBudgetsAtStrongOperatingPoint) {
  Fixture f;
  const timing::BudgetResult budgets = f.budgeter.assign(3.33e-9);
  const std::vector<double> vts(f.nl.size(), 0.15);
  const GateSizer sizer(f.calc);
  const SizingResult r = sizer.size(budgets.t_max, 3.3, vts);
  EXPECT_TRUE(r.all_budgets_met);
  EXPECT_EQ(r.gates_missed, 0);
  // And the full STA (with actual fanin delays <= budgets) passes too.
  const timing::TimingReport sta = timing::run_sta(
      f.calc, r.widths, 3.3, std::span<const double>(vts), 3.33e-9);
  EXPECT_LE(sta.critical_delay, 0.95 * 3.33e-9 * (1.0 + 1e-9));
}

TEST(GateSizer, WidthsWithinTechnologyRange) {
  Fixture f;
  const timing::BudgetResult budgets = f.budgeter.assign(3.33e-9);
  const std::vector<double> vts(f.nl.size(), 0.2);
  const SizingResult r = GateSizer(f.calc).size(budgets.t_max, 2.0, vts);
  for (GateId id : f.nl.combinational()) {
    EXPECT_GE(r.widths[id], f.tech.w_min);
    EXPECT_LE(r.widths[id], f.tech.w_max);
  }
}

TEST(GateSizer, NearMinimalWidths) {
  // The selected width meets the budget but a slightly smaller one (beyond
  // the binary-search resolution) must violate it for gates above w_min.
  Fixture f;
  const timing::BudgetResult budgets = f.budgeter.assign(3.33e-9);
  const std::vector<double> vts(f.nl.size(), 0.2);
  const int steps = 16;
  const double vdd = 2.0;
  SizingResult r = GateSizer(f.calc).size(budgets.t_max, vdd, vts, steps);
  ASSERT_TRUE(r.all_budgets_met);
  const double resolution =
      (f.tech.w_max - f.tech.w_min) / std::pow(2.0, steps);
  int checked = 0;
  for (GateId id : f.nl.combinational()) {
    const double w = r.widths[id];
    if (w <= f.tech.w_min * 1.001) continue;
    double slope_in = 0.0;
    for (GateId fanin : f.nl.gate(id).fanins) {
      if (netlist::is_combinational(f.nl.gate(fanin).type)) {
        slope_in = std::max(slope_in, budgets.t_max[fanin]);
      }
    }
    auto widths = r.widths;
    widths[id] = std::max(f.tech.w_min, w - 4.0 * resolution);
    const double d = f.calc.gate_delay(id, widths, vdd, 0.2, slope_in);
    EXPECT_GT(d, budgets.t_max[id] * (1.0 - 1e-9)) << f.nl.gate(id).name;
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

TEST(GateSizer, ImpossibleBudgetsReported) {
  Fixture f;
  // Budgets from an absurd cycle time cannot be met even at w_max.
  const timing::BudgetResult budgets = f.budgeter.assign(1e-12);
  const std::vector<double> vts(f.nl.size(), 0.7);
  const SizingResult r = GateSizer(f.calc).size(budgets.t_max, 0.5, vts);
  EXPECT_FALSE(r.all_budgets_met);
  EXPECT_GT(r.gates_missed, 0);
}

TEST(GateSizer, TighterCycleTimeGivesWiderGates) {
  Fixture f;
  const std::vector<double> vts(f.nl.size(), 0.2);
  const GateSizer sizer(f.calc);
  const SizingResult loose =
      sizer.size(f.budgeter.assign(20e-9).t_max, 1.2, vts);
  const SizingResult tight =
      sizer.size(f.budgeter.assign(5e-9).t_max, 1.2, vts);
  double loose_area = 0.0, tight_area = 0.0;
  for (GateId id : f.nl.combinational()) {
    loose_area += loose.widths[id];
    tight_area += tight.widths[id];
  }
  EXPECT_GT(tight_area, loose_area);
}

TEST(GateSizer, LowerVddGivesWiderGates) {
  Fixture f;
  const std::vector<double> vts(f.nl.size(), 0.15);
  const timing::BudgetResult budgets = f.budgeter.assign(3.33e-9);
  const GateSizer sizer(f.calc);
  const SizingResult high = sizer.size(budgets.t_max, 3.0, vts);
  const SizingResult low = sizer.size(budgets.t_max, 1.0, vts);
  double high_area = 0.0, low_area = 0.0;
  for (GateId id : f.nl.combinational()) {
    high_area += high.widths[id];
    low_area += low.widths[id];
  }
  EXPECT_GT(low_area, high_area);
}

TEST(GateSizer, DeterministicAcrossRuns) {
  Fixture f;
  const timing::BudgetResult budgets = f.budgeter.assign(3.33e-9);
  const std::vector<double> vts(f.nl.size(), 0.2);
  const SizingResult a = GateSizer(f.calc).size(budgets.t_max, 1.5, vts);
  const SizingResult b = GateSizer(f.calc).size(budgets.t_max, 1.5, vts);
  EXPECT_EQ(a.widths, b.widths);
}

// ------------------------------------------------------- width recovery

TEST(GateSizerRecovery, NeverIncreasesAnyWidth) {
  Fixture f;
  const timing::BudgetResult budgets = f.budgeter.assign(3.33e-9);
  const std::vector<double> vts(f.nl.size(), 0.2);
  const GateSizer sizer(f.calc);
  const SizingResult sized = sizer.size(budgets.t_max, 1.5, vts);
  const double limit = 0.95 * 3.33e-9;
  const timing::TimingReport report = timing::run_sta(
      f.calc, sized.widths, 1.5, std::span<const double>(vts), limit);
  const SizingResult rec =
      sizer.recover(sized.widths, 1.5, vts, limit, report);
  for (GateId id : f.nl.combinational()) {
    EXPECT_LE(rec.widths[id], sized.widths[id] * (1.0 + 1e-12));
    EXPECT_GE(rec.widths[id], f.tech.w_min);
  }
}

TEST(GateSizerRecovery, RecoveredStateStillMeetsTiming) {
  Fixture f;
  const timing::BudgetResult budgets = f.budgeter.assign(3.33e-9);
  const std::vector<double> vts(f.nl.size(), 0.15);
  const GateSizer sizer(f.calc);
  const SizingResult sized = sizer.size(budgets.t_max, 2.0, vts);
  const double limit = 0.95 * 3.33e-9;
  const timing::TimingReport report = timing::run_sta(
      f.calc, sized.widths, 2.0, std::span<const double>(vts), limit);
  ASSERT_LE(report.critical_delay, limit * (1 + 1e-9));
  const SizingResult rec =
      sizer.recover(sized.widths, 2.0, vts, limit, report);
  const timing::TimingReport after = timing::run_sta(
      f.calc, rec.widths, 2.0, std::span<const double>(vts), limit);
  EXPECT_LE(after.critical_delay, limit * (1.0 + 1e-9));
}

TEST(GateSizerRecovery, ReclaimsAreaWhenSlackExists) {
  // At a strong operating point the Procedure-1 budgets are highly
  // conservative; recovery must reclaim a nonzero amount of width.
  Fixture f;
  const timing::BudgetResult budgets = f.budgeter.assign(3.33e-9);
  const std::vector<double> vts(f.nl.size(), 0.15);
  const GateSizer sizer(f.calc);
  const SizingResult sized = sizer.size(budgets.t_max, 1.0, vts);
  const double limit = 0.95 * 3.33e-9;
  const timing::TimingReport report = timing::run_sta(
      f.calc, sized.widths, 1.0, std::span<const double>(vts), limit);
  if (report.critical_delay > limit) GTEST_SKIP();
  const SizingResult rec =
      sizer.recover(sized.widths, 1.0, vts, limit, report);
  double before = 0.0, after = 0.0;
  for (GateId id : f.nl.combinational()) {
    before += sized.widths[id];
    after += rec.widths[id];
  }
  EXPECT_LT(after, before);
}

// Budget-met + STA-pass property across seeds (the contract Procedure 2's
// acceptance test relies on).
class SizerProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SizerProperty, BudgetsMetImpliesStaFeasible) {
  Fixture f(GetParam());
  const timing::BudgetResult budgets = f.budgeter.assign(5e-9);
  const std::vector<double> vts(f.nl.size(), 0.25);
  const SizingResult r = GateSizer(f.calc).size(budgets.t_max, 2.5, vts);
  if (!r.all_budgets_met) GTEST_SKIP() << "operating point too weak";
  const timing::TimingReport sta = timing::run_sta(
      f.calc, r.widths, 2.5, std::span<const double>(vts), 5e-9);
  EXPECT_LE(sta.critical_delay, 0.95 * 5e-9 * (1.0 + 1e-9));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SizerProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ------------------------------------------- closed form vs. bisection

// Worst-case slope input: the largest budget among the logic fanins.
double slope_input(const Netlist& nl, GateId id, std::span<const double> t) {
  double slope_in = 0.0;
  for (GateId f : nl.gate(id).fanins) {
    if (netlist::is_combinational(nl.gate(f).type)) {
      slope_in = std::max(slope_in, t[f]);
    }
  }
  return slope_in;
}

// The reference width search: bisection on the monotone delay, run to 60
// steps (past double resolution on [w_min, w_max]). In sizing mode
// every gate starts at w_min and a miss takes w_max; in recovery mode the
// upper bound is the gate's current width, which a miss keeps, and gates
// already at w_min are skipped. `met` is per gate id.
struct OracleResult {
  std::vector<double> widths;
  std::vector<char> met;
  int gates_missed = 0;
};

OracleResult bisection_oracle(const timing::DelayCalculator& calc,
                              std::span<const double> start,
                              std::span<const double> budgets, double vdd,
                              std::span<const double> vts, bool recovery) {
  const Netlist& nl = calc.netlist();
  const tech::Technology& tech = calc.device().technology();
  OracleResult r;
  r.widths.assign(start.begin(), start.end());
  r.met.assign(nl.size(), 1);
  const auto& topo = nl.combinational();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const GateId id = *it;
    const double w_hi = recovery ? r.widths[id] : tech.w_max;
    if (recovery && w_hi <= tech.w_min * (1.0 + 1e-12)) continue;
    const double slope_in = slope_input(nl, id, budgets);
    auto meets = [&](double w) {
      r.widths[id] = w;
      return calc.gate_delay(id, r.widths, vdd, vts[id], slope_in) <=
             budgets[id];
    };
    if (meets(tech.w_min)) continue;
    if (!meets(w_hi)) {
      r.met[id] = 0;
      if (!recovery) ++r.gates_missed;
      continue;
    }
    double lo = tech.w_min, hi = w_hi;
    for (int s = 0; s < 60; ++s) {
      const double mid = 0.5 * (lo + hi);
      (meets(mid) ? hi : lo) = mid;
    }
    r.widths[id] = hi;
  }
  return r;
}

// The relaxed budgets GateSizer::recover derives from a report.
std::vector<double> recovery_budgets(const Netlist& nl,
                                     const timing::TimingReport& report,
                                     double limit) {
  std::vector<double> t_rec(nl.size(), 0.0);
  for (GateId id : nl.combinational()) {
    const double slack = std::max(0.0, report.slack[id]);
    const double denom = std::max(limit - slack, 1e-3 * limit);
    t_rec[id] = report.gate_delay[id] * limit / denom;
  }
  return t_rec;
}

struct PaperCase {
  Netlist nl;
  tech::Technology tech = tech::Technology::generic350();
  tech::DeviceModel dev{tech};
  interconnect::WireModel wires;
  timing::DelayCalculator calc;
  timing::DelayBudgeter budgeter;

  explicit PaperCase(const bench_suite::CircuitSpec& spec)
      : nl(bench_suite::make_circuit(spec)),
        wires(tech, nl),
        calc(nl, dev, wires),
        budgeter(nl) {}

  // A cycle time `factor` times the critical delay with every gate at
  // w_min, so that the budgets leave some gates at w_min, size others and
  // (when tight) make a few unreachable.
  double cycle_time(double vdd, std::span<const double> vts,
                    double factor) const {
    const std::vector<double> w(nl.size(), tech.w_min);
    return factor *
           timing::run_sta(calc, w, vdd, vts, 1.0).critical_delay;
  }
};

// (Vdd, delay-corner Vts) above, near and below threshold.
constexpr std::array<std::array<double, 2>, 3> kOperatingPoints = {
    {{2.0, 0.3}, {0.45, 0.35}, {0.25, 0.35}}};

TEST(GateSizerOracle, ClosedFormMatchesBisectionOnPaperCircuits) {
  int sized_between = 0, missed = 0;
  for (const bench_suite::CircuitSpec& spec : bench_suite::paper_circuits()) {
    const PaperCase pc(spec);
    const Netlist& nl = pc.nl;
    const tech::Technology& tech = pc.tech;
    const GateSizer sizer(pc.calc);
    for (const auto& [vdd, vts0] : kOperatingPoints) {
      const std::vector<double> vts(nl.size(), vts0);
      for (double factor : {0.5, 1.2}) {
        SCOPED_TRACE(spec.name + " vdd=" + std::to_string(vdd) +
                     " factor=" + std::to_string(factor));
        const double tc = pc.cycle_time(vdd, vts, factor);
        const timing::BudgetResult budgets = pc.budgeter.assign(tc);
        const std::vector<double> w_min(nl.size(), tech.w_min);

        // size() against the oracle.
        const SizingResult r = sizer.size(budgets.t_max, vdd, vts);
        const OracleResult o = bisection_oracle(pc.calc, w_min, budgets.t_max,
                                                vdd, vts, false);
        EXPECT_EQ(r.gates_missed, o.gates_missed);
        EXPECT_EQ(r.all_budgets_met, o.gates_missed == 0);
        for (GateId id : nl.combinational()) {
          EXPECT_NEAR(r.widths[id], o.widths[id], 1e-12 * tech.w_max)
              << nl.gate(id).name;
          if (o.met[id]) {
            EXPECT_LE(pc.calc.gate_delay(id, r.widths, vdd, vts[id],
                                         slope_input(nl, id, budgets.t_max)),
                      budgets.t_max[id])
                << nl.gate(id).name;
          }
          if (r.widths[id] > tech.w_min && r.widths[id] < tech.w_max) {
            ++sized_between;
          }
        }
        missed += r.gates_missed;

        // recover() against the oracle, from the sized state.
        const double limit = 0.95 * tc;
        const timing::TimingReport report = timing::run_sta(
            pc.calc, r.widths, vdd, std::span<const double>(vts), limit);
        const std::vector<double> t_rec =
            recovery_budgets(nl, report, limit);
        const SizingResult rec =
            sizer.recover(r.widths, vdd, vts, limit, report);
        const OracleResult ro =
            bisection_oracle(pc.calc, r.widths, t_rec, vdd, vts, true);
        EXPECT_EQ(rec.gates_missed, ro.gates_missed);
        EXPECT_TRUE(rec.all_budgets_met);
        for (GateId id : nl.combinational()) {
          EXPECT_NEAR(rec.widths[id], ro.widths[id], 1e-12 * tech.w_max)
              << nl.gate(id).name;
          EXPECT_LE(rec.widths[id], r.widths[id]);
          // A gate recovery could not relax keeps its width (and its old
          // budget); every width recovery chose meets the relaxed one.
          if (rec.widths[id] < r.widths[id]) {
            EXPECT_LE(pc.calc.gate_delay(id, rec.widths, vdd, vts[id],
                                         slope_input(nl, id, t_rec)),
                      t_rec[id])
                << nl.gate(id).name;
          }
        }
      }
    }
  }
  // The sweep exercised all three outcomes, not just w_min.
  EXPECT_GT(sized_between, 0);
  EXPECT_GT(missed, 0);
}

TEST(GateSizerOracle, AtMostTwoDelayEvalsPerGatePerCall) {
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  obs::Counter& evals = obs::counter("timing.delay.gate_evals");
  for (const bench_suite::CircuitSpec& spec : bench_suite::paper_circuits()) {
    const PaperCase pc(spec);
    const Netlist& nl = pc.nl;
    const GateSizer sizer(pc.calc);
    const auto bound = static_cast<std::int64_t>(2 * nl.num_combinational());
    for (const auto& [vdd, vts0] : kOperatingPoints) {
      const std::vector<double> vts(nl.size(), vts0);
      for (double factor : {0.5, 1.2}) {
        SCOPED_TRACE(spec.name + " vdd=" + std::to_string(vdd));
        const double tc = pc.cycle_time(vdd, vts, factor);
        const timing::BudgetResult budgets = pc.budgeter.assign(tc);
        std::int64_t before = evals.value();
        const SizingResult r = sizer.size(budgets.t_max, vdd, vts);
        EXPECT_LE(evals.value() - before, bound);

        const double limit = 0.95 * tc;
        const timing::TimingReport report = timing::run_sta(
            pc.calc, r.widths, vdd, std::span<const double>(vts), limit);
        before = evals.value();
        (void)sizer.recover(r.widths, vdd, vts, limit, report);
        EXPECT_LE(evals.value() - before, bound);
      }
    }
  }
  obs::set_enabled(was_enabled);
}

}  // namespace
}  // namespace minergy::opt
