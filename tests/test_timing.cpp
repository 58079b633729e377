#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <limits>

#include "activity/activity.h"
#include "interconnect/wire_model.h"
#include "netlist/bench_io.h"
#include "netlist/generator.h"
#include "power/energy_model.h"
#include "timing/delay_model.h"
#include "timing/sta.h"

namespace minergy::timing {
namespace {

using netlist::GateId;
using netlist::Netlist;

struct Fixture {
  Fixture()
      : nl(make()),
        tech(tech::Technology::generic350()),
        dev(tech),
        wires(tech, nl),
        calc(nl, dev, wires) {}

  static Netlist make() {
    return netlist::parse_bench_string(R"(
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(y)
g1 = NAND(a, b)
g2 = NOR(g1, c)
g3 = NOT(g2)
y = NAND(g3, g1)
)");
  }

  std::vector<double> widths(double w) const {
    return std::vector<double>(nl.size(), w);
  }

  Netlist nl;
  tech::Technology tech;
  tech::DeviceModel dev;
  interconnect::WireModel wires;
  DelayCalculator calc;
};

TEST(DelayModel, ComponentsArePositiveAndSum) {
  Fixture f;
  const auto w = f.widths(4.0);
  const GateId g1 = f.nl.find("g1");
  const DelayComponents c =
      f.calc.gate_delay_components(g1, w, 3.3, 0.7, 100e-12);
  EXPECT_GT(c.slope, 0.0);
  EXPECT_GT(c.switching, 0.0);
  EXPECT_GE(c.wire_rc, 0.0);
  EXPECT_GT(c.flight, 0.0);
  EXPECT_NEAR(c.total(), c.slope + c.switching + c.wire_rc + c.flight, 1e-20);
  EXPECT_NEAR(f.calc.gate_delay(g1, w, 3.3, 0.7, 100e-12), c.total(), 1e-20);
}

TEST(DelayModel, DelayDecreasesWithWidth) {
  Fixture f;
  const GateId g1 = f.nl.find("g1");
  double prev = 1e9;
  for (double w = 1.0; w <= 100.0; w *= 1.5) {
    auto widths = f.widths(4.0);
    widths[g1] = w;
    const double d = f.calc.gate_delay(g1, widths, 1.0, 0.2, 0.0);
    EXPECT_LT(d, prev) << "w=" << w;
    prev = d;
  }
}

TEST(DelayModel, DelayDecreasesWithVdd) {
  Fixture f;
  const auto w = f.widths(4.0);
  const GateId g1 = f.nl.find("g1");
  double prev = 1e9;
  for (double vdd = 0.3; vdd <= 3.3; vdd += 0.1) {
    const double d = f.calc.gate_delay(g1, w, vdd, 0.2, 0.0);
    EXPECT_LT(d, prev) << "vdd=" << vdd;
    prev = d;
  }
}

TEST(DelayModel, DelayIncreasesWithVts) {
  Fixture f;
  const auto w = f.widths(4.0);
  const GateId g1 = f.nl.find("g1");
  double prev = 0.0;
  for (double vts = 0.1; vts <= 0.7; vts += 0.05) {
    const double d = f.calc.gate_delay(g1, w, 1.0, vts, 0.0);
    EXPECT_GT(d, prev) << "vts=" << vts;
    prev = d;
  }
}

TEST(DelayModel, SlopeTermScalesWithFaninDelay) {
  Fixture f;
  const auto w = f.widths(4.0);
  const GateId g1 = f.nl.find("g1");
  const double d0 = f.calc.gate_delay(g1, w, 1.0, 0.2, 0.0);
  const double d1 = f.calc.gate_delay(g1, w, 1.0, 0.2, 1e-9);
  const double k = f.dev.slope_coefficient(1.0, 0.2);
  EXPECT_NEAR(d1 - d0, k * 1e-9, 1e-15);
}

TEST(DelayModel, SubthresholdOperationIsFiniteButSlow) {
  // Vdd below Vts: the transregional model must give a finite delay that is
  // orders of magnitude above superthreshold (the paper's key enabler for
  // aggressive voltage scaling).
  Fixture f;
  const auto w = f.widths(4.0);
  const GateId g1 = f.nl.find("g1");
  const double sub = f.calc.gate_delay(g1, w, 0.25, 0.4, 0.0);
  const double super = f.calc.gate_delay(g1, w, 1.2, 0.4, 0.0);
  EXPECT_TRUE(std::isfinite(sub));
  EXPECT_GT(sub, 50.0 * super);
}

TEST(DelayModel, InfiniteWhenLeakageExceedsDrive) {
  // Deep subthreshold with huge leakage: the f_in * Ioff term can exceed
  // the stack drive; delay must saturate to +inf, not go negative.
  Fixture f;
  tech::Technology leaky = f.tech;
  leaky.leakage_scale = 1e6;
  tech::DeviceModel dev(leaky);
  DelayCalculator calc(f.nl, dev, f.wires);
  const auto w = f.widths(1.0);
  const double d = calc.gate_delay(f.nl.find("g1"), w, 0.15, 0.1, 0.0);
  EXPECT_TRUE(std::isinf(d));
}

TEST(DelayModel, LoadCapCountsReceiversWiresAndSelf) {
  Fixture f;
  auto w = f.widths(2.0);
  const GateId g1 = f.nl.find("g1");  // fanouts: g2 and y
  const double base = f.calc.load_cap(g1, w);
  // Widening a receiver increases the driver's load by cin per unit.
  w[f.nl.find("g2")] += 1.0;
  EXPECT_NEAR(f.calc.load_cap(g1, w) - base, f.dev.cin_per_wunit(), 1e-22);
  // Widening the driver itself adds parasitic + stack-internal cap.
  w[f.nl.find("g2")] -= 1.0;
  w[g1] += 1.0;
  EXPECT_NEAR(f.calc.load_cap(g1, w) - base,
              f.dev.cpar_per_wunit() + f.dev.cmid_per_wunit(), 1e-22);
}

TEST(DelayModel, PrimaryOutputCarriesPinLoad) {
  Fixture f;
  const auto w = f.widths(2.0);
  const GateId y = f.nl.find("y");
  const double cap = f.calc.receiver_cap(y, w);
  EXPECT_NEAR(cap, f.tech.po_load_w * f.dev.cin_per_wunit(), 1e-22);
}

TEST(DelayModel, IntrinsicFloorIsLowerBound) {
  Fixture f;
  const auto w = f.widths(3.0);
  const GateId g1 = f.nl.find("g1");
  const double floor = f.calc.intrinsic_delay_floor(g1, w, 1.0, 0.2);
  EXPECT_LE(floor, f.calc.gate_delay(g1, w, 1.0, 0.2, 0.0) * (1 + 1e-9));
  EXPECT_GT(floor, 0.0);
}

// ----------------------------------------------------------------- STA

TEST(Sta, ChainArrivalsAccumulate) {
  Netlist nl = netlist::parse_bench_string(R"(
INPUT(a)
OUTPUT(y)
n1 = NOT(a)
n2 = NOT(n1)
y = NOT(n2)
)");
  tech::Technology tech = tech::Technology::generic350();
  tech::DeviceModel dev(tech);
  interconnect::WireModel wires(tech, nl);
  DelayCalculator calc(nl, dev, wires);
  std::vector<double> w(nl.size(), 4.0);
  const TimingReport r = run_sta(calc, w, 1.0, 0.2, 10e-9);
  const GateId n1 = nl.find("n1"), n2 = nl.find("n2"), y = nl.find("y");
  EXPECT_NEAR(r.arrival[n1], r.gate_delay[n1], 1e-18);
  EXPECT_NEAR(r.arrival[n2], r.arrival[n1] + r.gate_delay[n2], 1e-18);
  EXPECT_NEAR(r.critical_delay, r.arrival[y], 1e-18);
  ASSERT_EQ(r.critical_path.size(), 3u);
  EXPECT_EQ(r.critical_path.front(), n1);
  EXPECT_EQ(r.critical_path.back(), y);
}

TEST(Sta, CriticalPathIsConnected) {
  Fixture f;
  const auto w = f.widths(4.0);
  const TimingReport r = run_sta(f.calc, w, 1.0, 0.2, 10e-9);
  ASSERT_GE(r.critical_path.size(), 2u);
  for (std::size_t i = 1; i < r.critical_path.size(); ++i) {
    const auto& fanins = f.nl.gate(r.critical_path[i]).fanins;
    EXPECT_NE(std::find(fanins.begin(), fanins.end(), r.critical_path[i - 1]),
              fanins.end());
  }
}

TEST(Sta, SlackSignsMatchConstraint) {
  Fixture f;
  const auto w = f.widths(4.0);
  const TimingReport tight = run_sta(f.calc, w, 1.0, 0.2, 1e-12);
  const TimingReport loose = run_sta(f.calc, w, 1.0, 0.2, 1.0);
  // With an impossible constraint every gate on a path to a sink has
  // negative slack; with a generous one, positive.
  for (GateId id : f.nl.combinational()) {
    EXPECT_LT(tight.slack[id], 0.0);
    EXPECT_GT(loose.slack[id], 0.0);
  }
}

TEST(Sta, CriticalGateHasMinimumSlack) {
  Fixture f;
  const auto w = f.widths(4.0);
  const double tc = 10e-9;
  const TimingReport r = run_sta(f.calc, w, 1.0, 0.2, tc);
  double min_slack = 1e9;
  for (GateId id : f.nl.combinational()) {
    min_slack = std::min(min_slack, r.slack[id]);
  }
  const GateId endpoint = r.critical_path.back();
  EXPECT_NEAR(r.slack[endpoint], tc - r.critical_delay, 1e-15);
  EXPECT_NEAR(min_slack, tc - r.critical_delay, 1e-15);
}

TEST(Sta, PerGateThresholdsAreHonored) {
  Fixture f;
  const auto w = f.widths(4.0);
  std::vector<double> vts(f.nl.size(), 0.2);
  const TimingReport base = run_sta(f.calc, w, 1.0,
                                    std::span<const double>(vts), 10e-9);
  vts[f.nl.find("g1")] = 0.5;  // slow one gate only
  const TimingReport slowed = run_sta(f.calc, w, 1.0,
                                      std::span<const double>(vts), 10e-9);
  EXPECT_GT(slowed.gate_delay[f.nl.find("g1")],
            base.gate_delay[f.nl.find("g1")]);
  // Downstream gates keep their own threshold: any change in their delay
  // comes only through the (bounded) input-slope term.
  const GateId g3 = f.nl.find("g3");
  const double extra = slowed.gate_delay[f.nl.find("g1")] -
                       base.gate_delay[f.nl.find("g1")];
  EXPECT_GE(slowed.gate_delay[g3], base.gate_delay[g3]);
  EXPECT_LE(slowed.gate_delay[g3], base.gate_delay[g3] + 0.5 * extra + 1e-15);
  EXPECT_GT(slowed.critical_delay, base.critical_delay);
}

// Property sweep: STA critical delay is monotone in the global knobs.
class StaMonotonicity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StaMonotonicity, CriticalDelayMonotoneInVddAndVts) {
  netlist::GeneratorSpec spec;
  spec.num_inputs = 8;
  spec.num_gates = 60;
  spec.depth = 7;
  spec.seed = GetParam();
  Netlist nl = netlist::generate_random_logic(spec);
  tech::Technology tech = tech::Technology::generic350();
  tech::DeviceModel dev(tech);
  interconnect::WireModel wires(tech, nl);
  DelayCalculator calc(nl, dev, wires);
  std::vector<double> w(nl.size(), 4.0);

  double prev = 1e9;
  for (double vdd : {0.6, 1.0, 1.8, 2.6, 3.3}) {
    const double crit = run_sta(calc, w, vdd, 0.25, 1.0).critical_delay;
    EXPECT_LT(crit, prev);
    prev = crit;
  }
  prev = 0.0;
  for (double vts : {0.1, 0.25, 0.4, 0.55}) {
    const double crit = run_sta(calc, w, 1.2, vts, 1.0).critical_delay;
    EXPECT_GT(crit, prev);
    prev = crit;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StaMonotonicity,
                         ::testing::Values(1, 7, 21, 77, 123));

// ------------------------------------------------ precomputed device terms

struct RandomFixture {
  RandomFixture()
      : nl(make()),
        tech(tech::Technology::generic350()),
        dev(tech),
        wires(tech, nl),
        calc(nl, dev, wires) {
    // Deterministic, uneven widths so fanout loads differ gate to gate.
    widths.assign(nl.size(), tech.w_min);
    for (GateId id : nl.combinational()) {
      widths[id] = 1.0 + static_cast<double>((id * 37) % 23);
    }
  }

  static Netlist make() {
    netlist::GeneratorSpec spec;
    spec.num_inputs = 10;
    spec.num_gates = 200;
    spec.depth = 12;
    spec.num_dffs = 8;
    spec.seed = 5;
    return netlist::generate_random_logic(spec);
  }

  // Reference Eq. (A3) with every device term evaluated per call.
  double per_call_delay(GateId id, double vdd, double vts,
                        double max_fanin_delay) const {
    const int fin = nl.gate(id).fanin_count();
    const double slope = dev.slope_coefficient(vdd, vts) * max_fanin_delay;
    const double drive =
        widths[id] * (dev.idrive_per_wunit(vdd, vts) /
                          tech::DeviceModel::stack_factor(fin) -
                      static_cast<double>(fin) * dev.ioff_per_wunit(vts));
    if (drive <= 0.0) return slope + std::numeric_limits<double>::infinity();
    const double switching = 0.5 * vdd * calc.load_cap(id, widths) / drive;
    const double wire_rc =
        wires.net_res(id) *
        (0.5 * wires.net_cap(id) + calc.receiver_cap(id, widths));
    return slope + switching + wire_rc + wires.flight_time(id);
  }

  Netlist nl;
  tech::Technology tech;
  tech::DeviceModel dev;
  interconnect::WireModel wires;
  DelayCalculator calc;
  std::vector<double> widths;
};

// (Vdd, Vts) pairs above, near and below threshold, plus one where leakage
// through the fanin off-devices can exceed a stacked gate's drive.
constexpr std::array<std::array<double, 2>, 4> kPoints = {
    {{3.3, 0.7}, {1.2, 0.2}, {0.45, 0.35}, {0.12, 0.1}}};

TEST(OperatingPoint, GateDelayMatchesPerCallFormBitForBit) {
  RandomFixture f;
  for (const auto& [vdd, vts] : kPoints) {
    const tech::OperatingPoint op = f.dev.operating_point(vdd, vts);
    EXPECT_EQ(op.idrive, f.dev.idrive_per_wunit(vdd, vts));
    EXPECT_EQ(op.ioff, f.dev.ioff_per_wunit(vts));
    EXPECT_EQ(op.k_slope, f.dev.slope_coefficient(vdd, vts));
    for (GateId id : f.nl.combinational()) {
      for (double mfd : {0.0, 3e-10}) {
        const double ref = f.per_call_delay(id, vdd, vts, mfd);
        EXPECT_EQ(f.calc.gate_delay(id, f.widths, op, mfd), ref);
        EXPECT_EQ(f.calc.gate_delay(id, f.widths, vdd, vts, mfd), ref);
      }
    }
  }
}

TEST(OperatingPoint, WidthTermsReproduceTheDelayCurve) {
  RandomFixture f;
  for (const auto& [vdd, vts] : kPoints) {
    const tech::OperatingPoint op = f.dev.operating_point(vdd, vts);
    for (GateId id : f.nl.combinational()) {
      const WidthTerms t = f.calc.width_terms(id, f.widths, op, 2e-10);
      // The decomposition's own eval is gate_delay at widths[id].
      EXPECT_EQ(t.delay, f.calc.gate_delay(id, f.widths, op, 2e-10));
      if (std::isinf(t.delay)) {
        EXPECT_TRUE(std::isinf(t.a));
        continue;
      }
      // And d(w) = a + b/w holds at any other width.
      auto w = f.widths;
      for (double wi : {1.0, 7.5, 100.0}) {
        w[id] = wi;
        const double d = f.calc.gate_delay(id, w, op, 2e-10);
        EXPECT_NEAR(t.a + t.b / wi, d, 1e-12 * d) << f.nl.gate(id).name;
      }
    }
  }
}

TEST(OperatingPoint, EnergyMatchesPerCallFormBitForBit) {
  RandomFixture f;
  activity::ActivityProfile profile;
  const activity::ActivityResult act =
      activity::estimate_activity(f.nl, profile);
  const power::EnergyModel em(f.nl, f.dev, f.wires, act, 300e6);
  for (const auto& [vdd, vts] : kPoints) {
    const tech::OperatingPoint op = f.dev.operating_point(vdd, vts);
    for (GateId id : f.nl.combinational()) {
      const power::EnergyBreakdown a = em.gate_energy(id, f.widths, op);
      const power::EnergyBreakdown b = em.gate_energy(id, f.widths, vdd, vts);
      EXPECT_EQ(a.static_energy, b.static_energy);
      EXPECT_EQ(a.dynamic_energy, b.dynamic_energy);
      EXPECT_EQ(a.static_energy,
                vdd * f.widths[id] * f.dev.ioff_per_wunit(vts) / 300e6);
    }
  }
}

TEST(OperatingPoint, MixedPerGateStaMatchesPerGateReferenceLoop) {
  RandomFixture f;
  // Runs of equal (vdd, vts) and frequent switches, so the per-loop memo
  // both reuses and recomputes its operating point.
  std::vector<double> vdd(f.nl.size(), 1.0), vts(f.nl.size(), 0.3);
  for (GateId id : f.nl.combinational()) {
    vdd[id] = (id / 7) % 3 == 0 ? 0.45 : ((id / 7) % 3 == 1 ? 1.2 : 2.5);
    vts[id] = id % 5 == 0 ? 0.15 : (id % 5 == 1 ? 0.45 : 0.3);
  }
  const double tc = 20e-9;
  const TimingReport r = run_sta(f.calc, f.widths, std::span<const double>(vdd),
                                 std::span<const double>(vts), tc);
  std::vector<double> delay(f.nl.size(), 0.0), arrival(f.nl.size(), 0.0);
  double critical = 0.0;
  for (GateId id : f.nl.combinational()) {
    double mfd = 0.0, mfa = 0.0;
    for (GateId fi : f.nl.gate(id).fanins) {
      mfd = std::max(mfd, delay[fi]);
      mfa = std::max(mfa, arrival[fi]);
    }
    delay[id] = f.per_call_delay(id, vdd[id], vts[id], mfd);
    arrival[id] = mfa + delay[id];
  }
  for (GateId id : f.nl.sink_drivers()) {
    critical = std::max(critical, arrival[id]);
  }
  for (GateId id : f.nl.combinational()) {
    EXPECT_EQ(r.gate_delay[id], delay[id]) << f.nl.gate(id).name;
    EXPECT_EQ(r.arrival[id], arrival[id]) << f.nl.gate(id).name;
  }
  EXPECT_EQ(r.critical_delay, critical);
}

}  // namespace
}  // namespace minergy::timing
