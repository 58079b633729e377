#include <gtest/gtest.h>

#include "activity/activity.h"
#include "bench_suite/iscas.h"
#include "interconnect/wire_model.h"
#include "netlist/bench_io.h"
#include "netlist/generator.h"
#include "opt/baseline_optimizer.h"
#include "opt/evaluator.h"
#include "opt/joint_optimizer.h"
#include "obs/metrics.h"
#include "power/energy_model.h"

namespace minergy::power {
namespace {

using netlist::GateId;
using netlist::Netlist;

struct Fixture {
  Fixture()
      : nl(netlist::parse_bench_string(R"(
INPUT(a)
INPUT(b)
OUTPUT(y)
g1 = NAND(a, b)
y = NOT(g1)
)")),
        tech(tech::Technology::generic350()),
        dev(tech),
        wires(tech, nl),
        act(activity::estimate_activity(nl, profile())),
        energy(nl, dev, wires, act, 300e6) {}

  static activity::ActivityProfile profile() {
    activity::ActivityProfile p;
    p.input_density = 0.4;
    return p;
  }

  std::vector<double> widths(double w) const {
    return std::vector<double>(nl.size(), w);
  }

  Netlist nl;
  tech::Technology tech;
  tech::DeviceModel dev;
  interconnect::WireModel wires;
  activity::ActivityResult act;
  EnergyModel energy;
};

TEST(ShortCircuit, MatchesClosedForm) {
  Fixture f;
  const auto w = f.widths(4.0);
  const GateId g1 = f.nl.find("g1");  // 2-input: stack factor 2
  const double tau = 150e-12;
  const double vdd = 2.5, vts = 0.5;
  const double expected = f.act.density[g1] / 6.0 * 4.0 *
                          f.dev.idrive_per_wunit(0.5 * vdd, vts) / 2.0 *
                          tau * (vdd - 2.0 * vts);
  EXPECT_NEAR(f.energy.short_circuit_energy(g1, w, vdd, vts, tau), expected,
              expected * 1e-12);
}

TEST(ShortCircuit, VanishesWhenVddBelowTwiceVts) {
  // Vdd <= 2*Vts: the two networks never conduct simultaneously.
  Fixture f;
  const auto w = f.widths(4.0);
  const GateId g1 = f.nl.find("g1");
  EXPECT_DOUBLE_EQ(f.energy.short_circuit_energy(g1, w, 0.9, 0.5, 1e-10),
                   0.0);
  EXPECT_DOUBLE_EQ(f.energy.short_circuit_energy(g1, w, 1.0, 0.5, 1e-10),
                   0.0);
}

TEST(ShortCircuit, ScalesLinearlyWithSlewAndWidth) {
  Fixture f;
  const GateId g1 = f.nl.find("g1");
  const double e1 =
      f.energy.short_circuit_energy(g1, f.widths(2.0), 2.5, 0.4, 1e-10);
  const double e2 =
      f.energy.short_circuit_energy(g1, f.widths(4.0), 2.5, 0.4, 2e-10);
  EXPECT_NEAR(e2 / e1, 4.0, 1e-9);
}

TEST(ShortCircuit, OrderOfMagnitudeBelowSwitching) {
  // The Veendrick/paper premise that justified neglecting it: under typical
  // slopes (input edge comparable to the gate delay) E_sc is roughly an
  // order of magnitude below E_dyn at the conventional operating point.
  netlist::GeneratorSpec spec;
  spec.num_inputs = 6;
  spec.num_gates = 60;
  spec.depth = 7;
  spec.seed = 12;
  const Netlist nl = netlist::generate_random_logic(spec);
  const tech::Technology tech = tech::Technology::generic350();
  activity::ActivityProfile profile;
  profile.input_density = 0.4;
  const opt::CircuitEvaluator eval(
      nl, tech, profile,
      {.clock_frequency = 250e6, .include_short_circuit = true});
  const opt::OptimizationResult base = opt::BaselineOptimizer(eval).run();
  ASSERT_TRUE(base.feasible);
  const power::EnergyBreakdown e = eval.energy(base.state);
  EXPECT_GT(e.short_circuit_energy, 0.0);
  EXPECT_LT(e.short_circuit_energy, 0.35 * e.dynamic_energy);
}

TEST(ShortCircuit, DisabledByDefault) {
  netlist::GeneratorSpec spec;
  spec.num_inputs = 6;
  spec.num_gates = 40;
  spec.depth = 6;
  spec.seed = 13;
  const Netlist nl = netlist::generate_random_logic(spec);
  const tech::Technology tech = tech::Technology::generic350();
  const activity::ActivityProfile profile;
  const opt::CircuitEvaluator eval(nl, tech, profile,
                                   {.clock_frequency = 250e6});
  const opt::CircuitState state = opt::CircuitState::uniform(nl, 2.0, 0.3, 4.0);
  EXPECT_DOUBLE_EQ(eval.energy(state).short_circuit_energy, 0.0);
}

TEST(ShortCircuit, JointOptimumNearlyEliminatesIt) {
  // At the joint optimum Vdd is close to (or below) 2*Vts, so the
  // short-circuit window nearly closes — scaling suppresses E_sc even
  // faster than E_dyn. This is why including it barely moves the optimum.
  netlist::GeneratorSpec spec;
  spec.num_inputs = 6;
  spec.num_gates = 60;
  spec.depth = 7;
  spec.seed = 14;
  const Netlist nl = netlist::generate_random_logic(spec);
  const tech::Technology tech = tech::Technology::generic350();
  activity::ActivityProfile profile;
  profile.input_density = 0.4;
  const opt::CircuitEvaluator eval(
      nl, tech, profile,
      {.clock_frequency = 250e6, .include_short_circuit = true});
  const opt::OptimizationResult joint = opt::JointOptimizer(eval).run();
  ASSERT_TRUE(joint.feasible);
  const power::EnergyBreakdown e = eval.energy(joint.state);
  EXPECT_LT(e.short_circuit_energy, 0.15 * e.dynamic_energy);
}

// energy() given the gate delays of the caller's STA (as every joint,
// baseline and last-resort probe passes them) equals energy() timing the
// state itself, bit for bit, on every paper circuit with and without a Vts
// tolerance; the delays come from an STA against a different limit than
// energy()'s own, and no STA runs inside energy().
TEST(ShortCircuit, CallerGateDelaysGiveTheSameEnergy) {
  obs::set_enabled(true);
  obs::Counter& sta_calls = obs::counter("opt.eval.sta_calls");
  const tech::Technology tech = tech::Technology::generic350();
  activity::ActivityProfile profile;
  profile.input_density = 0.3;
  for (const bench_suite::CircuitSpec& spec : bench_suite::paper_circuits()) {
    const Netlist nl = bench_suite::make_circuit(spec);
    for (double tolerance : {0.0, 0.1}) {
      SCOPED_TRACE(spec.name + ", vts_tolerance " + std::to_string(tolerance));
      const opt::CircuitEvaluator eval(nl, tech, profile,
                                       {.clock_frequency = 100e6,
                                        .vts_tolerance = tolerance,
                                        .include_short_circuit = true});
      const double limit = 0.95 * eval.cycle_time();
      const timing::BudgetResult budgets =
          eval.budgeter().assign(eval.cycle_time(), {.clock_skew_b = 0.95});
      for (double vdd : {tech.vdd_max, 0.5 * (tech.vdd_min + tech.vdd_max)}) {
        const opt::SizedState sized = eval.size_to_budgets(
            budgets, vdd, std::vector<double>(nl.size(), tech.vts_min),
            limit, /*recovery_passes=*/2);
        const std::int64_t before = sta_calls.value();
        const EnergyBreakdown passed =
            eval.energy(sized.state, sized.report.gate_delay);
        EXPECT_EQ(sta_calls.value(), before);
        const EnergyBreakdown own = eval.energy(sized.state);
        EXPECT_EQ(sta_calls.value(), before + 1);
        EXPECT_GT(own.short_circuit_energy, 0.0);
        EXPECT_EQ(passed.short_circuit_energy, own.short_circuit_energy);
        EXPECT_EQ(passed.static_energy, own.static_energy);
        EXPECT_EQ(passed.dynamic_energy, own.dynamic_energy);
      }
    }
  }
}

TEST(EnergyBreakdownSc, TotalsIncludeShortCircuit) {
  EnergyBreakdown e{1.0, 2.0, 0.5};
  EXPECT_DOUBLE_EQ(e.total(), 3.5);
  EnergyBreakdown f2{0.0, 0.0, 0.25};
  e += f2;
  EXPECT_DOUBLE_EQ(e.short_circuit_energy, 0.75);
}

}  // namespace
}  // namespace minergy::power
