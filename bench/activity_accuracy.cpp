// Activity-estimation accuracy ablation.
//
// Section 4.1: the paper propagates Najm transition densities, "a first
// order approximation to more complex transition density computation
// algorithms". This bench quantifies what that approximation costs:
//   * first-order (independence-assuming) densities,
//   * exact BDD-based Boolean-difference densities,
//   * Monte-Carlo settled-toggle measurement (ground truth at low input
//     density), and
//   * unit-delay glitch simulation (what zero-delay models cannot see),
// plus the impact of the estimator choice on the total dynamic energy.
#include <cstdio>
#include <iostream>

#include "activity/activity.h"
#include "activity/exact.h"
#include "bench_suite/experiment.h"
#include "bench_suite/iscas.h"
#include "sim/logic_sim.h"
#include "obs/session.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/table.h"

using namespace minergy;

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  bench_suite::apply_engine_flags(cli);
  const obs::Session session(cli, "activity_accuracy");
  const double density = cli.get("activity", 0.1);
  const int cycles = cli.get("cycles", 40000);

  std::printf("== Activity-estimation accuracy (input density %.2f) ==\n\n",
              density);
  util::Table table({"Circuit", "sum D first", "sum D exact", "sum D MC",
                     "sum D glitch", "first/MC", "exact/MC", "glitch/MC"});

  for (const auto& spec : bench_suite::paper_circuits()) {
    const netlist::Netlist nl = bench_suite::make_circuit(spec);
    activity::ActivityProfile profile;
    profile.input_density = density;

    const auto first = activity::estimate_activity(nl, profile);
    double exact_sum = -1.0;
    try {
      const auto exact = activity::estimate_activity_exact(nl, profile);
      exact_sum = 0.0;
      for (netlist::GateId id : nl.combinational()) {
        exact_sum += exact.density[id];
      }
    } catch (const std::runtime_error&) {
      // BDD blow-up: fall through with the sentinel.
    }
    util::Rng r1(404), r2(404);
    const auto mc = sim::measure_activity(nl, profile, cycles, r1);
    const auto glitch = sim::measure_glitch_activity(nl, profile, cycles, r2);

    double first_sum = 0.0, mc_sum = 0.0, glitch_sum = 0.0;
    for (netlist::GateId id : nl.combinational()) {
      first_sum += first.density[id];
      mc_sum += mc.density[id];
      glitch_sum += glitch.density[id];
    }
    table.begin_row()
        .add(spec.name)
        .add(first_sum, 3)
        .add(exact_sum, 3)
        .add(mc_sum, 3)
        .add(glitch_sum, 3)
        .add(first_sum / mc_sum, 3)
        .add(exact_sum > 0.0 ? exact_sum / mc_sum : -1.0, 3)
        .add(glitch_sum / mc_sum, 3);
  }
  std::cout << table.to_text();
  std::printf(
      "\nfirst/MC > 1: the independence assumption overestimates switching "
      "on reconvergent logic.\nexact/MC ~ 1 at low density (residual gap = "
      "simultaneous-switching, O(d^2)).\nglitch/MC > 1: hazards the "
      "zero-delay energy model does not charge for.\n");
  return 0;
}
