// Reproduces the Section-3 physics: "the sum total of the static and the
// dynamic components of dissipation is minimized by a unique choice of
// supply voltage, threshold voltage and device width values".
//
// Sweep Vdd; at each point find the best Vts and the minimum widths meeting
// the delay budget; print the energy components. The series should show a
// unique interior minimum with the static component rising (lower Vts,
// wider devices) exactly as the dynamic component falls.
//
// Flags: --circuit=<name> (default s298*), --fc=<Hz>
#include <cstdio>
#include <iostream>

#include "bench_suite/experiment.h"
#include "opt/evaluator.h"
#include "opt/sizer.h"
#include "obs/session.h"
#include "util/cli.h"
#include "util/search.h"
#include "util/table.h"

using namespace minergy;

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const obs::Session session(cli, "physics_balance");
  const std::string circuit = cli.get("circuit", std::string("s298*"));

  const netlist::Netlist nl = bench_suite::make_circuit(circuit);
  bench_suite::ExperimentConfig cfg;
  cfg.clock_frequency = cli.get("fc", 300e6);
  bool scaled = false;
  const double tc = bench_suite::choose_cycle_time(nl, cfg, &scaled);

  activity::ActivityProfile profile;
  profile.input_density = 0.5;
  const opt::CircuitEvaluator eval(nl, cfg.tech, profile,
                                   {.clock_frequency = 1.0 / tc});
  const timing::BudgetResult budgets =
      eval.budgeter().assign(tc, {.clock_skew_b = 0.95});
  const opt::GateSizer sizer(eval.delay_calculator());

  // Best threshold + sizing at one supply point.
  auto optimize_at = [&](double vdd, double* best_vts,
                         power::EnergyBreakdown* energy, double* avg_w) {
    double best_e = -1.0;
    for (double vts = cfg.tech.vts_min; vts <= cfg.tech.vts_max;
         vts += 0.01) {
      const std::vector<double> vtsv(nl.size(), vts);
      const opt::SizingResult sized = sizer.size(budgets.t_max, vdd, vtsv);
      opt::CircuitState state;
      state.vdd = vdd;
      state.vts = vtsv;
      state.widths = sized.widths;
      if (!eval.meets_timing(state, 0.95)) continue;
      const power::EnergyBreakdown e = eval.energy(state);
      if (best_e < 0.0 || e.total() < best_e) {
        best_e = e.total();
        *best_vts = vts;
        *energy = e;
        double sum = 0.0;
        for (netlist::GateId id : nl.combinational()) {
          sum += state.widths[id];
        }
        *avg_w = sum / static_cast<double>(nl.num_combinational());
      }
    }
    return best_e >= 0.0;
  };

  std::printf("== Section-3 physics: energy components vs. Vdd "
              "(%s, Tc = %.3f ns, activity 0.5) ==\n\n",
              circuit.c_str(), tc * 1e9);
  util::Table table({"Vdd(V)", "Best Vts(mV)", "Avg width", "Static(J)",
                     "Dynamic(J)", "Total(J)", "Es/Ed"});
  double min_total = 1e30, min_vdd = 0.0, min_ratio = 0.0;
  for (double vdd = 0.4; vdd <= 3.301; vdd += 0.2) {
    double vts = 0.0, avg_w = 0.0;
    power::EnergyBreakdown e;
    if (!optimize_at(vdd, &vts, &e, &avg_w)) {
      table.begin_row().add(vdd, 2).add("-").add("-").add("infeasible")
          .add("-").add("-").add("-");
      continue;
    }
    table.begin_row()
        .add(vdd, 2)
        .add(vts * 1e3, 0)
        .add(avg_w, 1)
        .add_sci(e.static_energy)
        .add_sci(e.dynamic_energy)
        .add_sci(e.total())
        .add(e.static_energy / e.dynamic_energy, 2);
    if (e.total() < min_total) {
      min_total = e.total();
      min_vdd = vdd;
      min_ratio = e.static_energy / e.dynamic_energy;
    }
  }
  std::cout << table.to_text();
  std::printf("\nUnique minimum at Vdd = %.2f V with Es/Ed = %.2f "
              "(paper: interior optimum with comparable components).\n",
              min_vdd, min_ratio);
  return 0;
}
