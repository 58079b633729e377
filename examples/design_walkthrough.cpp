// A guided walk through every stage of the optimization flow on one
// circuit, printing the intermediate artifacts a user would inspect when
// debugging a design: activity profile, wire loads, path criticalities,
// delay budgets, sized widths and the final operating point.
//
//   $ ./examples/design_walkthrough [--circuit=s208*] [--fc=3e8] [file.bench]
#include <algorithm>
#include <cstdio>
#include <iostream>

#include "bench_suite/experiment.h"
#include "interconnect/wire_model.h"
#include "netlist/bench_io.h"
#include "netlist/stats.h"
#include "opt/evaluator.h"
#include "opt/joint_optimizer.h"
#include "timing/path_enum.h"
#include "util/cli.h"
#include "util/strings.h"
#include "util/table.h"

using namespace minergy;

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const netlist::Netlist nl =
      cli.positional().empty()
          ? bench_suite::make_circuit(
                cli.get("circuit", std::string("s208*")))
          : netlist::parse_bench_file(cli.positional()[0]);

  std::printf("=== 1. Netlist ===\n%s: %s\n\n", nl.name().c_str(),
              netlist::compute_stats(nl).to_string().c_str());

  bench_suite::ExperimentConfig cfg;
  cfg.clock_frequency = cli.get("fc", 300e6);
  bool scaled = false;
  const double tc = bench_suite::choose_cycle_time(nl, cfg, &scaled);
  std::printf("cycle time: %.3f ns%s\n\n", tc * 1e9,
              scaled ? " (scaled to the baseline's capability)" : "");

  activity::ActivityProfile profile;
  profile.input_density = 0.3;
  const opt::CircuitEvaluator eval(nl, cfg.tech, profile,
                                   {.clock_frequency = 1.0 / tc});

  std::printf("=== 2. Activity estimation (Najm transition densities) ===\n");
  {
    const auto& act = eval.activity();
    double dmin = 1e9, dmax = 0.0, dsum = 0.0;
    for (netlist::GateId id : nl.combinational()) {
      dmin = std::min(dmin, act.density[id]);
      dmax = std::max(dmax, act.density[id]);
      dsum += act.density[id];
    }
    std::printf("internal-node density: min %.4f, mean %.4f, max %.4f "
                "transitions/cycle\n\n",
                dmin, dsum / static_cast<double>(nl.num_combinational()),
                dmax);
  }

  std::printf("=== 3. Rent's-rule wire loads ===\n");
  {
    const interconnect::WireModel wires(cfg.tech, nl);
    double lsum = 0.0, csum = 0.0;
    for (netlist::GateId id : nl.combinational()) {
      lsum += wires.routed_length(id);
      csum += wires.net_cap(id);
    }
    const double n = static_cast<double>(nl.num_combinational());
    std::printf("mean routed net: %s, %s (distribution mean %.1f gate "
                "pitches)\n\n",
                util::format_eng(lsum / n, "m").c_str(),
                util::format_eng(csum / n, "F").c_str(),
                wires.distribution().mean());
  }

  std::printf("=== 4. Most critical paths (fanout-sum criticality) ===\n");
  {
    const timing::PathAnalyzer pa(nl);
    int rank = 1;
    for (const timing::Path& p : pa.top_k(3)) {
      std::printf("  #%d criticality %lld, %zu gates:", rank++,
                  static_cast<long long>(p.criticality), p.gates.size());
      for (std::size_t i = 0; i < std::min<std::size_t>(p.gates.size(), 8);
           ++i) {
        std::printf(" %s", nl.gate(p.gates[i]).name.c_str());
      }
      if (p.gates.size() > 8) std::printf(" ...");
      std::printf("\n");
    }
    std::printf("\n");
  }

  std::printf("=== 5. Procedure-1 delay budgets ===\n");
  {
    const timing::BudgetResult budgets = eval.budgeter().assign(tc);
    double bmin = 1e9, bmax = 0.0;
    for (netlist::GateId id : nl.combinational()) {
      bmin = std::min(bmin, budgets.t_max[id]);
      bmax = std::max(bmax, budgets.t_max[id]);
    }
    std::printf("paths processed: %d, slope adjustments: %d, budgets "
                "%.1f..%.1f ps, longest budget path %.3f ns (cap %.3f)\n\n",
                budgets.rounds, budgets.slope_adjustments, bmin * 1e12,
                bmax * 1e12, budgets.longest_budget_path * 1e9,
                0.95 * tc * 1e9);
  }

  std::printf("=== 6. Joint optimization (Procedure 2) ===\n");
  const opt::OptimizationResult r = opt::JointOptimizer(eval).run();
  if (!r.feasible) {
    std::printf("infeasible!\n");
    return 1;
  }
  {
    double wsum = 0.0, wmax = 0.0;
    for (netlist::GateId id : nl.combinational()) {
      wsum += r.state.widths[id];
      wmax = std::max(wmax, r.state.widths[id]);
    }
    std::printf("Vdd = %.3f V, Vts = %.0f mV, widths mean %.2f / max %.0f, "
                "%d circuit evaluations in %.3f s\n",
                r.vdd, r.vts_primary * 1e3,
                wsum / static_cast<double>(nl.num_combinational()), wmax,
                r.circuit_evaluations, r.runtime_seconds);
    std::printf("energy/cycle: %s static + %s dynamic = %s; critical delay "
                "%.3f ns (budget %.3f ns)\n",
                util::format_eng(r.energy.static_energy, "J").c_str(),
                util::format_eng(r.energy.dynamic_energy, "J").c_str(),
                util::format_eng(r.energy.total(), "J").c_str(),
                r.critical_delay * 1e9, 0.95 * tc * 1e9);
  }
  return 0;
}
