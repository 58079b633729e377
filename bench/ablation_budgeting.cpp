// Ablation: what the paper's design choices buy.
//
//  1. Delay budgeting: fanout-proportional (Procedure 1) vs. gate-count
//     uniform budgets — the paper argues budgets must track fanout because
//     "the delay of each gate is proportional to its fanout".
//  2. Width selection: budget-driven binary search (Procedure 2 inner loop)
//     vs. TILOS-style greedy sensitivity sizing.
//  3. Search polish: pure nested binary search vs. +golden-section refine.
//
// Reported: total energy at the joint optimum under each variant.
#include <cstdio>
#include <iostream>

#include "bench_suite/experiment.h"
#include "opt/evaluator.h"
#include "opt/joint_optimizer.h"
#include "opt/lagrangian_sizer.h"
#include "opt/sizer.h"
#include "opt/tilos_sizer.h"
#include "obs/session.h"
#include "util/cli.h"
#include "util/table.h"

using namespace minergy;

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const obs::Session session(cli, "ablation_budgeting");
  bench_suite::ExperimentConfig cfg;
  cfg.clock_frequency = cli.get("fc", 300e6);

  std::printf("== Ablations: budgeting policy, sizing engine, refinement "
              "==\n\n");

  // --- 1+3: budgeting policy / refinement, via the joint optimizer -------
  util::Table table({"Circuit", "E joint", "E no-refine", "refine gain",
                     "budget skew (fanout/uniform)", "E tilos-sized",
                     "tilos/joint", "E lagrangian", "lr/joint"});
  for (const auto& spec : bench_suite::paper_circuits()) {
    const netlist::Netlist nl = bench_suite::make_circuit(spec);
    bool scaled = false;
    const double tc = bench_suite::choose_cycle_time(nl, cfg, &scaled);
    activity::ActivityProfile profile;
    profile.input_density = 0.5;
    const opt::CircuitEvaluator eval(nl, cfg.tech, profile,
                                     {.clock_frequency = 1.0 / tc});

    const opt::OptimizationResult joint =
        opt::JointOptimizer(eval, cfg.opts).run();
    opt::OptimizerOptions raw = cfg.opts;
    raw.refine = false;
    const opt::OptimizationResult no_refine =
        opt::JointOptimizer(eval, raw).run();

    // Budget-policy comparison at the joint optimum's operating point:
    // size against fanout-proportional vs. uniform budgets and compare the
    // switched width (total area proxy).
    const timing::BudgetResult fan_b =
        eval.budgeter().assign(tc, {.clock_skew_b = cfg.opts.skew_b});
    const timing::BudgetResult uni_b =
        eval.budgeter().assign_uniform(tc, {.clock_skew_b = cfg.opts.skew_b});
    const opt::GateSizer sizer(eval.delay_calculator());
    const std::vector<double> vts(nl.size(), joint.vts_primary);
    const opt::SizingResult fan_s = sizer.size(fan_b.t_max, joint.vdd, vts);
    const opt::SizingResult uni_s = sizer.size(uni_b.t_max, joint.vdd, vts);
    double fan_e = 0.0, uni_e = 0.0;
    {
      opt::CircuitState s1{joint.vdd, vts, fan_s.widths};
      opt::CircuitState s2{joint.vdd, vts, uni_s.widths};
      fan_e = eval.energy(s1).total();
      uni_e = eval.energy(s2).total();
    }

    // TILOS sizing at the same (Vdd, Vts) operating point.
    const opt::TilosSizer tilos(eval.delay_calculator(), eval.energy_model());
    const opt::TilosResult tr = tilos.size(
        joint.vdd, vts, cfg.opts.skew_b * tc);
    double tilos_e = -1.0;
    if (tr.feasible) {
      opt::CircuitState st{joint.vdd, vts, tr.widths};
      tilos_e = eval.energy(st).total();
    }

    // Lagrangian-relaxation sizing (the paper's cited convex-sizing
    // lineage) at the same operating point.
    const opt::LagrangianSizer lr(eval.delay_calculator(),
                                  eval.energy_model());
    const opt::LagrangianResult lres =
        lr.size(joint.vdd, vts, cfg.opts.skew_b * tc);

    table.begin_row()
        .add(spec.name)
        .add_sci(joint.energy.total())
        .add_sci(no_refine.energy.total())
        .add(no_refine.energy.total() / joint.energy.total(), 3)
        .add(fan_e / uni_e, 3)
        .add_sci(tilos_e)
        .add(tilos_e > 0.0 ? tilos_e / joint.energy.total() : -1.0, 3)
        .add_sci(lres.feasible ? lres.energy : -1.0)
        .add(lres.feasible ? lres.energy / joint.energy.total() : -1.0, 3);
  }
  std::cout << table.to_text();
  std::printf(
      "\nrefine gain >= 1: energy left on the table by the pure nested "
      "binary search.\nbudget skew < 1: fanout-proportional budgets beat "
      "uniform ones at equal cycle time.\ntilos/joint: greedy sensitivity "
      "sizing vs. the paper's budget-driven widths at the same (Vdd, Vts);\n"
      "lr/joint: the Lagrangian-relaxation (convex-sizing lineage, paper ref [10]) result,\n"
      "available as OptimizerOptions::lagrangian_polish.\n");
  return 0;
}
