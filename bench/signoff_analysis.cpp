// Sign-off analysis of the optimized designs: parametric yield and hold
// safety — the two checks a low-Vt, low-Vdd methodology must survive
// before the paper's savings are bankable in silicon.
//
//  * Yield: per-gate (sigma_gate) + die-to-die (sigma_die) threshold noise;
//    reports timing yield and the leakage distribution's mean/p95 (the
//    exponential Ioff(Vt) makes it heavy-tailed).
//  * Hold: shortest register-to-register path vs. the skew budget
//    (1 - b) * Tc the max-delay side reserved.
#include <cstdio>
#include <iostream>

#include "bench_suite/experiment.h"
#include "opt/evaluator.h"
#include "opt/joint_optimizer.h"
#include "opt/yield.h"
#include "timing/sta.h"
#include "obs/session.h"
#include "util/cli.h"
#include "util/table.h"

using namespace minergy;

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  bench_suite::apply_engine_flags(cli);
  const obs::Session session(cli, "signoff_analysis");
  bench_suite::ExperimentConfig cfg;
  cfg.clock_frequency = cli.get("fc", 300e6);
  const double sigma_gate = cli.get("sigma-gate", 0.010);
  const double sigma_die = cli.get("sigma-die", 0.015);
  const int samples = cli.get("samples", 150);

  std::printf("== Sign-off: parametric yield (sigma_gate=%.0f mV, "
              "sigma_die=%.0f mV, %d die) and hold ==\n\n",
              sigma_gate * 1e3, sigma_die * 1e3, samples);
  util::Table table({"Circuit", "timing yield", "mean E(J)", "p95 E(J)",
                     "p95/nom leak", "hold path (ps)", "skew budget (ps)",
                     "hold safe"});
  for (const auto& spec : bench_suite::paper_circuits()) {
    const netlist::Netlist nl = bench_suite::make_circuit(spec);
    bool scaled = false;
    const double tc = bench_suite::choose_cycle_time(nl, cfg, &scaled);
    activity::ActivityProfile profile;
    profile.input_density = 0.5;
    const opt::CircuitEvaluator eval(nl, cfg.tech, profile,
                                     {.clock_frequency = 1.0 / tc});
    const opt::OptimizationResult r =
        opt::JointOptimizer(eval, cfg.opts).run();
    if (!r.feasible) continue;

    opt::YieldOptions yopts;
    yopts.samples = samples;
    yopts.sigma_gate = sigma_gate;
    yopts.sigma_die = sigma_die;
    const opt::YieldResult y = opt::YieldAnalyzer(eval, yopts).analyze(r.state);

    const timing::MinTimingReport hold = timing::run_min_sta(
        eval.delay_calculator(), r.state.widths, r.vdd, r.state.vts);
    const double skew_budget = (1.0 - cfg.opts.skew_b) * tc;

    table.begin_row()
        .add(spec.name)
        .add(y.timing_yield, 3)
        .add_sci(y.mean_energy)
        .add_sci(y.p95_energy)
        .add(y.p95_leakage / r.energy.static_energy, 2)
        .add(hold.shortest_delay * 1e12, 1)
        .add(skew_budget * 1e12, 1)
        .add(timing::hold_safe(hold, skew_budget) ? "yes" : "NO");
  }
  std::cout << table.to_text();
  std::printf(
      "\nA nominal-corner optimum sits exactly on the timing wall, so "
      "roughly half the die\n(plus the leakage tail) miss timing under "
      "threshold noise — this is precisely the\nexposure Figure 2a's "
      "worst-case guardbanding buys out of (rerun the optimizer with\n"
      "EvalSettings::vts_tolerance to trade energy for yield). A 'NO' in "
      "the hold column\nmarks designs whose shortest register-to-register "
      "path undercuts the skew budget\nand would receive hold buffers in a "
      "production flow.\n");
  return 0;
}
