#include "bench_suite/experiment.h"

#include <algorithm>

#include "netlist/stats.h"
#include "opt/baseline_optimizer.h"
#include "opt/evaluator.h"
#include "opt/joint_optimizer.h"
#include "util/check.h"

namespace minergy::bench_suite {

double choose_cycle_time(const netlist::Netlist& nl,
                         const ExperimentConfig& cfg, bool* scaled) {
  const double requested = 1.0 / cfg.clock_frequency;
  // Feasibility of the *baseline* flow gates the choice: it must meet T_c
  // with the threshold frozen at nominal_vts.
  activity::ActivityProfile profile;  // activity does not affect timing
  const opt::CircuitEvaluator eval(nl, cfg.tech, profile,
                                   {.clock_frequency = cfg.clock_frequency});
  // The answer is decided once the bisection's feasible end, which only
  // moves down, reaches `requested`: stop the search there.
  const double min_tc = eval.minimum_cycle_time(
      cfg.opts.skew_b, cfg.tech.nominal_vts, /*stop_at=*/requested);
  if (min_tc <= requested) {
    if (scaled) *scaled = false;
    return requested;
  }
  if (scaled) *scaled = true;
  return cfg.tc_margin * min_tc;
}

std::vector<CircuitExperiment> run_circuit(const CircuitSpec& spec,
                                           const ExperimentConfig& cfg) {
  const netlist::Netlist nl = make_circuit(spec);
  const netlist::NetlistStats stats = netlist::compute_stats(nl);

  bool scaled = false;
  const double tc = choose_cycle_time(nl, cfg, &scaled);
  const double fc = 1.0 / tc;

  std::vector<CircuitExperiment> out;
  for (double a : cfg.input_activities) {
    activity::ActivityProfile profile;
    profile.input_density = a;

    const opt::CircuitEvaluator eval(nl, cfg.tech, profile,
                                     {.clock_frequency = fc});
    CircuitExperiment e;
    e.circuit = spec.name;
    e.num_gates = stats.num_gates;
    e.depth = stats.depth;
    e.input_activity = a;
    e.cycle_time = tc;
    e.tc_scaled = scaled;
    e.baseline = opt::BaselineOptimizer(eval, cfg.opts).run();
    e.joint = opt::JointOptimizer(eval, cfg.opts).run();
    e.savings = (e.baseline.feasible && e.joint.feasible)
                    ? e.baseline.energy.total() / e.joint.energy.total()
                    : 0.0;
    out.push_back(std::move(e));
  }
  return out;
}

opt::Certificate certify_experiment(const CircuitExperiment& e,
                                    const ExperimentConfig& cfg, bool joint) {
  const netlist::Netlist nl = make_circuit(e.circuit);
  activity::ActivityProfile profile;
  profile.input_density = e.input_activity;
  const opt::CircuitEvaluator eval(nl, cfg.tech, profile,
                                   {.clock_frequency = 1.0 / e.cycle_time});
  opt::CertifyOptions copts;
  copts.skew_b = cfg.opts.skew_b;
  return opt::Certifier(eval, copts).certify(joint ? e.joint : e.baseline);
}

std::vector<CircuitExperiment> run_suite(const ExperimentConfig& cfg) {
  std::vector<CircuitExperiment> all;
  for (const CircuitSpec& spec : paper_circuits()) {
    auto rows = run_circuit(spec, cfg);
    std::move(rows.begin(), rows.end(), std::back_inserter(all));
  }
  return all;
}

}  // namespace minergy::bench_suite
