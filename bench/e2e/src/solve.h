// One unit of optimizer work as table1/table2 and the service run it,
// timed from outside, plus the per-layer replay and metrics that every
// workload reports from its traced solves.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "activity/activity.h"
#include "bench_suite/experiment.h"
#include "harness.h"
#include "netlist/netlist.h"
#include "opt/evaluator.h"
#include "opt/result.h"

namespace e2e {

enum class Flow {
  kTableRow,  // Table 1 + Table 2 row: baseline and joint, each certified
  kJoint,     // joint flow alone
  kAnneal,    // AnnealingOptimizer at a given move count
  kRobust,    // RobustOptimizer, as a minergy_served worker runs a job
};

struct Item {
  std::string label;
  const minergy::netlist::Netlist* nl = nullptr;
  Flow flow = Flow::kJoint;
  double activity = 0.1;
  // 0: choose_cycle_time inside the item (as table1/2 and the worker do).
  double cycle_time = 0.0;
  std::uint64_t anneal_seed = 0;
  int anneal_moves = 0;
};

struct Outcome {
  double seconds = 0.0;     // the whole item
  double optimize_s = 0.0;  // inside optimizer run() calls
  int solves = 0;
  int failed = 0;           // infeasible, uncertified or errored solves
  std::vector<std::string> errors;
  std::string fingerprint;  // exact energy/Vdd/Vts of every solve
  std::vector<double> energies_fj;  // certified energies
  // Registry counter deltas over the item (only while obs is enabled).
  std::map<std::string, std::int64_t> counters;
  // State of the item's last solve, kept for the layer replay.
  minergy::activity::ActivityProfile profile;
  std::unique_ptr<minergy::opt::CircuitEvaluator> eval;
  minergy::opt::OptimizationResult final;
};

// Runs one item under an "item" span holding opt.min_cycle,
// opt.evaluator_init, the optimizer's span (opt.baseline, opt.joint,
// opt.anneal or opt.robust) and opt.certify. Never throws for a failed
// solve: errors are recorded in the outcome.
Outcome solve_item(const Item& item, Spans& spans);

// The ExperimentConfig every workload solves under (the paper's 300 MHz).
const minergy::bench_suite::ExperimentConfig& experiment_config();

// Per-layer metrics shared by every workload: span medians, the layer
// replay at each traced item's final state, registry counts per solve,
// computed time shares and the energy geomean. `traced` are the outcomes
// of one traced pass.
void add_layer_metrics(Result& r, const std::vector<Outcome>& traced,
                       const Spans& spans);

// Fills r's serve.* per-layer metrics with their not-applicable value 0
// (they are counts and fractions, never times) for in-process workloads.
void add_no_serve_metrics(Result& r);

}  // namespace e2e
