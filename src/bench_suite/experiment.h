// Shared experiment driver for the Table-1 / Table-2 reproductions.
//
// For each circuit the cycle time is fixed once — the paper's 300 MHz when
// the *baseline* (fixed 700 mV threshold) can meet it at full supply,
// otherwise scaled to margin * (baseline's minimum achievable cycle time) —
// and both flows are optimized against that identical constraint, exactly
// the paper's "power reduction without performance loss" comparison.
#pragma once

#include <string>
#include <vector>

#include "activity/activity.h"
#include "bench_suite/iscas.h"
#include "opt/certifier.h"
#include "opt/result.h"
#include "tech/technology.h"

namespace minergy::bench_suite {

struct ExperimentConfig {
  tech::Technology tech = tech::Technology::generic350();
  double clock_frequency = 300e6;  // the paper's f_c
  double tc_margin = 1.10;  // scaling margin when 300 MHz is infeasible
  std::vector<double> input_activities = {0.1, 0.5};
  opt::OptimizerOptions opts;
};

struct CircuitExperiment {
  std::string circuit;
  std::size_t num_gates = 0;
  int depth = 0;
  double input_activity = 0.0;
  double cycle_time = 0.0;  // the (possibly scaled) T_c used by both flows
  bool tc_scaled = false;

  opt::OptimizationResult baseline;  // Table 1 row
  opt::OptimizationResult joint;     // Table 2 row
  double savings = 0.0;              // baseline total / joint total
};

// Cycle time selection for one circuit (activity-independent).
double choose_cycle_time(const netlist::Netlist& nl,
                         const ExperimentConfig& cfg, bool* scaled);

// Runs baseline + joint for every configured activity of one circuit.
std::vector<CircuitExperiment> run_circuit(const CircuitSpec& spec,
                                           const ExperimentConfig& cfg);

// The full suite (all paper circuits x activities).
std::vector<CircuitExperiment> run_suite(const ExperimentConfig& cfg);

// Independent certification of one experiment row (the bench `--certify`
// flags): rebuilds the evaluator the row was optimized under and re-derives
// the joint (or baseline) result's verdict with opt::Certifier.
opt::Certificate certify_experiment(const CircuitExperiment& e,
                                    const ExperimentConfig& cfg, bool joint);

}  // namespace minergy::bench_suite
