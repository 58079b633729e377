// Multi-pass simulated-annealing comparator (Section 5 of the paper).
//
// Anneals directly over the full variable vector (Vdd, Vts, w_1..w_N) with
// a timing-violation penalty. The paper reports that for these problem
// sizes annealing does not reach the heuristic's quality in practical time;
// bench/sa_comparison reproduces that comparison under an equalized
// evaluation budget. One chain runs on the calling thread; `seed` fixes its
// move sequence.
#pragma once

#include <cstdint>
#include <string>

#include "opt/evaluator.h"
#include "opt/result.h"

namespace minergy::opt {

struct AnnealingOptions {
  int max_moves = 20000;       // total proposed moves across all passes
  int passes = 3;              // restarts, each keeping the global best
  double initial_temp_scale = 0.5;  // T0 = scale * |E(initial)|
  double cooling = 0.995;      // geometric factor per accepted window
  double penalty_weight = 20.0;     // timing-violation penalty multiplier
  double skew_b = 0.95;
  std::uint64_t seed = 1234;
  // Wall-clock / evaluation budget; exhausting it ends the anneal early and
  // flags the result `truncated` (the global best so far is still returned).
  util::WatchdogBudget budget{};

  // Crash-safe snapshots (schema minergy.anneal_checkpoint.v1, written with
  // an atomic write-rename): when `checkpoint_path` is set, a snapshot lands
  // every `checkpoint_every_moves` proposed moves and at every pass
  // boundary. `resume_path` restores one and continues the run bit-exactly
  // (the RNG stream state rides in the snapshot); the caller must pass the
  // same netlist and options as the interrupted run.
  std::string checkpoint_path;
  std::string resume_path;
  int checkpoint_every_moves = 500;
};

class AnnealingOptimizer {
 public:
  AnnealingOptimizer(const CircuitEvaluator& eval, AnnealingOptions options = {});

  // `warm_start`: begin from a given state (e.g. the baseline solution);
  // empty state = the technology's strong corner.
  OptimizationResult run(const CircuitState& warm_start = {}) const;

 private:
  const CircuitEvaluator& eval_;
  AnnealingOptions opts_;
};

}  // namespace minergy::opt
