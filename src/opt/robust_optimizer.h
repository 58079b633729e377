// Graceful-degradation wrapper around the optimization stack.
//
// A production flow cannot afford to crash (or hang, or return NaN) because
// one netlist sits in an ill-conditioned corner of the cost surface. The
// RobustOptimizer walks a fallback chain, each tier cheaper and more
// conservative than the last, and records in the result which tier produced
// the answer and why the earlier tiers failed:
//
//   tier 0  joint        Procedure-2 joint (Vdd, Vts, w) optimization,
//                        bounded by the tier's watchdog budget
//   tier 1  baseline     conventional fixed-Vts flow (nominal threshold),
//                        a much smaller, better-conditioned search
//   tier 2  last resort  maximum drive: vdd_max, strongest threshold,
//                        budget-driven sizing — the "just make timing"
//                        configuration, energy-optimal in nothing
//
// A tier is rejected when it throws (util::NumericError from the evaluator
// boundary, or any std::exception) or returns an infeasible result; a
// truncated-but-feasible result is accepted (the flag rides along). The
// max-drive state is sized once, before tier 0: if even maximum drive
// cannot meet timing, run() throws util::InfeasibleError at once, carrying
// the requested limit, the best achievable critical-path delay and the
// limiting path's endpoint gate (see max_drive_infeasibility). If that
// sizing throws, the tiers run as they would without it.
#pragma once

#include <functional>
#include <optional>

#include "opt/certifier.h"
#include "opt/evaluator.h"
#include "opt/result.h"

namespace minergy::opt {

struct RobustOptions {
  // Tier-0 settings, including its watchdog budget.
  OptimizerOptions joint{};
  // Tier-1 settings; fixed_vts < 0 selects the technology's nominal_vts.
  OptimizerOptions baseline{};
  double baseline_fixed_vts = -1.0;
  // When false, an infeasible tier 1 throws instead of falling through to
  // the max-drive configuration.
  bool allow_last_resort = true;

  // First tier to attempt: 0 = joint, 1 = baseline, 2 = last resort. A
  // caller that wants a cheaper answer starts further down the chain;
  // skipped tiers are recorded in the run report as "skipped (start_tier)"
  // rather than silently absent.
  int start_tier = 0;

  // Independent certification (opt/certifier.h) of every feasible tier
  // result before it is returned: an uncertified answer counts as a tier
  // failure and the chain advances, so a buggy fast tier can never outrank
  // a correct slower one. The per-tier skew_b overrides cert.skew_b. An
  // uncertified *last-resort* result is still returned (there is nothing
  // left to degrade to) with the failed certificate on record.
  bool certify = true;
  CertifyOptions cert{};

  // Test seam: applied to each tier's feasible result just before
  // certification. Fault-injection tests corrupt results here to prove the
  // certifier catches them (see fault::result_fault_catalog). Null in
  // production.
  std::function<void(OptimizationResult&, const char* tier)> tier_result_hook;
};

class RobustOptimizer {
 public:
  explicit RobustOptimizer(const CircuitEvaluator& eval,
                           RobustOptions options = {});

  // Never propagates model/numeric/budget failures from the inner tiers;
  // the only exception it throws is util::InfeasibleError when no tier can
  // meet the cycle-time constraint at all.
  OptimizationResult run() const;

 private:
  // Maximum drive: vdd_max, strongest threshold, widths sized to the
  // Procedure-1 budgets. If this cannot meet timing, nothing in the
  // technology's variable ranges can, and its STA report is the diagnosis.
  SizedState size_max_drive() const;
  // Tier 2: the max-drive state (sized here when `max_drive` is empty) as
  // a result. Feasible-or-throws.
  OptimizationResult last_resort(std::optional<SizedState> max_drive) const;

  const CircuitEvaluator& eval_;
  RobustOptions opts_;
};

}  // namespace minergy::opt
