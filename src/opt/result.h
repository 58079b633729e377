// Shared option/result types for the optimizers.
#pragma once

#include <chrono>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "opt/circuit_state.h"
#include "power/energy_model.h"
#include "util/guard.h"

namespace minergy::opt {

// Which tier of the graceful-degradation chain produced a result (see
// RobustOptimizer). Plain optimizers always report their own tier.
enum class ResultTier {
  kJoint = 0,       // full Procedure-2 joint optimization
  kBaseline = 1,    // fixed-Vts conventional flow
  kLastResort = 2,  // max-drive emergency configuration
};

inline const char* to_string(ResultTier tier) {
  switch (tier) {
    case ResultTier::kJoint:
      return "joint";
    case ResultTier::kBaseline:
      return "baseline";
    case ResultTier::kLastResort:
      return "last-resort";
  }
  return "?";
}

struct OptimizerOptions {
  int steps = 10;          // M, binary-search iterations per nested loop
  // Ignored: the per-gate width is solved in closed form (opt/sizer.h).
  // Kept only because bench/e2e reads it.
  int sizing_steps = 12;
  double skew_b = 0.95;    // clock-skew factor b of Eq. (1)
  int num_thresholds = 1;  // n_v distinct threshold voltages
  // Width-recovery (Section 4.2 post-processing) iterations per probe:
  // each pass redistributes the measured slack into relaxed budgets and
  // re-runs the minimum-width search, monotonically shrinking widths.
  int recovery_passes = 2;

  // Local continuous refinement around the binary-search solution. The
  // paper's Procedure 2 is the nested search alone; the refinement is an
  // optional polish (compared in bench/ablation_budgeting).
  bool refine = true;
  int refine_steps = 10;

  // Wall-clock / evaluation-count budget for the whole run. Unlimited by
  // default; when exhausted the optimizer stops probing and returns the
  // best state seen so far with `truncated` set.
  util::WatchdogBudget budget{};

  // Crash-safe snapshots for the JointOptimizer's nested sweep (schema
  // minergy.joint_checkpoint.v1; see opt/checkpoint.h): `checkpoint_path`
  // atomically writes the latest completed outer Vdd step at most once per
  // kJointCheckpointIntervalSeconds, and when the watchdog stops the sweep;
  // `resume_path` restores one and continues deterministically. Other
  // optimizers sharing these options ignore both fields.
  std::string checkpoint_path;
  std::string resume_path;
};

struct OptimizationResult {
  CircuitState state;
  power::EnergyBreakdown energy;  // per cycle, at the evaluation corner
  double critical_delay = std::numeric_limits<double>::infinity();
  bool feasible = false;

  double vdd = 0.0;          // chosen global supply
  double vts_primary = 0.0;  // the (first) threshold voltage
  std::vector<double> vts_groups;  // all distinct thresholds in use

  int circuit_evaluations = 0;  // full size+STA+energy passes
  double runtime_seconds = 0.0;

  // The watchdog budget ran out before the search finished: `state` is the
  // best point seen, not the converged optimum.
  bool truncated = false;
  std::string truncation_reason;  // empty unless truncated

  // Provenance of the answer in the graceful-degradation chain, plus why
  // earlier tiers failed (filled by RobustOptimizer; single-tier optimizers
  // leave tier_notes empty and report their own tier).
  ResultTier tier = ResultTier::kJoint;
  std::vector<std::string> tier_notes;

  // Run telemetry: search trajectory, per-tier provenance, counter deltas.
  // Always populated (trajectory recording is cheap next to the probes it
  // describes); serialize with report.to_json(). See docs/OBSERVABILITY.md.
  obs::RunReport report;

  double total_energy() const { return energy.total(); }
};

// Copies the result's final scalars into its RunReport so a serialized
// report is self-contained. Every optimizer calls this just before
// returning; callers that post-process a result should re-call it.
inline void finalize_run_report(OptimizationResult* r) {
  obs::RunReport& rep = r->report;
  rep.feasible = r->feasible;
  rep.vdd = r->vdd;
  rep.vts_primary = r->vts_primary;
  rep.energy_total = r->energy.total();
  rep.static_energy = r->energy.static_energy;
  rep.dynamic_energy = r->energy.dynamic_energy;
  rep.critical_delay = r->critical_delay;
  rep.runtime_seconds = r->runtime_seconds;
  rep.circuit_evaluations = r->circuit_evaluations;
  rep.tier = to_string(r->tier);
  rep.truncated = r->truncated;
  rep.truncation_reason = r->truncation_reason;
}

// The bookkeeping that opens and closes every joint, baseline and anneal
// run: constructed first thing in run() (start time, counter snapshot),
// finished just before the result is returned.
class RunStamp {
 public:
  // `name` tags the watchdog.expired trace instant; `best_energy_gauge` is
  // the gauge a feasible result's energy is written to. Both are kept as
  // pointers, so pass string literals.
  RunStamp(const char* name, const char* best_energy_gauge)
      : name_(name),
        best_energy_gauge_(best_energy_gauge),
        t0_(std::chrono::steady_clock::now()) {}

  // Stamps into `r`: the circuit evaluations (this run's plus
  // `resumed_evals` from a restored snapshot); on watchdog expiry the
  // truncation flag and reason, opt.watchdog.expiries and the trace
  // instant; the runtime; the best-energy gauge; the counter deltas. Then
  // finalize_run_report.
  void finish(OptimizationResult* r, const util::Watchdog& dog,
              std::int64_t resumed_evals = 0) const {
    r->circuit_evaluations =
        static_cast<int>(resumed_evals + dog.evaluations());
    if (dog.expired()) {
      r->truncated = true;
      r->truncation_reason =
          std::string(dog.expiry_reason()) + " exhausted after " +
          std::to_string(dog.evaluations()) + " circuit evaluations";
      obs::counter("opt.watchdog.expiries").add();
      obs::Tracer::instance().instant("watchdog.expired", name_);
    }
    r->runtime_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_)
            .count();
    if (r->feasible) obs::gauge(best_energy_gauge_).set(r->energy.total());
    counter_delta_.finish(&r->report);
    finalize_run_report(r);
  }

 private:
  const char* name_;
  const char* best_energy_gauge_;
  std::chrono::steady_clock::time_point t0_;
  obs::CounterDelta counter_delta_;
};

}  // namespace minergy::opt
