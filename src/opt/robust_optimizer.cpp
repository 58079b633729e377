#include "opt/robust_optimizer.h"

#include <chrono>
#include <sstream>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "opt/baseline_optimizer.h"
#include "opt/joint_optimizer.h"
#include "util/check.h"
#include "util/guard.h"

namespace minergy::opt {
namespace {

std::string describe_failure(const OptimizationResult& r) {
  std::ostringstream os;
  os << "infeasible result";
  if (r.truncated) os << " (truncated: " << r.truncation_reason << ")";
  os << " after " << r.circuit_evaluations << " evaluations";
  return os.str();
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

RobustOptimizer::RobustOptimizer(const CircuitEvaluator& eval,
                                 RobustOptions options)
    : eval_(eval), opts_(std::move(options)) {}

SizedState RobustOptimizer::size_max_drive() const {
  const tech::Technology& tech = eval_.technology();
  const double skew_b = opts_.joint.skew_b;
  const timing::BudgetResult budgets = eval_.budgeter().assign(
      eval_.cycle_time(), {.clock_skew_b = skew_b});
  return eval_.size_to_budgets(
      budgets, tech.vdd_max,
      std::vector<double>(eval_.netlist().size(), tech.vts_min),
      skew_b * eval_.cycle_time(), /*recovery_passes=*/0);
}

OptimizationResult RobustOptimizer::last_resort(
    std::optional<SizedState> max_drive) const {
  const obs::Span span("robust.tier.last_resort");
  obs::counter("opt.robust.tier_attempts").add();
  const auto t0 = std::chrono::steady_clock::now();
  const netlist::Netlist& nl = eval_.netlist();
  const tech::Technology& tech = eval_.technology();

  SizedState sized = max_drive ? std::move(*max_drive) : size_max_drive();
  if (!sized.feasible) {
    throw max_drive_infeasibility(eval_, opts_.joint.skew_b, sized.report);
  }

  OptimizationResult result;
  result.tier = ResultTier::kLastResort;
  result.report.optimizer = "last-resort";
  result.report.circuit = nl.name();
  result.state = std::move(sized.state);
  result.vdd = tech.vdd_max;
  result.vts_primary = tech.vts_min;
  result.vts_groups = {tech.vts_min};
  result.critical_delay = sized.report.critical_delay;
  result.feasible = true;
  result.circuit_evaluations = 1;
  result.energy = eval_.energy(result.state, sized.report.gate_delay);
  result.runtime_seconds = seconds_since(t0);

  obs::TrajectoryPoint tp;
  tp.phase = "last-resort";
  tp.vdd = result.vdd;
  tp.vts = result.vts_primary;
  tp.energy = result.energy.total();
  tp.critical_delay = result.critical_delay;
  tp.feasible = true;
  tp.accepted = true;
  result.report.add_point(std::move(tp));
  finalize_run_report(&result);
  return result;
}

OptimizationResult RobustOptimizer::run() const {
  const obs::Span run_span("robust.run");
  obs::counter("opt.robust.runs").add();
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::string> notes;
  // Per-tier provenance for the run report: one record per tier attempted,
  // wall-clock included, failure_reason empty for the tier that answered.
  std::vector<obs::TierRecord> tiers;

  auto finish = [&](OptimizationResult r) {
    r.tier_notes = notes;
    r.runtime_seconds = seconds_since(t0);
    obs::counter("opt.robust.tier_selected").add();
    r.report.optimizer = "robust";
    r.report.tiers = std::move(tiers);
    finalize_run_report(&r);
    return r;
  };
  auto record_failure = [&](const char* tier, double started,
                            std::string reason,
                            const Certificate* cert = nullptr) {
    obs::counter(std::string("opt.robust.tier_failures.") + tier).add();
    obs::Tracer::instance().instant("tier.failed", tier);
    obs::TierRecord rec;
    rec.tier = tier;
    rec.wall_seconds = seconds_since(t0) - started;
    rec.failure_reason = std::move(reason);
    if (cert != nullptr) {
      rec.certificate_status = cert->certified ? "pass" : "fail";
      rec.certificate_detail = cert->summary();
    }
    tiers.push_back(std::move(rec));
  };
  auto record_success = [&](const char* tier, double started,
                            const Certificate* cert = nullptr) {
    obs::TierRecord rec;
    rec.tier = tier;
    rec.wall_seconds = seconds_since(t0) - started;
    rec.selected = true;
    if (cert != nullptr) {
      rec.certificate_status = cert->certified ? "pass" : "fail";
      rec.certificate_detail = cert->summary();
    }
    tiers.push_back(std::move(rec));
  };

  // Applies the test seam, then independently re-verifies a feasible tier
  // result. Returns true when the result may be returned to the caller;
  // `cert_out` carries the certificate either way (certified == true when
  // certification is disabled, with an empty detail so the TierRecord shows
  // no certificate was issued).
  auto try_certify = [&](OptimizationResult& r, const char* tier,
                         double skew_b, Certificate* cert_out) {
    if (opts_.tier_result_hook) opts_.tier_result_hook(r, tier);
    if (!opts_.certify) {
      cert_out->certified = true;
      return true;
    }
    const obs::Span span("robust.certify");
    CertifyOptions co = opts_.cert;
    co.skew_b = skew_b;
    *cert_out = Certifier(eval_, co).certify(r);
    return cert_out->certified;
  };

  // Maximum drive alone decides whether the clock can be met, so it is
  // sized before any tier: a miss throws here, not after a joint sweep and
  // a baseline probe. A sizing that throws leaves the decision to the
  // tiers, which then run exactly as they would without it.
  std::optional<SizedState> max_drive;
  try {
    max_drive = size_max_drive();
  } catch (const std::exception&) {
  }
  if (max_drive && !max_drive->feasible) {
    throw max_drive_infeasibility(eval_, opts_.joint.skew_b,
                                  max_drive->report);
  }

  // --- Tier 0: full joint optimization -----------------------------------
  if (opts_.start_tier > 0) {
    // Brownout (or an explicit caller choice): the expensive tier is
    // skipped by policy, not because it failed — record it as such so the
    // provenance trail distinguishes "degraded" from "broken".
    obs::counter("opt.robust.tier_skips").add();
    notes.push_back("joint: skipped (start_tier=" +
                    std::to_string(opts_.start_tier) + ")");
    record_failure("joint", seconds_since(t0), "skipped (start_tier)");
  } else {
    const obs::Span span("robust.tier.joint");
    obs::counter("opt.robust.tier_attempts").add();
    const double started = seconds_since(t0);
    try {
      OptimizationResult r = JointOptimizer(eval_, opts_.joint).run();
      if (r.feasible) {
        r.tier = ResultTier::kJoint;
        Certificate cert;
        if (try_certify(r, "joint", opts_.joint.skew_b, &cert)) {
          record_success("joint", started, opts_.certify ? &cert : nullptr);
          return finish(std::move(r));
        }
        notes.push_back("joint: " + cert.summary());
        record_failure("joint", started, cert.summary(), &cert);
      } else {
        notes.push_back("joint: " + describe_failure(r));
        record_failure("joint", started, describe_failure(r));
      }
    } catch (const util::NumericError& e) {
      notes.push_back(std::string("joint: numeric error: ") + e.what());
      record_failure("joint", started,
                     std::string("numeric error: ") + e.what());
    } catch (const std::exception& e) {
      notes.push_back(std::string("joint: ") + e.what());
      record_failure("joint", started, e.what());
    }
  }

  // --- Tier 1: conventional fixed-Vts flow --------------------------------
  if (opts_.start_tier > 1) {
    obs::counter("opt.robust.tier_skips").add();
    notes.push_back("baseline: skipped (start_tier=" +
                    std::to_string(opts_.start_tier) + ")");
    record_failure("baseline", seconds_since(t0), "skipped (start_tier)");
  } else {
    const obs::Span span("robust.tier.baseline");
    obs::counter("opt.robust.tier_attempts").add();
    const double started = seconds_since(t0);
    try {
      OptimizationResult r =
          BaselineOptimizer(eval_, opts_.baseline, opts_.baseline_fixed_vts)
              .run();
      if (r.feasible) {
        r.tier = ResultTier::kBaseline;
        Certificate cert;
        if (try_certify(r, "baseline", opts_.baseline.skew_b, &cert)) {
          record_success("baseline", started, opts_.certify ? &cert : nullptr);
          return finish(std::move(r));
        }
        notes.push_back("baseline: " + cert.summary());
        record_failure("baseline", started, cert.summary(), &cert);
      } else {
        notes.push_back("baseline: " + describe_failure(r));
        record_failure("baseline", started, describe_failure(r));
      }
    } catch (const util::NumericError& e) {
      notes.push_back(std::string("baseline: numeric error: ") + e.what());
      record_failure("baseline", started,
                     std::string("numeric error: ") + e.what());
    } catch (const std::exception& e) {
      notes.push_back(std::string("baseline: ") + e.what());
      record_failure("baseline", started, e.what());
    }
  }

  // --- Tier 2: max-drive emergency configuration --------------------------
  if (!opts_.allow_last_resort) {
    throw max_drive ? max_drive_infeasibility(eval_, opts_.joint.skew_b,
                                              max_drive->report)
                    : diagnose_infeasibility(eval_, opts_.joint.skew_b);
  }
  const double started = seconds_since(t0);
  OptimizationResult r = last_resort(std::move(max_drive));
  r.tier = ResultTier::kLastResort;
  Certificate cert;
  if (try_certify(r, "last-resort", opts_.joint.skew_b, &cert)) {
    record_success("last-resort", started, opts_.certify ? &cert : nullptr);
  } else {
    // Nothing left to degrade to: return the max-drive answer anyway, with
    // the failed certificate on record so downstream consumers (batch
    // runner, CI) can refuse it.
    obs::counter("opt.robust.uncertified_returns").add();
    notes.push_back("last-resort: " + cert.summary());
    record_success("last-resort", started, &cert);
  }
  return finish(std::move(r));
}

}  // namespace minergy::opt
