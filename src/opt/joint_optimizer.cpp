#include "opt/joint_optimizer.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "opt/checkpoint.h"
#include "opt/lagrangian_sizer.h"
#include "opt/sizer.h"
#include "opt/tilos_sizer.h"
#include "util/check.h"
#include "util/guard.h"
#include "util/search.h"

namespace minergy::opt {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

void mark_accepted(obs::RunReport* report, int traj) {
  if (report == nullptr || traj < 0) return;
  report->trajectory[static_cast<std::size_t>(traj)].accepted = true;
}

}  // namespace

JointOptimizer::JointOptimizer(const CircuitEvaluator& eval,
                               OptimizerOptions options)
    : eval_(eval), opts_(options) {
  MINERGY_CHECK(opts_.steps >= 1);
  MINERGY_CHECK(opts_.num_thresholds >= 1);
  MINERGY_CHECK(opts_.skew_b > 0.0 && opts_.skew_b <= 1.0);
}

JointOptimizer::Probe JointOptimizer::probe(
    double vdd, const std::vector<double>& vts,
    const timing::BudgetResult& budgets, const ProbeCtx& ctx) const {
  static obs::Counter& c_probes = obs::counter("opt.joint.probes");
  static obs::Histogram& h_micros = obs::histogram("opt.joint.probe_micros");
  c_probes.add();
  const obs::ScopedTimer timer(h_micros);

  const netlist::Netlist& nl = eval_.netlist();
  Probe p;
  p.state.vdd = vdd;
  p.state.vts = vts;

  // Width search uses the delay-corner thresholds (worst-case timing).
  std::vector<double> vts_corner(vts.size());
  for (std::size_t i = 0; i < vts.size(); ++i) {
    vts_corner[i] = eval_.delay_vts(vts[i]);
  }
  const GateSizer sizer(eval_.delay_calculator());
  SizingResult sized = sizer.size(budgets.t_max, vdd, vts_corner);
  p.state.widths = std::move(sized.widths);
  MINERGY_CHECK(p.state.widths.size() == nl.size());

  // Accept on the real constraint: full STA against the skewed cycle time.
  const double limit = opts_.skew_b * eval_.cycle_time();
  timing::TimingReport report = eval_.sta(p.state, limit);
  p.critical_delay = report.critical_delay;
  p.feasible = p.critical_delay <= limit * (1.0 + 1e-9);

  if (p.feasible) {
    // Post-processing width recovery: shrink oversized gates back into the
    // circuit's real slack (each pass verified by a fresh STA; a pass that
    // breaks timing is reverted and iteration stops).
    for (int pass = 0; pass < opts_.recovery_passes; ++pass) {
      SizingResult recovered =
          sizer.recover(p.state.widths, vdd, vts_corner, limit, report);
      CircuitState candidate = p.state;
      candidate.widths = std::move(recovered.widths);
      const timing::TimingReport check = eval_.sta(candidate, limit);
      if (check.critical_delay > limit * (1.0 + 1e-9)) break;
      p.state = std::move(candidate);
      p.critical_delay = check.critical_delay;
      report = check;
    }
  }
  p.energy = eval_.energy(p.state);
  ctx.dog->note_evaluation();

  if (ctx.report != nullptr) {
    obs::TrajectoryPoint tp;
    tp.phase = ctx.phase;
    tp.vdd = vdd;
    tp.vts = vts.empty() ? 0.0 : vts[0];
    tp.energy = p.energy.total();
    tp.critical_delay = p.critical_delay;
    tp.feasible = p.feasible;
    p.traj = static_cast<int>(ctx.report->trajectory.size());
    ctx.report->add_point(std::move(tp));
  }
  return p;
}

JointOptimizer::Probe JointOptimizer::probe_uniform(
    double vdd, double vts, const timing::BudgetResult& budgets,
    const ProbeCtx& ctx) const {
  return probe(vdd, std::vector<double>(eval_.netlist().size(), vts), budgets,
               ctx);
}

void JointOptimizer::refine(const timing::BudgetResult& budgets, Probe* best,
                            ProbeCtx ctx) const {
  if (!best->feasible || ctx.dog->expired()) return;
  ctx.phase = "refine";
  const tech::Technology& tech = eval_.technology();
  const double center_vdd = best->state.vdd;

  // Penalized energy at (vdd, vts): infeasible points are pushed uphill in
  // proportion to their violation so the golden-section stays oriented.
  // Once the watchdog expires, further probes are skipped and a flat cost
  // lets the bracketing searches run out without new evaluations.
  auto penalized = [&](double vdd, double vts) {
    if (ctx.dog->expired()) return best->energy.total() * 4.0;
    Probe p = probe_uniform(vdd, vts, budgets, ctx);
    double cost = p.energy.total();
    if (!p.feasible) {
      const double limit = opts_.skew_b * eval_.cycle_time();
      cost = best->energy.total() * (2.0 + 10.0 * (p.critical_delay / limit));
    }
    if (p.feasible && p.energy.total() < best->energy.total()) {
      mark_accepted(ctx.report, p.traj);
      *best = std::move(p);
    }
    return cost;
  };

  // The inner Vts search hands back its winner's cost, so the outer search
  // never probes that point a second time.
  auto energy_at_vdd = [&](double vdd) {
    double cost = 0.0;
    util::golden_section_min(
        tech.vts_min, tech.vts_max, opts_.refine_steps,
        [&](double vts) { return penalized(vdd, vts); }, &cost);
    return cost;
  };
  // 1-D polish on Vdd in a +/-30% window around the discrete optimum; the
  // best probe seen anywhere is captured by `penalized`.
  double lo = std::max(tech.vdd_min, 0.7 * center_vdd);
  double hi = std::min(tech.vdd_max, 1.3 * center_vdd);
  if (!(lo <= hi)) {
    // The window lies entirely outside the technology's legal Vdd range
    // (possible when resuming a checkpoint taken under a different
    // technology): an inverted interval would trip golden_section_min's
    // precondition check. Collapse to the legal point nearest the center.
    lo = hi = std::clamp(center_vdd, tech.vdd_min, tech.vdd_max);
  }
  if (lo == hi) {
    // One legal Vdd: a single inner search covers the whole window.
    energy_at_vdd(lo);
    return;
  }
  util::golden_section_min(lo, hi, opts_.refine_steps, energy_at_vdd);
}

void JointOptimizer::assign_threshold_groups(
    const timing::BudgetResult& budgets, Probe* best,
    OptimizationResult* result, ProbeCtx ctx) const {
  const netlist::Netlist& nl = eval_.netlist();
  const tech::Technology& tech = eval_.technology();
  const int nv = opts_.num_thresholds;
  ctx.phase = "multi-vt";
  result->vts_groups = {best->state.vts.empty() ? 0.0 : best->state.vts[0]};
  if (nv <= 1 || !best->feasible || ctx.dog->expired()) return;

  // Group gates by timing slack at the current optimum: group 0 (most
  // critical) keeps the base threshold; groups 1..nv-1 may be raised.
  const timing::TimingReport report =
      eval_.sta(best->state, opts_.skew_b * eval_.cycle_time());
  std::vector<netlist::GateId> order(nl.combinational());
  std::sort(order.begin(), order.end(),
            [&](netlist::GateId a, netlist::GateId b) {
              return report.slack[a] < report.slack[b];
            });
  std::vector<int> group(nl.size(), 0);
  for (std::size_t rank = 0; rank < order.size(); ++rank) {
    group[order[rank]] = static_cast<int>(
        (rank * static_cast<std::size_t>(nv)) / std::max<std::size_t>(
            order.size(), 1));
  }

  const double base_vts = best->state.vts[order.empty() ? 0 : order[0]];
  std::vector<double> group_vts(static_cast<std::size_t>(nv), base_vts);

  // Raise each group's threshold from the slackest group inward: binary
  // search the highest value that stays feasible and does not increase
  // energy.
  for (int gi = nv - 1; gi >= 1 && !ctx.dog->expired(); --gi) {
    double lo = base_vts, hi = tech.vts_max;
    {
      // Probe the upper endpoint first: the fixed-midpoint bisection below
      // never evaluates `hi` itself, so when vts_max is feasible the group
      // would otherwise settle one half-interval short of it and leak
      // subthreshold energy.
      std::vector<double> vts = best->state.vts;
      for (netlist::GateId id : nl.combinational()) {
        if (group[id] == gi) vts[id] = hi;
      }
      Probe p = probe(best->state.vdd, vts, budgets, ctx);
      if (p.feasible && p.energy.total() <= best->energy.total()) {
        mark_accepted(ctx.report, p.traj);
        *best = p;
        group_vts[static_cast<std::size_t>(gi)] = hi;
        continue;
      }
    }
    for (int s = 0; s < opts_.steps && !ctx.dog->expired(); ++s) {
      const double mid = 0.5 * (lo + hi);
      std::vector<double> vts = best->state.vts;
      for (netlist::GateId id : nl.combinational()) {
        if (group[id] == gi) vts[id] = mid;
      }
      Probe p = probe(best->state.vdd, vts, budgets, ctx);
      if (p.feasible && p.energy.total() <= best->energy.total()) {
        mark_accepted(ctx.report, p.traj);
        *best = p;
        group_vts[static_cast<std::size_t>(gi)] = mid;
        lo = mid;
      } else {
        hi = mid;
      }
    }
  }
  result->vts_groups.assign(group_vts.begin(), group_vts.end());
  std::sort(result->vts_groups.begin(), result->vts_groups.end());
  result->vts_groups.erase(
      std::unique(result->vts_groups.begin(), result->vts_groups.end()),
      result->vts_groups.end());
}

OptimizationResult JointOptimizer::run() const {
  const obs::Span run_span("joint.run");
  const obs::CounterDelta counter_delta;
  obs::counter("opt.joint.runs").add();

  const auto t0 = std::chrono::steady_clock::now();
  const tech::Technology& tech = eval_.technology();

  OptimizationResult result;
  obs::RunReport& report = result.report;
  report.optimizer = "joint";
  report.circuit = eval_.netlist().name();

  timing::BudgetResult budgets;
  {
    const obs::Span span("joint.budgeting");
    budgets = eval_.budgeter().assign(eval_.cycle_time(),
                                      {.clock_skew_b = opts_.skew_b});
  }

  util::Watchdog dog(opts_.budget);
  const ProbeCtx ctx{&dog, &report, "sweep"};
  Probe best;
  best.energy.static_energy = kInf;
  best.energy.dynamic_energy = 0.0;
  best.feasible = false;

  // --- Resume a checkpointed sweep ----------------------------------------
  int start_step = 0;
  std::int64_t resumed_evals = 0;
  double resume_prev_total = kInf;
  util::Range resume_vdd_range{tech.vdd_min, tech.vdd_max};
  if (!opts_.resume_path.empty()) {
    JointCheckpoint ck;
    bool loaded = true;
    try {
      ck = JointCheckpoint::load(opts_.resume_path);
    } catch (const util::ParseError& e) {
      // Corrupt snapshot (truncated, garbled, wrong schema): reject it and
      // run fresh instead of dying; direct Checkpoint loads still throw the
      // typed ParseError for callers that want it.
      loaded = false;
      obs::counter("opt.checkpoint.resume_rejected").add();
      std::fprintf(stderr,
                   "joint: resume snapshot rejected (%s); starting fresh\n",
                   e.what());
    }
    if (loaded) {
      MINERGY_CHECK_MSG(ck.circuit == eval_.netlist().name(),
                        "joint resume: checkpoint is for circuit '" +
                            ck.circuit + "', not '" + eval_.netlist().name() +
                            "'");
      start_step = ck.next_step;
      resume_vdd_range = {ck.vdd_lo, ck.vdd_hi};
      resume_prev_total = ck.prev_total;
      if (ck.has_best) {
        best.state = std::move(ck.best_state);
        best.energy = ck.best_energy;
        best.critical_delay = ck.best_critical_delay;
        best.feasible = ck.best_feasible;
      }
      resumed_evals = ck.evaluations;
      report = std::move(ck.report);
      report.optimizer = "joint";
      report.circuit = eval_.netlist().name();
      obs::counter("opt.joint.resumes").add();
    }
  }

  // --- Procedure 2: nested binary search ---------------------------------
  {
    const obs::Span span("joint.sweep");
    double prev_total = resume_prev_total;  // "total energy decreased" ref
    util::Range vdd_range = resume_vdd_range;
    auto write_checkpoint = [&](int next_step) {
      JointCheckpoint ck;
      ck.circuit = eval_.netlist().name();
      ck.next_step = next_step;
      ck.vdd_lo = vdd_range.lo;
      ck.vdd_hi = vdd_range.hi;
      ck.prev_total = prev_total;
      ck.has_best = best.feasible;
      if (ck.has_best) {
        ck.best_state = best.state;
        ck.best_energy = best.energy;
        ck.best_critical_delay = best.critical_delay;
        ck.best_feasible = best.feasible;
      }
      ck.evaluations = resumed_evals + dog.evaluations();
      ck.report = report;
      ck.save(opts_.checkpoint_path);
      obs::counter("opt.joint.checkpoints").add();
    };
    for (int m = start_step; m < opts_.steps && !dog.expired(); ++m) {
      const double vdd = vdd_range.mid();
      bool improved_at_this_vdd = false;

      util::Range vts_range{tech.vts_min, tech.vts_max};
      for (int m2 = 0; m2 < opts_.steps && !dog.expired(); ++m2) {
        const double vts = vts_range.mid();
        Probe p = probe_uniform(vdd, vts, budgets, ctx);
        const bool good = p.feasible && p.energy.total() < prev_total;
        if (good) {
          prev_total = p.energy.total();
          improved_at_this_vdd = true;
          if (!best.feasible || p.energy.total() < best.energy.total()) {
            mark_accepted(ctx.report, p.traj);
            best = std::move(p);
          }
          vts_range = vts_range.higher();  // cut leakage while timing holds
        } else {
          vts_range = vts_range.lower();
        }
      }
      vdd_range = improved_at_this_vdd ? vdd_range.lower()
                                       : vdd_range.higher();
      // Snapshot completed steps only: a step cut short by the watchdog
      // must be replayed in full on resume, not recorded as done.
      if (!opts_.checkpoint_path.empty() && !dog.expired()) {
        write_checkpoint(m + 1);
      }
    }
  }

  if (opts_.refine) {
    const obs::Span span("joint.refine");
    refine(budgets, &best, ctx);
  }

  if (opts_.tilos_polish && best.feasible && !dog.expired()) {
    // Global sensitivity re-sizing at the chosen (Vdd, Vts): start from
    // minimum widths and grow only what the critical path needs.
    const obs::Span span("joint.tilos_polish");
    std::vector<double> vts_corner(best.state.vts.size());
    for (std::size_t i = 0; i < vts_corner.size(); ++i) {
      vts_corner[i] = eval_.delay_vts(best.state.vts[i]);
    }
    const TilosSizer tilos(eval_.delay_calculator(), eval_.energy_model());
    const TilosResult sized = tilos.size(best.state.vdd, vts_corner,
                                         opts_.skew_b * eval_.cycle_time());
    if (sized.feasible) {
      Probe candidate = best;
      candidate.state.widths = sized.widths;
      candidate.critical_delay = sized.critical_delay;
      candidate.energy = eval_.energy(candidate.state);
      dog.note_evaluation();
      if (candidate.energy.total() < best.energy.total()) {
        obs::TrajectoryPoint tp;
        tp.phase = "tilos-polish";
        tp.vdd = candidate.state.vdd;
        tp.vts = candidate.state.vts.empty() ? 0.0 : candidate.state.vts[0];
        tp.energy = candidate.energy.total();
        tp.critical_delay = candidate.critical_delay;
        tp.feasible = true;
        tp.accepted = true;
        report.add_point(std::move(tp));
        best = std::move(candidate);
      }
    }
  }

  if (opts_.lagrangian_polish && best.feasible && !dog.expired()) {
    const obs::Span span("joint.lagrangian_polish");
    std::vector<double> vts_corner(best.state.vts.size());
    for (std::size_t i = 0; i < vts_corner.size(); ++i) {
      vts_corner[i] = eval_.delay_vts(best.state.vts[i]);
    }
    const LagrangianSizer lr(eval_.delay_calculator(), eval_.energy_model());
    const LagrangianResult sized = lr.size(
        best.state.vdd, vts_corner, opts_.skew_b * eval_.cycle_time());
    if (sized.feasible) {
      Probe candidate = best;
      candidate.state.widths = sized.widths;
      candidate.critical_delay = sized.critical_delay;
      candidate.energy = eval_.energy(candidate.state);
      dog.note_evaluation();
      if (candidate.energy.total() < best.energy.total()) {
        obs::TrajectoryPoint tp;
        tp.phase = "lagrangian-polish";
        tp.vdd = candidate.state.vdd;
        tp.vts = candidate.state.vts.empty() ? 0.0 : candidate.state.vts[0];
        tp.energy = candidate.energy.total();
        tp.critical_delay = candidate.critical_delay;
        tp.feasible = true;
        tp.accepted = true;
        report.add_point(std::move(tp));
        best = std::move(candidate);
      }
    }
  }

  {
    const obs::Span span("joint.multi_vt");
    assign_threshold_groups(budgets, &best, &result, ctx);
  }

  result.state = best.state;
  result.energy = best.energy;
  result.critical_delay = best.critical_delay;
  result.feasible = best.feasible;
  result.vdd = best.state.vdd;
  result.vts_primary = best.state.vts.empty() ? 0.0 : best.state.vts[0];
  if (result.vts_groups.empty() && !best.state.vts.empty()) {
    result.vts_groups = {result.vts_primary};
  }
  result.circuit_evaluations =
      static_cast<int>(resumed_evals + dog.evaluations());
  if (dog.expired()) {
    result.truncated = true;
    result.truncation_reason =
        std::string(dog.expiry_reason()) + " exhausted after " +
        std::to_string(dog.evaluations()) + " circuit evaluations";
    obs::counter("opt.watchdog.expiries").add();
    obs::Tracer::instance().instant("watchdog.expired", "joint");
  }
  result.runtime_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (result.feasible) {
    obs::gauge("opt.joint.best_energy_joules").set(result.energy.total());
  }
  counter_delta.finish(&report);
  finalize_run_report(&result);
  return result;
}

}  // namespace minergy::opt
