#include "opt/annealing_optimizer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "opt/checkpoint.h"
#include "util/check.h"
#include "util/guard.h"
#include "util/rng.h"

namespace minergy::opt {

AnnealingOptimizer::AnnealingOptimizer(const CircuitEvaluator& eval,
                                       AnnealingOptions options)
    : eval_(eval), opts_(options) {
  MINERGY_CHECK(opts_.max_moves >= 1);
  MINERGY_CHECK(opts_.passes >= 1);
  MINERGY_CHECK(opts_.cooling > 0.0 && opts_.cooling < 1.0);
}

OptimizationResult AnnealingOptimizer::run(
    const CircuitState& warm_start) const {
  const obs::Span run_span("anneal.run");
  const RunStamp stamp("anneal", "opt.anneal.best_energy_joules");
  obs::counter("opt.anneal.runs").add();
  static obs::Counter& c_moves = obs::counter("opt.anneal.moves");
  static obs::Counter& c_accepts = obs::counter("opt.anneal.accepts");

  const tech::Technology& tech = eval_.technology();
  const netlist::Netlist& nl = eval_.netlist();
  util::Rng rng(opts_.seed);

  OptimizationResult result;
  obs::RunReport& rep = result.report;
  rep.optimizer = "annealing";
  rep.circuit = nl.name();

  // Trajectory: the initial state plus every global-best improvement. The
  // per-move stream would swamp the report, so rejected/lateral moves only
  // show up in the opt.anneal.moves counter.
  auto record_point = [&](const CircuitState& s, double energy, double crit,
                          bool feasible, bool accepted) {
    obs::TrajectoryPoint tp;
    tp.phase = "anneal";
    tp.vdd = s.vdd;
    tp.vts = s.vts.empty() ? 0.0 : s.vts.front();
    tp.energy = energy;
    tp.critical_delay = crit;
    tp.feasible = feasible;
    tp.accepted = accepted;
    rep.add_point(std::move(tp));
  };

  const double limit = opts_.skew_b * eval_.cycle_time();
  util::Watchdog dog(opts_.budget);

  // A random walk can wander into non-physical corners (threshold at or
  // above the supply) where the evaluator's finite-checks throw; such a
  // move is an infinite-cost reject, not a crash of the whole anneal.
  auto cost_of = [&](const CircuitState& s, double* crit_out,
                     double* energy_out) {
    dog.note_evaluation();
    try {
      const double crit = eval_.critical_delay(s);
      const double energy = eval_.energy(s).total();
      if (crit_out) *crit_out = crit;
      if (energy_out) *energy_out = energy;
      const double violation = std::max(0.0, crit / limit - 1.0);
      return energy * (1.0 + opts_.penalty_weight * violation);
    } catch (const util::NumericError&) {
      obs::counter("opt.anneal.numeric_rejects").add();
      if (crit_out) *crit_out = std::numeric_limits<double>::infinity();
      if (energy_out) *energy_out = std::numeric_limits<double>::infinity();
      return std::numeric_limits<double>::infinity();
    }
  };

  CircuitState init = warm_start;
  if (init.empty()) {
    init = CircuitState::uniform(nl, tech.vdd_max,
                                 0.5 * (tech.vts_min + tech.vts_max), 4.0);
  }

  // --- Resume / fresh start ------------------------------------------------
  CircuitState global_best;
  double global_best_crit = 0.0, global_best_energy = 0.0;
  double global_best_cost = 0.0;
  int start_pass = 0, start_move = 0;
  bool resumed = false;
  std::int64_t resumed_evals = 0;
  CircuitState resume_cur;
  double resume_cur_cost = 0.0, resume_temperature = 0.0;
  if (std::optional<AnnealCheckpoint> ck = load_for_resume<AnnealCheckpoint>(
          opts_.resume_path, "anneal", nl.name())) {
    resumed = true;
    start_pass = ck->pass;
    start_move = ck->move;
    resume_cur = std::move(ck->current);
    resume_cur_cost = ck->current_cost;
    resume_temperature = ck->temperature;
    global_best = std::move(ck->global_best);
    global_best_cost = ck->global_best_cost;
    global_best_crit = ck->global_best_crit;
    global_best_energy = ck->global_best_energy;
    resumed_evals = ck->evaluations;
    rng.restore(ck->rng);
    // The trajectory so far rides in the checkpoint; continue appending.
    rep = std::move(ck->report);
    rep.optimizer = "annealing";
    rep.circuit = nl.name();
    obs::counter("opt.anneal.resumes").add();
  }
  if (!resumed) {
    global_best = init;
    global_best_cost =
        cost_of(global_best, &global_best_crit, &global_best_energy);
    // The warm start counts as accepted only when it meets timing: for a
    // feasible point cost == energy, so the accepted-energy sequence stays
    // non-increasing across later global-best updates.
    record_point(global_best, global_best_energy, global_best_crit,
                 global_best_crit <= limit * (1.0 + 1e-9),
                 global_best_crit <= limit * (1.0 + 1e-9));
  }

  std::int64_t moves_done = 0;  // checkpoint cadence counter (this run only)
  auto write_checkpoint = [&](int pass, int next_move, const CircuitState& cur,
                              double cur_cost, double temperature) {
    AnnealCheckpoint ck;
    ck.circuit = nl.name();
    ck.pass = pass;
    ck.move = next_move;
    ck.temperature = temperature;
    ck.current = cur;
    ck.current_cost = cur_cost;
    ck.global_best = global_best;
    ck.global_best_cost = global_best_cost;
    ck.global_best_crit = global_best_crit;
    ck.global_best_energy = global_best_energy;
    ck.evaluations = resumed_evals + dog.evaluations();
    ck.rng = rng.state();
    ck.report = rep;
    ck.save(opts_.checkpoint_path);
    obs::counter("opt.anneal.checkpoints").add();
  };

  const int moves_per_pass = std::max(1, opts_.max_moves / opts_.passes);
  for (int pass = start_pass; pass < opts_.passes && !dog.expired(); ++pass) {
    const obs::Span pass_span("anneal.pass");
    CircuitState cur;
    double cur_cost = 0.0, temperature = 0.0;
    int first_move = 0;
    if (resumed && pass == start_pass) {
      // Mid-pass restore: the exact position, cost and temperature of the
      // interrupted run (pass-boundary checkpoints store the same values
      // the fresh-pass branch below would derive).
      cur = resume_cur;
      cur_cost = resume_cur_cost;
      temperature = resume_temperature;
      first_move = start_move;
    } else {
      cur = pass == 0 ? init : global_best;
      cur_cost = cost_of(cur, nullptr, nullptr);
      temperature = opts_.initial_temp_scale * std::fabs(cur_cost);
      // An infinite starting cost (numeric-rejected state) would otherwise
      // set an infinite temperature and turn the anneal into a random walk;
      // zero temperature makes it greedy until a physical state is found.
      if (!std::isfinite(temperature)) temperature = 0.0;
    }

    for (int move = first_move; move < moves_per_pass && !dog.expired();
         ++move) {
      CircuitState cand = cur;
      const double r = rng.uniform();
      if (r < 0.6) {
        // Perturb one gate's width multiplicatively.
        const auto& logic = nl.combinational();
        if (!logic.empty()) {
          const netlist::GateId id = logic[rng.uniform_index(logic.size())];
          const double factor = std::exp(rng.normal(0.0, 0.25));
          cand.widths[id] =
              std::clamp(cand.widths[id] * factor, tech.w_min, tech.w_max);
        }
      } else if (r < 0.8) {
        cand.vdd = std::clamp(cand.vdd + rng.normal(0.0, 0.08),
                              tech.vdd_min, tech.vdd_max);
      } else {
        const double delta = rng.normal(0.0, 0.03);
        for (double& v : cand.vts) {
          v = std::clamp(v + delta, tech.vts_min, tech.vts_max);
        }
      }

      c_moves.add();
      double crit = 0.0, energy = 0.0;
      const double cand_cost = cost_of(cand, &crit, &energy);
      const double delta_cost = cand_cost - cur_cost;
      if (delta_cost <= 0.0 ||
          rng.bernoulli(std::exp(-delta_cost / std::max(temperature, 1e-30)))) {
        c_accepts.add();
        cur = std::move(cand);
        cur_cost = cand_cost;
        if (crit <= limit * (1.0 + 1e-9) && cand_cost < global_best_cost) {
          global_best = cur;
          global_best_cost = cand_cost;
          global_best_crit = crit;
          global_best_energy = energy;
          record_point(global_best, energy, crit, true, true);
        }
      }
      temperature *= opts_.cooling;
      ++moves_done;
      if (!opts_.checkpoint_path.empty() && opts_.checkpoint_every_moves > 0 &&
          moves_done % opts_.checkpoint_every_moves == 0) {
        write_checkpoint(pass, move + 1, cur, cur_cost, temperature);
      }
    }
    if (!opts_.checkpoint_path.empty() && !dog.expired()) {
      // Pass boundary: store exactly what the next pass would derive, so a
      // resume here reproduces the uninterrupted run bit-for-bit. A pass
      // cut short by the watchdog is not a boundary — the cadence snapshot
      // inside the loop already holds the last completed move.
      double next_temp = opts_.initial_temp_scale * std::fabs(global_best_cost);
      if (!std::isfinite(next_temp)) next_temp = 0.0;
      write_checkpoint(pass + 1, 0, global_best, global_best_cost, next_temp);
    }
  }

  result.state = global_best;
  result.critical_delay = global_best_crit > 0.0
                              ? global_best_crit
                              : eval_.critical_delay(global_best);
  result.feasible = result.critical_delay <= limit * (1.0 + 1e-9);
  result.energy = eval_.energy(global_best);
  result.vdd = global_best.vdd;
  result.vts_primary =
      global_best.vts.empty() ? 0.0 : global_best.vts.front();
  result.vts_groups = {result.vts_primary};
  stamp.finish(&result, dog, resumed_evals);
  return result;
}

}  // namespace minergy::opt
