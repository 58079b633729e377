// opt::MoveEvaluator against the full evaluation, compared with ==.
//
// The move evaluator re-times only the gates a width move reaches and runs
// one forward pass for a supply or threshold move. After every proposal,
// accept and reject, its critical delay and energy breakdown must equal
// CircuitEvaluator::critical_delay and energy on the same state, and it
// must call a state non-finite exactly when those throw
// util::NumericError. The walks cover the 8 paper circuits, a generated
// 1.6k-gate netlist whose POs mostly drive logic, the default settings, a
// Vts tolerance, the short-circuit term and placed wire loads, and a walk
// into a corner where the threshold reaches the supply and back.
//
// The annealer built on it must still take exactly the walk of the
// full-evaluation loop it replaced, which reference_anneal() below keeps.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "activity/activity.h"
#include "bench_suite/experiment.h"
#include "bench_suite/iscas.h"
#include "netlist/generator.h"
#include "obs/metrics.h"
#include "opt/annealing_optimizer.h"
#include "opt/evaluator.h"
#include "opt/move_evaluator.h"
#include "place/placement.h"
#include "util/guard.h"
#include "util/rng.h"

namespace minergy::opt {
namespace {

using netlist::GateId;
using netlist::Netlist;

// large_joint's shape with 400 POs, most of which also drive logic.
Netlist gen1600() {
  netlist::GeneratorSpec spec;
  spec.name = "gen1600-po400";
  spec.num_gates = 1600;
  spec.depth = 1600 / 64;
  spec.num_dffs = 1600 / 12;
  spec.num_inputs = 1600 / 50;
  spec.num_outputs = 400;
  spec.seed = 7;
  return netlist::generate_random_logic(spec);
}

activity::ActivityProfile profile() {
  activity::ActivityProfile p;
  p.input_density = 0.3;
  return p;
}

std::vector<EvalSettings> settings_matrix() {
  return {EvalSettings{},
          EvalSettings{.vts_tolerance = 0.1},
          EvalSettings{.include_short_circuit = true}};
}

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// Counts mismatches and names the first, so a broken walk reports one line
// per circuit instead of one per move.
class Tally {
 public:
  // The move evaluator's current evaluation against the full one.
  void check(const CircuitEvaluator& eval, const MoveEvaluator& moves,
             const std::string& step) {
    ++checks_;
    const MoveEvaluation& got = moves.evaluation();
    double crit = 0.0;
    power::EnergyBreakdown energy;
    bool threw = false;
    try {
      crit = eval.critical_delay(moves.state());
      energy = eval.energy(moves.state());
    } catch (const util::NumericError&) {
      threw = true;
    }
    if (threw) ++non_finite_;
    if (got.finite == threw) {
      fail(step + ": finite=" + std::to_string(got.finite) +
           " but the full evaluation " + (threw ? "threw" : "did not throw"));
    } else if (!threw &&
               (got.critical_delay != crit ||
                got.energy.static_energy != energy.static_energy ||
                got.energy.dynamic_energy != energy.dynamic_energy ||
                got.energy.short_circuit_energy !=
                    energy.short_circuit_energy)) {
      fail(step + ": critical delay " + num(got.critical_delay) + " vs " +
           num(crit) + ", energy " + num(got.energy.total()) + " vs " +
           num(energy.total()));
    }
  }

  void expect_none(const std::string& scope) const {
    EXPECT_GT(checks_, 0) << scope;
    EXPECT_EQ(mismatches_, 0)
        << scope << ": " << mismatches_ << " of " << checks_
        << " evaluations differ; first: " << first_;
  }
  int non_finite() const { return non_finite_; }

 private:
  void fail(const std::string& what) {
    if (mismatches_++ == 0) first_ = what;
  }

  int checks_ = 0, mismatches_ = 0, non_finite_ = 0;
  std::string first_;
};

void close_at_random(MoveEvaluator& moves, util::Rng& rng) {
  if (rng.bernoulli(0.5)) {
    moves.accept();
  } else {
    moves.reject();
  }
}

// Seeded moves of all three kinds, each accepted or rejected at random and
// checked after the proposal and after it closes. Steps are wider than the
// annealer's so the walk reaches the technology's bounds; half the
// threshold moves shift every gate by its own step.
void random_walk(const CircuitEvaluator& eval, std::uint64_t seed, int steps,
                 Tally& tally) {
  const tech::Technology& tech = eval.technology();
  const Netlist& nl = eval.netlist();
  const std::vector<GateId>& logic = nl.combinational();
  util::Rng rng(seed);
  MoveEvaluator moves(eval);
  moves.reset(CircuitState::uniform(nl, tech.vdd_max,
                                    0.5 * (tech.vts_min + tech.vts_max), 4.0));
  tally.check(eval, moves, "reset");
  std::vector<double> vts;
  for (int i = 0; i < steps; ++i) {
    const std::string step = "move " + std::to_string(i);
    const CircuitState& s = moves.state();
    const double r = rng.uniform();
    if (r < 0.6) {
      const GateId id = logic[rng.uniform_index(logic.size())];
      moves.propose_width(id, std::clamp(s.widths[id] *
                                             std::exp(rng.normal(0.0, 0.7)),
                                         tech.w_min, tech.w_max));
    } else if (r < 0.8) {
      moves.propose_vdd(std::clamp(s.vdd + rng.normal(0.0, 0.3),
                                   tech.vdd_min, tech.vdd_max));
    } else {
      vts = s.vts;
      const bool per_gate = rng.bernoulli(0.5);
      const double shift = rng.normal(0.0, 0.05);
      for (double& v : vts) {
        v = std::clamp(v + (per_gate ? rng.normal(0.0, 0.05) : shift),
                       tech.vts_min, tech.vts_max);
      }
      moves.propose_vts(vts);
    }
    tally.check(eval, moves, step + " proposed");
    close_at_random(moves, rng);
    tally.check(eval, moves, step + " closed");
  }
}

// Drives the state to the weakest corner (lowest supply, highest
// threshold), where leakage outgrows the drive and the full evaluation
// throws, makes width moves there, and walks back out.
void corner_walk(const CircuitEvaluator& eval, std::uint64_t seed,
                 Tally& tally) {
  const tech::Technology& tech = eval.technology();
  const Netlist& nl = eval.netlist();
  const std::vector<GateId>& logic = nl.combinational();
  util::Rng rng(seed);
  MoveEvaluator moves(eval);
  moves.reset(CircuitState::uniform(nl, tech.vdd_max, tech.vts_min, 4.0));
  tally.check(eval, moves, "corner reset");
  const std::vector<double> high(nl.size(), tech.vts_max);
  const std::vector<double> low(nl.size(), tech.vts_min);
  auto widths = [&](const std::string& where) {
    for (int i = 0; i < 40; ++i) {
      const GateId id = logic[rng.uniform_index(logic.size())];
      moves.propose_width(id, rng.uniform(tech.w_min, tech.w_max));
      tally.check(eval, moves, where + " width proposed");
      close_at_random(moves, rng);
      tally.check(eval, moves, where + " width closed");
    }
  };
  auto step = [&](const std::string& where, auto&& propose) {
    propose();
    tally.check(eval, moves, where + " proposed");
    moves.reject();
    tally.check(eval, moves, where + " rejected");
    propose();
    moves.accept();
    tally.check(eval, moves, where + " accepted");
  };
  step("to vdd_min", [&] { moves.propose_vdd(tech.vdd_min); });
  widths("low supply");
  step("to vts_max", [&] { moves.propose_vts(high); });
  widths("corner");
  step("back to vts_min", [&] { moves.propose_vts(low); });
  widths("low threshold");
  step("back to vdd_max", [&] { moves.propose_vdd(tech.vdd_max); });
  widths("strong corner");
}

void expect_walks_match(const CircuitEvaluator& eval, int steps,
                        const std::string& scope) {
  Tally walk;
  random_walk(eval, 11, steps, walk);
  walk.expect_none(scope + " random walk");
  Tally corner;
  corner_walk(eval, 12, corner);
  corner.expect_none(scope + " corner walk");
  EXPECT_GT(corner.non_finite(), 0)
      << scope << ": the corner walk never reached a non-finite state";
}

TEST(MoveEvaluator, MatchesTheFullEvaluationOnEveryMove) {
  std::vector<Netlist> circuits;
  for (const bench_suite::CircuitSpec& spec : bench_suite::paper_circuits()) {
    circuits.push_back(bench_suite::make_circuit(spec));
  }
  circuits.push_back(gen1600());
  const tech::Technology tech = tech::Technology::generic350();
  for (const Netlist& nl : circuits) {
    const int steps = nl.num_combinational() > 1000 ? 150 : 400;
    int k = 0;
    for (const EvalSettings& settings : settings_matrix()) {
      const CircuitEvaluator eval(nl, tech, profile(), settings);
      expect_walks_match(eval, steps,
                         nl.name() + " settings " + std::to_string(k++));
    }
  }
}

TEST(MoveEvaluator, MatchesTheFullEvaluationOverPlacedWires) {
  const tech::Technology tech = tech::Technology::generic350();
  for (const char* name : {"s298*", "s832*"}) {
    const Netlist nl = bench_suite::make_circuit(name);
    const place::Placement placement =
        place::AnnealingPlacer({.seed = 3, .moves_per_node = 20}).place(nl);
    const place::PlacedWireModel wires(tech, placement);
    const CircuitEvaluator eval(
        nl, tech, profile(),
        EvalSettings{.vts_tolerance = 0.1, .include_short_circuit = true},
        wires);
    expect_walks_match(eval, 400, std::string(name) + " placed");
  }
}

TEST(MoveEvaluator, WidthMovesRetimeOnlyWhatTheyReach) {
  const Netlist nl = bench_suite::make_circuit("s832*");
  const tech::Technology tech = tech::Technology::generic350();
  const CircuitEvaluator eval(nl, tech, profile(), EvalSettings{});
  const std::vector<GateId>& logic = nl.combinational();
  MoveEvaluator moves(eval);
  moves.reset(CircuitState::uniform(nl, tech.vdd_max, 0.4, 4.0));
  util::Rng rng(5);
  obs::set_enabled(true);
  obs::Counter& evals = obs::counter("timing.delay.gate_evals");
  const std::int64_t before = evals.value();
  constexpr int kMoves = 500;
  for (int i = 0; i < kMoves; ++i) {
    const GateId id = logic[rng.uniform_index(logic.size())];
    moves.propose_width(id, moves.state().widths[id] * 1.5);
    close_at_random(moves, rng);
  }
  const std::int64_t retimed = evals.value() - before;
  obs::set_enabled(false);
  // A full pass would time every gate on every move.
  EXPECT_LT(retimed, kMoves * static_cast<std::int64_t>(logic.size()) / 2);
  EXPECT_GT(retimed, kMoves);
}

TEST(MoveEvaluator, RejectRestoresTheAcceptedStateExactly) {
  const Netlist nl = bench_suite::make_circuit("s298*");
  const tech::Technology tech = tech::Technology::generic350();
  const CircuitEvaluator eval(nl, tech, profile(), EvalSettings{});
  MoveEvaluator moves(eval);
  const CircuitState start = CircuitState::uniform(nl, 2.0, 0.3, 3.0);
  const MoveEvaluation first = moves.reset(start);
  const GateId id = nl.combinational()[nl.num_combinational() / 2];
  moves.propose_width(id, 9.0);
  EXPECT_EQ(moves.state().widths[id], 9.0);
  moves.reject();
  moves.propose_vdd(1.1);
  moves.reject();
  moves.propose_vts(std::vector<double>(nl.size(), 0.2));
  moves.reject();
  EXPECT_EQ(moves.state().vdd, start.vdd);
  EXPECT_EQ(moves.state().vts, start.vts);
  EXPECT_EQ(moves.state().widths, start.widths);
  EXPECT_EQ(moves.evaluation().critical_delay, first.critical_delay);
  EXPECT_EQ(moves.evaluation().energy.total(), first.energy.total());
  // Nothing open: both are no-ops.
  moves.reject();
  moves.accept();
  EXPECT_EQ(moves.state().widths, start.widths);
}

// --------------------------------------------- the annealer's walk is kept

// AnnealingOptimizer::run as it was before the move evaluator, without
// checkpoints: every move copies the state and evaluates it in full.
OptimizationResult reference_anneal(const CircuitEvaluator& eval,
                                    const AnnealingOptions& opts) {
  const tech::Technology& tech = eval.technology();
  const Netlist& nl = eval.netlist();
  util::Rng rng(opts.seed);
  OptimizationResult result;
  obs::RunReport& rep = result.report;
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
  const double limit = opts.skew_b * eval.cycle_time();
  int evaluations = 0;
  auto cost_of = [&](const CircuitState& s, double* crit_out,
                     double* energy_out) {
    ++evaluations;
    try {
      const double crit = eval.critical_delay(s);
      const double energy = eval.energy(s).total();
      if (crit_out) *crit_out = crit;
      if (energy_out) *energy_out = energy;
      const double violation = std::max(0.0, crit / limit - 1.0);
      return energy * (1.0 + opts.penalty_weight * violation);
    } catch (const util::NumericError&) {
      if (crit_out) *crit_out = std::numeric_limits<double>::infinity();
      if (energy_out) *energy_out = std::numeric_limits<double>::infinity();
      return std::numeric_limits<double>::infinity();
    }
  };

  const CircuitState init = CircuitState::uniform(
      nl, tech.vdd_max, 0.5 * (tech.vts_min + tech.vts_max), 4.0);
  CircuitState global_best = init;
  double global_best_crit = 0.0, global_best_energy = 0.0;
  double global_best_cost =
      cost_of(global_best, &global_best_crit, &global_best_energy);
  record_point(global_best, global_best_energy, global_best_crit,
               global_best_crit <= limit * (1.0 + 1e-9),
               global_best_crit <= limit * (1.0 + 1e-9));

  const int moves_per_pass = std::max(1, opts.max_moves / opts.passes);
  for (int pass = 0; pass < opts.passes; ++pass) {
    CircuitState cur = pass == 0 ? init : global_best;
    double cur_cost = cost_of(cur, nullptr, nullptr);
    double temperature = opts.initial_temp_scale * std::fabs(cur_cost);
    if (!std::isfinite(temperature)) temperature = 0.0;
    for (int move = 0; move < moves_per_pass; ++move) {
      CircuitState cand = cur;
      const double r = rng.uniform();
      if (r < 0.6) {
        const auto& logic = nl.combinational();
        if (!logic.empty()) {
          const GateId id = logic[rng.uniform_index(logic.size())];
          const double factor = std::exp(rng.normal(0.0, 0.25));
          cand.widths[id] =
              std::clamp(cand.widths[id] * factor, tech.w_min, tech.w_max);
        }
      } else if (r < 0.8) {
        cand.vdd = std::clamp(cand.vdd + rng.normal(0.0, 0.08), tech.vdd_min,
                              tech.vdd_max);
      } else {
        const double delta = rng.normal(0.0, 0.03);
        for (double& v : cand.vts) {
          v = std::clamp(v + delta, tech.vts_min, tech.vts_max);
        }
      }
      double crit = 0.0, energy = 0.0;
      const double cand_cost = cost_of(cand, &crit, &energy);
      const double delta_cost = cand_cost - cur_cost;
      if (delta_cost <= 0.0 ||
          rng.bernoulli(std::exp(-delta_cost / std::max(temperature, 1e-30)))) {
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
      temperature *= opts.cooling;
    }
  }

  result.state = global_best;
  result.critical_delay = global_best_crit > 0.0
                              ? global_best_crit
                              : eval.critical_delay(global_best);
  result.feasible = result.critical_delay <= limit * (1.0 + 1e-9);
  result.energy = eval.energy(global_best);
  result.circuit_evaluations = evaluations;
  return result;
}

TEST(MoveEvaluator, AnnealerTakesTheFullEvaluationWalk) {
  const bench_suite::ExperimentConfig cfg;
  const tech::Technology tech = tech::Technology::generic350();
  for (const char* name : {"s27", "s298*", "s832*"}) {
    const Netlist nl = bench_suite::make_circuit(name);
    bool scaled = false;
    const double tc = bench_suite::choose_cycle_time(nl, cfg, &scaled);
    const CircuitEvaluator eval(nl, tech, profile(),
                                EvalSettings{.clock_frequency = 1.0 / tc});
    for (const std::uint64_t seed : {1u, 77u, 4242u}) {
      SCOPED_TRACE(std::string(name) + " seed " + std::to_string(seed));
      AnnealingOptions opts;
      opts.max_moves = 2500;
      opts.seed = seed;
      const OptimizationResult got = AnnealingOptimizer(eval, opts).run();
      const OptimizationResult want = reference_anneal(eval, opts);
      EXPECT_EQ(got.state.vdd, want.state.vdd);
      EXPECT_EQ(got.state.vts, want.state.vts);
      EXPECT_EQ(got.state.widths, want.state.widths);
      EXPECT_EQ(got.energy.static_energy, want.energy.static_energy);
      EXPECT_EQ(got.energy.dynamic_energy, want.energy.dynamic_energy);
      EXPECT_EQ(got.energy.short_circuit_energy,
                want.energy.short_circuit_energy);
      EXPECT_EQ(got.critical_delay, want.critical_delay);
      EXPECT_EQ(got.feasible, want.feasible);
      EXPECT_EQ(got.circuit_evaluations, want.circuit_evaluations);
      const auto& a = got.report.trajectory;
      const auto& b = want.report.trajectory;
      ASSERT_EQ(a.size(), b.size());
      EXPECT_GT(a.size(), 1u);
      for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].vdd, b[i].vdd) << "point " << i;
        EXPECT_EQ(a[i].vts, b[i].vts) << "point " << i;
        EXPECT_EQ(a[i].energy, b[i].energy) << "point " << i;
        EXPECT_EQ(a[i].critical_delay, b[i].critical_delay) << "point " << i;
        EXPECT_EQ(a[i].feasible, b[i].feasible) << "point " << i;
        EXPECT_EQ(a[i].accepted, b[i].accepted) << "point " << i;
      }
    }
  }
}

}  // namespace
}  // namespace minergy::opt
