// Crash-safe checkpoint/resume: snapshot round-trips, and the guarantee the
// feature exists for — a run killed mid-flight and resumed from its last
// snapshot lands on the same answer as the uninterrupted run.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>

#include "io/checkpoint.h"
#include "io/durable.h"
#include "netlist/generator.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "opt/annealing_optimizer.h"
#include "opt/checkpoint.h"
#include "opt/evaluator.h"
#include "opt/joint_optimizer.h"
#include "util/guard.h"
#include "util/json.h"
#include "util/rng.h"

namespace minergy::opt {
namespace {

using netlist::Netlist;

Netlist make_circuit(std::uint64_t seed = 2981, int gates = 80, int depth = 8) {
  netlist::GeneratorSpec spec;
  spec.num_inputs = 6;
  spec.num_outputs = 6;
  spec.num_dffs = 6;
  spec.num_gates = gates;
  spec.depth = depth;
  spec.seed = seed;
  return netlist::generate_random_logic(spec);
}

struct Harness {
  explicit Harness(double fc = 250e6)
      : nl(make_circuit()),
        tech(tech::Technology::generic350()),
        eval(nl, tech, profile(), {.clock_frequency = fc}) {}

  static activity::ActivityProfile profile() {
    activity::ActivityProfile p;
    p.input_density = 0.2;
    return p;
  }

  Netlist nl;
  tech::Technology tech;
  CircuitEvaluator eval;
};

// Unique-per-test scratch file, removed on destruction (checkpoints now
// keep rotated generations, so those go too).
struct ScratchFile {
  explicit ScratchFile(const std::string& stem)
      : path((std::filesystem::temp_directory_path() /
              ("minergy_test_" + stem + ".json"))
                 .string()) {
    cleanup();
  }
  ~ScratchFile() { cleanup(); }
  void cleanup() const {
    for (const std::string& p :
         {path, path + ".1", path + ".2", path + ".tmp"}) {
      std::remove(p.c_str());
    }
  }
  std::string path;
};

// --------------------------------------------------------- io::Checkpoint

TEST(IoCheckpoint, AtomicWriteThenLoadRoundTrips) {
  ScratchFile f("util_ck");
  io::Checkpoint::save(f.path, "minergy.test.v1", R"({"x": 1.5})");
  const util::JsonValue payload =
      io::Checkpoint::load(f.path, "minergy.test.v1");
  EXPECT_DOUBLE_EQ(payload.at("x").as_number(), 1.5);
}

TEST(IoCheckpoint, SchemaMismatchThrows) {
  ScratchFile f("util_ck_schema");
  io::Checkpoint::save(f.path, "minergy.test.v1", "{}");
  EXPECT_THROW(io::Checkpoint::load(f.path, "minergy.other.v1"),
               util::ParseError);
}

TEST(IoCheckpoint, MissingFileThrows) {
  EXPECT_THROW(
      io::Checkpoint::load("/nonexistent/minergy_nope.json", "s"),
      util::ParseError);
}

// ----------------------------------------------------- snapshot round-trip

TEST(AnnealCheckpointRoundTrip, PreservesAllFieldsIncludingNonFinite) {
  AnnealCheckpoint ck;
  ck.circuit = "s27";
  ck.pass = 1;
  ck.move = 42;
  ck.temperature = 3.25e-12;
  ck.current.vdd = 1.8125;
  ck.current.vts = {0.45, 0.5};
  ck.current.widths = {1.0, 7.5};
  ck.current_cost = std::numeric_limits<double>::infinity();
  ck.global_best = ck.current;
  ck.global_best_cost = 4.0e-11;
  ck.global_best_crit = 3.0e-9;
  ck.global_best_energy = 4.0e-11;
  ck.evaluations = 1234;
  util::Rng rng(99);
  for (int i = 0; i < 17; ++i) rng.normal(0.0, 1.0);  // leaves a spare normal
  ck.rng = rng.state();

  obs::TrajectoryPoint tp;
  tp.phase = "anneal";
  tp.energy = 5.0e-11;
  tp.accepted = true;
  tp.feasible = true;
  ck.report.optimizer = "annealing";
  ck.report.add_point(std::move(tp));

  ScratchFile f("anneal_ck");
  ck.save(f.path);
  const AnnealCheckpoint back = AnnealCheckpoint::load(f.path);

  EXPECT_EQ(back.circuit, "s27");
  EXPECT_EQ(back.pass, 1);
  EXPECT_EQ(back.move, 42);
  EXPECT_DOUBLE_EQ(back.temperature, ck.temperature);
  EXPECT_DOUBLE_EQ(back.current.vdd, ck.current.vdd);
  EXPECT_EQ(back.current.vts, ck.current.vts);
  EXPECT_EQ(back.current.widths, ck.current.widths);
  EXPECT_TRUE(std::isinf(back.current_cost));
  EXPECT_DOUBLE_EQ(back.global_best_cost, ck.global_best_cost);
  EXPECT_EQ(back.evaluations, 1234);
  EXPECT_EQ(back.rng.words, ck.rng.words);
  EXPECT_EQ(back.rng.have_spare_normal, ck.rng.have_spare_normal);
  EXPECT_DOUBLE_EQ(back.rng.spare_normal, ck.rng.spare_normal);
  ASSERT_EQ(back.report.trajectory.size(), 1u);
  EXPECT_DOUBLE_EQ(back.report.trajectory[0].energy, 5.0e-11);

  // The restored RNG continues the exact stream of the original.
  util::Rng restored(1);
  restored.restore(back.rng);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(restored.next_u64(), rng.next_u64());
  }
}

TEST(JointCheckpointRoundTrip, PreservesSweepPosition) {
  JointCheckpoint ck;
  ck.circuit = "gen80";
  ck.next_step = 4;
  ck.vdd_lo = 0.9;
  ck.vdd_hi = 1.65;
  ck.prev_total = 7.25e-11;
  ck.has_best = true;
  ck.best_state.vdd = 1.275;
  ck.best_state.vts = {0.55};
  ck.best_state.widths = {2.0};
  ck.best_energy.static_energy = 1.0e-13;
  ck.best_energy.dynamic_energy = 7.0e-11;
  ck.best_critical_delay = 3.5e-9;
  ck.best_feasible = true;
  ck.evaluations = 77;

  ScratchFile f("joint_ck");
  ck.save(f.path);
  const JointCheckpoint back = JointCheckpoint::load(f.path);

  EXPECT_EQ(back.next_step, 4);
  EXPECT_DOUBLE_EQ(back.vdd_lo, 0.9);
  EXPECT_DOUBLE_EQ(back.vdd_hi, 1.65);
  EXPECT_DOUBLE_EQ(back.prev_total, ck.prev_total);
  ASSERT_TRUE(back.has_best);
  EXPECT_DOUBLE_EQ(back.best_state.vdd, 1.275);
  EXPECT_DOUBLE_EQ(back.best_energy.dynamic_energy, 7.0e-11);
  EXPECT_TRUE(back.best_feasible);
  EXPECT_EQ(back.evaluations, 77);
}

TEST(AnnealCheckpointLoad, WrongCircuitRejectedByOptimizer) {
  Harness s;
  AnnealCheckpoint ck;
  ck.circuit = "some-other-circuit";
  ck.current = CircuitState::uniform(s.nl, 3.3, 0.4, 4.0);
  ck.global_best = ck.current;
  ScratchFile f("anneal_wrong_circuit");
  ck.save(f.path);

  AnnealingOptions opts;
  opts.resume_path = f.path;
  EXPECT_THROW(AnnealingOptimizer(s.eval, opts).run(), std::logic_error);
}

// ------------------------------------------------- kill + resume == no kill

// Simulates a crash with the evaluation-budget watchdog: the first run is
// killed mid-anneal after snapshots have landed; a second run resumes from
// the snapshot file. Its final answer must match the uninterrupted run's
// exactly (same RNG stream, same accepted sequence).
TEST(AnnealResume, InterruptedRunReproducesUninterruptedResult) {
  Harness s;
  AnnealingOptions base;
  base.max_moves = 900;
  base.passes = 3;
  base.seed = 4242;

  const OptimizationResult uninterrupted =
      AnnealingOptimizer(s.eval, base).run();

  ScratchFile f("anneal_resume");
  AnnealingOptions interrupted = base;
  interrupted.checkpoint_path = f.path;
  interrupted.checkpoint_every_moves = 50;
  interrupted.budget.max_evaluations = 313;  // "crash" mid-pass
  const OptimizationResult partial =
      AnnealingOptimizer(s.eval, interrupted).run();
  ASSERT_TRUE(partial.truncated);
  ASSERT_TRUE(std::filesystem::exists(f.path));

  AnnealingOptions resumed = base;
  resumed.resume_path = f.path;
  const OptimizationResult r = AnnealingOptimizer(s.eval, resumed).run();

  EXPECT_EQ(r.feasible, uninterrupted.feasible);
  EXPECT_DOUBLE_EQ(r.energy.total(), uninterrupted.energy.total());
  EXPECT_DOUBLE_EQ(r.critical_delay, uninterrupted.critical_delay);
  EXPECT_DOUBLE_EQ(r.state.vdd, uninterrupted.state.vdd);
  EXPECT_EQ(r.state.widths, uninterrupted.state.widths);
  EXPECT_EQ(r.state.vts, uninterrupted.state.vts);
  // The stitched trajectory keeps its invariant: accepted energies
  // non-increasing across the interruption point.
  double prev = std::numeric_limits<double>::infinity();
  for (const obs::TrajectoryPoint& tp : r.report.trajectory) {
    if (!tp.accepted) continue;
    EXPECT_LE(tp.energy, prev * (1.0 + 1e-12));
    prev = tp.energy;
  }
}

TEST(JointResume, InterruptedSweepReproducesUninterruptedResult) {
  Harness s;
  OptimizerOptions base;

  const OptimizationResult uninterrupted =
      JointOptimizer(s.eval, base).run();

  ScratchFile f("joint_resume");
  OptimizerOptions interrupted = base;
  interrupted.checkpoint_path = f.path;
  interrupted.budget.max_evaluations = 25;  // dies inside the Vdd sweep
  const OptimizationResult partial =
      JointOptimizer(s.eval, interrupted).run();
  ASSERT_TRUE(partial.truncated);
  ASSERT_TRUE(std::filesystem::exists(f.path));

  OptimizerOptions resumed = base;
  resumed.resume_path = f.path;
  const OptimizationResult r = JointOptimizer(s.eval, resumed).run();

  ASSERT_EQ(r.feasible, uninterrupted.feasible);
  EXPECT_DOUBLE_EQ(r.energy.total(), uninterrupted.energy.total());
  EXPECT_DOUBLE_EQ(r.critical_delay, uninterrupted.critical_delay);
  EXPECT_DOUBLE_EQ(r.state.vdd, uninterrupted.state.vdd);
  EXPECT_EQ(r.state.widths, uninterrupted.state.widths);
  EXPECT_EQ(r.state.vts, uninterrupted.state.vts);
}

// --------------------------------------- corrupt-snapshot resume hardening

// A damaged --resume file must be a typed ParseError on a direct load, and
// an optimizer asked to resume from one must count the rejection
// (opt.checkpoint.resume_rejected) and fall back to a clean fresh start
// that reproduces a never-resumed run exactly.
TEST(ResumeRejection, AnnealFallsBackToFreshRunOnCorruptSnapshot) {
  Harness s;
  AnnealingOptions base;
  base.max_moves = 300;
  base.passes = 2;
  base.seed = 777;
  const OptimizationResult fresh = AnnealingOptimizer(s.eval, base).run();

  // A real snapshot to truncate: run once with checkpointing enabled.
  ScratchFile real("resume_rej_real");
  AnnealingOptions snap = base;
  snap.checkpoint_path = real.path;
  snap.checkpoint_every_moves = 50;
  AnnealingOptimizer(s.eval, snap).run();
  const std::string intact = io::read_file_or_throw(real.path);
  ASSERT_GT(intact.size(), 64u);

  obs::set_enabled(true);
  obs::Counter& rejected = obs::counter("opt.checkpoint.resume_rejected");

  // The dangerous corruptions are the ones that still parse as JSON: the
  // artifact footer is the file's final line, so stripping it leaves the
  // complete, parseable payload (exactly what a torn write used to smuggle
  // past the old checkpoint loader), and flipping one payload byte keeps
  // the document well-formed while the CRC no longer matches.
  const std::size_t footer_start = intact.rfind('\n', intact.size() - 2) + 1;
  ASSERT_TRUE(intact.substr(footer_start).starts_with("#MINERGY1"));
  const std::string parseable_truncation = intact.substr(0, footer_start);
  std::string bit_rotted = intact;
  const std::size_t digit = bit_rotted.find_first_of("0123456789");
  ASSERT_NE(digit, std::string::npos);
  bit_rotted[digit] = bit_rotted[digit] == '7' ? '8' : '7';

  ScratchFile bad("resume_rej_bad");
  int case_no = 0;
  for (const std::string& text :
       {parseable_truncation,                   // valid JSON, footer gone
        bit_rotted,                             // valid JSON, CRC mismatch
        intact.substr(0, intact.size() / 2),    // truncated mid-document
        std::string("!!! not json at all"),     // garbage
        std::string()}) {                       // empty file
    SCOPED_TRACE("corruption case " + std::to_string(case_no++));
    {
      std::ofstream out(bad.path, std::ios::trunc);
      out << text;
    }
    EXPECT_THROW(AnnealCheckpoint::load(bad.path), util::ParseError);
    const std::int64_t before = rejected.value();
    AnnealingOptions opts = base;
    opts.resume_path = bad.path;
    const OptimizationResult r = AnnealingOptimizer(s.eval, opts).run();
    EXPECT_EQ(rejected.value(), before + 1);
    EXPECT_EQ(r.feasible, fresh.feasible);
    EXPECT_DOUBLE_EQ(r.energy.total(), fresh.energy.total());
    EXPECT_DOUBLE_EQ(r.state.vdd, fresh.state.vdd);
    EXPECT_EQ(r.state.widths, fresh.state.widths);
    EXPECT_EQ(r.state.vts, fresh.state.vts);
  }

  // Wrong schema (someone else's checkpoint file): same rejection path.
  io::Checkpoint::save(bad.path, "minergy.other_checkpoint.v1", "{}");
  EXPECT_THROW(AnnealCheckpoint::load(bad.path), util::ParseError);
  const std::int64_t before = rejected.value();
  AnnealingOptions opts = base;
  opts.resume_path = bad.path;
  const OptimizationResult r = AnnealingOptimizer(s.eval, opts).run();
  EXPECT_EQ(rejected.value(), before + 1);
  EXPECT_DOUBLE_EQ(r.energy.total(), fresh.energy.total());
}

TEST(ResumeRejection, JointFallsBackToFreshRunOnCorruptSnapshot) {
  Harness s;
  const OptimizationResult fresh = JointOptimizer(s.eval, {}).run();

  obs::set_enabled(true);
  obs::Counter& rejected = obs::counter("opt.checkpoint.resume_rejected");

  ScratchFile bad("resume_rej_joint");
  {
    std::ofstream out(bad.path, std::ios::trunc);
    out << "{\"schema\": \"minergy.joint_checkpoint.v1\", \"payload\": ";
  }
  EXPECT_THROW(JointCheckpoint::load(bad.path), util::ParseError);
  const std::int64_t before = rejected.value();
  OptimizerOptions opts;
  opts.resume_path = bad.path;
  const OptimizationResult r = JointOptimizer(s.eval, opts).run();
  EXPECT_EQ(rejected.value(), before + 1);
  EXPECT_EQ(r.feasible, fresh.feasible);
  EXPECT_DOUBLE_EQ(r.energy.total(), fresh.energy.total());
  EXPECT_EQ(r.state.widths, fresh.state.widths);
}

TEST(JointResume, EvaluationCountAccumulatesAcrossResume) {
  Harness s;
  ScratchFile f("joint_evals");
  OptimizerOptions interrupted;
  interrupted.checkpoint_path = f.path;
  interrupted.budget.max_evaluations = 25;
  const OptimizationResult partial =
      JointOptimizer(s.eval, interrupted).run();

  OptimizerOptions resumed;
  resumed.resume_path = f.path;
  const OptimizationResult r = JointOptimizer(s.eval, resumed).run();
  // Resume replays at most the interrupted outer step; the total must keep
  // the pre-crash work on the books.
  EXPECT_GT(r.circuit_evaluations, partial.circuit_evaluations / 2);
  const OptimizationResult fresh = JointOptimizer(s.eval, {}).run();
  EXPECT_GE(r.circuit_evaluations, fresh.circuit_evaluations);
}

}  // namespace
}  // namespace minergy::opt
