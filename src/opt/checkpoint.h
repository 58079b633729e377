// Optimizer checkpoint payloads (see io/checkpoint.h for the envelope).
//
// Two snapshot formats, both JSON, both written atomically and restored
// bit-exactly:
//
//   minergy.anneal_checkpoint.v1 — the full mid-anneal position: pass/move
//   indices, current and global-best states, costs, the RNG stream state
//   (util::RngState, so the move sequence continues exactly where it
//   stopped) and the partial RunReport trajectory.
//
//   minergy.joint_checkpoint.v1 — the Procedure-2 sweep position after a
//   completed outer Vdd step: the next step index, the surviving Vdd
//   bracket, the "energy decreased" reference, the best probe so far and
//   the partial RunReport. The sweep keeps its latest completed step in
//   memory and writes it at most once per kJointCheckpointIntervalSeconds,
//   plus once when the watchdog stops the sweep. The refine/multi-Vt
//   phases re-run on resume (they are deterministic given the sweep
//   result).
//
// Doubles round-trip exactly (%.17g); non-finite costs are encoded as the
// strings "inf"/"-inf"/"nan" since JSON has no literals for them. RNG words
// are hex strings (64-bit integers do not survive a double).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "obs/report.h"
#include "opt/circuit_state.h"
#include "power/energy_model.h"
#include "util/rng.h"

namespace minergy::opt {

inline constexpr const char kAnnealCheckpointSchema[] =
    "minergy.anneal_checkpoint.v1";
inline constexpr const char kJointCheckpointSchema[] =
    "minergy.joint_checkpoint.v1";

struct AnnealCheckpoint {
  std::string circuit;
  int pass = 0;  // pass to continue in
  int move = 0;  // next move index within that pass
  double temperature = 0.0;
  CircuitState current;
  double current_cost = 0.0;  // may be +inf (numeric-rejected state)
  CircuitState global_best;
  double global_best_cost = 0.0;
  double global_best_crit = 0.0;
  double global_best_energy = 0.0;
  std::int64_t evaluations = 0;  // circuit evaluations spent so far
  util::RngState rng;
  obs::RunReport report;  // trajectory recorded so far

  void save(const std::string& path) const;  // atomic write-rename
  // Throws util::ParseError on a missing/torn/mismatched file.
  static AnnealCheckpoint load(const std::string& path);
};

struct JointCheckpoint {
  std::string circuit;
  int next_step = 0;  // next outer Vdd iteration of the nested sweep
  double vdd_lo = 0.0, vdd_hi = 0.0;
  double prev_total = 0.0;  // "total energy decreased" reference (may be inf)
  bool has_best = false;
  CircuitState best_state;
  power::EnergyBreakdown best_energy;
  double best_critical_delay = 0.0;
  bool best_feasible = false;
  std::int64_t evaluations = 0;
  obs::RunReport report;

  void save(const std::string& path) const;
  static JointCheckpoint load(const std::string& path);
};

// The joint sweep's snapshot interval on the run's watchdog clock: a crash
// loses at most this much completed sweep work plus the step in progress.
// A paper-circuit sweep takes milliseconds, so it writes no snapshot
// unless its watchdog stops it.
inline constexpr double kJointCheckpointIntervalSeconds = 1.0;

// True when a completed sweep step reached at `now_seconds` should be
// written, the previous write (or the run's start) being at
// `last_save_seconds` on the same clock.
inline bool joint_checkpoint_due(double last_save_seconds,
                                 double now_seconds) {
  return now_seconds - last_save_seconds >= kJointCheckpointIntervalSeconds;
}

// Loads the snapshot at `path` (a JointCheckpoint or an AnnealCheckpoint)
// to resume `optimizer`'s run on `circuit`; nullopt when `path` is empty.
// A corrupt snapshot (truncated, garbled, wrong schema) must not take the
// run down: it is rejected, counted in opt.checkpoint.resume_rejected and
// reported on stderr, and nullopt tells the caller to start fresh (a direct
// load() still throws the typed ParseError). A snapshot for another
// circuit is a caller bug, not corruption, and fails a MINERGY_CHECK.
template <class Snapshot>
std::optional<Snapshot> load_for_resume(const std::string& path,
                                        const char* optimizer,
                                        const std::string& circuit);

}  // namespace minergy::opt
