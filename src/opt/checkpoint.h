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
//   the partial RunReport. The refine/multi-Vt phases re-run on resume
//   (they are deterministic given the sweep result).
//
// Doubles round-trip exactly (%.17g); non-finite costs are encoded as the
// strings "inf"/"-inf"/"nan" since JSON has no literals for them. RNG words
// are hex strings (64-bit integers do not survive a double).
#pragma once

#include <cstdint>
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

}  // namespace minergy::opt
