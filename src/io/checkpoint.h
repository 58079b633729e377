// Crash-safe, checksummed, generational checkpoint files.
//
// The snapshot store behind the optimizers' checkpoints (opt/checkpoint.h).
// A checkpoint is the JSON envelope
//
//   { "schema": "minergy.anneal_checkpoint.v1", "payload": { ... } }
//
// written via io::write_artifact — atomic temp/fsync/rename/fsync-parent
// plus a CRC32 footer — and kept for kGenerations snapshots:
//
//   path      newest
//   path.1    previous
//   path.2    previous-previous
//
// save() rotates generations best-effort (a failed rotation never blocks
// the new snapshot) before writing the new newest. load() tries newest
// first and falls back generation by generation when a snapshot fails
// envelope verification or schema checks, bumping the
// io.checkpoint.generation_fallback counter — a torn newest snapshot
// costs a few hundred optimizer moves of rework, not the whole run.
// Because optimizers only checkpoint *completed* steps, resuming from any
// older generation (or from scratch) reproduces the uninterrupted run
// bit-for-bit; fallback trades time, never correctness.
#pragma once

#include <string>

#include "util/json.h"

namespace minergy::io {

struct Checkpoint {
  // Snapshots kept per checkpoint path (newest + kGenerations-1 older).
  static constexpr int kGenerations = 3;

  // The on-disk name of generation g (g = 0 is `path` itself).
  static std::string generation_path(const std::string& path, int generation);

  // Rotates existing generations, then durably writes the new newest.
  // Throws io::IoError / io::DiskFullError on write failure (the previous
  // generations survive untouched).
  static void save(const std::string& path, const std::string& schema,
                   const std::string& payload_json);

  // Loads the newest generation that passes envelope verification, JSON
  // parsing, envelope-shape and schema checks; falls back generation by
  // generation. Rethrows the *newest* generation's error when every
  // generation fails (a missing file surfaces as util::ParseError "cannot
  // open file", matching the legacy contract for "no checkpoint yet").
  static util::JsonValue load(const std::string& path,
                              const std::string& expected_schema);

  // True when any generation exists on disk — "is there anything to
  // resume from?" without verifying it.
  static bool exists(const std::string& path);

  // Unlinks every generation plus a leftover temp file.
  static void remove(const std::string& path);
};

}  // namespace minergy::io
