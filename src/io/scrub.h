// Anti-entropy spool scrubber: re-verify everything at rest, repair what
// generational history allows, quarantine (never delete) the rest.
//
// PR-5's CRC envelopes detect torn writes and bit-rot — but only at the
// moment a file happens to be opened, which for a terminal job record may
// be never. The scrubber closes that gap: it walks every artifact class in
// a spool directory and re-runs the full envelope verification (footer,
// length, CRC32, schema) plus a JSON parse on each file, then applies one
// of three dispositions:
//
//   clean        artifact intact — nothing touched
//   repaired     artifact restored or safely retired:
//                  - a damaged checkpoint generation is replaced by
//                    promoting the newest intact older generation
//                    (io::Checkpoint keeps kGenerations snapshots)
//                  - a damaged scratch result envelope is retired (the
//                    attempt re-runs; results/ is regenerable by design)
//                  - damaged health/lease documents are retired (the
//                    daemon republishes them within one control-loop tick)
//   quarantined  a damaged JOB RECORD (pending/running/done/failed/
//                quarantined partitions) — genuinely unrecoverable state.
//                The bytes move to <root>/scrub_quarantine/ and a
//                synthesized quarantined/<id> terminal record keeps the
//                spool's every-job-in-exactly-one-terminal-state audit
//                (minergy_served --status --verify) intact.
//
// Damaged bytes are ALWAYS moved into <root>/scrub_quarantine/, never
// unlinked: an operator (or a future smarter repair) can still get at
// them. Files the scrubber does not know (say, policy documents an older
// daemon left behind) are neither checked nor moved. Files that vanish
// mid-scrub are normal on a live spool (the leader keeps renaming things)
// and are counted, not flagged.
//
// Exit-code mapping for the offline `minergy_served --scrub` mode:
// 0 = all clean, 1 = damage found and every artifact repaired,
// 2 = at least one artifact quarantined.
//
// The scrubber emits io.scrub.* counters and scrub_repair /
// scrub_quarantine / scrub_pass events into the standard obs surfaces; the
// leader daemon runs it periodically (--scrub-interval-s) between claim
// passes.
//
// Schema ids for the serve-layer artifacts are mirrored here as literals
// (the io layer sits below serve and cannot include its headers); the
// spool layout is a stable on-disk contract, tested by tests/test_scrub.
#pragma once

#include <string>
#include <vector>

namespace minergy::io {

struct ScrubOptions {
  // false = report-only: findings are counted and logged but nothing is
  // moved, promoted or synthesized.
  bool repair = true;
};

// One damaged (or vanished) artifact.
struct ScrubFinding {
  std::string path;     // spool-relative
  std::string problem;  // "truncated" | "corrupt" | "schema" | "parse"
  std::string action;   // "repaired" | "quarantined" | "reported" | "vanished"
  std::string detail;
};

struct ScrubReport {
  int checked = 0;
  int clean = 0;
  int repaired = 0;
  int quarantined = 0;
  int vanished = 0;
  std::vector<ScrubFinding> findings;

  int exit_code() const {
    if (quarantined > 0) return 2;
    return repaired > 0 ? 1 : 0;
  }
};

class SpoolScrubber {
 public:
  explicit SpoolScrubber(std::string root, ScrubOptions opts = {});

  // One full pass over the spool. Safe to run concurrently with a live
  // leader: every mutation is the same atomic-rename discipline the queue
  // itself uses, and in-flight renames read as vanished.
  ScrubReport run();

  // Where quarantined bytes land: <root>/scrub_quarantine/.
  std::string quarantine_dir() const;

 private:
  struct Verdict;  // internal per-file verification result

  Verdict verify_file(const std::string& path,
                      const std::string& schema) const;
  // Moves `path` into scrub_quarantine/ (collision-safe). Returns the
  // destination, or "" on failure.
  std::string move_to_quarantine(const std::string& path) const;
  void scrub_job_partition(const std::string& state, ScrubReport* report);
  void scrub_results(ScrubReport* report);
  void scrub_checkpoints(ScrubReport* report);
  void scrub_singleton(const std::string& name, const std::string& schema,
                       ScrubReport* report);
  void note(ScrubReport* report, ScrubFinding finding, const char* outcome);

  std::string root_;
  ScrubOptions opts_;
};

}  // namespace minergy::io
