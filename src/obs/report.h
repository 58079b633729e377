// Run telemetry: the machine-readable story of one optimization run.
//
// Every OptimizationResult carries a RunReport — the iteration-by-iteration
// (Vdd, Vts, energy, critical-delay, feasibility) trajectory of the search,
// per-tier wall-clock and failure provenance from the RobustOptimizer
// fallback chain, the final operating point, and a snapshot of the obs
// counter deltas attributed to the run. Reports serialize to JSON
// (tools/minergy_report, --report=FILE flags) and parse back losslessly, so
// bench sweeps and regression tooling can diff convergence behaviour
// across commits. The schema is documented in docs/OBSERVABILITY.md.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace minergy::util {
class JsonWriter;
}  // namespace minergy::util

namespace minergy::obs {

// One probe of the search: a candidate operating point and its evaluation.
struct TrajectoryPoint {
  int iteration = 0;       // 0-based probe index within the run
  std::string phase;       // e.g. "sweep", "refine", "multi-vt", "anneal"
  double vdd = 0.0;
  double vts = 0.0;        // primary/uniform threshold of the probe
  double energy = 0.0;     // total energy per cycle (J)
  double critical_delay = 0.0;  // s
  bool feasible = false;
  bool accepted = false;   // improved the best-seen feasible energy
};

// One tier of the RobustOptimizer fallback chain.
struct TierRecord {
  std::string tier;          // "joint" / "baseline" / "last-resort"
  double wall_seconds = 0.0;
  bool selected = false;     // this tier produced the final answer
  std::string failure_reason;  // empty when selected

  // Outcome of the independent result certification (opt::Certifier) for
  // this tier: "" when certification was not run, "pass", or "fail". On
  // "fail", certificate_detail names the violated invariant and culprit.
  std::string certificate_status;
  std::string certificate_detail;
};

struct RunReport {
  std::string optimizer;  // "joint" / "baseline" / "robust" / "annealing"
  std::string circuit;

  // Final operating point (duplicating the OptimizationResult scalars so a
  // serialized report is self-contained).
  bool feasible = false;
  double vdd = 0.0;
  double vts_primary = 0.0;
  double energy_total = 0.0;
  double static_energy = 0.0;
  double dynamic_energy = 0.0;
  double critical_delay = 0.0;
  double runtime_seconds = 0.0;
  std::int64_t circuit_evaluations = 0;

  // Provenance.
  std::string tier;  // tier that produced the answer
  bool truncated = false;
  std::string truncation_reason;

  std::vector<TrajectoryPoint> trajectory;
  std::vector<TierRecord> tiers;  // empty for single-tier optimizers

  // Counter deltas over the run (end minus start), when collection was
  // enabled; empty otherwise.
  std::map<std::string, std::int64_t> counters;

  // Convenience for recorders.
  void add_point(TrajectoryPoint p);
  // Energies of accepted probes, in order (acceptance implies this sequence
  // is non-increasing; tools/trace_check asserts it).
  std::vector<double> accepted_energies() const;

  std::string to_json(int indent = 1) const;
  // The same document as one value of an enclosing one (a checkpoint
  // embeds the report this way).
  void write_json(util::JsonWriter& w) const;
  // Throws util::ParseError on malformed text or schema violations.
  static RunReport from_json(const std::string& text,
                             const std::string& source_name = "<report>");
};

// Captures the registry's counter snapshot at construction and writes the
// delta into `report.counters` at finish(). No-ops when collection is off.
class CounterDelta {
 public:
  CounterDelta();
  void finish(RunReport* report) const;

 private:
  bool enabled_at_start_;
  std::map<std::string, std::int64_t> start_;
};

}  // namespace minergy::obs
