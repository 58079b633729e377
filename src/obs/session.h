// CLI glue: one RAII object gives any tool or bench driver the standard
// observability flags.
//
//   int main(int argc, char** argv) {
//     const util::Cli cli(argc, argv);
//     obs::Session session(cli, "table1_baseline");
//     ...
//   }  // <- outputs written / printed here
//
// Flags understood:
//   --trace=FILE        capture Chrome-trace spans, write FILE at exit
//   --metrics           print the final counter snapshot as an aligned table
//   --verbose           alias for --metrics
//   --perf-record[=F]   write a BENCH_<name>.json perf record (wall time +
//                       counter snapshot) at exit; F overrides the filename
//   --event-log=FILE    append-only JSONL structured event log (schema
//                       minergy.event.v1; see obs/eventlog.h)
//   --event-log-max-kb=N  event-log segment size cap before rotation to
//                       FILE.1 (default 8192)
//
// Any of the flags enables metric collection for the process; with none of
// them the session is inert and instrumentation stays on its disabled fast
// path — no open log, no clocks.
#pragma once

#include <string>

#include "util/cli.h"

namespace minergy::obs {

class Session {
 public:
  // Throws std::runtime_error when --event-log cannot be opened: a daemon
  // asked to be observable must not silently run blind.
  Session(const util::Cli& cli, std::string default_name);
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  bool verbose() const { return metrics_; }
  bool tracing() const { return !trace_path_.empty(); }

  // The perf-record document (schema minergy.perf_record.v1) as of now.
  // Used by the daemon's periodic snapshot flush as well as finish().
  std::string perf_record_json() const;
  // The --perf-record output path ("" when the flag is absent).
  const std::string& perf_path() const { return perf_path_; }

  // Writes all requested outputs now (idempotent; the destructor calls it).
  // Also closes the event log.
  void finish();

 private:
  std::string name_;
  std::string trace_path_;
  std::string perf_path_;
  bool metrics_ = false;
  bool event_log_ = false;
  bool finished_ = false;
  double start_us_ = 0.0;
};

}  // namespace minergy::obs
