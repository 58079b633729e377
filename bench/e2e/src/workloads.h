// The four e2e_bench workloads (see bench/e2e/README.md for why each).
#pragma once

#include <cstdint>
#include <string>

#include "harness.h"

namespace e2e {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 15.0;  // measured time per run (whole passes)
  bool trace = false;     // traced run: per-layer metrics
  bool smoke = false;     // ~1/10 of the work, for a quick completeness check
  std::string served;     // minergy_served binary (serve_open)
  std::string work_dir;   // scratch space for spools and logs
  std::string trace_out;  // Chrome-trace file written by a traced run
};

// paper_suite, large_joint and anneal_moves: in-process passes over a fixed
// item list.
void run_solve_workload(const Options& o, Result& r);

// serve_open: an open-loop job stream into a live minergy_served.
void run_serve_open(const Options& o, Result& r);

}  // namespace e2e
