// e2e_bench: runs one workload of the end-to-end benchmark in this process
// and prints its result document as the last line of stdout (progress and
// check failures go to stderr). bench/e2e/run.sh builds it and drives it
// through bench/e2e/suite.py; run it directly only for debugging:
//
//   e2e_bench --workload=paper_suite --seed=1 --seconds=15 --trace=0
//             --work-dir=build-bench/e2e-work [--smoke] [--trace-out=F]
//             [--served=build-bench/tools/minergy_served]
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>

#include "util/cli.h"
#include "workloads.h"

int main(int argc, char** argv) try {
  const minergy::util::Cli cli(argc, argv);
  e2e::Options o;
  o.workload = cli.get("workload", std::string());
  const double seed = cli.get("seed", 1.0);
  o.seconds = cli.get("seconds", 15.0);
  o.trace = cli.get("trace", 0) != 0;
  o.smoke = cli.has("smoke");
  o.served = cli.get("served", std::string());
  o.work_dir = cli.get("work-dir", std::string());
  o.trace_out = cli.get("trace-out", std::string());
  const bool serve = o.workload == "serve_open";
  if (!(o.workload == "paper_suite" || o.workload == "large_joint" ||
        o.workload == "anneal_moves" || serve) ||
      !(seed >= 0.0 && seed < 9.0e15 && std::floor(seed) == seed) ||
      !(o.seconds > 0.0) || o.work_dir.empty() ||
      (serve && o.served.empty())) {
    std::fprintf(stderr,
                 "usage: e2e_bench --workload=paper_suite|large_joint|"
                 "anneal_moves|serve_open --seed=N --seconds=S --trace=0|1 "
                 "--work-dir=DIR [--served=BIN] [--smoke] [--trace-out=F]\n");
    return 2;
  }
  o.seed = static_cast<std::uint64_t>(seed);
  std::filesystem::create_directories(o.work_dir);

  e2e::Result r;
  r.note("hardware_concurrency",
         std::to_string(std::thread::hardware_concurrency()));
  if (serve) {
    e2e::run_serve_open(o, r);
  } else {
    e2e::run_solve_workload(o, r);
  }
  std::printf("%s\n", r.to_json().c_str());
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "e2e_bench: error: %s\n", e.what());
  return 1;
}
