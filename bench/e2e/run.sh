#!/usr/bin/env bash
# One-command end-to-end benchmark for minergy (see bench/e2e/README.md).
#
#   bench/e2e/run.sh [--seed=S] [--trace] [--repeat=N] [--spread=N] [--out=F]
#       every workload, each in its own process; prints every metric with
#       its unit and writes a stamped result file
#   bench/e2e/run.sh --smoke
#       every workload at ~1/10 size; fails on a missing metric or a failed
#       correctness check
#   bench/e2e/run.sh --compare A.json B.json
#       applies the BENCHMARK.json bounds to two result files
#   bench/e2e/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload; the last stdout line is its result
#
# Everything but --compare first builds minergy (Release) into build-bench/
# and e2e_bench into build-bench/e2e/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"

for arg in "$@"; do
  if [[ $arg == --compare* ]]; then exec python3 "$here/suite.py" "$@"; fi
done

if [[ ! -f $root/CMakeLists.txt || ! -d $root/src ]]; then
  echo "run.sh: $root holds no minergy source tree to build" >&2
  exit 2
fi
build="$root/build-bench"
log="$build/e2e-build.log"
# Compiler temporaries stay inside the checkout too.
export TMPDIR="$build/tmp"
mkdir -p "$TMPDIR"
gen=()
if command -v ninja >/dev/null; then gen=(-G Ninja); fi
jobs="$(nproc)"
if ! {
  { [[ -f $build/CMakeCache.txt ]] ||
    cmake -S "$root" -B "$build" "${gen[@]}" -DCMAKE_BUILD_TYPE=Release; } &&
    cmake --build "$build" -j "$jobs" \
      --target minergy_served minergy_serve minergy_bench_suite &&
    { [[ -f $build/e2e/CMakeCache.txt ]] ||
      cmake -S "$here" -B "$build/e2e" "${gen[@]}" -DCMAKE_BUILD_TYPE=Release \
        -DMINERGY_SOURCE_DIR="$root" -DMINERGY_BUILD_DIR="$build"; } &&
    cmake --build "$build/e2e" -j "$jobs"
} >"$log" 2>&1; then
  tail -n 30 "$log" >&2
  echo "run.sh: build failed (full log: $log)" >&2
  exit 2
fi
exec python3 "$here/suite.py" "$@"
