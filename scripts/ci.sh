#!/usr/bin/env sh
# CI gate: builds the tree three times (Release, ASan, TSan), runs the
# robustness (-L fault), observability (-L obs), service (-L serve) and
# durable-I/O (-L diskfault) test labels, and finishes with a certified
# minergy_batch run over real circuits — the batch runs on the serve
# Supervisor, and every completed result must be independently certified
# (exit 1 otherwise). The serve label includes the
# chaos harness, which SIGKILLs the daemon/worker binaries at randomized
# protocol points; the diskfault label does the same with storage faults
# (scheduled ENOSPC/EIO, torn writes, short reads). A final leg serves a
# real spool under a *randomized* storage-fault schedule (reproduce with
# CI_FAULT_SEED=<seed>) and audits the spool afterwards, then verifies a
# run report's artifact-envelope footer end to end and that a robust run
# writes its joint-sweep snapshots at most once a second. Two telemetry legs
# close the gate: an event-log + snapshot smoke that verifies a live
# daemon's JSONL event log with trace_check --verify-eventlog and its
# periodic perf record, and perf-trajectory legs that archive the Table-1
# baseline's counter snapshot under bench/trajectory/ and fail when the
# Table-2 or SA-comparison work counters drift from the committed records
# there.
# The par, serve and diskfault labels run a second time pinned to one core
# (taskset -c 0), so tier-1 is exercised at 1 core as well as at all.
# A benchmark smoke leg then runs every bench/e2e workload at ~1/10 size,
# serve_open against a live daemon, and fails on a missing metric or a
# failed correctness check.
#
#   $ scripts/ci.sh                  # from the repo root
#   $ CI_JOBS=4 scripts/ci.sh        # cap build parallelism
#   $ CI_FAULT_SEED=7 scripts/ci.sh  # pin the storage-fault schedule
#
# Build trees go to build-ci-release/, build-ci-asan/ and build-ci-tsan/ so
# a developer's ordinary build/ directory is left alone.
set -eu

cd "$(dirname "$0")/.."
JOBS="${CI_JOBS:-$(nproc 2>/dev/null || echo 2)}"

step() { printf '\n== %s ==\n' "$*"; }

# gate_trajectory BENCH CIRCUIT RECORD: wraps the perf record RECORD of
# bench/BENCH in one minergy.perf_trajectory.v1 document together with the
# machine's hardware_concurrency, diffs it against the committed
# bench/trajectory/BENCH_<BENCH>.latest.json and copies it over that file.
# The work counters are deterministic, so any drift fails the leg
# (trace_check --diff-perf; wall time and histograms are printed, never
# gated). The fresh file replaces the committed one either way, so a change
# that moves the counters on purpose commits the regenerated file with it.
gate_trajectory() {
  fresh="build-ci-release/BENCH_$1.json"
  committed="bench/trajectory/BENCH_$1.latest.json"
  {
    printf '{\n'
    printf '"schema": "minergy.perf_trajectory.v1",\n'
    printf '"bench": "%s",\n' "$1"
    printf '"circuit": "%s",\n' "$2"
    printf '"hardware_concurrency": %s,\n' "$(nproc 2>/dev/null || echo 1)"
    printf '"defaults": '
    cat "$3"
    printf '}\n'
  } > "$fresh"
  drift=0
  build-ci-release/tools/trace_check --diff-perf="$committed" "$fresh" \
    || drift=$?
  cp "$fresh" "$committed"
  [ "$drift" -eq 0 ] \
    || { echo "work counters drifted from $committed (trace_check rc $drift); the regenerated file is in place: commit it with the change that explains the drift"; exit 1; }
}

run_labelled_tests() {
  build_dir="$1"
  shift
  for label in "$@"; do
    step "$build_dir: ctest -L $label"
    ctest --test-dir "$build_dir" -L "$label" --output-on-failure -j "$JOBS"
  done
}

step "configure + build (Release)"
cmake -B build-ci-release -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build-ci-release -j "$JOBS"
run_labelled_tests build-ci-release fault obs serve diskfault par

# One-core leg: the same process-spawning and determinism labels pinned to
# CPU 0, so tier-1 is known to pass on a single core as well as on many
# (the anneal-resume tests are bounded by move count, not machine speed).
step "build-ci-release: serve+diskfault+par labels on one core (taskset -c 0)"
taskset -c 0 ctest --test-dir build-ci-release -L 'par|serve|diskfault' \
  --output-on-failure -j "$JOBS"

# Benchmark smoke: all four bench/e2e workloads at ~1/10 size, built into
# build-bench/ by run.sh itself. It exits non-zero when a metric is missing
# or a correctness check fails: a failed job, a failed --status --verify
# audit, or a served answer that differs from the in-process recompute.
step "benchmark smoke (bench/e2e/run.sh --smoke)"
bash bench/e2e/run.sh --smoke

step "configure + build (AddressSanitizer)"
cmake -B build-ci-asan -S . -DMINERGY_SANITIZE=address
cmake --build build-ci-asan -j "$JOBS"
run_labelled_tests build-ci-asan fault obs serve diskfault par

# ThreadSanitizer pass: the serve daemon forks workers, the obs layer
# shares atomics across threads, and the `par` label drives the thread pool
# (which bench/e2e still links) from several threads — run all of them
# under TSan to catch real races rather than relying on review.
step "configure + build (ThreadSanitizer)"
cmake -B build-ci-tsan -S . -DMINERGY_SANITIZE=thread
cmake --build build-ci-tsan -j "$JOBS"
run_labelled_tests build-ci-tsan serve obs par

# Certified batch run: minergy_batch submits each circuit to a private spool
# and drains it with the serve Supervisor, so every circuit optimizes in its
# own worker subprocess and every verdict is re-derived with opt::Certifier.
# minergy_batch exits non-zero if any job fails (infeasible, uncertified or
# a typed worker error), and --verify-report re-checks the written report
# the way CI consumers would.
step "certified batch run (s27, s298*)"
report=build-ci-release/ci_batch_report.json
build-ci-release/tools/minergy_batch \
  --circuits=s27,s298* --optimizers=robust \
  --timeout=120 --retries=1 --report="$report"
build-ci-release/tools/minergy_batch \
  --verify-report="$report" --min-circuits=2

# Randomized storage-fault serve leg: a fresh spool, three submissions, one
# daemon pass under a seed-derived write/fsync/rename fault schedule, then a
# clean drain and the service's own audit. The schedule may quarantine jobs
# (typed failures) but must never lose, duplicate or wedge one — exactly the
# oracle the deterministic diskfault sweep proves per-spec. The seed is
# echoed so any failure reproduces with CI_FAULT_SEED=<seed>.
step "storage-fault chaos (randomized schedule)"
fault_seed="${CI_FAULT_SEED:-$(date +%s)}"
fault_spec=$(awk -v seed="$fault_seed" 'BEGIN {
  srand(seed)
  split("write fsync rename", ops, " ")
  split("enospc eio", effects, " ")
  n = 2 + int(rand() * 2)
  spec = ""
  for (i = 1; i <= n; i++) {
    d = ops[1 + int(rand() * 3)] "@" (1 + int(rand() * 6)) ":" \
        effects[1 + int(rand() * 2)]
    spec = spec (i > 1 ? "," : "") d
  }
  print spec
}')
echo "CI_FAULT_SEED=$fault_seed --inject-io=$fault_spec"
served=build-ci-release/tools/minergy_served
fault_spool=build-ci-release/ci_fault_spool
rm -rf "$fault_spool"
"$served" --spool="$fault_spool" --submit --circuit=c17 --seed=1
"$served" --spool="$fault_spool" --submit --circuit=s27 --seed=2
"$served" --spool="$fault_spool" --submit --circuit=c17 --seed=3
# Phase 1 may degrade/retry/quarantine under the schedule; phase 2 is the
# clean drain; the audit then enforces the exactly-once partition.
"$served" --spool="$fault_spool" --once --workers=2 --poll=0.005 \
  --timeout=60 --retries=1 --backoff=0.1 --inject-io="$fault_spec" || true
"$served" --spool="$fault_spool" --once --workers=2 --poll=0.005 --timeout=60
# The audit exits 0 on a clean spool or 4 when the schedule quarantined
# something — both are valid exactly-once partitions here.
fault_rc=0
"$served" --spool="$fault_spool" --status --verify --expect-jobs=3 \
  || fault_rc=$?
[ "$fault_rc" -eq 0 ] || [ "$fault_rc" -eq 4 ] \
  || { echo "spool audit failed (rc=$fault_rc)"; exit "$fault_rc"; }

# Envelope verification end to end: a run report written through the
# durable path must carry a valid CRC footer, and trace_check must insist
# on it under --verify-envelope.
step "run-report envelope verification"
run_report=build-ci-release/ci_run_report.json
build-ci-release/tools/minergy_report --builtin=s27 --optimizer=baseline \
  --certify --report="$run_report"
build-ci-release/tools/trace_check --report="$run_report" --verify-envelope

# Joint snapshot cadence: the sweep writes its checkpoint at most once per
# kJointCheckpointIntervalSeconds of its watchdog clock (opt/checkpoint.h),
# so a robust s298* run writes at most floor(wall / interval) snapshots,
# and none at all (no checkpoint generation on disk) when that is 0. A
# return to one durable write per outer Vdd step fails here.
step "joint snapshot cadence (robust s298* with --checkpoint)"
cadence_ck=build-ci-release/ci_cadence_checkpoint.json
cadence_perf=build-ci-release/ci_cadence_perf.json
rm -f "$cadence_ck" "$cadence_ck.1" "$cadence_ck.2" "$cadence_perf"
build-ci-release/tools/minergy_report --builtin='s298*' --optimizer=robust \
  --checkpoint="$cadence_ck" --perf-record="$cadence_perf" >/dev/null
cadence_interval=$(sed -n \
  's/.*kJointCheckpointIntervalSeconds = \([0-9.]*\);.*/\1/p' \
  src/opt/checkpoint.h)
cadence_wall=$(sed -n 's/^ *"wall_seconds": *\([0-9.eE+-]*\).*/\1/p' \
  "$cadence_perf")
cadence_writes=$(sed -n \
  's/^ *"opt\.joint\.checkpoints": *\([0-9]*\).*/\1/p' "$cadence_perf")
cadence_writes=${cadence_writes:-0}
cadence_bound=$(awk -v w="$cadence_wall" -v i="$cadence_interval" \
  'BEGIN { printf "%d", int(w / i) }')
echo "opt.joint.checkpoints $cadence_writes in $cadence_wall s" \
  "(at most $cadence_bound at one per $cadence_interval s)"
[ "$cadence_writes" -le "$cadence_bound" ] \
  || { echo "the joint sweep wrote $cadence_writes snapshots; at most $cadence_bound allowed"; exit 1; }
if [ "$cadence_bound" -eq 0 ]; then
  for gen in "$cadence_ck" "$cadence_ck.1" "$cadence_ck.2"; do
    [ ! -e "$gen" ] \
      || { echo "$gen exists, but a run shorter than one interval must write no snapshot"; exit 1; }
  done
fi

# Event-log + snapshot smoke: a real daemon drains two jobs with every
# state transition captured in the event log (the SLO of 1 ms guarantees
# at least one slo_violation lands in it too) and its perf record flushed
# every 0.2 s while it runs. After a SIGTERM stop the event log must pass
# the structural verifier, the final perf record must count both jobs in
# the e2e latency histogram, and the spool must audit clean.
step "event-log + snapshot smoke"
log_spool=build-ci-release/ci_eventlog_spool
log_events=build-ci-release/ci_eventlog_events.jsonl
log_perf=build-ci-release/BENCH_minergy_served.json
rm -rf "$log_spool" "$log_events" "$log_events.1" "$log_perf"
"$served" --spool="$log_spool" --submit --circuit=c17 --seed=11
"$served" --spool="$log_spool" --submit --circuit=s27 --seed=12
# No --once: the daemon keeps serving until the SIGTERM below, which
# exercises the graceful-stop path.
"$served" --spool="$log_spool" --workers=2 --poll=0.005 --timeout=60 \
  --event-log="$log_events" --slo-e2e-ms=1 --snapshot-interval-s=0.2 \
  --perf-record="$log_perf" &
served_pid=$!
log_done=0
for _ in $(seq 1 300); do
  log_done=$(ls "$log_spool/done" 2>/dev/null | wc -l)
  [ "$log_done" -ge 2 ] && break
  sleep 0.1
done
[ "$log_done" -ge 2 ] \
  || { echo "daemon never finished the two jobs"; kill "$served_pid"; exit 1; }
# The periodic flush, not the exit write: the record must exist while the
# daemon still runs.
for _ in $(seq 1 50); do
  [ -s "$log_perf" ] && break
  sleep 0.1
done
test -s "$log_perf" \
  || { echo "periodic snapshot left no perf record"; kill "$served_pid"; exit 1; }
kill -TERM "$served_pid"
wait "$served_pid"
build-ci-release/tools/trace_check --verify-eventlog="$log_events"
grep -q '"kind":"slo_violation"' "$log_events" \
  || { echo "event log has no slo_violation under a 1 ms SLO"; exit 1; }
grep -A1 '"serve.job.e2e_micros"' "$log_perf" | grep -q '"count": 2,' \
  || { echo "the perf record's e2e histogram did not record both jobs"; exit 1; }
"$served" --spool="$log_spool" --status --verify --expect-jobs=2

# Perf trajectory: re-run the Table-1 baseline with a perf record and
# archive the counters next to previous runs, so regressions show up as a
# diffable series rather than vibes (see bench/trajectory/README.md).
step "perf trajectory (table1_baseline)"
traj=build-ci-release/BENCH_table1_baseline.json
build-ci-release/bench/table1_baseline --circuit=s27 --perf-record="$traj"
mkdir -p bench/trajectory
cp "$traj" bench/trajectory/BENCH_table1_baseline.latest.json

# Table-2 trajectory: the heuristic on the largest bundled circuit, run
# once at the defaults and gated on its work counters (gate_trajectory).
# The evaluation kernels are serial, so the run must dispatch no pool job
# at all (util.pool.jobs is a deterministic counter, absent from the record
# when zero).
step "perf trajectory (table2_heuristic)"
t2_default=build-ci-release/BENCH_table2_default.json
build-ci-release/bench/table2_heuristic --circuit='s832*' \
  --perf-record="$t2_default" >/dev/null
pool_jobs=$(sed -n 's/^ *"util\.pool\.jobs": *\([0-9]*\).*/\1/p' "$t2_default")
[ "${pool_jobs:-0}" -eq 0 ] \
  || { echo "table2 run dispatched $pool_jobs pool jobs; the evaluation kernels must stay serial"; exit 1; }
gate_trajectory table2_heuristic 's832*' "$t2_default"

# SA-comparison trajectory: the annealing comparator against the heuristic
# on the 8 paper circuits (about 0.1 s), gated the same way. Its record pins
# the annealer's work: opt.anneal.incremental_evals / full_evals and the
# gate evaluations the move evaluator makes.
step "perf trajectory (sa_comparison)"
sa_default=build-ci-release/BENCH_sa_comparison_default.json
build-ci-release/bench/sa_comparison --perf-record="$sa_default" >/dev/null
gate_trajectory sa_comparison 'paper suite' "$sa_default"

step "OK: all builds green, fault+obs+serve+diskfault+par labels pass (and on one core), benchmark smoke correct, batch results certified, event log verified and snapshot flushed live"
