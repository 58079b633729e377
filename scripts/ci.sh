#!/usr/bin/env sh
# CI gate: builds the tree three times (Release, ASan, TSan), runs the
# robustness (-L fault), observability (-L obs), service (-L serve),
# durable-I/O (-L diskfault) and overload-protection (-L overload) test
# labels, and finishes with a certified
# minergy_batch run over real circuits — the batch runs on the serve
# Supervisor, and every completed result must be independently certified
# (exit 1 otherwise). The serve label includes the
# chaos harness, which SIGKILLs the daemon/worker binaries at randomized
# protocol points; the diskfault label does the same with storage faults
# (scheduled ENOSPC/EIO, torn writes, short reads). A final leg serves a
# real spool under a *randomized* storage-fault schedule (reproduce with
# CI_FAULT_SEED=<seed>) and audits the spool afterwards, then verifies a
# run report's artifact-envelope footer end to end. Two telemetry legs
# close the gate: an exposition smoke that scrapes a live daemon's
# /metrics, /health and /jobs over HTTP and verifies its JSONL event log
# with trace_check --verify-eventlog, and perf-trajectory legs that
# archive the Table-1 baseline's counter snapshot under bench/trajectory/
# and fail when the Table-2 or SA-comparison work counters drift from the
# committed records there.
# An overload smoke drives a live daemon 30x past one worker's capacity and
# requires sheds, a quota rejection, a brownout, and a full recovery. The
# high-availability label (-L ha) covers the leader lease, split-brain
# chaos and the anti-entropy scrubber; a failover smoke then kill -9s a
# live leader and requires its hot standby to take over and drain cleanly.
# The par, serve, diskfault and ha labels run a second time pinned to one
# core (taskset -c 0), so tier-1 is exercised at 1 core as well as at all.
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
run_labelled_tests build-ci-release fault obs serve diskfault overload ha par

# One-core leg: the same process-spawning and determinism labels pinned to
# CPU 0, so tier-1 is known to pass on a single core as well as on many
# (the anneal-resume tests are bounded by move count, not machine speed).
step "build-ci-release: serve+diskfault+ha+par labels on one core (taskset -c 0)"
taskset -c 0 ctest --test-dir build-ci-release -L 'par|serve|diskfault|ha' \
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
run_labelled_tests build-ci-asan fault obs serve diskfault overload ha par

# ThreadSanitizer pass: the serve daemon forks workers, the obs layer
# shares atomics across threads, and the `par` label drives the thread pool
# (which bench/e2e still links) from several threads — run all of them
# under TSan to catch real races rather than relying on review.
step "configure + build (ThreadSanitizer)"
cmake -B build-ci-tsan -S . -DMINERGY_SANITIZE=thread
cmake --build build-ci-tsan -j "$JOBS"
run_labelled_tests build-ci-tsan serve obs overload ha par

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

# Exposition smoke: a real daemon on an ephemeral port, scraped over HTTP
# while it drains two jobs, with every state transition captured in the
# event log. The scrape must expose the e2e latency histogram (the SLO of
# 1 ms guarantees at least one slo_violation lands in the log too), /health
# and /jobs must serve valid JSON from memory, and after the daemon exits
# the event log must pass the structural verifier.
step "exposition + event-log smoke"
expo_spool=build-ci-release/ci_expo_spool
expo_log=build-ci-release/ci_expo_events.jsonl
expo_port_file=build-ci-release/ci_expo_port
rm -rf "$expo_spool" "$expo_log" "$expo_log.1" "$expo_port_file"
"$served" --spool="$expo_spool" --submit --circuit=c17 --seed=11
"$served" --spool="$expo_spool" --submit --circuit=s27 --seed=12
# No --once: the daemon keeps serving so the scrapes cannot race a fast
# drain; a SIGTERM after the checks exercises the graceful-stop path.
"$served" --spool="$expo_spool" --workers=2 --poll=0.005 --timeout=60 \
  --listen=0 --port-file="$expo_port_file" --event-log="$expo_log" \
  --slo-e2e-ms=1 --snapshot-interval-s=0.2 \
  --perf-record=build-ci-release/BENCH_minergy_served.json &
served_pid=$!
expo_port=""
for _ in $(seq 1 100); do
  if [ -s "$expo_port_file" ]; then expo_port=$(cat "$expo_port_file"); break; fi
  sleep 0.1
done
[ -n "$expo_port" ] || { echo "daemon never wrote its port file"; exit 1; }
# Scrape until both jobs have drained: the histogram then has samples and
# the slo_violation events are guaranteed to be in the log.
metrics=""
for _ in $(seq 1 300); do
  metrics=$(curl -sf "http://127.0.0.1:$expo_port/metrics" || true)
  if echo "$metrics" | grep -q '^serve_jobs_done 2'; then break; fi
  sleep 0.1
done
echo "$metrics" | grep -q '^serve_jobs_done 2' \
  || { echo "daemon never finished the two jobs"; kill "$served_pid"; exit 1; }
echo "$metrics" | grep -q '^# TYPE serve_job_e2e_micros histogram' \
  || { echo "/metrics lacks the e2e latency histogram"; exit 1; }
echo "$metrics" | grep -q '^serve_job_e2e_micros_bucket{le="+Inf"} 2' \
  || { echo "e2e histogram did not record both jobs"; exit 1; }
echo "$metrics" | grep -q '^serve_spool_pending ' \
  || { echo "/metrics lacks the spool gauges"; exit 1; }
curl -sf "http://127.0.0.1:$expo_port/health" \
  | grep -q '"schema": *"minergy.health.v1"' \
  || { echo "/health is not a minergy.health.v1 document"; exit 1; }
curl -sf "http://127.0.0.1:$expo_port/jobs" \
  | grep -q '"schema": *"minergy.jobs.v1"' \
  || { echo "/jobs is not a minergy.jobs.v1 document"; exit 1; }
kill -TERM "$served_pid"
wait "$served_pid"
build-ci-release/tools/trace_check --verify-eventlog="$expo_log"
grep -q '"kind":"slo_violation"' "$expo_log" \
  || { echo "event log has no slo_violation under a 1 ms SLO"; exit 1; }
test -s build-ci-release/BENCH_minergy_served.json \
  || { echo "periodic snapshot left no perf record"; exit 1; }
"$served" --spool="$expo_spool" --status --verify --expect-jobs=2

# Overload + brownout smoke: one worker, a burst of background jobs well
# over its capacity, a 1 ms SLO with the brownout loop armed, and a 1 rps
# client quota. The daemon must shed background work (visible in /metrics
# and as job_shed events), reject the over-quota submission with a typed
# "shed:" error, brown out under the SLO miss, and — once the burst drains —
# walk the brownout ladder back to 0. The interactive job must never be
# shed and must finish certified in done/.
step "overload + brownout smoke"
ovl_spool=build-ci-release/ci_overload_spool
ovl_log=build-ci-release/ci_overload_events.jsonl
ovl_port_file=build-ci-release/ci_overload_port
rm -rf "$ovl_spool" "$ovl_log" "$ovl_log.1" "$ovl_port_file"
"$served" --spool="$ovl_spool" --workers=1 --poll=0.005 --timeout=60 \
  --listen=0 --port-file="$ovl_port_file" --event-log="$ovl_log" \
  --shed-target-ms=1 --shed-window-ms=400 \
  --slo-e2e-ms=1 --brownout --brownout-dwell-s=0.2 \
  --quota=ci-limited:1 &
ovl_pid=$!
ovl_port=""
for _ in $(seq 1 100); do
  if [ -s "$ovl_port_file" ]; then ovl_port=$(cat "$ovl_port_file"); break; fi
  sleep 0.1
done
[ -n "$ovl_port" ] || { echo "overload daemon never wrote its port"; exit 1; }
for _ in $(seq 1 100); do
  [ -s "$ovl_spool/overload.json" ] && break
  sleep 0.1
done
[ -s "$ovl_spool/overload.json" ] \
  || { echo "daemon never published its overload policy"; exit 1; }

# Quota: burst is 1 token at 1 rps, so the second back-to-back submission
# for the same client must be rejected with the typed shed error.
"$served" --spool="$ovl_spool" --submit --circuit=c17 --seed=50 \
  --priority=background --client=ci-limited >/dev/null
quota_err=build-ci-release/ci_overload_quota_err
if "$served" --spool="$ovl_spool" --submit --circuit=c17 --seed=51 \
    --priority=background --client=ci-limited >/dev/null 2>"$quota_err"; then
  echo "over-quota submission was not rejected"; exit 1
fi
grep -q '^shed: quota exceeded' "$quota_err" \
  || { echo "quota rejection lacks the typed shed error"; cat "$quota_err"; exit 1; }

# Burst: 30 background jobs against one worker (admission-side sheds are
# expected once the policy escalates, hence the || true), plus one
# interactive job that must survive the storm.
for i in $(seq 1 30); do
  "$served" --spool="$ovl_spool" --submit --circuit=c17 --seed="$i" \
    --priority=background >/dev/null 2>&1 || true
done
int_id=$("$served" --spool="$ovl_spool" --submit --circuit=c17 --seed=99 \
  --priority=interactive --complete-by-s=3600)

# Converged: backlog drained, shedding stopped, and the brownout ladder
# stepped back to level 0 (the recovery half of the feedback loop).
converged=""
for _ in $(seq 1 600); do
  m=$(curl -sf "http://127.0.0.1:$ovl_port/metrics" || true)
  if echo "$m" | grep -q '^serve_spool_pending 0' \
      && echo "$m" | grep -q '^serve_spool_running 0' \
      && echo "$m" | grep -q '^serve_brownout_level 0'; then
    converged=1; break
  fi
  sleep 0.1
done
[ -n "$converged" ] \
  || { echo "overload daemon never converged"; kill "$ovl_pid"; exit 1; }
m=$(curl -sf "http://127.0.0.1:$ovl_port/metrics")
echo "$m" | grep -q '^serve_shed_dropped{priority="background"} ' \
  || { echo "no background job was shed under 30x overload"; exit 1; }
echo "$m" | grep -q '^serve_brownout_degrades ' \
  || { echo "the 1 ms SLO never tripped the brownout loop"; exit 1; }
# /health republishes on the health interval (250 ms), so give the 503 ->
# 200 flip a moment after the brownout gauge clears.
health_ok=""
for _ in $(seq 1 20); do
  if curl -sf "http://127.0.0.1:$ovl_port/health" >/dev/null; then
    health_ok=1; break
  fi
  sleep 0.1
done
[ -n "$health_ok" ] || { echo "/health still 503 after recovery"; exit 1; }
kill -TERM "$ovl_pid"
wait "$ovl_pid"
build-ci-release/tools/trace_check --verify-eventlog="$ovl_log"
for kind in job_shed shed_start brownout_degrade brownout_recover; do
  grep -q "\"kind\":\"$kind\"" "$ovl_log" \
    || { echo "event log has no $kind event"; exit 1; }
done
test -f "$ovl_spool/done/$int_id.json" \
  || { echo "interactive job $int_id did not finish in done/"; exit 1; }
"$served" --spool="$ovl_spool" --status --verify

# Failover smoke: a leader and a hot standby share one spool over the
# leader lease; the leader is SIGKILLed mid-run, the standby must take over
# within about one lease TTL, drain all six jobs, and leave a spool that
# audits clean — exactly one takeover in the standby's event log, both
# logs passing the lease-ordering verifier, and an offline scrub finding
# nothing to repair.
step "failover smoke (kill -9 the leader, standby finishes)"
ha_spool=build-ci-release/ci_ha_spool
ha_leader_log=build-ci-release/ci_ha_leader_events.jsonl
ha_standby_log=build-ci-release/ci_ha_standby_events.jsonl
rm -rf "$ha_spool" "$ha_leader_log" "$ha_leader_log.1" \
  "$ha_standby_log" "$ha_standby_log.1"
for i in $(seq 1 6); do
  "$served" --spool="$ha_spool" --submit --circuit=c17 --seed="$i" >/dev/null
done
"$served" --spool="$ha_spool" --workers=2 --poll=0.005 --timeout=60 \
  --lease-ttl-s=1 --lease-margin-s=0.25 --event-log="$ha_leader_log" &
ha_leader_pid=$!
"$served" --spool="$ha_spool" --once --standby --workers=2 --poll=0.005 \
  --timeout=60 --lease-ttl-s=1 --lease-margin-s=0.25 \
  --event-log="$ha_standby_log" &
ha_standby_pid=$!
# Let the leader finish at least two jobs, then murder it mid-run.
ha_done=0
for _ in $(seq 1 600); do
  ha_done=$(ls "$ha_spool/done" 2>/dev/null | wc -l)
  [ "$ha_done" -ge 2 ] && break
  sleep 0.1
done
[ "$ha_done" -ge 2 ] \
  || { echo "leader never finished two jobs"; kill "$ha_leader_pid"; exit 1; }
kill -9 "$ha_leader_pid"
wait "$ha_leader_pid" || true
wait "$ha_standby_pid" \
  || { echo "standby did not drain the spool after the takeover"; exit 1; }
"$served" --spool="$ha_spool" --status --verify --expect-jobs=6
ha_takeovers=$(grep -c '"kind":"lease_acquired"' "$ha_standby_log")
[ "$ha_takeovers" -eq 1 ] \
  || { echo "expected exactly one takeover, saw $ha_takeovers"; exit 1; }
build-ci-release/tools/trace_check --verify-eventlog="$ha_leader_log"
build-ci-release/tools/trace_check --verify-eventlog="$ha_standby_log"
"$served" --spool="$ha_spool" --scrub \
  || { echo "post-failover scrub found damage"; exit 1; }

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

step "OK: all builds green, fault+obs+serve+diskfault+overload+ha+par labels pass (and on one core), benchmark smoke correct, batch results certified, exposition scraped live, overload shed+browned out+recovered, standby survived kill -9 of its leader"
