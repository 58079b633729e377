#!/usr/bin/env python3
"""Drives e2e_bench for bench/e2e/run.sh, which builds it first.

Modes (run.sh passes its arguments through):
  --workload W --seed N --seconds S --trace 0|1   one run; prints every metric,
      then as the last line {"correct", "attempted", "failed", "metrics"} with
      the end-to-end metrics of BENCHMARK.json (--trace 0) or its per-layer
      metrics (--trace 1)
  [--seed=S] [--trace] [--repeat=N] [--spread=N] [--out=F]   every workload,
      each in its own process; --trace adds a traced run per untraced one and
      checks both gave bit-identical answers; --spread=N also runs seeds
      S..S+N-1 and reports each end-to-end metric's quartile spread
  --smoke                   every workload at ~1/10 size, traced
  --compare A.json B.json   applies the BENCHMARK.json bounds
"""
import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, "build-bench")
BENCH = os.path.join(BUILD, "e2e", "e2e_bench")
SERVED = os.path.join(BUILD, "tools", "minergy_served")
WORK = os.path.join(BUILD, "e2e-work")
RESULTS = os.path.join(BUILD, "e2e-results")
RUN_TIMEOUT_S = 170


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def fail(msg):
    print(f"suite: {msg}", file=sys.stderr)
    sys.exit(1)


def stamp(seed):
    """Machine, build and input identity recorded in every result file."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    build_type = "unknown"
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    build_type = line.split("=", 1)[1].strip()
    except OSError:
        pass
    git_rev = "unknown"
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if rev.returncode == 0:
                git_rev = rev.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "git_revision": git_rev, "build_type": build_type, "seed": seed}


def run_workload(workload, seed, seconds, trace, smoke=False):
    """One e2e_bench process; returns its result document."""
    os.makedirs(RESULTS, exist_ok=True)
    cmd = [BENCH, f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--trace={int(trace)}",
           f"--work-dir={WORK}", f"--served={SERVED}"]
    if trace:
        cmd.append(f"--trace-out={RESULTS}/trace-{workload}-s{seed}.json")
    if smoke:
        cmd.append("--smoke")
    # A session of its own, so a stuck run is killed together with the
    # daemon and workers it started.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except BaseException as e:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(e, subprocess.TimeoutExpired):
            fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
        raise
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"e2e_bench {workload} exited {proc.returncode}")
    doc = json.loads(lines[-1])
    doc.update(workload=workload, seed=seed, trace=int(trace), smoke=smoke)
    return doc


def without_fingerprints(doc):
    """The run as stored in result files: answers are only compared."""
    return {k: v for k, v in doc.items() if k != "fingerprints"}


def missing_metrics(doc, names):
    return [n for n in names if n not in doc["metrics"]]


def print_run(doc):
    head = (f"== {doc['workload']} seed={doc['seed']} trace={doc['trace']}: "
            f"{'correct' if doc['correct'] else 'INCORRECT'}, "
            f"{doc['failed']}/{doc['attempted']} failed")
    print(head)
    for name, m in doc["metrics"].items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    for key, text in doc["notes"].items():
        print(f"  # {key}: {text}")
    for err in doc["errors"][:10]:
        print(f"  ! {err}")


def write_json(path, obj):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as f:
        json.dump(obj, f, indent=1)
        f.write("\n")


def cmd_one(args, spec):
    kind = "per_layer" if args.trace else "end_to_end"
    names = [m["name"] for m in spec[kind]]
    doc = run_workload(args.workload, args.seed, args.seconds, args.trace)
    doc["stamp"] = stamp(args.seed)
    print_run(doc)
    print(f"  # stamp: {json.dumps(doc['stamp'])}")
    write_json(os.path.join(
        RESULTS, f"{args.workload}-s{args.seed}-t{args.trace}-"
                 f"{time.strftime('%Y%m%dT%H%M%S')}.json"),
        without_fingerprints(doc))
    missing = missing_metrics(doc, names)
    if missing:
        fail(f"{args.workload} did not report {', '.join(missing)}")
    print(json.dumps({"correct": doc["correct"], "attempted": doc["attempted"],
                      "failed": doc["failed"],
                      "metrics": {n: doc["metrics"][n] for n in names}}))
    return 0


def spread(values):
    """(median, q1, q3, (q3 - q1) / median), quartiles as
    statistics.quantiles(n=4) gives them."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def cmd_all(args, spec):
    workloads = [w["name"] for w in spec["workloads"]]
    out = {"stamp": stamp(args.seed), "runs": []}
    ok = True
    for _ in range(args.repeat):
        for w in workloads:
            plain = run_workload(w, args.seed, args.seconds, False)
            print_run(plain)
            out["runs"].append(without_fingerprints(plain))
            ok &= plain["correct"]
            if not args.trace:
                continue
            traced = run_workload(w, args.seed, args.seconds, True)
            print_run(traced)
            out["runs"].append(without_fingerprints(traced))
            ok &= traced["correct"]
            if traced["fingerprints"] != plain["fingerprints"]:
                print(f"  ! {w}: traced and untraced answers differ")
                ok = False
    if args.spread:
        sweep = [run_workload(w, args.seed + k, args.seconds, False)
                 for w in workloads for k in range(args.spread)]
        ok &= all(d["correct"] for d in sweep)
        last = args.seed + args.spread - 1
        out["spread"] = {"seeds": [args.seed, last], "metrics": {}}
        print(f"== spread over seeds {args.seed}..{last}")
        for w in workloads:
            for m in spec["end_to_end"]:
                vals = [d["metrics"][m["name"]]["value"] for d in sweep
                        if d["workload"] == w]
                med, q1, q3, s = spread(vals)
                within = m["name"] == "setup_s" or s <= m["bound"]
                ok &= within
                out["spread"]["metrics"][f"{w}/{m['name']}"] = {
                    "median": med, "q1": q1, "q3": q3, "spread": s,
                    "bound": m["bound"], "values": vals}
                print(f"  {w:13s} {m['name']:14s} median {med:<12.6g} "
                      f"spread {s:7.4f}  bound {m['bound']:.2f}"
                      f"{'' if within else '  EXCEEDS BOUND'}")
    path = args.out or os.path.join(
        RESULTS, f"all-s{args.seed}-{time.strftime('%Y%m%dT%H%M%S')}.json")
    write_json(path, out)
    print(f"result file: {path}")
    return 0 if ok else 1


def cmd_smoke(spec):
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    start = time.time()
    ok = True
    for w in [w["name"] for w in spec["workloads"]]:
        doc = run_workload(w, 1, 1, True, smoke=True)
        missing = missing_metrics(doc, names)
        status = "ok" if doc["correct"] and not missing else "FAILED"
        print(f"smoke {w:13s} {status}  {doc['failed']}/{doc['attempted']} "
              f"failed{'  missing: ' + ', '.join(missing) if missing else ''}")
        for err in doc["errors"][:10]:
            print(f"  ! {err}")
        ok &= status == "ok"
    print(f"smoke: {'OK' if ok else 'FAILED'} in {time.time() - start:.1f} s")
    return 0 if ok else 1


def cmd_compare(path_a, path_b, spec):
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    if a["stamp"]["nproc"] != b["stamp"]["nproc"]:
        fail(f"refusing to compare runs on {a['stamp']['nproc']} and "
             f"{b['stamp']['nproc']} cores")
    print(f"{'workload':13s} {'metric':14s} {'A median [q1, q3]':34s} "
          f"{'B median [q1, q3]':34s} {'change':>8s} bound  verdict")
    for w in [w["name"] for w in spec["workloads"]]:
        for m in spec["end_to_end"]:
            def values(doc):
                return [r["metrics"][m["name"]]["value"] for r in doc["runs"]
                        if r["workload"] == w and not r["trace"]
                        and m["name"] in r["metrics"]]
            va, vb = values(a), values(b)
            if not va or not vb:
                continue
            ma, qa1, qa3, sa = spread(va)
            mb, qb1, qb3, sb = spread(vb)
            sign = 1.0 if m["better"] == "lower" else -1.0
            rel = (mb - ma) / ma
            change = sign * rel  # > 0: B is worse
            worse_all = min(sign * x for x in vb) > max(sign * x for x in va)
            better_all = max(sign * x for x in vb) < min(sign * x for x in va)
            if max(sa, sb) > m["bound"]:
                # Too noisy to resolve the bound, unless the runs separate.
                verdict = ("worse" if worse_all else
                           "better" if better_all else "unresolved")
            elif change > m["bound"]:
                verdict = "worse"
            elif -change > m["bound"]:
                verdict = "better"
            else:
                verdict = "unchanged"
            print(f"{w:13s} {m['name']:14s} "
                  f"{f'{ma:.4g} [{qa1:.4g}, {qa3:.4g}]':34s} "
                  f"{f'{mb:.4g} [{qb1:.4g}, {qb3:.4g}]':34s} "
                  f"{rel * 100:+7.1f}% {m['bound']:.2f}   {verdict}")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                   choices=[0, 1])
    p.add_argument("--repeat", type=int, default=1)
    p.add_argument("--spread", type=int, default=0)
    p.add_argument("--out")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = p.parse_args()
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.compare:
        return cmd_compare(*args.compare, spec)
    if args.workload:
        if args.workload not in [w["name"] for w in spec["workloads"]]:
            fail(f"unknown workload {args.workload}")
        return cmd_one(args, spec)
    if args.smoke:
        return cmd_smoke(spec)
    return cmd_all(args, spec)


if __name__ == "__main__":
    sys.exit(main())
