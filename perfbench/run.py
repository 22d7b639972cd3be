#!/usr/bin/env python3
"""End-to-end BMX benchmark: builds the driver, runs one workload, checks it.

Usage (from the repository root):

    python3 perfbench/run.py --workload soak16|heap4|checked8 \
        --seed N --seconds S --trace 0|1

Builds perfbench/ (which compiles the BMX libraries from src/) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable is
unset, then runs the driver.  The driver's metric lines go to stdout, and the
last stdout line is one JSON object: {"correct", "attempted", "failed",
"metrics"}.  --trace 0 reports the end-to-end metrics of BENCHMARK.json,
--trace 1 the per-layer ones.

The exit code is nonzero when the build fails, when any verdict, read check or
determinism check fails, or when the reported metrics do not match
BENCHMARK.json.  Work counts of a (workload, seed) pair are also compared with
those of earlier runs of the same driver binary, so a count that changes
between runs fails the run.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The driver ends with the round during which --seconds run out; a round
# takes a few seconds, so this margin is left for the last one and the report.
TIMEOUT_MARGIN_S = 120


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configures and builds the driver; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"BMX sources not found under {ROOT}/src")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    with open(os.path.join(build_dir, ".lock"), "w") as lock, open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            ["cmake", "--build", build_dir, "--target", "bmx_perf", "-j", jobs],
        ]
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "bmx_perf")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_metrics(result, trace):
    """Problems with the metric set the driver printed, as strings."""
    want = expected_metrics(trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    problems = [f"missing metric {n}" for n in want if n not in got]
    problems += [f"unlisted metric {n}" for n in got if n not in want]
    problems += [f"metric {n} has unit {got[n]}, expected {u}"
                 for n, u in want.items() if n in got and got[n] != u]
    return problems


def check_counts_repeat(build_dir, binary, args, counts_line):
    """Compares this run's work counts with an earlier run of the same binary."""
    with open(binary, "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()[:16]
    name = f"{args.workload}-{args.seed}-{args.ops or 'default'}-{digest}.txt"
    path = os.path.join(build_dir, "counts", name)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    if os.path.exists(path):
        with open(path) as f:
            earlier = f.read()
        if earlier != counts_line:
            return [f"work counts differ from an earlier run at seed {args.seed}:\n"
                    f"  now:     {counts_line}\n  earlier: {earlier}"]
        return []
    with open(path, "w") as f:
        f.write(counts_line)
    return []


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["soak16", "heap4", "checked8"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    ap.add_argument("--ops", type=int, help="ops per episode (default: the workload's)")
    ap.add_argument("--plant-stale-read", type=int, choices=[0, 1], default=0,
                    help="plant a consistency bug; the run must then fail")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                             "perfbench")
    binary = build(build_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.ops:
        cmd += ["--ops", str(args.ops)]
    if args.plant_stale_read:
        cmd += ["--plant-stale-read", "1"]
    if args.trace:
        cmd += ["--spans-out", os.path.join(build_dir, f"spans-{args.workload}.tsv")]
    timeout_s = args.seconds + TIMEOUT_MARGIN_S
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout_s)
    except subprocess.TimeoutExpired:
        fail(f"driver did not finish within {timeout_s} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(proc.stdout)
        fail(f"driver exited with code {proc.returncode} and printed no result")

    problems = check_metrics(result, args.trace)
    counts = next((l for l in lines if l.startswith("counts ")), None)
    if counts is None:
        problems.append("driver printed no work counts")
    elif result["correct"]:
        problems += check_counts_repeat(build_dir, binary, args, counts)
    for line in lines[:-1]:
        print(line)
    for p in problems:
        print(f"FAIL {p}")
    if problems:
        result["correct"] = False
        result["failed"] = result["attempted"]
    print(json.dumps(result))
    sys.exit(1 if proc.returncode != 0 or problems else 0)


if __name__ == "__main__":
    main()
