#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny size (seconds once the driver is built).

Usage (from the repository root):  python3 perfbench/selftest.py

For every workload it runs perfbench/run.py with a few ops per episode and
checks that:
  * every metric of BENCHMARK.json is printed, by name and with its unit, both
    on a metric line and in the JSON result;
  * completed plus failed ops equals attempted ops;
  * traced self times plus the unattributed remainder equal the traced window;
  * two runs at the same seed print identical work counts;
  * a planted consistency bug makes the run fail with a nonzero exit code
    (on soak16 and checked8: with 2048 objects per node, heap4's sections
    rarely share an object, so its planted bug can stay silent in a tiny run;
    it runs the same verdict code).
Exits nonzero on the first failed check.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["soak16", "heap4", "checked8"]
PLANTED = ["soak16", "checked8"]
TINY = ["--ops", "40", "--seconds", "1"]
# Self-time metrics that partition the traced window (dsm.grant_s repeats
# net.deliver_s.Grant under the DSM layer's name, so it is not summed).
SELF_TIME_EXCLUDED = {"dsm.grant_s", "workload.window_s", "workload.unattributed_s"}


def run(workload, seed, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), *TINY, *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.rstrip("\n").split("\n")
    return proc.returncode, lines, json.loads(lines[-1])


def check(cond, msg):
    if not cond:
        print(f"selftest FAIL: {msg}")
        sys.exit(1)


def check_printed(lines, result, specs, what):
    metric_lines = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 3:
            metric_lines[parts[0]] = parts[2]
    for m in specs:
        name, unit = m["name"], m["unit"]
        check(metric_lines.get(name) == unit, f"{what}: no line '{name} <value> {unit}'")
        check(result["metrics"].get(name, {}).get("unit") == unit,
              f"{what}: JSON lacks {name} in {unit}")
    check(set(result["metrics"]) == {m["name"] for m in specs},
          f"{what}: JSON metrics differ from BENCHMARK.json")


def check_op_accounting(lines, result, what):
    counts = next(l for l in lines if l.startswith("counts "))
    fields = dict(re.findall(r"(\w+)=(\d+)", counts))
    attempted, completed, failed = (int(fields[k]) for k in ("attempted", "completed", "failed"))
    check(completed + failed == attempted,
          f"{what}: completed {completed} + failed {failed} != attempted {attempted}")
    check(result["attempted"] >= attempted and result["failed"] <= result["attempted"],
          f"{what}: result attempted/failed inconsistent with the counts")
    return counts


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in WORKLOADS:
        code, lines, result = run(w, 5, 0)
        check(code == 0 and result["correct"], f"{w}: untraced run failed")
        check_printed(lines, result, spec["end_to_end"], f"{w} untraced")
        counts = check_op_accounting(lines, result, f"{w} untraced")

        code, again, _ = run(w, 5, 0)
        check(code == 0, f"{w}: repeated run failed")
        check(counts == next(l for l in again if l.startswith("counts ")),
              f"{w}: work counts differ between two runs at one seed")

        code, lines, result = run(w, 5, 1)
        check(code == 0 and result["correct"], f"{w}: traced run failed")
        check_printed(lines, result, spec["per_layer"], f"{w} traced")
        check_op_accounting(lines, result, f"{w} traced")
        m = {k: v["value"] for k, v in result["metrics"].items()}
        self_s = sum(v for k, v in m.items()
                     if k.endswith("_s") and k.split(".")[0] in ("net", "dsm", "gc", "runtime")
                     and k not in SELF_TIME_EXCLUDED)
        self_s += sum(v for k, v in m.items() if k.startswith("net.deliver_s."))
        window = m["workload.window_s"]
        total = self_s + m["workload.unattributed_s"]
        check(abs(total - window) <= 1e-6 * max(window, 1e-3),
              f"{w}: self times + unattributed = {total} != traced window {window}")
        check(m["workload.unattributed_s"] >= 0, f"{w}: negative unattributed time")

        if w not in PLANTED:
            print(f"selftest {w}: ok")
            continue
        code, lines, result = run(w, 5, 0, "--plant-stale-read", "1")
        check(code != 0 and not result["correct"] and result["failed"] == result["attempted"],
              f"{w}: planted stale read was not caught")
        print(f"selftest {w}: ok")
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
