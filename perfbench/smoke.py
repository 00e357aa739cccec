#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json once at tiny sizes (--tiny: small
designs, one set-up, one op), untraced and traced, through
perfbench/run.py.  Checks that each run exits 0, that its last line is
the result object with the four keys, that every declared metric is
printed with its declared unit and a finite value, that every metric
perfbench/layers.json assigns to the workload is really measured there,
and that all correctness checks pass.  Takes about half a minute after
the build.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--tiny"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         timeout=900)
    if out.returncode != 0:
        return None, [f"exit code {out.returncode}"]
    return json.loads(out.stdout.splitlines()[-1]), []


def check(result, declared, layers, workload, trace):
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append("correctness checks failed")
    if not result.get("attempted", 0) >= 1:
        problems.append("no op attempted")
    metrics = result.get("metrics", {})
    if set(metrics) != set(declared):
        problems.append(f"metric set differs: {set(metrics) ^ set(declared)}")
    for name, unit in declared.items():
        m = metrics.get(name)
        if m is None:
            continue
        if m["unit"] != unit:
            problems.append(f"{name}: unit {m['unit']}, declared {unit}")
        if not math.isfinite(m["value"]):
            problems.append(f"{name}: value {m['value']}")
        if not trace and m["value"] <= 0:
            problems.append(f"{name}: end-to-end value {m['value']} <= 0")
    if trace:
        # A metric the mapping assigns to this workload must be measured,
        # not zero-filled: run.py fails when the binary leaves one out.
        for name, entry in layers.items():
            if workload in entry["workloads"] and name not in metrics:
                problems.append(f"{name}: not measured")
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "layers.json")) as f:
        layers = json.load(f)
    if set(layers) != {m["name"] for m in bench["per_layer"]}:
        print("layers.json and BENCHMARK.json per_layer differ")
        return 1
    failures = 0
    for w in bench["workloads"]:
        for trace in (0, 1):
            section = bench["per_layer" if trace else "end_to_end"]
            declared = {m["name"]: m["unit"] for m in section}
            result, problems = run(w["name"], trace)
            if result is not None:
                problems += check(result, declared, layers, w["name"], trace)
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print(f"{w['name']:16s} trace={trace}  {status}")
            failures += bool(problems)
    print("smoke test", "passed" if failures == 0 else f"failed ({failures})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
