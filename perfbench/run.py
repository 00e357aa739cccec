#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--tiny]

Run it from the repository root.  The binary is configured and built
with CMake into $CARGO_TARGET_DIR (default .bench_build); a build that
is up to date costs well under a second.  Build output goes to stderr,
the binary's notes and its one JSON result line to stdout.

The result line is checked against BENCHMARK.json before it is printed:
with --trace 0 it must carry exactly the end-to-end metrics, with
--trace 1 the per-layer ones, each with its declared unit.  A workload
reports the per-layer metrics of the layers it calls; the others are
filled in as 0 (no calls), following perfbench/layers.json.  Traced
runs also leave a Chrome trace-event file and a per-layer summary in
<build dir>/traces.

Exits non-zero without printing a result when the build, the run or a
check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run may take 4 x seconds + 10 s of ops plus set-up; the whole run
# must end within 180 s.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        fail("no CMakeLists.txt at the repository root; nothing to build")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4"])
    for cmd in steps:
        try:
            subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                           check=True, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.SubprocessError) as e:
            fail(f"build step {' '.join(cmd)} failed: {e}")


def check_metrics(result, wanted, layers, workload, trace):
    """Verifies (and for per-layer runs, completes) the metric set."""
    metrics = result["metrics"]
    for name, m in metrics.items():
        if name not in wanted:
            fail(f"undeclared metric {name} in the result")
        if m.get("unit") != wanted[name]:
            fail(f"metric {name} has unit {m.get('unit')}, "
                 f"declared {wanted[name]}")
    for name, unit in wanted.items():
        if name in metrics:
            continue
        if trace and workload not in layers[name]["workloads"]:
            metrics[name] = {"value": 0, "unit": unit}
        else:
            fail(f"workload {workload} did not report {name}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test sizes: tiny designs, one op")
    args = ap.parse_args()

    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    layers = load_json(os.path.join(HERE, "layers.json"))
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        fail(f"unknown workload {args.workload}")
    section = bench["per_layer" if args.trace else "end_to_end"]
    wanted = {m["name"]: m["unit"] for m in section}

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    build(build_dir)
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", trace_dir]
    if args.tiny:
        cmd.append("--tiny")
    try:
        run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                             stderr=sys.stderr, text=True,
                             timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        fail(f"benchmark run did not finish: {e}")
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        fail(f"benchmark run exited with code {run.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"last output line is not JSON: {lines[-1]!r}")
    check_metrics(result, wanted, layers, args.workload, args.trace)

    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    sys.stdout.flush()


if __name__ == "__main__":
    main()
