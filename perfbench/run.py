#!/usr/bin/env python3
"""Builds the DTDBD benchmark from source and runs one workload.

    python3 perfbench/run.py --workload distill --seed 1 --seconds 20 --trace 0

Run from the repository root. The first run configures and compiles the
repository's libraries and the benchmark program into .bench_build/perfbench
(Release, -O2); later runs only rebuild what changed. Build output goes to
standard error. Standard output is the benchmark program's: a details line,
then the result object as the last line.

Exits non-zero without printing a result when the build fails, the
benchmark program fails or overruns, or its metrics do not match
BENCHMARK.json.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "dtdbd_perfbench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "dtdbd_perfbench",
                  "-j", jobs])
    for step in steps:
        subprocess.run(step, check=True, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.SubprocessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: benchmark program overran its time limit",
              file=sys.stderr)
        return 1
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        print(f"perfbench: benchmark program exited with {run.returncode}",
              file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    names = list(result["metrics"])
    if names != declared_metrics(args.trace):
        print("perfbench: reported metrics do not match BENCHMARK.json",
              file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
