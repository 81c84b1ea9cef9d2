#!/usr/bin/env python3
"""Repeatability check for the DTDBD benchmark.

Run each workload N times, each with another seed, and summarise every
end-to-end metric by its median, quartiles and spread (the distance between
the quartiles as a share of the median):

    python3 perfbench/repeat.py run --runs 10 --first-seed 1 --out a.json
    python3 perfbench/repeat.py run --runs 10 --first-seed 101 --out b.json

Compare two such sets against the bounds in BENCHMARK.json; exits non-zero
when a spread exceeds its bound, when the second set's median is worse than
the first's by more than the bound, when a run was incorrect, or when the
share of failed operations differs:

    python3 perfbench/repeat.py compare a.json b.json

Run from the repository root. Quartiles are statistics.quantiles(n=4).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / abs(median) if median else float("inf")
    return {"median": median, "q1": q1, "q3": q3, "spread": spread,
            "min": min(values), "max": max(values)}


def run_set(args, spec):
    workloads = ([w["name"] for w in spec["workloads"]]
                 if args.workload == "all" else [args.workload])
    seconds = args.seconds or spec["run_seconds"]
    out = {"runs": args.runs, "first_seed": args.first_seed,
           "seconds": seconds, "workloads": {}}
    for workload in workloads:
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}",
                      file=sys.stderr)
                return None
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"] = seed
            runs.append(result)
            values = " ".join(f"{k}={v['value']:.6g}"
                              for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {values}",
                  file=sys.stderr)
        summary = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            summary[name] = summarise(
                [r["metrics"][name]["value"] for r in runs])
        out["workloads"][workload] = {
            "runs": runs,
            "summary": summary,
            "all_correct": all(r["correct"] for r in runs),
            "failed_shares": [r["failed"] / r["attempted"] for r in runs],
        }
    return out


def print_summary(result, spec):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"{'workload':<11} {'metric':<17} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>8} {'bound':>6}")
    for workload, data in result["workloads"].items():
        for name, s in data["summary"].items():
            flag = "" if s["spread"] <= bounds[name] / 3 else "  > bound/3"
            print(f"{workload:<11} {name:<17} {s['median']:>12.6g} "
                  f"{s['q1']:>12.6g} {s['q3']:>12.6g} {s['spread']:>8.3f} "
                  f"{bounds[name]:>6.2f}{flag}")
        print(f"{workload:<11} all correct: {data['all_correct']}; "
              f"failed shares: {sorted(set(data['failed_shares']))}")


def compare(a, b, spec):
    problems = []
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        lower = metric["better"] == "lower"
        for workload in a["workloads"]:
            sa = a["workloads"][workload]["summary"][name]
            sb = b["workloads"][workload]["summary"][name]
            for label, s in (("first", sa), ("second", sb)):
                if s["spread"] > bound:
                    problems.append(f"{workload} {name}: {label} set spread "
                                    f"{s['spread']:.3f} > bound {bound}")
            change = (sb["median"] - sa["median"]) / abs(sa["median"])
            worse = change if lower else -change
            status = "ok" if worse <= bound else "WORSE"
            print(f"{workload:<11} {name:<17} {sa['median']:>12.6g} -> "
                  f"{sb['median']:>12.6g}  change {change:+.3f}  "
                  f"bound {bound:.2f}  {status}")
            if worse > bound:
                problems.append(f"{workload} {name}: median worse by "
                                f"{worse:.3f} > bound {bound}")
    for workload in a["workloads"]:
        for label, data in (("first", a), ("second", b)):
            if not data["workloads"][workload]["all_correct"]:
                problems.append(f"{workload}: an incorrect run in the "
                                f"{label} set")
        shares = set(a["workloads"][workload]["failed_shares"] +
                     b["workloads"][workload]["failed_shares"])
        if len(shares) > 1:
            problems.append(f"{workload}: failed shares differ: {shares}")
    for p in problems:
        print("PROBLEM:", p)
    return not problems


def main():
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run")
    run.add_argument("--workload", default="all")
    run.add_argument("--runs", type=int, default=10)
    run.add_argument("--first-seed", type=int, default=1)
    run.add_argument("--seconds", type=int, default=0,
                     help="default: run_seconds from BENCHMARK.json")
    run.add_argument("--out", required=True)
    cmp_ = sub.add_parser("compare")
    cmp_.add_argument("first")
    cmp_.add_argument("second")
    args = parser.parse_args()

    spec = load_spec()
    if args.command == "run":
        result = run_set(args, spec)
        if result is None:
            return 1
        with open(args.out, "w") as f:
            json.dump(result, f, indent=1)
        print_summary(result, spec)
        return 0
    with open(args.first) as f:
        a = json.load(f)
    with open(args.second) as f:
        b = json.load(f)
    return 0 if compare(a, b, spec) else 1


if __name__ == "__main__":
    sys.exit(main())
