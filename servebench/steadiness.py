#!/usr/bin/env python3
"""Measures how steady the serving benchmark is.

Usage, from the root of the repository:

    python3 servebench/steadiness.py [--runs 10] [--seconds S]
                                     [--first-seed 1] [--workload NAME ...]

Runs servebench/run.py --runs times per workload (default: the workloads
of BENCHMARK.json, for its run_seconds), each with another seed,
one run at a time. For each end-to-end metric it prints the median of the
runs and the spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, next to the
metric's bound from BENCHMARK.json. It also prints each run's host steal
share. The raw results go to .bench_build/steadiness.json.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, cwd=ROOT)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: run failed (exit code {proc.returncode})")
    steal = re.search(r"workload=\S+ seed=\d+ host\.steal_share=([0-9.]+)", proc.stdout)
    result = json.loads(lines[-1])
    rounds = [{k: float(v) for k, v in re.findall(r"(\S+?)=([0-9.]+)\b", line)}
              for line in lines if line.startswith("servebench: round=")]
    return {"seed": seed, "steal": float(steal.group(1)) if steal else None,
            "correct": result["correct"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "rounds": rounds}


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / statistics.median(values)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]

    results = {}
    for workload in workloads:
        runs = []
        for i in range(args.runs):
            runs.append(run_once(workload, args.first_seed + i, seconds))
            print(f"{workload} seed={runs[-1]['seed']} steal={runs[-1]['steal']} "
                  + " ".join(f"{k}={v:.6g}" for k, v in runs[-1]["metrics"].items()),
                  flush=True)
        results[workload] = runs
        print(f"\n{workload}: {args.runs} runs of {seconds} s")
        print(f"  {'metric':18} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} "
              f"{'bound':>6} {'spread/bound':>12}")
        for name, bound in bounds.items():
            median, q1, q3, s = spread([r["metrics"][name] for r in runs])
            print(f"  {name:18} {median:12.6g} {q1:12.6g} {q3:12.6g} {s:8.4f} "
                  f"{bound:6.3f} {s / bound:12.3f}")
        print("  host.steal_share per run: "
              + " ".join(f"{r['steal']:.3f}" for r in runs) + "\n", flush=True)

    out_dir = os.path.join(ROOT, ".bench_build")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "steadiness.json"), "w") as f:
        json.dump(results, f, indent=1)


if __name__ == "__main__":
    main()
