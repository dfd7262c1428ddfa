#!/usr/bin/env python3
"""Builds and runs the serving benchmark.

Usage, from the root of the repository:

    python3 servebench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first run configures and builds servebench/ (and the library under src/)
into .bench_build/servebench; later runs only rebuild what changed. Build
output goes to stderr. The benchmark's report goes to stdout, and its last
line is one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 1 the run's spans are written to .bench_build/spans/<workload>.tsv.
The exit code is 0 only when a result was printed and the outputs were
correct.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "servebench")
BINARY = os.path.join(BUILD_DIR, "servebench")
WORKLOADS = ("lstm-cpu-closed", "lstm-null-closed")


def build():
    # The compiler's temporary files stay inside the checkout.
    tmp = os.path.join(BUILD_ROOT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    # A configure step that failed leaves a cache but no Makefile.
    if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR, "-G", "Unix Makefiles",
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True, env=env)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "servebench",
                    "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True, env=env)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"servebench: build failed: {err}", file=sys.stderr)
        return 1

    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(BUILD_ROOT, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        command += ["--spans", os.path.join(spans_dir, args.workload + ".tsv")]
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    sys.stdout.flush()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print(f"servebench: no result (exit code {proc.returncode})", file=sys.stderr)
        return 1
    print(json.dumps({key: result[key]
                      for key in ("correct", "attempted", "failed", "metrics")}))
    if proc.returncode != 0 or result.get("correct") is not True:
        print(f"servebench: run failed (exit code {proc.returncode})", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
