#!/usr/bin/env python3
"""Compare a BENCH_*.json run against a committed baseline.

Both files use the shared envelope {"bench": name, "results": [rows]}
(see bench/bench_common.h). Rows are matched by a key tuple (default:
rate_rps + pipeline_depth + shards + workers + precision, the fig07 sweep
axes; rows written before the precision field existed count as fp32) and
the run fails if any watched metric regresses by more than its threshold
relative to the baseline.

--metric is repeatable and takes an optional per-metric threshold after a
colon; a metric without one uses --threshold.

--assert-ratio gates a *scaling* property of the current run alone
(higher is better), e.g. the sharded manager's task throughput:

    --assert-ratio tasks_per_sec:shards=2,workers=4:shards=1,workers=4:1.5

reads "the tasks_per_sec of the row matching shards=2,workers=4 must be
at least 1.5x that of the row matching shards=1,workers=4". Each
selector must match exactly one current row. Because scaling ratios are
meaningless on a host with fewer cores than the configuration needs,
--min-cores N skips (loudly) every --assert-ratio check when
os.cpu_count() < N. --min-cores also skips the baseline metric
comparisons: committed baselines are recorded on adequately sized
hosts, so absolute latency numbers from an undersized host are
time-sharing artifacts, not regressions (the unmodified seed fails
them just the same). A skipped run still validates both files and
baseline row coverage; it just doesn't compare numbers.

The CI perf-smoke job runs:

    tools/compare_bench.py bench/baselines/BENCH_fig07_baseline.json \
        build/BENCH_fig07.json --metric p50_ms:0.25 --metric p99_ms:0.5 \
        --assert-ratio tasks_per_sec:shards=2,workers=4:shards=1,workers=4:1.5 \
        --assert-ratio "tasks_per_sec:precision=int8,workers=1,rate_rps=0:\
precision=fp32,workers=1,rate_rps=0:1.5:require-kernel=vnni" \
        --min-cores 4

An --assert-ratio may carry a 5th part, require-kernel=substr: the check
is skipped loudly (instead of failing) when the numerator row's "kernel"
field lacks the substring — the int8-vs-fp32 speedup gate only holds on
hosts whose cpuid dispatched a VNNI kernel.

Exit codes: 0 ok, 1 regression, 2 usage/format error. Only stdlib.
"""

import argparse
import json
import os
import sys


def load_rows(path, keys):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"error: cannot read {path}: {e}")
    if "bench" not in doc or "results" not in doc:
        sys.exit(f"error: {path} is not a BENCH envelope "
                 '(expected {"bench": ..., "results": [...]})')
    rows = {}
    for row in doc["results"]:
        try:
            # Rows written before the precision axis existed are fp32.
            key = tuple(row.get(k, "fp32") if k == "precision" else row[k]
                        for k in keys)
        except KeyError as e:
            sys.exit(f"error: {path}: row missing key field {e}: {row}")
        if key in rows:
            sys.exit(f"error: {path}: duplicate row for {dict(zip(keys, key))}")
        rows[key] = row
    return doc["bench"], rows


def parse_metrics(specs, default_threshold):
    """[(metric, threshold)] from repeated "name" or "name:threshold" specs."""
    metrics = []
    for spec in specs:
        name, sep, thr = spec.partition(":")
        if not name:
            sys.exit(f"error: empty metric name in {spec!r}")
        if sep:
            try:
                threshold = float(thr)
            except ValueError:
                sys.exit(f"error: bad threshold in metric spec {spec!r}")
        else:
            threshold = default_threshold
        metrics.append((name, threshold))
    return metrics


def parse_selector(text):
    """{"shards": 2.0, "precision": "int8"} from "shards=2,precision=int8".

    Values parse as floats when they can (so 2 matches 2.0 in the JSON) and
    stay strings otherwise (precision/kernel fields).
    """
    selector = {}
    for part in text.split(","):
        field, sep, value = part.partition("=")
        if not sep or not field:
            sys.exit(f"error: bad selector component {part!r} in {text!r} "
                     "(want field=value)")
        try:
            selector[field] = float(value)
        except ValueError:
            selector[field] = value
    return selector


def parse_ratios(specs):
    """[(metric, num_selector, den_selector, min_ratio, require_kernel)] from
    repeated "metric:num_sel:den_sel:min[:require-kernel=substr]" specs.

    The optional 5th part gates the check on the dispatched GEMM kernel: if
    the numerator row's "kernel" field does not contain the substring, the
    check is skipped loudly instead of failing (e.g. the int8-vs-fp32
    speedup ratio only means something when the host dispatched a VNNI
    kernel, not the avx2/scalar fallback)."""
    ratios = []
    for spec in specs:
        parts = spec.split(":")
        if len(parts) not in (4, 5):
            sys.exit(f"error: bad --assert-ratio spec {spec!r} "
                     "(want metric:num_selector:den_selector:min_ratio"
                     "[:require-kernel=substr])")
        metric, num_text, den_text, min_text = parts[:4]
        require_kernel = None
        if len(parts) == 5:
            field, sep, value = parts[4].partition("=")
            if field != "require-kernel" or not sep or not value:
                sys.exit(f"error: bad 5th part in --assert-ratio spec {spec!r} "
                         "(want require-kernel=substr)")
            require_kernel = value
        try:
            min_ratio = float(min_text)
        except ValueError:
            sys.exit(f"error: bad min ratio in {spec!r}")
        ratios.append((metric, parse_selector(num_text), parse_selector(den_text),
                       min_ratio, require_kernel))
    return ratios


def row_matches(row, selector):
    for field, want in selector.items():
        have = row.get(field)
        if isinstance(want, float):
            if not isinstance(have, (int, float)) or float(have) != want:
                return False
        elif str(have) != want:
            return False
    return True


def select_row(rows, selector, spec_label):
    """The single row whose fields match the selector, else exit."""
    matches = [row for row in rows.values() if row_matches(row, selector)]
    if len(matches) != 1:
        sys.exit(f"error: selector {spec_label!r} matched {len(matches)} rows "
                 f"(need exactly 1)")
    return matches[0]


def check_ratios(ratios, cur, min_cores):
    cores = os.cpu_count() or 1
    if min_cores and cores < min_cores:
        for metric, num_sel, den_sel, min_ratio, _ in ratios:
            print(f"SKIPPED: --assert-ratio {metric} >= {min_ratio}x "
                  f"({num_sel} vs {den_sel}): this host has {cores} core(s), "
                  f"below --min-cores {min_cores}. The scaling gate only "
                  "means something with enough cores to scale onto; run it "
                  "on a larger machine.")
        return False
    failed = False
    for metric, num_sel, den_sel, min_ratio, require_kernel in ratios:
        num_row = select_row(cur, num_sel, str(num_sel))
        den_row = select_row(cur, den_sel, str(den_sel))
        if require_kernel is not None:
            kernel = str(num_row.get("kernel", ""))
            if require_kernel not in kernel:
                print(f"SKIPPED: --assert-ratio {metric} >= {min_ratio}x "
                      f"({num_sel} vs {den_sel}): the run's dispatched kernel "
                      f"is {kernel!r}, which lacks required substring "
                      f"{require_kernel!r}. This speedup gate only means "
                      "something on a host whose cpuid selects that kernel "
                      "family; run it on such a machine.")
                continue
        num = num_row.get(metric)
        den = den_row.get(metric)
        if not isinstance(num, (int, float)) or not isinstance(den, (int, float)):
            sys.exit(f"error: ratio metric {metric!r} missing or non-numeric")
        if den <= 0:
            sys.exit(f"error: ratio denominator {metric} <= 0 for {den_sel}")
        ratio = num / den
        verdict = "ok" if ratio >= min_ratio else "FAIL"
        failed |= ratio < min_ratio
        print(f"{verdict:>4}  {metric} ratio {num_sel} / {den_sel}: "
              f"{num:.3f} / {den:.3f} = {ratio:.2f}x (need >= {min_ratio}x)")
    return failed


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="committed baseline BENCH json")
    parser.add_argument("current", help="freshly produced BENCH json")
    parser.add_argument("--metric", action="append", default=None,
                        help="row field to compare (lower is better); "
                             "repeatable, optional ':threshold' suffix")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="default max allowed relative regression "
                             "(0.25 = +25%%) for metrics without their own")
    parser.add_argument("--keys",
                        default="rate_rps,pipeline_depth,shards,workers,precision",
                        help="comma-separated row fields forming the match key "
                             "(a row without a precision field counts as fp32)")
    parser.add_argument("--assert-ratio", action="append", default=None,
                        help="metric:num_selector:den_selector:min_ratio — "
                             "assert a higher-is-better ratio between two "
                             "rows of the *current* run (repeatable)")
    parser.add_argument("--min-cores", type=int, default=0,
                        help="skip --assert-ratio checks and baseline metric "
                             "comparisons (loudly) when os.cpu_count() is "
                             "below this")
    args = parser.parse_args()

    metrics = parse_metrics(args.metric or ["p50_ms"], args.threshold)
    keys = [k for k in args.keys.split(",") if k]
    base_name, base = load_rows(args.baseline, keys)
    cur_name, cur = load_rows(args.current, keys)
    if base_name != cur_name:
        sys.exit(f"error: bench name mismatch: baseline={base_name!r} "
                 f"current={cur_name!r}")

    missing = sorted(set(base) - set(cur))
    if missing:
        sys.exit(f"error: current run is missing baseline rows: "
                 f"{[dict(zip(keys, k)) for k in missing]}")

    failed = False
    cores = os.cpu_count() or 1
    if args.min_cores and cores < args.min_cores:
        for metric, threshold in metrics:
            print(f"SKIPPED: {metric} vs baseline (threshold "
                  f"+{threshold:.0%}): this host has {cores} core(s), below "
                  f"--min-cores {args.min_cores}. The baseline was recorded "
                  "on an adequately sized host, so absolute numbers here are "
                  "time-sharing artifacts; compare against a same-host "
                  "re-measured baseline or run on a larger machine.")
        metrics = []
    for metric, threshold in metrics:
        print(f"{metric} vs baseline ({args.baseline}), "
              f"threshold +{threshold:.0%}:")
        for key in sorted(base):
            ref = base[key].get(metric)
            got = cur[key].get(metric)
            if not isinstance(ref, (int, float)) or not isinstance(got, (int, float)):
                sys.exit(f"error: metric {metric!r} missing or non-numeric "
                         f"for row {dict(zip(keys, key))}")
            if ref <= 0:
                sys.exit(f"error: baseline {metric} <= 0 for row "
                         f"{dict(zip(keys, key))}")
            delta = got / ref - 1.0
            verdict = "FAIL" if delta > threshold else "ok"
            failed |= delta > threshold
            label = " ".join(f"{k}={v}" for k, v in zip(keys, key))
            print(f"  {verdict:>4}  {label:<40} {ref:10.3f} -> {got:10.3f} "
                  f"({delta:+7.1%})")

    if args.assert_ratio:
        failed |= check_ratios(parse_ratios(args.assert_ratio), cur,
                               args.min_cores)

    if failed:
        print("regression detected", file=sys.stderr)
        return 1
    print("no regression")
    return 0


if __name__ == "__main__":
    sys.exit(main())
