#!/usr/bin/env python3
"""Compare two sets of benchmark results, or show the spread of one.

A result set is a directory holding one subdirectory per workload, each
with one file per run whose last line is the JSON object run.py printed:

    results/base/paper_cells/seed1.json
    results/base/paper_cells/seed2.json
    ...

Collect one like this (from the repository root):

    for s in 1 2 3 4 5 6 7 8 9 10; do
      python3 perfbench/run.py --workload paper_cells --seed $s \\
        --seconds 10 --trace 0 > results/base/paper_cells/seed$s.json
    done

    python3 perfbench/compare.py results/base             # spread of one set
    python3 perfbench/compare.py results/base results/head  # base vs head

With one set it prints, per workload and metric, the median and the
interquartile range as a share of the median next to the metric's bound
(the benchmark is steady when each spread is below a third of its bound).

With two sets it prints both medians and quartiles and the pair-win share:
runs are paired by file name (the same seed on both sides), and head wins a
pair when its value is better in the metric's direction; ties count for
neither side. The verdict follows the rules in README.md: a gain needs a
win share of at least 0.9 and a median difference larger than the base
set's own interquartile range; a regression is a median worse than the
base median by more than the metric's bound. When any head run reports
correct=false, or the head runs failed more ops than the base runs, every
metric of that workload is INVALID (a faster wrong result is no gain) and
the exit code is 1.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_spec():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {}
    for m in spec["end_to_end"]:
        metrics[m["name"]] = dict(m)
    for m in spec["per_layer"]:
        metrics[m["name"]] = dict(m, bound=None)
    return metrics


def load_set(root):
    """{workload: {run name: {"correct", "attempted", "failed", "metrics"}}},
    with "metrics" as {metric: value}."""
    runs = {}
    for workload in sorted(os.listdir(root)):
        wdir = os.path.join(root, workload)
        if not os.path.isdir(wdir):
            continue
        for name in sorted(os.listdir(wdir)):
            with open(os.path.join(wdir, name)) as f:
                lines = [l for l in f.read().splitlines() if l.strip()]
            if not lines:
                continue
            try:
                result = json.loads(lines[-1])
            except ValueError:
                print(f"skipping {wdir}/{name}: no result line",
                      file=sys.stderr)
                continue
            if not result.get("correct", False):
                print(f"warning: {wdir}/{name} reports correct=false",
                      file=sys.stderr)
            runs.setdefault(workload, {})[name] = {
                "correct": bool(result.get("correct", False)),
                "attempted": int(result.get("attempted", 0)),
                "failed": int(result.get("failed", 0)),
                "metrics": {k: v["value"]
                            for k, v in result["metrics"].items()}}
    return runs


def invalid_reason(base_runs, head_runs):
    """Why the head runs of one workload cannot be compared, or None."""
    wrong = sorted(n for n, r in head_runs.items() if not r["correct"])
    if wrong:
        return f"head runs report correct=false: {', '.join(wrong)}"
    base_failed = sum(r["failed"] for r in base_runs.values())
    head_failed = sum(r["failed"] for r in head_runs.values())
    if head_failed > base_failed:
        return f"head failed {head_failed} ops, base {base_failed}"
    return None


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(root, spec):
    runs = load_set(root)
    print(f"{'workload':14} {'metric':40} {'n':>3} {'median':>12} "
          f"{'IQR/med':>8} {'bound':>6}  verdict")
    for workload, by_run in runs.items():
        by_name = {n: r["metrics"] for n, r in by_run.items()}
        names = sorted({m for r in by_name.values() for m in r})
        for metric in names:
            values = [r[metric] for r in by_name.values() if metric in r]
            q1, med, q3 = quartiles(values)
            share = (q3 - q1) / med if med else float("inf")
            bound = spec.get(metric, {}).get("bound")
            if bound is None:
                verdict = ""
            elif share < bound / 3:
                verdict = "steady"
            elif share <= bound:
                verdict = "within bound"
            else:
                verdict = "TOO NOISY"
            print(f"{workload:14} {metric:40} {len(values):3d} {med:12.6g} "
                  f"{share:8.3f} {bound if bound is not None else '':>6}  "
                  f"{verdict}")


def compare(base_root, head_root, spec):
    base = load_set(base_root)
    head = load_set(head_root)
    print(f"{'workload':14} {'metric':40} {'base med [q1, q3]':>30} "
          f"{'head med [q1, q3]':>30} {'delta':>7} {'wins':>5}  verdict")
    any_invalid = False
    for workload in sorted(set(base) & set(head)):
        invalid = invalid_reason(base[workload], head[workload])
        any_invalid = any_invalid or invalid is not None
        if invalid:
            print(f"{workload:14} INVALID: {invalid}")
        b_runs = {n: r["metrics"] for n, r in base[workload].items()}
        h_runs = {n: r["metrics"] for n, r in head[workload].items()}
        paired = sorted(set(b_runs) & set(h_runs))
        if not paired:  # no shared names: pair in sorted order
            paired = list(zip(sorted(b_runs), sorted(h_runs)))
        else:
            paired = [(n, n) for n in paired]
        names = sorted({m for r in b_runs.values() for m in r})
        for metric in names:
            info = spec.get(metric, {"better": "lower", "bound": None})
            lower = info["better"] == "lower"
            bv = [r[metric] for r in b_runs.values() if metric in r]
            hv = [r[metric] for r in h_runs.values() if metric in r]
            if not bv or not hv:
                continue
            bq1, bmed, bq3 = quartiles(bv)
            hq1, hmed, hq3 = quartiles(hv)
            wins = 0
            for bn, hn in paired:
                b, h = b_runs[bn].get(metric), h_runs[hn].get(metric)
                if b is None or h is None or b == h:
                    continue
                wins += (h < b) if lower else (h > b)
            share = wins / len(paired) if paired else 0.0
            delta = (hmed - bmed) / bmed if bmed else 0.0
            improved = hmed < bmed if lower else hmed > bmed
            worse_by = -delta if not lower else delta
            bound = info.get("bound")
            if invalid:
                verdict = "INVALID"
            elif (share >= 0.9 and abs(hmed - bmed) > (bq3 - bq1)
                  and improved):
                verdict = "GAIN"
            elif bound is not None and worse_by > bound:
                verdict = "REGRESSION"
            elif bound is not None and bmed and (bq3 - bq1) / bmed > bound:
                verdict = "unresolved (base spread > bound)"
            else:
                verdict = "no change"
            print(f"{workload:14} {metric:40} "
                  f"{bmed:11.5g} [{bq1:.4g}, {bq3:.4g}]".ljust(87) +
                  f" {hmed:11.5g} [{hq1:.4g}, {hq3:.4g}]".ljust(31) +
                  f" {delta:+7.1%} {share:5.2f}  {verdict}")
    return any_invalid


def main():
    if len(sys.argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    spec = load_spec()
    if len(sys.argv) == 2:
        spread(sys.argv[1], spec)
    else:
        sys.exit(1 if compare(sys.argv[1], sys.argv[2], spec) else 0)


if __name__ == "__main__":
    main()
