#!/usr/bin/env python3
"""Measure the benchmark the way its acceptance check does; optionally
record the result as the baseline.

Run from the root of a source checkout:

    python3 perfbench/record_baseline.py [--write]

For every workload it makes two sets of ``run.py --trace 0`` runs, one
run per seed 1-10 in each set and run_seconds from BENCHMARK.json each,
one run after another.  For each end-to-end metric it prints, per set,
the median, quartiles and spread (interquartile distance over the median,
as ``statistics.quantiles(values, n=4)`` gives them) against the metric's
bound, and the change of the second set's median against the first's.
With --write it first records the output SHA-256 of every workload at
the default seed into ``sha256.json`` (the correctness gate reads it), and
at the end those statistics and the exact per-unit counts of one
``--trace 1`` run per workload at the default seed into ``baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run as bench  # noqa: E402
import workloads as W  # noqa: E402

BENCHMARK_JSON = "BENCHMARK.json"
SEEDS = range(1, 11)
SETS = 2


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: run not correct\n{proc.stdout}")
    return result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def record_sha(workload):
    runner = bench.Runner(os.getcwd(), workload, W.DEFAULT_SEED, tiny=False)
    runner.expected_sha = None
    try:
        sample = runner.invoke(trace=0)
    finally:
        runner.cleanup()
    if not sample["correct"]:
        raise SystemExit(f"{workload}: {runner.reasons}")
    return runner.first_sha


def worse_by(first, second, better):
    """How much worse the second median is than the first, as a share."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--write", action="store_true", help="rewrite baseline.json")
    args = ap.parse_args()
    with open(BENCHMARK_JSON) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    if args.write:
        shas = {name: record_sha(name) for name in W.WORKLOADS}
        with open(bench.SHA_FILE, "w") as fh:
            json.dump(shas, fh, indent=2)
            fh.write("\n")

    end_to_end = {}
    worst = 0.0
    for name in W.WORKLOADS:
        sets = []
        for k in range(SETS):
            runs = [run_once(name, seed, seconds, 0) for seed in SEEDS]
            sets.append({metric: spread([r["metrics"][metric]["value"] for r in runs])
                         for metric in metrics})
            for metric, m in metrics.items():
                stats = sets[-1][metric]
                ratio = stats["spread"] / m["bound"]
                worst = max(worst, ratio)
                print(f"{name:<24} set {k + 1} {metric:<12} median {stats['median']:<10.6g}"
                      f" q1 {stats['q1']:<10.6g} q3 {stats['q3']:<10.6g} spread "
                      f"{stats['spread']:.4f} ({ratio:.2f} of bound {m['bound']})",
                      flush=True)
        for metric, m in metrics.items():
            drift = worse_by(sets[0][metric]["median"], sets[-1][metric]["median"],
                             m["better"])
            worst = max(worst, drift / m["bound"])
            print(f"{name:<24} {metric:<12} set {SETS} median worse than set 1 by "
                  f"{drift:+.4f} ({drift / m['bound']:+.2f} of bound {m['bound']})")
        end_to_end[name] = {metric: [s[metric] for s in sets] for metric in metrics}
    print(f"largest spread or drift over bound, setup_s included: {worst:.2f}")

    if not args.write:
        return
    counts = {}
    for name in W.WORKLOADS:
        traced = run_once(name, W.DEFAULT_SEED, seconds, 1)
        counts[name] = {k: m["value"] for k, m in traced["metrics"].items()
                        if m["unit"].startswith("count")}
    baseline = {
        "default_seed": W.DEFAULT_SEED,
        "environment": bench.environment(),
        "runs": {"sets": SETS, "seeds": list(SEEDS), "seconds": seconds,
                 "per_run": "invocations timed as a whole; wall_s is their mean, "
                            "units_per_s units over summed work time, setup_s and "
                            "peak_rss_mb medians (see run.end_to_end)"},
        "workloads": {
            name: {"why": wl.why, "unit": wl.unit, "units_per_invocation": wl.size}
            for name, wl in W.WORKLOADS.items()
        },
        "metrics": {m["name"]: {"unit": m["unit"], "better": m["better"]}
                    for m in spec["end_to_end"] + spec["per_layer"]},
        "end_to_end": end_to_end,
        "traced_counts_at_default_seed": counts,
    }
    with open(os.path.join(HERE, "baseline.json"), "w") as fh:
        json.dump(baseline, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
