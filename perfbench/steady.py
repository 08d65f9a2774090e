#!/usr/bin/env python3
"""Steadiness of the benchmark: run one workload k times (seeds 1..k,
or the seeds given) and print, for each metric, the median, the
quartiles, min/max and the quartile spread as a share of the median.
The bounds in BENCHMARK.json are set from this output.

Usage, from the repository root:
    python3 perfbench/steady.py --workload ld-commit --k 10 [--seconds 30]
        [--trace 0|1] [--seeds 11,12,13]
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds, trace):
    out = subprocess.run(
        ["bash", "perfbench/run.sh", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        check=True, capture_output=True, text=True).stdout
    lines = out.strip().splitlines()
    probe = next((l for l in lines if l.startswith("drift probe:")), "")
    return json.loads(lines[-1]), probe


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--k", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--seeds", default="")
    a = ap.parse_args()
    seeds = ([int(s) for s in a.seeds.split(",")] if a.seeds
             else list(range(1, a.k + 1)))
    runs = []
    for seed in seeds:
        res, probe = run_once(a.workload, seed, a.seconds, a.trace)
        share = res["failed"] / res["attempted"]
        vals = " ".join(f"{k}={v['value']:.4g}"
                        for k, v in res["metrics"].items())
        print(f"seed {seed}: correct={res['correct']} "
              f"attempted={res['attempted']} failed share={share:.6f}  "
              f"{probe.split(' (')[0]}\n  {vals}", flush=True)
        if not res["correct"]:
            sys.exit(f"seed {seed}: outputs were not correct")
        runs.append(res["metrics"])
    print(f"\n{a.workload}, {len(runs)} runs of {a.seconds} s, trace {a.trace}")
    print(f"{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'min':>12} {'max':>12} {'iqr/med':>8}")
    for name, first in runs[0].items():
        vals = [r[name]["value"] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                     else (vals[0], 0, vals[0]))
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:34} {med:12.5g} {q1:12.5g} {q3:12.5g} {min(vals):12.5g} "
              f"{max(vals):12.5g} {spread:8.4f}  {first['unit']}")


if __name__ == "__main__":
    main()
