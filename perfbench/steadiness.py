#!/usr/bin/env python3
"""Steadiness report: repeated untraced runs of the benchmark.

    python3 perfbench/steadiness.py --runs 10 [--workload llg_maj3 ...]

Runs perfbench/run.py once per seed (1..runs) on each workload, then prints
for every end-to-end metric its values per run, median, and quartile spread
(Q3 - Q1 of statistics.quantiles(n=4), as a share of the median) against
the metric's bound in BENCHMARK.json. Each run's host.sentinel_s (the drift
sentinel: a fixed loop that calls no repository code) is printed beside
the metrics: a shift that shows in both the sentinel and a timing is
machine drift, not a code change.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SENTINEL = re.compile(r"^\s*host\.sentinel_s\s+(\S+)\s+s$", re.M)


def one(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        sys.exit(f"{workload} seed {seed} failed (exit {proc.returncode})")
    result = json.loads(lines[-1])
    m = SENTINEL.search(proc.stdout)
    result["sentinel"] = float(m.group(1)) if m else float("nan")
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def main():
    ap = argparse.ArgumentParser(description="repeat runs and report spreads")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()

    decl = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in decl["workloads"]]
    bounds = {m["name"]: m["bound"] for m in decl["end_to_end"]}
    steady = True
    for w in workloads:
        runs = []
        for i in range(args.runs):
            r = one(w, args.first_seed + i, decl["run_seconds"])
            runs.append(r)
            vals = " ".join(f"{k}={v['value']:.6g}" for k, v in r["metrics"].items())
            print(f"{w} seed {args.first_seed + i}: correct={r['correct']} "
                  f"failed={r['failed']}/{r['attempted']} sentinel={r['sentinel']:.6g} {vals}",
                  flush=True)
        print(f"\n{w}: metric, median, spread (IQR/median), bound/3")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            s = spread(values) if len(values) > 1 else 0.0
            ok = name == "setup_s" or s < bound / 3
            steady = steady and ok
            print(f"  {name:18s} {statistics.median(values):14.6g} {s:8.4f} "
                  f"{bound / 3:8.4f} {'ok' if ok else 'NOISY'}")
        sent = [r["sentinel"] for r in runs]
        if len(sent) > 1:
            print(f"  {'host.sentinel_s':18s} {statistics.median(sent):14.6g} "
                  f"{spread(sent):8.4f}  (drift reference, unbounded)\n", flush=True)
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
