#!/usr/bin/env python3
"""Repository benchmark: LLG truth tables and a served analytical mix.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload llg_maj3 --seed 1 --seconds 6 --trace 0
    python3 perfbench/run.py --smoke        # every workload, both modes, checked

The runner builds the swsim libraries, the CLI and the workload runner from
source into .bench_build/ (CMake, Release), runs the workload in its own
process, checks that every metric it prints is declared in BENCHMARK.json,
validates the trace of a traced run with `swsim trace-check`, and prints as
its last line one JSON object: correct, attempted, failed, and the metrics
of the run's kind (end-to-end with --trace 0, per-layer with --trace 1).
Workloads, metrics and their reading are described in perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
TRACE_DIR = ROOT / ".bench_build" / "traces"
WORKLOAD_BIN = BUILD_DIR / "perfbench_workload"
SWSIM_BIN = BUILD_DIR / "swsim" / "cli" / "swsim"
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_declaration():
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}", 2)


def build():
    """Configures (once) and builds the runner and the CLI."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail("no swsim source tree next to perfbench/ (need CMakeLists.txt and src/)", 2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                  "--target", "perfbench_workload", "swsim"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}", 2)


def run_workload(workload, seed, seconds, trace):
    """Runs one workload process; returns (its JSON report, trace path)."""
    cmd = [str(WORKLOAD_BIN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    trace_path = None
    if trace:
        TRACE_DIR.mkdir(parents=True, exist_ok=True)
        trace_path = TRACE_DIR / f"{workload}-seed{seed}.json"
        cmd += ["--trace-out", str(trace_path)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    sys.stderr.write(proc.stderr)
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"{workload} printed no report (exit {proc.returncode})")
    return report, trace_path


def check_names(report, decl, trace):
    """The printed metrics must be exactly the declared ones, same units."""
    kind = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in decl[kind]}
    got = {name: m["unit"] for name, m in report[kind].items()}
    if got != declared:
        missing = sorted(set(declared) - set(got))
        extra = sorted(set(got) - set(declared))
        units = sorted(n for n in set(got) & set(declared) if got[n] != declared[n])
        fail(f"{kind} metrics differ from BENCHMARK.json: missing {missing}, "
             f"undeclared {extra}, unit mismatch {units}")
    return {name: {"value": m["value"], "unit": m["unit"]}
            for name, m in report[kind].items()}


def trace_check(trace_path):
    proc = subprocess.run([str(SWSIM_BIN), "trace-check", str(trace_path)],
                          cwd=ROOT, capture_output=True, text=True)
    print(proc.stdout.strip())
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"trace-check rejected {trace_path}")


def one_run(decl, workload, seed, seconds, trace):
    report, trace_path = run_workload(workload, seed, seconds, trace)
    metrics = check_names(report, decl, trace)
    if trace_path is not None:
        trace_check(trace_path)
    return {"correct": bool(report["correct"]), "attempted": int(report["attempted"]),
            "failed": int(report["failed"]), "metrics": metrics}


def smoke(decl):
    """Every workload once untraced and once traced, outputs checked."""
    ok = True
    for w in decl["workloads"]:
        for trace in (False, True):
            result = one_run(decl, w["name"], 1, 1, trace)
            print(json.dumps({"workload": w["name"], "trace": int(trace), **result}))
            ok = ok and result["correct"]
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=6.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload once per trace mode (1 s)")
    args = ap.parse_args()

    decl = load_declaration()
    build()
    if args.smoke:
        sys.exit(0 if smoke(decl) else 1)
    names = [w["name"] for w in decl["workloads"]]
    if args.workload not in names:
        fail(f"--workload must be one of {names}", 2)
    result = one_run(decl, args.workload, args.seed, args.seconds, args.trace == 1)
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
