#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py          # declaration and source checks
    PERFBENCH_RUN=1 python3 perfbench/test_perfbench.py   # + short real runs

The static tests check BENCHMARK.json against the contract the runner
relies on and against the metric names the workload sources publish. With
PERFBENCH_RUN=1 the serve workload (the fast one) runs through run.py in
both trace modes, so the names the runner prints are compared with the
declared ones on real output, and the smoke mode checks every workload.
"""

import json
import os
import re
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def declaration():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def source_names(path, pattern):
    return re.findall(pattern, (BENCH_DIR / "src" / path).read_text())


class Declaration(unittest.TestCase):
    def test_keys_and_limits(self):
        d = declaration()
        self.assertEqual(set(d), {"command", "paths", "run_seconds", "workloads",
                                  "end_to_end", "per_layer"})
        self.assertEqual(d["paths"], ["perfbench"])
        self.assertTrue(1 <= d["run_seconds"] <= 60)
        self.assertTrue(2 <= len(d["workloads"]) <= 8)
        for w in d["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        for m in d["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in d["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})

    def test_names_and_units(self):
        d = declaration()
        names = [x["name"] for x in d["workloads"] + d["end_to_end"] + d["per_layer"]]
        for n in names:
            self.assertRegex(n, NAME)
        self.assertEqual(len(names), len(set(names)), "a name is used twice")
        for m in d["end_to_end"] + d["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))

    def test_setup_metric(self):
        setup = [m for m in declaration()["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        bounds = [m["bound"] for m in declaration()["end_to_end"]]
        self.assertEqual(setup[0]["bound"], max(bounds))

    def test_workload_sources_publish_declared_names(self):
        d = declaration()
        e2e = {m["name"]: m["unit"] for m in d["end_to_end"]}
        per_layer = {m["name"]: m["unit"] for m in d["per_layer"]}
        # Every workload fills report.end_to_end with exactly the declared set.
        for src in ("llg_workload.cpp", "serve_workload.cpp"):
            block = re.search(r"report\.end_to_end = \{(.*?)\n    \};",
                              (BENCH_DIR / "src" / src).read_text(), re.S)
            self.assertIsNotNone(block, src)
            got = dict(re.findall(r'\{"([^"]+)",[^{}]*?"([^"]+)"\}', block.group(1)))
            self.assertEqual(got, e2e, src)
        # main.cpp's canonical per-layer list is the declared one, in order.
        listed = source_names("main.cpp", r'\{"([a-z]+\.[a-z0-9_]+)", 0, "([^"]+)"\}')
        self.assertEqual([n for n, _ in listed], [m["name"] for m in d["per_layer"]])
        self.assertEqual(dict(listed), per_layer)

    def test_command_names_only_benchmark_files(self):
        d = declaration()
        for arg in d["command"]:
            self.assertFalse(arg.startswith("/") or ".." in arg, arg)
        self.assertTrue((ROOT / d["command"][1]).is_file())


@unittest.skipUnless(os.environ.get("PERFBENCH_RUN") == "1", "set PERFBENCH_RUN=1")
class Runs(unittest.TestCase):
    def run_py(self, *args):
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), *args],
                              cwd=ROOT, capture_output=True, text=True, timeout=900)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        return proc.stdout.strip().splitlines()

    def test_printed_names_equal_declared(self):
        d = declaration()
        for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
            out = json.loads(self.run_py("--workload", "serve_wavenet_mix", "--seed", "5",
                                         "--seconds", "1", "--trace", trace)[-1])
            self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(out["correct"])
            self.assertEqual(out["failed"], 0)
            self.assertEqual(list(out["metrics"]), [m["name"] for m in d[kind]])
            for m in d[kind]:
                self.assertEqual(out["metrics"][m["name"]]["unit"], m["unit"])
            if kind == "end_to_end":
                for name, m in out["metrics"].items():
                    self.assertGreater(m["value"], 0, name)

    def test_smoke(self):
        lines = self.run_py("--smoke")
        results = [json.loads(l) for l in lines if l.startswith('{"workload"')]
        d = declaration()
        self.assertEqual([(r["workload"], r["trace"]) for r in results],
                         [(w["name"], t) for w in d["workloads"] for t in (0, 1)])
        for r in results:
            self.assertTrue(r["correct"], r["workload"])
            kind = "per_layer" if r["trace"] else "end_to_end"
            self.assertEqual(list(r["metrics"]), [m["name"] for m in d[kind]])
            if r["workload"] != "llg_thermal_xor":
                self.assertEqual(r["failed"], 0, r["workload"])


if __name__ == "__main__":
    unittest.main()
