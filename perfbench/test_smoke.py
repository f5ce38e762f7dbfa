#!/usr/bin/env python3
"""Smoke tests of the benchmark itself.

    python3 perfbench/test_smoke.py

Checks `BENCHMARK.json` against the benchmark's schema, runs every
workload for one second in both modes and checks each result line
against it, and checks that a directory holding only the benchmark
fails without printing a result. Run from anywhere; it builds first.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, seconds=1, seed=7, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=900, check=False,
    )


class Schema(unittest.TestCase):
    def test_benchmark_json(self):
        b = spec()
        self.assertEqual(
            set(b), {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"})
        self.assertTrue(1 <= len(b["paths"]) <= 16)
        for path in b["paths"]:
            self.assertRegex(path, r"^[A-Za-z0-9_./-]{1,200}$")
            self.assertTrue((ROOT / path).is_dir())
        self.assertTrue(len(b["command"]) <= 32)
        self.assertTrue(1 <= b["run_seconds"] <= 60)
        self.assertTrue(2 <= len(b["workloads"]) <= 8)
        for w in b["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertRegex(w["name"], NAME)
            self.assertTrue(len(w["why"]) <= 200 and "\n" not in w["why"])
        names = [m["name"] for m in b["end_to_end"] + b["per_layer"]]
        names += [w["name"] for w in b["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for m in b["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in b["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in b["end_to_end"] + b["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        setup = [m for m in b["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in b["end_to_end"]))

    def test_runs_read_no_generated_report(self):
        """Reference rows are embedded: no run reads a file under results/,
        so no output can depend on a gitignored report there."""
        for source in (BENCH_DIR / "src").glob("*.rs"):
            code = source.read_text().split("#[cfg(test)]")[0]
            lines = [line for line in code.splitlines() if not line.strip().startswith("//")]
            self.assertNotIn("results/", "\n".join(lines), source.name)


class Runs(unittest.TestCase):
    def check_result(self, workload, trace):
        out = run(workload, trace)
        self.assertEqual(out.returncode, 0, out.stderr[-2000:])
        result = json.loads(out.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True, out.stdout[-2000:])
        self.assertEqual(result["failed"], 0)
        self.assertIsInstance(result["attempted"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        expected = spec()["per_layer" if trace else "end_to_end"]
        self.assertEqual(list(result["metrics"]), [m["name"] for m in expected])
        for m in expected:
            got = result["metrics"][m["name"]]
            self.assertEqual(set(got), {"value", "unit"})
            self.assertEqual(got["unit"], m["unit"])
            self.assertIsInstance(got["value"], (int, float))
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])
        return result

    def test_every_workload_both_modes(self):
        for w in spec()["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    result = self.check_result(w["name"], trace)
                    if trace and w["name"].startswith("surface_"):
                        metrics = result["metrics"]
                        self.assertEqual(metrics["trace.twin_match"]["value"], 1.0)
                        self.assertGreaterEqual(metrics["trace.coverage"]["value"], 0.9)

    def test_unknown_workload_is_refused(self):
        out = run("no_such_workload", 0)
        self.assertNotEqual(out.returncode, 0)

    def test_benchmark_alone_fails_without_result(self):
        alone = ROOT / ".bench_build" / "smoke-alone"
        shutil.rmtree(alone, ignore_errors=True)
        alone.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", alone)
        shutil.copytree(BENCH_DIR, alone / "perfbench",
                        ignore=shutil.ignore_patterns("target", "__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=str(alone / ".bench_build"))
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "surface_d3", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=alone, env=env, capture_output=True, text=True, timeout=180, check=False)
        shutil.rmtree(alone, ignore_errors=True)
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn('"metrics"', out.stdout)


if __name__ == "__main__":
    unittest.main()
