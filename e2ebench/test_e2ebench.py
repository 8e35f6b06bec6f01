#!/usr/bin/env python3
"""The benchmark's own tests: a smoke size of every workload, traced and
untraced, plus the result contract, the percentile rule, the compare
step's context check and the failure in a checkout without sources.

  python3 e2ebench/test_e2ebench.py
"""

import glob
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
RESULTS = os.path.join(ROOT, ".bench_build", "e2ebench", "results")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run_py(*args, cwd=ROOT):
    return subprocess.run([sys.executable, RUN] + list(args), cwd=cwd,
                          capture_output=True, text=True, timeout=900)


class SmokeTest(unittest.TestCase):
    def check(self, workload, trace):
        proc = run_py("--workload", workload, "--seed", "7", "--seconds", "2",
                      "--trace", str(trace), "--smoke")
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(sorted(last),
                         ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(last["correct"])
        self.assertGreaterEqual(last["attempted"], 1)
        self.assertEqual(last["failed"], 0)
        section = "per_layer" if trace else "end_to_end"
        self.assertEqual(sorted(last["metrics"]),
                         sorted(m["name"] for m in SPEC[section]))
        for m in SPEC[section]:
            got = last["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"])
            self.assertIsInstance(got["value"], (int, float))
        # Every phase reports attempted and failed operations.
        for phase in ("warmup", "low", "high", "saturation", "check"):
            self.assertRegex(proc.stdout,
                             r"phase %s +attempted +\d+ failed +\d+" % phase)

    def test_workloads(self):
        # ft_flat_serve is runnable but not gated (README.md, "Workloads").
        for w in [w["name"] for w in SPEC["workloads"]] + ["ft_flat_serve"]:
            for trace in (0, 1):
                with self.subTest(workload=w, trace=trace):
                    self.check(w, trace)

    def test_percentiles_need_ten_samples_beyond(self):
        self.check("ft_flat_serve", 0)
        newest = max(glob.glob(os.path.join(RESULTS, "ft_flat_serve-*")),
                     key=os.path.getmtime)
        with open(newest) as f:
            result = json.load(f)
        self.assertEqual(result["context"]["nproc"], os.cpu_count())
        e2e = result["report"]["e2e"]
        for m in e2e.values():
            self.assertIn("n", m)
        # A smoke ingest makes a few thousand adds: enough for a p99.
        self.assertEqual(e2e["add.p99_ms"]["value"] is None,
                         e2e["add.p99_ms"]["n"] < 1000)
        # A smoke round of the low phase sends about 45 requests: enough
        # for a median, too few for a p90 with ten samples beyond it.
        self.assertIsNotNone(e2e["low.p50_ms"]["value"])
        self.assertIsNone(e2e["low.p90_ms"]["value"])
        # The CPU-time metrics read runs of samples: 50 direct queries make
        # ten bursts of 5, and a smoke ingest many runs of 200 adds.
        self.assertIsNotNone(e2e["query_cpu_ms"]["value"])
        self.assertEqual(e2e["query_cpu_ms"]["n"], 50)
        self.assertIsNotNone(e2e["add_cpu_ms"]["value"])


class CompareTest(unittest.TestCase):
    def write(self, d, name, **ctx):
        context = {"nproc": 4, "cpu_model": "cpu", "build_type": "Release",
                   "compiler": "c++", "kernel_tier": "avx2",
                   "workload": "ft_flat_serve", "seconds": 20, "smoke": False,
                   "trace": 0, "seed": 1}
        context.update(ctx)
        e2e = {m["name"]: {"value": 1.0, "unit": m["unit"], "n": 1}
               for m in SPEC["end_to_end"]}
        path = os.path.join(d, name)
        with open(path, "w") as f:
            json.dump({"context": context, "report": {"e2e": e2e}}, f)
        return path

    def test_refuses_differing_contexts(self):
        with tempfile.TemporaryDirectory() as d:
            a = self.write(d, "a.json")
            b = self.write(d, "b.json", cpu_model="other cpu", seed=2)
            c = self.write(d, "c.json", seed=3)
            refused = run_py("compare", "--base", a, "--new", b)
            self.assertNotEqual(refused.returncode, 0)
            self.assertIn("cpu_model", refused.stderr)
            same = run_py("compare", "--base", a, "--new", c)
            self.assertEqual(same.returncode, 0, same.stderr)


class BareCheckoutTest(unittest.TestCase):
    def test_fails_without_sources(self):
        bare = tempfile.mkdtemp(dir=os.path.join(ROOT, ".bench_build"))
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "e2ebench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "e2ebench/run.py", "--workload",
                 "ft_flat_serve", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
