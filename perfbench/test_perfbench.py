#!/usr/bin/env python3
"""The benchmark's own tests: a smoke-size run of every workload passes its
correctness checks and prints exactly the metrics BENCHMARK.json names, with
their units, in both modes; the traced run writes a Chrome trace.

    python3 perfbench/test_perfbench.py      # from the root of the checkout

The first test builds perfbench into .bench_build/ if needed.
"""

import importlib.util
import json
import os
import re
import subprocess
import sys
import unittest

ROOT = os.getcwd()
RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def load_run_module():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(workload, trace, seed=0):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise AssertionError(f"run.py failed:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = load_spec()

    def test_spec_names_are_well_formed(self):
        names = [w["name"] for w in self.spec["workloads"]]
        for group in ("end_to_end", "per_layer"):
            names += [m["name"] for m in self.spec[group]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)

    def check_result(self, result, group):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        expected = {m["name"]: m["unit"] for m in self.spec[group]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, expected)
        for name, m in result["metrics"].items():
            self.assertRegex(name, NAME)
            self.assertIsInstance(m["value"], (int, float), name)

    def test_failed_first_repetition_reports_every_op_failed(self):
        # measure() stops after a failing repetition, so with tracing on no
        # traced repetition exists; both modes must still report a result.
        rep = {"traced": False, "correct": False, "attempted": 7, "failed": 7,
               "errors": ["forced failure"], "wall_s": 1.5, "slice_host_s": [1.5],
               "setup_s": 0.25, "peak_rss_mb": 40.0, "exact": {"sim.events": 100.0},
               "trace_metrics": {}}
        summarize = load_run_module().summarize
        for trace, group in ((False, "end_to_end"), (True, "per_layer")):
            with self.subTest(trace=trace):
                result = summarize([rep], trace)
                self.assertFalse(result["correct"])
                self.assertEqual(result["attempted"], 7)
                self.assertEqual(result["failed"], 7)
                self.assertEqual(set(result["metrics"]),
                                 {m["name"] for m in self.spec[group]})

    def test_wall_is_sum_of_fastest_slices(self):
        reps = [{"slice_host_s": [1.0, 5.0, 2.0]}, {"slice_host_s": [3.0, 4.0, 2.5]}]
        self.assertEqual(load_run_module().best_slices(reps), 1.0 + 4.0 + 2.0)

    def test_every_workload_smoke(self):
        for w in self.spec["workloads"]:
            with self.subTest(workload=w["name"]):
                result = run(w["name"], trace=0)
                self.check_result(result, "end_to_end")
                for m in result["metrics"].values():
                    self.assertGreater(m["value"], 0)

    def test_every_workload_traced(self):
        for w in self.spec["workloads"]:
            with self.subTest(workload=w["name"]):
                result = run(w["name"], trace=1)
                self.check_result(result, "per_layer")
                self.assertGreater(result["metrics"]["sim.events"]["value"], 0)
                path = os.path.join(ROOT, ".bench_build", "traces",
                                    f"{w['name']}-seed0.json")
                with open(path) as f:
                    events = json.load(f)["traceEvents"]
                self.assertTrue(events)
                for e in events:
                    self.assertEqual(e["ph"], "X")
                    self.assertGreaterEqual(e["dur"], 0)
                    self.assertIn("parent", e["args"])
                self.assertIn("sim.slice", {e["name"] for e in events})
                if w["name"] == "connect":  # full paper scale even with --smoke
                    metrics = result["metrics"]
                    self.assertLessEqual(metrics["wf.table1_err_pct"]["value"], 5.0)
                    self.assertEqual(metrics["core.files_fetched"]["value"], 112249)


if __name__ == "__main__":
    unittest.main()
