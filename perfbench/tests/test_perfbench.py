#!/usr/bin/env python3
"""Self-test of the repo benchmark.

    python3 perfbench/tests/test_perfbench.py

Runs every workload of BENCHMARK.json at a tiny size through perfbench/run.py
and checks that:
  * each run prints, as its last line, a JSON result with every metric that
    BENCHMARK.json names (end-to-end untraced, per-layer traced), each with
    its unit;
  * a traced run writes a parseable span file in which every parent resolves;
  * a deliberately wrong correctness pin makes the gate fail (no timing, a
    nonzero exit);
  * without the src/ tree next to it, the benchmark fails without a result.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(ROOT, "perfbench", "run.py")
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, *extra, cwd=ROOT, script=RUN):
    proc = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc, lines


def result_of(lines):
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


class BenchmarkSelfTest(unittest.TestCase):
    def check_metrics(self, result, expected):
        names = [m["name"] for m in expected]
        self.assertEqual(sorted(result["metrics"]), sorted(names))
        for m in expected:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_untraced_runs_print_every_end_to_end_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc, lines = run(workload, 0)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result = result_of(lines)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.check_metrics(result, SPEC["end_to_end"])
                for m in SPEC["end_to_end"]:
                    self.assertGreater(result["metrics"][m["name"]]["value"], 0)
                self.assertTrue(any(l.startswith("HOST {") for l in lines))
                self.assertIn('LAW {"residual_us":[0,0,0,0]}', lines)

    def test_traced_runs_print_every_layer_and_resolvable_spans(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc, lines = run(workload, 1)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result = result_of(lines)
                self.assertTrue(result["correct"])
                self.check_metrics(result, SPEC["per_layer"])
                span_lines = [l for l in lines if l.startswith("SPANS ")]
                self.assertEqual(len(span_lines), 1)
                with open(span_lines[0][len("SPANS "):]) as f:
                    doc = json.load(f)
                self.assertIn("host", doc)
                spans = doc["spans"]
                self.assertTrue(spans)
                ids = {s["id"] for s in spans}
                self.assertEqual(len(ids), len(spans))
                for s in spans:
                    self.assertTrue(s["parent"] == 0 or s["parent"] in ids, s)
                    self.assertEqual(s["run"], doc["run_id"])
                    self.assertLessEqual(s["start_ns"], s["end_ns"])
                names = {s["name"] for s in spans}
                self.assertIn("workload", names)
                self.assertIn("gate.latency_law", names)

    def test_wrong_pin_fails_the_gate(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc, lines = run(workload, 0, "--pin-offset", "1")
                self.assertNotEqual(proc.returncode, 0)
                result = result_of(lines)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)
                self.assertEqual(result["metrics"], {})

    def test_fails_without_the_source_tree(self):
        bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(os.path.join(ROOT, "perfbench"),
                        os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            proc, lines = run(WORKLOADS[0], 0, cwd=bare,
                              script=os.path.join(bare, "perfbench", "run.py"))
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(lines, [])
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
