#!/usr/bin/env python3
"""Self-tests of the benchmark (about a minute):

    python3 perfbench/selftest.py

  * the metric catalogue of the perfbench binary matches BENCHMARK.json,
    name for name and unit for unit;
  * a short tier of every workload runs, traced and untraced, passes its
    correctness gate and reports exactly the BENCHMARK.json metrics;
  * a corrupted certifier verdict, a corrupted served reply, and an
    Unknown cell or campaign mismatch in a served reply each make the
    gate fail;
  * compare.py reads result sets and finds no regression of a result
    set against itself.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

RESULTS = os.path.join(run.ROOT, ".bench_results", "selftest")


def bench(workload, trace, *extra):
    """Runs run.py on the short tier; returns (report, result line)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--short",
           "--results", RESULTS] + list(extra)
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise AssertionError("run.py failed: " + proc.stderr[-2000:])
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


class Catalogue(unittest.TestCase):
    def test_names_and_units_match_benchmark_json(self):
        listed = json.loads(subprocess.run([run.build(), "--list-metrics"],
                                           capture_output=True, text=True,
                                           check=True).stdout)
        spec = run.benchmark_spec()
        for scope in ("end_to_end", "per_layer"):
            want = {m["name"]: m["unit"] for m in spec[scope]}
            got = {n: m["unit"] for n, m in listed.items() if m["scope"] == scope}
            self.assertEqual(want, got, scope)


class ShortTier(unittest.TestCase):
    def check(self, workload):
        spec = run.benchmark_spec()
        for trace, scope in ((0, "end_to_end"), (1, "per_layer")):
            report, line = bench(workload, trace)
            self.assertTrue(line["correct"], report["failures"])
            self.assertEqual(line["failed"], 0)
            self.assertGreaterEqual(line["attempted"], 1)
            self.assertEqual(set(line["metrics"]), {m["name"] for m in spec[scope]})
            for m in line["metrics"].values():
                self.assertIsInstance(m["value"], (int, float))

    def test_flow(self):
        self.check("flow")

    def test_certify_local(self):
        self.check("certify_local")

    def test_certify_dense(self):
        self.check("certify_dense")

    def test_serve_mixed(self):
        self.check("serve_mixed")


class Gate(unittest.TestCase):
    def test_corrupted_verdict_fails_the_gate(self):
        report, line = bench("certify_local", 0, "--corrupt", "verdict")
        self.assertFalse(line["correct"])
        self.assertGreater(line["failed"], 0)
        self.assertTrue(any("oracle" in f for f in report["failures"]))

    def test_corrupted_reply_fails_the_gate(self):
        report, line = bench("serve_mixed", 0, "--corrupt", "reply")
        self.assertFalse(line["correct"])
        self.assertTrue(any("in-process" in f for f in report["failures"]))

    def test_served_unknown_cells_and_mismatches_fail_the_gate(self):
        report, line = bench("serve_mixed", 0, "--corrupt", "summary")
        self.assertFalse(line["correct"])
        self.assertTrue(any("Unknown" in f for f in report["failures"]))
        self.assertTrue(any("mismatches" in f for f in report["failures"]))


class Compare(unittest.TestCase):
    def test_result_set_does_not_regress_against_itself(self):
        bench("flow", 0)
        proc = subprocess.run([sys.executable, os.path.join(HERE, "compare.py"),
                               RESULTS, RESULTS], capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("p50_ms", proc.stdout)
        self.assertNotIn("REGRESSION", proc.stdout)


if __name__ == "__main__":
    shutil.rmtree(RESULTS, ignore_errors=True)
    unittest.main()
