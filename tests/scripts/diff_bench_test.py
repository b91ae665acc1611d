#!/usr/bin/env python3
"""scripts/diff_bench.py: exact on simulated fields, notes on wall-clock ones.

Runs under ctest as scripts_diff_bench_test, or directly:
    python3 tests/scripts/diff_bench_test.py
"""
import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..",
                      "scripts", "diff_bench.py")

BENCH = {
    "schema": "canopus-bench-v1",
    "figure": "chaos",
    "threads": 4,
    "wall_clock_seconds": 12.5,
    "events_processed": 123456,
    "scalars": {"violations_total": 0},
    "series": [{"name": "Canopus / medium / seed 1",
                "scalars": {"committed_writes": 5120, "violations": 0}}],
}

MICRO = {
    "context": {"num_cpus": 4},
    "benchmarks": [{"name": "BM_NetworkDelivery", "run_type": "iteration",
                    "real_time": 120.0, "time_unit": "ns"}],
}


class DiffBenchTest(unittest.TestCase):
    def setUp(self):
        tmp = tempfile.TemporaryDirectory()
        self.addCleanup(tmp.cleanup)
        self.dir = tmp.name

    def run_diff(self, *paths):
        return subprocess.run([sys.executable, SCRIPT, *paths],
                              capture_output=True, text=True)

    def diff_docs(self, a, b):
        paths = []
        for name, doc in (("a.json", a), ("b.json", b)):
            paths.append(os.path.join(self.dir, name))
            with open(paths[-1], "w") as f:
                json.dump(doc, f)
        return self.run_diff(*paths)

    def test_equal_documents_are_identical(self):
        r = self.diff_docs(BENCH, copy.deepcopy(BENCH))
        self.assertEqual(r.returncode, 0)
        self.assertEqual(r.stdout, "identical\n")

    def test_changed_simulated_scalar_fails_and_names_its_path(self):
        b = copy.deepcopy(BENCH)
        b["series"][0]["scalars"]["committed_writes"] += 1
        r = self.diff_docs(BENCH, b)
        self.assertEqual(r.returncode, 1)
        self.assertIn("$.series[0].scalars.committed_writes: 5120 vs 5121",
                      r.stdout)

    def test_wall_clock_change_only_prints_a_note(self):
        b = copy.deepcopy(BENCH)
        b["wall_clock_seconds"] *= 2
        b["threads"] = 1
        r = self.diff_docs(BENCH, b)
        self.assertEqual(r.returncode, 0)
        self.assertIn("note: $.wall_clock_seconds: 12.5 -> 25.0", r.stdout)
        self.assertIn("note: $.threads: 4 -> 1", r.stdout)
        self.assertTrue(r.stdout.endswith("identical\n"))

    def test_google_benchmark_pair_never_fails(self):
        b = copy.deepcopy(MICRO)
        b["context"]["num_cpus"] = 1
        b["benchmarks"][0]["real_time"] = 480.0
        b["benchmarks"].append({"name": "BM_New", "real_time": 1.0})
        r = self.diff_docs(MICRO, b)
        self.assertEqual(r.returncode, 0)
        self.assertIn("note: BM_NetworkDelivery: real_time 120 ns -> 480 ns",
                      r.stdout)
        self.assertIn("note: BM_New: only in B", r.stdout)

    def test_unreadable_file_exits_2_with_a_message(self):
        truncated = os.path.join(self.dir, "truncated.json")
        with open(truncated, "w") as f:
            f.write('{"schema": "canopus-bench-v1", "series": [')
        for bad in (truncated, os.path.join(self.dir, "missing.json")):
            r = self.run_diff(bad, truncated)
            self.assertEqual(r.returncode, 2)
            self.assertIn(f"cannot read {bad}", r.stderr)
            self.assertNotIn("Traceback", r.stderr)


if __name__ == "__main__":
    unittest.main()
