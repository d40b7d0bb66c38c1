"""The benchmark's own tests: percentile and self-time math, and a
reduced-size smoke of every workload that must pass the correctness gate
twice with the same digest.

Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The smoke tests build the runner on first use (about a minute on 4 cores).
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond_it(self):
        samples = list(range(1, 1001))
        self.assertEqual(run.percentile(samples[::-1], 0.99), 990)
        self.assertIsNone(run.percentile(samples[:999], 0.99))

    def test_median_is_nearest_rank(self):
        self.assertEqual(run.percentile(list(range(1, 22)), 0.5), 11)
        self.assertEqual(run.percentile(list(range(1, 23)), 0.5), 11)

    def test_empty(self):
        self.assertIsNone(run.percentile([], 0.5))

    def test_histogram_interpolates_inside_bucket(self):
        bounds = [10, 20, 50]
        # 10 values in (0, 10], 30 in (10, 20], none above.
        buckets = [10, 30, 0, 0]
        self.assertAlmostEqual(
            run.histogram_percentile(bounds, buckets, 0.25), 10.0)
        self.assertAlmostEqual(
            run.histogram_percentile(bounds, buckets, 0.5), 10 + 10 * 10 / 30)
        self.assertEqual(run.histogram_percentile(bounds, [0, 0, 0, 5], 0.5),
                         50)
        self.assertIsNone(run.histogram_percentile(bounds, [0] * 4, 0.5))


class SelfTimeTest(unittest.TestCase):
    S = 1_000_000_000  # ns per second

    def test_self_time_subtracts_children(self):
        s = self.S
        spans = [["workload", 0, 10 * s, -1],
                 ["setup", 0, 4 * s, 0],
                 ["graph.generate", 0, 1 * s, 1],
                 ["graph.validate", 1 * s, 3 * s, 1],
                 ["run", 4 * s, 9 * s, 0],
                 ["lb.run_round", 4 * s, 6 * s, 4],
                 ["lb.run_round", 6 * s, 8 * s, 4]]
        t = run.self_times(spans)
        self.assertAlmostEqual(t["workload"], 1.0)  # 9..10 s uncovered
        self.assertAlmostEqual(t["setup"], 1.0)     # 3..4 s uncovered
        self.assertAlmostEqual(t["graph.validate"], 2.0)
        self.assertAlmostEqual(t["run"], 1.0)
        self.assertAlmostEqual(t["lb.run_round"], 4.0)  # summed by name
        self.assertAlmostEqual(sum(t.values()), 10.0)

    def test_overlapping_children_count_once(self):
        s = self.S
        spans = [["a", 0, 10 * s, -1],
                 ["b", 1 * s, 5 * s, 0],
                 ["c", 3 * s, 12 * s, 0]]  # overlaps b and overruns a
        self.assertAlmostEqual(run.self_times(spans)["a"], 1.0)

    def test_campaign_setup_sample_is_one_parse(self):
        s = self.S
        rep = {"spans": [["workload", 0, 10 * s, -1],
                         ["setup", 0, 4 * s, 0],
                         ["scn.parse", 0, 1 * s, 1],
                         ["setup", 4 * s, 6 * s, 0]],
               "parses_per_setup": 2}
        self.assertEqual(run.setup_samples(rep), [2.0, 1.0])
        del rep["parses_per_setup"]  # single simulations: one set-up each
        self.assertEqual(run.setup_samples(rep), [4.0, 2.0])

    def test_layer_rows_account_for_wall(self):
        s = self.S
        rep = {"spans": [["workload", 0, 10 * s, -1],
                         ["run", 1 * s, 9 * s, 0],
                         ["lb.run_round", 1 * s, 9 * s, 1]],
               "telemetry": {"timing": {"counters": {
                   "engine.round.ns": 6 * s,
                   "engine.phase.transmit.ns": 2 * s,
                   "engine.phase.compute.ns": 3 * s}}}}
        rows = run.layer_rows("geo_dense", rep)
        self.assertAlmostEqual(rows["lb.env"], 2.0)
        self.assertAlmostEqual(rows["engine.round.other"], 1.0)
        self.assertAlmostEqual(rows["unattributed_s"], 2.0)
        self.assertAlmostEqual(sum(rows.values()), 10.0)


class ManifestTest(unittest.TestCase):
    def test_benchmark_json_names_what_run_py_reports(self):
        manifest = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in manifest["workloads"]],
                         list(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"]
                          for m in manifest["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"]
                          for m in manifest["per_layer"]}, run.PER_LAYER)


def smoke(workload, trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "0", "--trace", str(trace), "--smoke"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        check=True, timeout=600).stdout.splitlines()
    digests = {line.split()[-1] for line in out if line.startswith("digest ")}
    return json.loads(out[-1]), digests, out


class SmokeTest(unittest.TestCase):
    def test_every_workload_passes_gate_twice_with_one_digest(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                first, d1, _ = smoke(workload, 0)
                second, d2, _ = smoke(workload, 0)
                self.assertTrue(first["correct"])
                self.assertTrue(second["correct"])
                self.assertEqual(len(d1), 1)
                self.assertEqual(d1, d2)
                self.assertEqual(set(first["metrics"]), set(run.END_TO_END))
                self.assertEqual(first["failed"], 0)

    def test_traced_run_reports_every_layer_metric(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                result, digests, lines = smoke(workload, 1)
                self.assertTrue(result["correct"])
                self.assertEqual(len(digests), 1)
                self.assertEqual(set(result["metrics"]), set(run.PER_LAYER))
                self.assertTrue(any(line.startswith("unattributed_s")
                                    for line in lines))


if __name__ == "__main__":
    unittest.main()
