#!/usr/bin/env python3
"""Unit tests of tools/bench_record.py's parsing and aggregation, on canned
perfbench/run.py output (no perfbench build, no benchmark run).

    python3 tools/test_bench_record.py
"""

import json
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import bench_record  # noqa: E402

PROVENANCE = {"git_sha": "abc1234", "nproc": 4, "cpu": "Test CPU @ 2.0GHz",
              "compiler": "GNU 12.2.0", "build_type": "Release",
              "optimized": True}


def canned_stdout(run_s, p50, attempted=100, correct=True, rss=None,
                  provenance=PROVENANCE):
    result = {
        "correct": correct, "attempted": attempted, "failed": 0,
        "metrics": {"run_s": {"value": run_s, "unit": "s"},
                    "round_ms_p50": {"value": p50, "unit": "ms"},
                    "peak_rss_mb": {"value": rss, "unit": "MB"}},
    }
    return "\n".join([
        "provenance " + json.dumps(provenance, sort_keys=True),
        "digest grid_sparse seed=1 rep=0 traced=0 ff61a1c7cfe9543d",
        "repetitions 3, round samples 1200",
        json.dumps(result),
    ]) + "\n"


class ParseRun(unittest.TestCase):
    def test_reads_provenance_and_last_line(self):
        prov, result = bench_record.parse_run(canned_stdout(2.5, 0.17))
        self.assertEqual(prov["git_sha"], "abc1234")
        self.assertEqual(result["metrics"]["run_s"]["value"], 2.5)

    def test_rejects_output_without_provenance(self):
        with self.assertRaises(ValueError):
            bench_record.parse_run('{"correct": true}\n')


class Quartiles(unittest.TestCase):
    def test_median_and_iqr(self):
        self.assertEqual(bench_record.quartiles([5, 1, 4, 2, 3]), (3, 2))
        median, iqr = bench_record.quartiles([1.0, 2.0, 4.0, 8.0])
        self.assertAlmostEqual(median, 3.0)
        self.assertAlmostEqual(iqr, 5.0 - 1.75)

    def test_single_value_has_zero_iqr(self):
        self.assertEqual(bench_record.quartiles([7.5]), (7.5, 0.0))


class MakeRecord(unittest.TestCase):
    def runs(self, provenance=PROVENANCE):
        grid = [canned_stdout(s, p, attempted=a, provenance=provenance)
                for s, p, a in ((3.0, 0.20, 10), (2.0, 0.10, 11),
                                (4.0, 0.30, 12))]
        churn = [canned_stdout(s, 0.07, rss=21.0 + s)
                 for s in (7.0, 9.0, 8.0)]
        return {"grid_sparse": [bench_record.parse_run(o) for o in grid],
                "campaign_churn": [bench_record.parse_run(o) for o in churn]}

    def test_aggregates_each_metric_over_seeds(self):
        record = bench_record.make_record(self.runs(), range(1, 4), 30,
                                          "2026-01-02T03:04:05Z")
        self.assertEqual(record["sha"], "abc1234")
        self.assertEqual(record["date"], "2026-01-02T03:04:05Z")
        for key in ("cpu", "nproc", "compiler", "build_type"):
            self.assertEqual(record[key], PROVENANCE[key])
        self.assertEqual(record["seeds"], [1, 2, 3])
        self.assertEqual(record["seconds"], 30)
        grid = record["workloads"]["grid_sparse"]
        self.assertEqual(grid["runs"], 3)
        self.assertEqual(grid["correct"], 3)
        self.assertEqual(grid["attempted"], [10, 11, 12])
        self.assertEqual(grid["metrics"]["run_s"],
                         {"median": 3.0, "iqr": 1.0, "unit": "s"})
        self.assertAlmostEqual(grid["metrics"]["round_ms_p50"]["iqr"], 0.1)
        # A metric no run reported stays out of the record.
        self.assertNotIn("peak_rss_mb", grid["metrics"])
        churn = record["workloads"]["campaign_churn"]["metrics"]
        self.assertEqual(churn["run_s"]["median"], 8.0)
        self.assertEqual(churn["peak_rss_mb"]["median"], 29.0)

    def test_refuses_runs_of_two_revisions(self):
        runs = self.runs()
        other = dict(PROVENANCE, git_sha="def5678")
        runs["geo_dense"] = [bench_record.parse_run(
            canned_stdout(1.0, 0.5, provenance=other))]
        with self.assertRaises(ValueError):
            bench_record.make_record(runs, range(1, 4), 30, "d")


class RunSeconds(unittest.TestCase):
    def test_reads_the_benchmark_budget(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "BENCHMARK.json"
            path.write_text('{"run_seconds": 45, "workloads": []}')
            self.assertEqual(bench_record.run_seconds(path), 45)


class AppendRecord(unittest.TestCase):
    def test_appends_and_keeps_earlier_records(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "BENCH_e2e.json"
            bench_record.append_record(path, {"sha": "a"})
            first = path.read_text()
            bench_record.append_record(path, {"sha": "b"})
            data = json.loads(path.read_text())
            self.assertEqual(data["schema"], bench_record.SCHEMA)
            self.assertEqual([r["sha"] for r in data["records"]], ["a", "b"])
            self.assertEqual(data["records"][0],
                             json.loads(first)["records"][0])

    def test_refuses_a_foreign_file(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "BENCH_e2e.json"
            path.write_text('{"records": []}')
            with self.assertRaises(ValueError):
                bench_record.append_record(path, {"sha": "a"})
            self.assertEqual(path.read_text(), '{"records": []}')


if __name__ == "__main__":
    unittest.main()
