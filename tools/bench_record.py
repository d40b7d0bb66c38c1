#!/usr/bin/env python3
"""Append one end-to-end benchmark record to BENCH_e2e.json.

Runs perfbench/run.py --trace 0 for every workload over k seeds (seed-major,
so each seed's three runs sit close together in time), then appends one
record to the trajectory file: the checkout's git SHA, the date, the CPU
model, nproc, the compiler and build type perfbench reported, and per
workload each metric's median and interquartile range over the seeds.
Earlier records are carried over unchanged; the tool never rewrites one.
Each run lasts the benchmark's own run_seconds (BENCHMARK.json), so every
record in the trajectory has the same run length.

    python3 tools/bench_record.py --seeds 5
    python3 tools/bench_record.py --checkout ../other-revision --seeds 5

--checkout runs another checkout's own perfbench (its sources, its build
directory) and labels the record with that checkout's SHA, so two
revisions can be recorded in one sitting on one host.  The record always
goes to BENCH_e2e.json at this repository's root.
"""

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("geo_dense", "grid_sparse", "campaign_churn")
SCHEMA = "dg-bench-e2e-v1"
PROVENANCE_KEYS = ("cpu", "nproc", "compiler", "build_type")


def run_seconds(benchmark=ROOT / "BENCHMARK.json"):
    """The per-run time budget the benchmark declares."""
    return json.loads(Path(benchmark).read_text())["run_seconds"]


def parse_run(stdout):
    """(provenance, result) of one perfbench/run.py stdout: the
    'provenance {...}' line and the final JSON line."""
    provenance = None
    lines = [line for line in stdout.splitlines() if line.strip()]
    for line in lines:
        if line.startswith("provenance "):
            provenance = json.loads(line[len("provenance "):])
    if provenance is None or not lines:
        raise ValueError("not a perfbench run output")
    return provenance, json.loads(lines[-1])


def quartiles(values):
    """(median, Q3 - Q1) with linear interpolation between order
    statistics; one value has IQR 0."""
    if len(values) == 1:
        return values[0], 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q3 - q1


def summarize(results):
    """Per-workload record entry from the parsed results of its runs."""
    entry = {
        "runs": len(results),
        "correct": sum(1 for r in results if r["correct"]),
        "attempted": [r["attempted"] for r in results],
        "failed": sum(r["failed"] for r in results),
        "metrics": {},
    }
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        if any(v is None for v in values):
            continue  # a metric a run could not report stays out
        median, iqr = quartiles(values)
        entry["metrics"][name] = {"median": median, "iqr": iqr,
                                  "unit": first["unit"]}
    return entry


def make_record(runs, seeds, seconds, date):
    """One trajectory record.  runs maps workload -> list of
    (provenance, result) pairs, one per seed."""
    provenances = [p for pairs in runs.values() for p, _ in pairs]
    first = provenances[0]
    for p in provenances[1:]:
        for key in ("git_sha",) + PROVENANCE_KEYS:
            if p[key] != first[key]:
                raise ValueError("runs disagree on %s: %r vs %r"
                                 % (key, first[key], p[key]))
    record = {"sha": first["git_sha"], "date": date}
    record.update({key: first[key] for key in PROVENANCE_KEYS})
    record["seeds"] = list(seeds)
    record["seconds"] = seconds
    record["workloads"] = {w: summarize([r for _, r in pairs])
                           for w, pairs in runs.items()}
    return record


def append_record(path, record):
    """Appends record to the trajectory at path, creating it if absent."""
    path = Path(path)
    if path.exists():
        data = json.loads(path.read_text())
        if data.get("schema") != SCHEMA:
            raise ValueError("%s is not a %s trajectory" % (path, SCHEMA))
    else:
        data = {"schema": SCHEMA, "records": []}
    data["records"].append(record)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(data, indent=1) + "\n")
    os.replace(tmp, path)


def run_perfbench(checkout, workload, seed, seconds):
    cmd = [sys.executable, str(checkout / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          text=True, check=True)
    return parse_run(proc.stdout)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=5,
                    help="run seeds 1..K (default 5)")
    ap.add_argument("--checkout", type=Path, default=ROOT,
                    help="checkout whose perfbench runs (default: this one)")
    args = ap.parse_args(argv)
    if args.seeds < 1:
        ap.error("--seeds must be at least 1")
    checkout = args.checkout.resolve()
    seeds = range(1, args.seeds + 1)
    seconds = run_seconds()
    runs = {w: [] for w in WORKLOADS}
    for seed in seeds:
        for workload in WORKLOADS:
            pair = run_perfbench(checkout, workload, seed, seconds)
            runs[workload].append(pair)
            print("%s seed %d: run_s %.3f" % (
                workload, seed, pair[1]["metrics"]["run_s"]["value"]),
                file=sys.stderr)
    date = datetime.datetime.now(datetime.timezone.utc).strftime(
        "%Y-%m-%dT%H:%M:%SZ")
    record = make_record(runs, seeds, seconds, date)
    append_record(ROOT / "BENCH_e2e.json", record)
    print(json.dumps(record, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
