#!/usr/bin/env python3
"""Run bench_engine_micro and write a bench_support-shaped JSON report.

The experiment benches (bench_support.h) all emit
    {"elapsed_ms": ..., "sections": [{"experiment", "claim", "tables"}]}
but bench_engine_micro is google-benchmark, whose native JSON has neither
elapsed_ms nor table rows -- so the perf trajectory recorded
`elapsed_ms: null` and no throughput at all.  This wrapper runs the binary,
converts its native report into the standard shape (one row per benchmark,
with a rounds/sec column derived from real_time), and keeps the console
output as the .txt mirror.

The BM_EngineRound and BM_EngineRoundSparse rows carry a round_threads
column (1, 2, 4, 8), so one run yields the whole thread-scaling table;
`--markdown REPORT.json` prints that table from a saved report, in the
shape README.md quotes.

Usage: engine_micro_report.py BINARY OUT_JSON OUT_TXT [extra gbench args...]
       engine_micro_report.py --markdown REPORT.json
"""
import json
import subprocess
import sys
import tempfile
import time
import os


def fmt_time(ns: float) -> str:
    """Per-round time in the unit README's tables use."""
    if ns >= 1e5:
        return f"{ns / 1e6:.3g} ms"
    return f"{ns / 1e3:.3g} µs"


def markdown(report_path: str) -> int:
    """Prints the thread-scaling tables of a saved report."""
    with open(report_path) as f:
        report = json.load(f)
    rows = report["sections"][0]["tables"][0]["rows"]
    threads = sorted({r["round_threads"] for r in rows
                      if r.get("round_threads") is not None})
    series = {}
    for r in rows:
        if r.get("round_threads") is None or r.get("time_ns") is None:
            continue
        name = r["benchmark"].split("/")[0]
        key = (name, r["n"], r.get("load"))
        series.setdefault(key, {})[r["round_threads"]] = r

    print(f"git_sha {report.get('git_sha')}, hardware_concurrency "
          f"{report.get('hardware_concurrency')}")
    for name in ("BM_EngineRound", "BM_EngineRoundSparse"):
        keys = [k for k in series if k[0] == name]
        if not keys:
            continue
        sparse = name == "BM_EngineRoundSparse"
        head = ["n"] + (["load"] if sparse else []) + \
            [f"{t} thread{'s' if t > 1 else ''}" for t in threads]
        if sparse:
            head.append("active_fraction")
        print()
        print(f"{name}:")
        print("| " + " | ".join(head) + " |")
        print("|" + "---|" * len(head))
        order = {"dense": 0, "1%": 1, "0.1%": 2}
        for key in sorted(keys, key=lambda k: (k[1], order.get(k[2], 9))):
            cells = series[key]
            one = cells.get(1, {}).get("time_ns")
            line = [str(key[1])] + ([key[2]] if sparse else [])
            for t in threads:
                ns = cells.get(t, {}).get("time_ns")
                if ns is None:
                    line.append("—")
                elif t == 1 or not one:
                    line.append(fmt_time(ns))
                else:
                    line.append(f"{fmt_time(ns)} ({one / ns:.2f}×)")
            if sparse:
                frac = cells.get(1, {}).get("active_fraction")
                line.append("—" if frac is None else f"{frac:.2f}")
            print("| " + " | ".join(line) + " |")
    return 0


def main() -> int:
    if len(sys.argv) == 3 and sys.argv[1] == "--markdown":
        return markdown(sys.argv[2])
    if len(sys.argv) < 4:
        print(__doc__, file=sys.stderr)
        return 2
    binary, out_json, out_txt = sys.argv[1:4]
    extra = sys.argv[4:]

    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
        native_path = tmp.name
    try:
        start = time.monotonic()
        with open(out_txt, "w") as txt:
            proc = subprocess.run(
                [binary,
                 f"--benchmark_out={native_path}",
                 "--benchmark_out_format=json",
                 "--benchmark_format=console", *extra],
                stdout=txt, stderr=subprocess.STDOUT)
        elapsed_ms = (time.monotonic() - start) * 1000.0
        if proc.returncode != 0:
            print(f"engine_micro_report: bench exited {proc.returncode}; "
                  f"see {out_txt}", file=sys.stderr)
            return proc.returncode
        with open(native_path) as f:
            native = json.load(f)
    finally:
        try:
            os.unlink(native_path)
        except OSError:
            pass

    rows = []
    for bench in native.get("benchmarks", []):
        if bench.get("run_type") not in (None, "iteration"):
            continue  # skip aggregates; raw runs carry the timing
        time_ns = bench.get("real_time")
        unit = bench.get("time_unit", "ns")
        scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}.get(unit, 1.0)
        time_ns = None if time_ns is None else time_ns * scale
        name = bench.get("name", "?")
        row = {
            "benchmark": name,
            "time_ns": time_ns,
            "iterations": bench.get("iterations"),
            # One iteration of BM_EngineRound is one engine round, so
            # rounds/sec is the reciprocal of the per-iteration time.  For
            # the other micro benches this is generically iterations/sec.
            "rounds_per_sec": (1e9 / time_ns) if time_ns else None,
        }
        # BM_EngineRound/<n>/<round_threads>: split the arg positions into
        # explicit columns so the multi-thread series reads as a scaling
        # table.  The full name stays in "benchmark" -- bench_diff.py keys
        # rows on it, and the thread-suffixed names are simply new rows.
        parts = name.split("/")
        if parts[0] == "BM_EngineRound" and len(parts) >= 3:
            try:
                row["n"] = int(parts[1])
                row["round_threads"] = int(parts[2])
            except ValueError:
                pass
        # BM_EngineRoundSparse/<n>/<load>/<round_threads>: the activity
        # series.  `load` 0/1/2 = dense / ~1% / ~0.1% offered;
        # active_fraction comes back as a benchmark counter (mean fraction
        # of frontier words touched per round).
        if parts[0] == "BM_EngineRoundSparse" and len(parts) >= 4:
            try:
                row["n"] = int(parts[1])
                row["load"] = {0: "dense", 1: "1%", 2: "0.1%"}.get(
                    int(parts[2]), parts[2])
                row["round_threads"] = int(parts[3])
            except ValueError:
                pass
        if "items_per_second" in bench:
            row["items_per_sec"] = bench["items_per_second"]
        if "active_fraction" in bench:
            row["active_fraction"] = bench["active_fraction"]
        rows.append(row)

    # Same machine/build stamps bench_support.h writes, so bench_diff.py can
    # refuse cross-machine comparisons of the micro bench too.  The SHA is
    # read from the build tree's configure-time DG_GIT_SHA file (the binary
    # lives in <build>/bench/), NOT from `git rev-parse` at report time:
    # after a commit without a reconfigure the checkout's HEAD would
    # misattribute stale-binary timings to the new revision.
    git_sha = "unknown"
    sha_file = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(binary))),
        "DG_GIT_SHA")
    try:
        with open(sha_file) as f:
            git_sha = f.read().strip() or "unknown"
    except OSError:
        pass

    columns = ["benchmark", "n", "round_threads", "load", "time_ns", "iterations", "rounds_per_sec", "items_per_sec",
               "active_fraction"]
    report = {
        "elapsed_ms": elapsed_ms,
        "hardware_concurrency": os.cpu_count() or 0,
        "git_sha": git_sha or "unknown",
        "sections": [{
            "experiment": "engine_micro",
            "claim": ("Simulator substrate throughput (regression guard, "
                      "not a paper claim): per-round execution time and "
                      "rounds/sec of the flat-memory engine."),
            "tables": [{
                "columns": columns,
                "rows": [{c: r.get(c) for c in columns if c in r}
                         for r in rows],
            }],
        }],
    }
    with open(out_json, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
