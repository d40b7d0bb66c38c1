#!/usr/bin/env python3
"""End-to-end, layer-attributed benchmark of the dual-graph local broadcast
simulator.

Run from the repository root:

    python3 perfbench/run.py --workload geo_dense --seed 1 --seconds 30 --trace 0

Builds the runner (perfbench/CMakeLists.txt, Release) into
.bench_build/perfbench on first use, runs one workload in one runner
process, checks the outputs, and prints as its last stdout line one JSON
object with the keys correct, attempted, failed and metrics.  --trace 0
reports the end-to-end metrics; --trace 1 runs an untraced and a traced
repetition, prints the per-layer table, writes the traced spans to
.bench_build/perfbench/spans/ and reports the per-layer metrics.
perfbench/README.md documents every workload and metric.
"""

import argparse
import fcntl
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUNNER = BUILD / "perfbench_runner"
CAMPAIGN = HERE / "campaign_churn.json"
WORKLOADS = ("geo_dense", "grid_sparse", "campaign_churn")
TIME_LIMIT_S = 170

END_TO_END = {
    "setup_s": "s", "run_s": "s", "wall_s": "s",
    "round_ms_p50": "ms", "peak_rss_mb": "MB",
    "ack_latency_rounds": "rounds", "recv_latency_rounds": "rounds",
    "delivered_per_round": "1/round", "progress_rate": "ratio",
    "reliability_rate": "ratio",
}

ENGINE_PHASES = ("fault", "transmit", "frontier", "prepare_round", "compute",
                 "receive", "output_flush", "dedup")

# round_ms_p99 swings with the host's load far more than the median does,
# so it is reported, without a bound, from the traced run's untraced
# repetition.
PER_LAYER = {
    "round_ms_p99": "ms",
    "graph.generate_s": "s", "graph.validate_s": "s",
    "graph.edges_reliable": "count", "graph.edges_unreliable": "count",
    "graph.delta": "count", "graph.delta_prime": "count",
    "lb.construct_s": "s", "lb.env_s": "s", "lb.bcasts": "count",
    "lb.acks": "count", "lb.recvs": "count", "lb.recv_per_raw": "ratio",
    "engine.round_s": "s",
    **{f"engine.phase.{p}_s": "s" for p in ENGINE_PHASES},
    "engine.pool.parallel_s": "s", "engine.parallel_share": "ratio",
    "engine.dispatch.sharded_share": "ratio",
    "engine.frontier_fraction": "ratio", "engine.rounds": "count",
    "engine.tx": "count",
    "phys.delivered": "count", "phys.collisions": "count",
    "phys.delivery_ratio": "ratio",
    "traffic.offered": "count", "traffic.admitted": "count",
    "traffic.dropped": "count", "traffic.wait_rounds_mean": "rounds",
    "fault.crashes": "count", "fault.recoveries": "count",
    "traffic.crash_requeues": "count", "stage.dedup.suppressed": "count",
    "scn.parse_s": "s", "scn.variant.plain_s": "s",
    "scn.variant.dedup_s": "s", "proc.cpu_util": "ratio",
    "mem.rss_after_setup_mb": "MB", "mem.run_growth_mb": "MB",
    "trace.overhead_s": "s", "unattributed_s": "s",
}


# ---- statistics ----

def percentile(samples, q, min_beyond=10):
    """Nearest-rank q-quantile of samples, or None when fewer than
    min_beyond samples lie beyond it (a p99 needs at least 1000 samples)."""
    n = len(samples)
    if n == 0:
        return None
    rank = max(1, math.ceil(q * n))
    if n - rank < min_beyond:
        return None
    return sorted(samples)[rank - 1]


def histogram_percentile(bounds, buckets, q):
    """q-quantile of an obs::Registry fixed-bucket histogram, interpolated
    linearly inside the bucket that holds it (bucket i covers
    (bounds[i-1], bounds[i]]; the last bucket is the overflow)."""
    total = sum(buckets)
    if total == 0:
        return None
    target = q * total
    seen = 0
    for i, count in enumerate(buckets):
        if count and seen + count >= target:
            if i == len(bounds):
                return bounds[-1]
            lo = bounds[i - 1] if i > 0 else 0.0
            return lo + (bounds[i] - lo) * (target - seen) / count
        seen += count
    return bounds[-1]


def self_times(spans):
    """Self time per span name: each span's duration minus the part of its
    interval that its child spans cover.  spans are [name, start_ns,
    end_ns, parent_index] rows; returns {name: seconds}.  The root's self
    time is what no layer accounts for."""
    children = [[] for _ in spans]
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    totals = {}
    for i, (name, start, end, _) in enumerate(spans):
        covered = 0
        cursor = start
        for c in sorted(children[i], key=lambda c: spans[c][1]):
            lo = max(spans[c][1], cursor)
            hi = min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        totals[name] = totals.get(name, 0.0) + (end - start - covered) * 1e-9
    return totals


def span_total(spans, name):
    return sum(e - s for n, s, e, _ in spans if n == name) * 1e-9


def span_samples(spans, name):
    return [(e - s) * 1e-9 for n, s, e, _ in spans if n == name]


def ratio(num, den):
    return num / den if den else 0.0


def digest_of(obj):
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---- build and provenance ----

def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: no simulator sources at %s" % (ROOT / "src"))
    BUILD.mkdir(parents=True, exist_ok=True)
    with open(BUILD / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD / "CMakeCache.txt").is_file():
            subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                            "-G", "Ninja", "-DCMAKE_BUILD_TYPE=Release"],
                           check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", str(BUILD), "-j", "4",
                        "--target", "perfbench_runner"],
                       check=True, stdout=sys.stderr)


def provenance(runner_out):
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                                 cwd=ROOT, capture_output=True, text=True,
                                 timeout=10).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(), "cpu": cpu,
        "compiler": runner_out["compiler"],
        "build_type": runner_out["build_type"],
        "optimized": runner_out["optimized"],
    }


# ---- per-workload extraction ----

def merged_counters(registries, domain):
    out = {}
    for reg in registries:
        for k, v in reg[domain]["counters"].items():
            out[k] = out.get(k, 0) + v
    return out


def simulated(counters, rounds):
    return {
        "ack_latency_rounds": ratio(counters["traffic.ack_latency_rounds"],
                                    counters["traffic.acked"]),
        "recv_latency_rounds": ratio(counters["traffic.recv_latency_rounds"],
                                     counters["traffic.first_recvs"]),
        "delivered_per_round": ratio(counters["lb.recvs"], rounds),
        "progress_rate": ratio(counters["lb.progress.successes"],
                               counters["lb.progress.trials"]),
        "reliability_rate": ratio(counters["lb.reliability.successes"],
                                  counters["lb.reliability.trials"]),
    }


def rep_summary(workload, rep):
    """Logical outputs, digest and gate verdict of one repetition."""
    if workload == "campaign_churn":
        registries = [v["registry"] for v in rep["variants"]]
        counters = merged_counters(registries, "logical")
        rounds = counters["engine.rounds"]
        digest = digest_of([[r["logical"] for r in registries],
                            rep["counters"]])
        problems = []
    else:
        counters = rep["ledger"]["logical"]["counters"]
        rounds = rep["rounds"]
        digest = digest_of(rep["ledger"]["logical"])
        problems = [k for k in ("geographic", "timely_ack_ok", "validity_ok")
                    if not rep[k]]
    if counters["lb.violations"]:
        problems.append("lb.violations=%d" % counters["lb.violations"])
    if not counters["traffic.acked"]:
        problems.append("no message was acked")
    return {
        "digest": digest, "problems": problems,
        "attempted": counters["traffic.admitted"],
        "failed": counters["lb.violations"],
        "simulated": simulated(counters, rounds),
    }


def setup_samples(rep):
    """Seconds of each set-up of one repetition.  A campaign set-up span
    covers parses_per_setup parse + expand passes; its sample is one pass."""
    per = rep.get("parses_per_setup", 1)
    return [s / per for s in span_samples(rep["spans"], "setup")]


def round_percentiles(workload, reps):
    """(p50, p99, sample count) of the host time of each run_round call, ms."""
    if workload == "campaign_churn":
        # Trials run inside run_campaign, so the per-round host times come
        # from the engine profiler's round histogram (engine.round time),
        # pooled over every repetition and variant.
        hist = reps[0]["variants"][0]["registry"]["timing"]["histograms"][
            "engine.round.us"]
        buckets = [sum(v["registry"]["timing"]["histograms"][
            "engine.round.us"]["buckets"][i] for r in reps
            for v in r["variants"]) for i in range(len(hist["buckets"]))]
        samples = sum(buckets)
        p50 = histogram_percentile(hist["bounds"], buckets, 0.50)
        p99 = histogram_percentile(hist["bounds"], buckets, 0.99)
        return p50 / 1e3, p99 / 1e3, samples
    # Every run_round call of every repetition, pooled.
    rounds = [ms for r in reps for ms in r["round_ms"]]
    return percentile(rounds, 0.50), percentile(rounds, 0.99), len(rounds)


def end_to_end(workload, reps, peak_rss_mb):
    # Re-runs have no "setup" or "workload" span: set-up and wall time come
    # from the repetitions that set up from scratch.
    p50, _, samples = round_percentiles(workload, reps)
    metrics = {
        "setup_s": statistics.median(s for r in reps
                                     for s in setup_samples(r)),
        "run_s": statistics.median(span_total(r["spans"], "run")
                                   for r in reps),
        "wall_s": statistics.median(
            s for r in reps for s in span_samples(r["spans"], "workload")),
        "round_ms_p50": p50,
        "peak_rss_mb": peak_rss_mb,
    }
    return metrics, samples


def layer_rows(workload, rep):
    """Wall-clock rows of one repetition: span self times, with the
    run_round spans split by the registry's engine timers.  The rows plus
    unattributed_s sum to the repetition's wall time."""
    rows = self_times(rep["spans"])
    rows["unattributed_s"] = rows.pop("workload")
    if workload != "campaign_churn" and rep["telemetry"]:
        timing = rep["telemetry"]["timing"]["counters"]
        engine = timing["engine.round.ns"] * 1e-9
        rows["lb.env"] = rows.pop("lb.run_round") - engine
        phases = 0.0
        for key, ns in timing.items():
            if key.startswith("engine.phase."):
                rows[key[:-3]] = ns * 1e-9
                phases += ns * 1e-9
        rows["engine.round.other"] = engine - phases
    return rows


def per_layer(workload, untraced, traced, rows):
    m = dict.fromkeys(PER_LAYER, 0.0)
    spans = traced["spans"]
    m["unattributed_s"] = rows["unattributed_s"]
    m["round_ms_p99"] = round_percentiles(workload, [untraced])[1]
    m["trace.overhead_s"] = (span_total(spans, "run") -
                             span_total(untraced["spans"], "run"))
    m["proc.cpu_util"] = ratio(traced["cpu_run_s"],
                               span_total(spans, "run") * traced["threads"])
    m["mem.rss_after_setup_mb"] = untraced["rss_after_setup_mb"]
    m["mem.run_growth_mb"] = (untraced["rss_after_run_mb"] -
                              untraced["rss_after_setup_mb"])
    if workload == "campaign_churn":
        registries = [v["registry"] for v in traced["variants"]]
        logical = merged_counters(registries, "logical")
        timing = merged_counters(registries, "timing")
        words = (traced["variants"][0]["registry"]["logical"]["gauges"]
                 ["engine.vertices"] + 63) // 64
        m["scn.parse_s"] = statistics.median(
            span_samples(spans, "scn.parse"))
        m["scn.variant.plain_s"] = span_total(spans, "scn.variant.plain")
        m["scn.variant.dedup_s"] = span_total(spans, "scn.variant.dedup")
    else:
        logical = dict(traced["ledger"]["logical"]["counters"])
        logical.update(traced["telemetry"]["logical"]["counters"])
        timing = traced["telemetry"]["timing"]["counters"]
        g = traced["graph"]
        words = g["words"]
        for key in ("edges_reliable", "edges_unreliable", "delta",
                    "delta_prime"):
            m["graph." + key] = g[key]
        m["graph.generate_s"] = span_total(spans, "graph.generate")
        m["graph.validate_s"] = span_total(spans, "graph.validate")
        m["lb.construct_s"] = span_total(spans, "lb.construct")
        m["lb.env_s"] = rows["lb.env"]
    get = lambda key: logical.get(key, 0)  # noqa: E731
    for key in ("lb.bcasts", "lb.acks", "lb.recvs", "engine.rounds",
                "engine.tx", "traffic.offered", "traffic.admitted",
                "traffic.dropped", "traffic.crash_requeues",
                "stage.dedup.suppressed"):
        m[key] = get(key)
    m["fault.crashes"] = get("lb.fault.crashes")
    m["fault.recoveries"] = get("lb.fault.recoveries")
    m["phys.delivered"] = get("engine.rx.delivered")
    m["phys.collisions"] = get("engine.rx.collisions")
    m["phys.delivery_ratio"] = ratio(
        get("engine.rx.delivered"),
        get("engine.rx.delivered") + get("engine.rx.collisions"))
    m["lb.recv_per_raw"] = ratio(get("lb.recvs"), get("engine.rx.delivered"))
    m["traffic.wait_rounds_mean"] = ratio(get("traffic.wait_rounds"),
                                          get("traffic.admitted"))
    ns = lambda key: timing.get(key, 0) * 1e-9  # noqa: E731
    m["engine.round_s"] = ns("engine.round.ns")
    for p in ENGINE_PHASES:
        m[f"engine.phase.{p}_s"] = ns(f"engine.phase.{p}.ns")
    m["engine.pool.parallel_s"] = ns("engine.pool.parallel.ns")
    m["engine.parallel_share"] = ratio(timing.get("engine.pool.parallel.ns",
                                                  0),
                                       timing.get("engine.round.ns", 0))
    sharded = timing.get("engine.dispatch.sharded", 0)
    m["engine.dispatch.sharded_share"] = ratio(
        sharded, sharded + timing.get("engine.dispatch.serial", 0))
    m["engine.frontier_fraction"] = ratio(
        timing.get("engine.active_blocks", 0), get("engine.rounds") * words)
    return m


def print_table(rows, wall):
    print("%-32s %12s %7s" % ("layer (self time)", "seconds", "share"))
    for name, secs in sorted(rows.items(), key=lambda kv: -kv[1]):
        if name != "unattributed_s":
            print("%-32s %12.6f %6.2f%%" % (name, secs, 100 * secs / wall))
    print("%-32s %12.6f %6.2f%%" % ("unattributed_s", rows["unattributed_s"],
                                    100 * rows["unattributed_s"] / wall))
    print("%-32s %12.6f" % ("wall (sum of rows)", sum(rows.values())))


# ---- main ----

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="reduced-size inputs (the benchmark's own tests)")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    started = time.monotonic()

    build()
    cmd = [str(RUNNER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--campaign", str(CAMPAIGN)]
    if args.smoke:
        cmd.append("--smoke")
    budget = TIME_LIMIT_S - (time.monotonic() - started)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=budget,
                          check=True)
    out = json.loads(proc.stdout)
    reps = out["reps"]

    prov = provenance(out)
    print("provenance " + json.dumps(prov, sort_keys=True))
    if not prov["optimized"]:
        print("WARNING: non-optimised build (%s); timings are not "
              "comparable" % prov["build_type"])

    summaries = [rep_summary(args.workload, r) for r in reps]
    problems = []
    for i, s in enumerate(summaries):
        print("digest %s seed=%d rep=%d traced=%d %s" % (
            args.workload, args.seed, i, int(reps[i]["traced"]),
            s["digest"]))
        problems += ["rep %d: %s" % (i, p) for p in s["problems"]]
    if len({s["digest"] for s in summaries}) != 1:
        problems.append("repetitions at one seed disagree on the digest")
    if any(s["simulated"] != summaries[0]["simulated"] for s in summaries):
        problems.append("repetitions disagree on a simulated metric")
    for p in problems:
        print("CHECK FAILED: " + p)

    if args.trace:
        untraced, traced = reps
        rows = layer_rows(args.workload, traced)
        metrics = per_layer(args.workload, untraced, traced, rows)
        units = PER_LAYER
        print_table(rows, span_total(traced["spans"], "workload"))
        spans_dir = BUILD / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        (spans_dir / ("%s-seed%d.json" % (args.workload, args.seed))
         ).write_text(json.dumps({
             "provenance": prov, "workload": args.workload,
             "seed": args.seed, "columns": ["name", "start_ns", "end_ns",
                                            "parent"],
             "spans": traced["spans"], "rows": rows}))
    else:
        metrics, samples = end_to_end(args.workload, reps,
                                      out["peak_rss_mb"])
        metrics.update(summaries[0]["simulated"])
        units = END_TO_END
        print("repetitions %d, round samples %d" % (len(reps), samples))

    missing = [k for k in units if metrics.get(k) is None]
    if missing and not args.smoke:
        problems.append("no value for " + ", ".join(missing))
        print("CHECK FAILED: " + problems[-1])
    result = {
        "correct": not problems,
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": {k: {"value": metrics.get(k), "unit": u}
                    for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
