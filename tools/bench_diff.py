#!/usr/bin/env python3
"""Compare two bench_out/ directories: wall-clock and key-metric deltas.

Usage: bench_diff.py BASELINE_DIR CURRENT_DIR [--metrics] [--threshold PCT]
                     [--force]
       bench_diff.py --counters-only [--allow-new] GOLDEN.json CURRENT.json
       bench_diff.py --same-law PARENT.json CHANGE.json

For every BENCH_<name>.json present in both directories (the
bench_support.h / engine_micro_report.py shape: {"elapsed_ms", "sections"}),
prints the wall-clock delta.  For engine_micro, also prints per-benchmark
time and rounds/sec deltas (the tentpole throughput metric).  With
--metrics, additionally diffs every numeric cell of structurally matching
tables and reports those that moved by more than --threshold percent
(default 5) -- the guard against silent metric drift in perf PRs.

Reports carry machine/build stamps (hardware_concurrency, git_sha).  When
the hardware stamps differ the timing comparison is refused -- wall-clock
deltas across machines are noise dressed up as signal -- unless --force is
given; differing git SHAs are reported but do not block (comparing
revisions on one machine is the tool's main use).

In the default (directory) mode exit status is always 0: the tool
documents change, it does not gate.

--counters-only is the GATING mode: the two arguments are campaign
counters FILES (dgcampaign's COUNTERS_<campaign>.json,
"dg-campaign-counters-v1").  Counters are seed-deterministic -- pure
functions of the campaign file, independent of thread count, wall clock
and machine -- so ANY difference is a real behavioral regression: the
tool prints every mismatched value with its variant/metric/trial path and
exits 1.  Timing never enters this comparison (counters files carry
none), so the gate is immune to CI noise.  --allow-new downgrades
current-only variants to warnings: when a campaign grows, the pre-existing
variants still gate exactly while the additions await a golden refresh.

The same mode also accepts obs telemetry dumps -- "dg-metrics-v1"
(dglab --metrics-out / METRICS_<variant>.json) and
"dg-campaign-metrics-v1" (METRICS_<campaign>.json) -- dispatched on the
file's "format" key.  Only the LOGICAL domain is compared (counters,
gauges, histogram buckets); any "timing" section is ignored, since it is
wall clock by definition.  --allow-new applies the same way: current-only
variants and current-only metric names warn instead of failing.

--same-law compares two counters files DISTRIBUTIONALLY, for a change
that is meant to re-draw every random number but keep each experiment's
law (a new generator, say): counters then differ trial by trial, and the
question is whether their means still agree.  For every variant and
metric present in both files it prints the parent mean, the change mean,
the trial counts and Welch's z = (mean_c - mean_p) / sqrt(var_p/n_p +
var_c/n_c), worst |z| last.  It exits 1 when |z| > 4 on a metric with at
least 10 trials on each side; a metric that is constant on both sides has
z = 0 if the constants agree and infinite |z| if not.
"""
import argparse
import json
import math
import os
import statistics
import sys


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        print(f"  warning: cannot read {path}: {err}", file=sys.stderr)
        return None


def fmt_delta(old, new):
    if not isinstance(old, (int, float)) or not isinstance(new, (int, float)):
        return f"{old} -> {new}"
    if old == 0:
        return f"{old:g} -> {new:g}"
    pct = (new - old) / old * 100.0
    return f"{old:g} -> {new:g} ({pct:+.1f}%)"


def rows_by_key(section_tables, key_column):
    """Maps key-column value -> row dict for the first table having the key."""
    out = {}
    for table in section_tables:
        for row in table.get("rows", []):
            if key_column in row:
                out.setdefault(str(row[key_column]), row)
    return out


def engine_micro_rows(report):
    rows = {}
    for section in report.get("sections", []):
        rows.update(rows_by_key(section.get("tables", []), "benchmark"))
    if not rows:
        # Legacy shape: raw google-benchmark output (pre engine_micro_report).
        for bench in report.get("benchmarks", []):
            time_ns = bench.get("real_time")
            rows[bench.get("name", "?")] = {
                "benchmark": bench.get("name", "?"),
                "time_ns": time_ns,
                "rounds_per_sec": (1e9 / time_ns) if time_ns else None,
            }
    return rows


def diff_engine_micro(base, cur):
    base_rows = engine_micro_rows(base)
    cur_rows = engine_micro_rows(cur)
    for name in sorted(base_rows.keys() & cur_rows.keys()):
        b, c = base_rows[name], cur_rows[name]
        line = f"    {name}: time_ns {fmt_delta(b.get('time_ns'), c.get('time_ns'))}"
        if b.get("rounds_per_sec") and c.get("rounds_per_sec"):
            ratio = c["rounds_per_sec"] / b["rounds_per_sec"]
            line += (f", rounds/sec "
                     f"{fmt_delta(b['rounds_per_sec'], c['rounds_per_sec'])}"
                     f" = {ratio:.2f}x")
        print(line)
    for name in sorted(cur_rows.keys() - base_rows.keys()):
        print(f"    {name}: new benchmark")


def diff_metrics(name, base, cur, threshold_pct):
    """Diffs numeric cells of structurally matching tables."""
    moved = []
    base_sections = base.get("sections", [])
    cur_sections = cur.get("sections", [])
    for si, (bs, cs) in enumerate(zip(base_sections, cur_sections)):
        for ti, (bt, ct) in enumerate(
                zip(bs.get("tables", []), cs.get("tables", []))):
            for ri, (br, cr) in enumerate(
                    zip(bt.get("rows", []), ct.get("rows", []))):
                for col in br.keys() & cr.keys():
                    b, c = br[col], cr[col]
                    if not isinstance(b, (int, float)) or \
                       not isinstance(c, (int, float)) or b == c:
                        continue
                    pct = abs(c - b) / abs(b) * 100.0 if b else float("inf")
                    if pct > threshold_pct:
                        moved.append(
                            f"    s{si}/t{ti}/row{ri} {col}: {fmt_delta(b, c)}")
    if moved:
        print(f"  metrics moved > threshold in {name}:")
        for line in moved:
            print(line)


def variants_by_name(doc):
    return {v.get("name", "?"): v for v in doc.get("variants", [])}


def diff_counters(baseline_path, current_path, allow_new=False):
    """Exact comparison of two campaign counters files.  Returns the number
    of mismatches (0 = gate passes).  With allow_new, variants present only
    in the current file warn instead of failing (the intended flow when a
    campaign grows: land the new variants, then refresh the golden)."""
    base = load(baseline_path)
    cur = load(current_path)
    if base is None or cur is None:
        print("counter diff: unreadable input", file=sys.stderr)
        return 1
    mismatches = 0

    def report(path, b, c):
        nonlocal mismatches
        mismatches += 1
        print(f"  COUNTER MISMATCH {path}: {b!r} -> {c!r}")

    for key in ("format", "campaign"):
        if base.get(key) != cur.get(key):
            report(key, base.get(key), cur.get(key))
    base_variants = variants_by_name(base)
    cur_variants = variants_by_name(cur)
    for name in sorted(base_variants.keys() - cur_variants.keys()):
        report(f"variants[{name}]", "present", "MISSING")
    for name in sorted(cur_variants.keys() - base_variants.keys()):
        if allow_new:
            print(f"  warning: variants[{name}] is new (no golden entry; "
                  "--allow-new accepted it)")
        else:
            report(f"variants[{name}]", "MISSING", "present")
    for name in sorted(base_variants.keys() & cur_variants.keys()):
        b, c = base_variants[name], cur_variants[name]
        for key in ("seed", "trials", "metrics"):
            if b.get(key) != c.get(key):
                report(f"variants[{name}].{key}", b.get(key), c.get(key))
        metrics = b.get("metrics", [])
        b_rows, c_rows = b.get("per_trial", []), c.get("per_trial", [])
        if len(b_rows) != len(c_rows):
            report(f"variants[{name}].per_trial length",
                   len(b_rows), len(c_rows))
        for t, (br, cr) in enumerate(zip(b_rows, c_rows)):
            if len(br) != len(cr):
                report(f"variants[{name}].per_trial[{t}] length",
                       len(br), len(cr))
            for m, (bv, cv) in enumerate(zip(br, cr)):
                if bv != cv:
                    metric = metrics[m] if m < len(metrics) else f"#{m}"
                    report(f"variants[{name}].{metric}[trial {t}]", bv, cv)
        b_sums, c_sums = b.get("sums", []), c.get("sums", [])
        if len(b_sums) != len(c_sums):
            report(f"variants[{name}].sums length",
                   len(b_sums), len(c_sums))
        for m, (bs, cs) in enumerate(zip(b_sums, c_sums)):
            if bs != cs:
                metric = metrics[m] if m < len(metrics) else f"#{m}"
                report(f"variants[{name}].{metric}.sum", bs, cs)

    print(f"counter diff: {baseline_path} -> {current_path}: "
          f"{'OK' if mismatches == 0 else f'{mismatches} mismatch(es)'}")
    return mismatches


def diff_logical_domain(prefix, base, cur, report, allow_new):
    """Exact comparison of one dg-metrics-v1 "logical" object (counters,
    gauges, histograms).  New metric names in current warn under
    allow_new; everything else mismatches."""
    base = base or {}
    cur = cur or {}
    for group in ("counters", "gauges", "histograms"):
        b_group = base.get(group, {})
        c_group = cur.get(group, {})
        for name in sorted(b_group.keys() - c_group.keys()):
            report(f"{prefix}.{group}[{name}]", "present", "MISSING")
        for name in sorted(c_group.keys() - b_group.keys()):
            if allow_new:
                print(f"  warning: {prefix}.{group}[{name}] is new "
                      "(no golden entry; --allow-new accepted it)")
            else:
                report(f"{prefix}.{group}[{name}]", "MISSING", "present")
        for name in sorted(b_group.keys() & c_group.keys()):
            b, c = b_group[name], c_group[name]
            if group != "histograms":
                if b != c:
                    report(f"{prefix}.{group}[{name}]", b, c)
                continue
            for key in ("bounds", "buckets", "count", "sum"):
                if b.get(key) != c.get(key):
                    report(f"{prefix}.{group}[{name}].{key}",
                           b.get(key), c.get(key))


def diff_metrics_files(baseline_path, current_path, allow_new=False):
    """Gating comparison of two obs metrics dumps (dg-metrics-v1 or
    dg-campaign-metrics-v1).  Returns the mismatch count; only the logical
    domain participates."""
    base = load(baseline_path)
    cur = load(current_path)
    if base is None or cur is None:
        print("metrics diff: unreadable input", file=sys.stderr)
        return 1
    mismatches = 0

    def report(path, b, c):
        nonlocal mismatches
        mismatches += 1
        print(f"  METRIC MISMATCH {path}: {b!r} -> {c!r}")

    if base.get("format") != cur.get("format"):
        report("format", base.get("format"), cur.get("format"))
    elif base.get("format") == "dg-metrics-v1":
        diff_logical_domain("logical", base.get("logical"),
                            cur.get("logical"), report, allow_new)
    else:  # dg-campaign-metrics-v1
        if base.get("campaign") != cur.get("campaign"):
            report("campaign", base.get("campaign"), cur.get("campaign"))
        base_variants = variants_by_name(base)
        cur_variants = variants_by_name(cur)
        for name in sorted(base_variants.keys() - cur_variants.keys()):
            report(f"variants[{name}]", "present", "MISSING")
        for name in sorted(cur_variants.keys() - base_variants.keys()):
            if allow_new:
                print(f"  warning: variants[{name}] is new (no golden "
                      "entry; --allow-new accepted it)")
            else:
                report(f"variants[{name}]", "MISSING", "present")
        for name in sorted(base_variants.keys() & cur_variants.keys()):
            diff_logical_domain(
                f"variants[{name}].logical",
                base_variants[name].get("metrics", {}).get("logical"),
                cur_variants[name].get("metrics", {}).get("logical"),
                report, allow_new)
        diff_logical_domain(
            "campaign_metrics.logical",
            base.get("campaign_metrics", {}).get("logical"),
            cur.get("campaign_metrics", {}).get("logical"),
            report, allow_new)

    print(f"metrics diff: {baseline_path} -> {current_path}: "
          f"{'OK' if mismatches == 0 else f'{mismatches} mismatch(es)'}")
    return mismatches


METRICS_FORMATS = ("dg-metrics-v1", "dg-campaign-metrics-v1")


def diff_gating(baseline_path, current_path, allow_new=False):
    """--counters-only dispatcher: routes on the files' "format" key so
    counters files and obs metrics dumps share one gating flag."""
    cur = load(current_path)
    if cur is not None and cur.get("format") in METRICS_FORMATS:
        return diff_metrics_files(baseline_path, current_path, allow_new)
    return diff_counters(baseline_path, current_path, allow_new)


SAME_LAW_Z = 4.0
SAME_LAW_MIN_TRIALS = 10


def welch_z(base, cur):
    """Welch's z for the difference of two sample means (cur - base)."""
    mean_b, mean_c = statistics.fmean(base), statistics.fmean(cur)
    var_b = statistics.variance(base) if len(base) > 1 else 0.0
    var_c = statistics.variance(cur) if len(cur) > 1 else 0.0
    se = math.sqrt(var_b / len(base) + var_c / len(cur))
    if se == 0.0:
        return 0.0 if mean_b == mean_c else math.copysign(math.inf,
                                                          mean_c - mean_b)
    return (mean_c - mean_b) / se


def diff_same_law(parent_path, change_path):
    """Per variant and metric, the Welch z of the per-trial means.  Returns
    the number of metrics whose |z| exceeds SAME_LAW_Z with at least
    SAME_LAW_MIN_TRIALS trials per side."""
    base = load(parent_path)
    cur = load(change_path)
    if base is None or cur is None:
        print("same-law diff: unreadable input", file=sys.stderr)
        return 1
    rows = []
    base_variants = variants_by_name(base)
    cur_variants = variants_by_name(cur)
    for name in sorted(base_variants.keys() ^ cur_variants.keys()):
        print(f"  warning: variants[{name}] is in one file only; skipped")
    for name in sorted(base_variants.keys() & cur_variants.keys()):
        b, c = base_variants[name], cur_variants[name]
        c_metrics = c.get("metrics", [])
        for m, metric in enumerate(b.get("metrics", [])):
            if metric not in c_metrics:
                continue
            cm = c_metrics.index(metric)
            b_vals = [row[m] for row in b.get("per_trial", [])]
            c_vals = [row[cm] for row in c.get("per_trial", [])]
            if not b_vals or not c_vals:
                continue
            rows.append((name, metric, statistics.fmean(b_vals),
                         statistics.fmean(c_vals), len(b_vals), len(c_vals),
                         welch_z(b_vals, c_vals)))
    failures = 0
    print(f"same-law diff: {parent_path} -> {change_path}")
    print(f"  {'variant':<32} {'metric':<20} {'parent':>12} {'change':>12} "
          f"{'n':>9} {'z':>7}")
    for name, metric, mean_b, mean_c, n_b, n_c, z in sorted(
            rows, key=lambda r: abs(r[6])):
        gated = min(n_b, n_c) >= SAME_LAW_MIN_TRIALS
        flag = ""
        if abs(z) > SAME_LAW_Z:
            flag = "  LAW CHANGED" if gated else "  (n < 10, not gated)"
            failures += gated
        print(f"  {name:<32} {metric:<20} {mean_b:>12.4g} {mean_c:>12.4g} "
              f"{f'{n_b}/{n_c}':>9} {z:>7.2f}{flag}")
    worst = max((abs(r[6]) for r in rows), default=0.0)
    print(f"same-law diff: {len(rows)} comparisons, max |z| = {worst:.2f}: "
          f"{'OK' if failures == 0 else f'{failures} metric(s) moved'}")
    return failures


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--metrics", action="store_true",
                        help="also diff numeric table cells")
    parser.add_argument("--threshold", type=float, default=5.0,
                        help="percent change to report with --metrics")
    parser.add_argument("--force", action="store_true",
                        help="compare even when hardware stamps differ")
    parser.add_argument("--counters-only", action="store_true",
                        help="gating mode: compare two campaign counters "
                             "files exactly; exit 1 on any difference")
    parser.add_argument("--allow-new", action="store_true",
                        help="with --counters-only: variants present only "
                             "in the current file warn instead of failing "
                             "(use while a campaign grows)")
    parser.add_argument("--same-law", action="store_true",
                        help="compare two campaign counters files by "
                             "per-metric Welch z; exit 1 when |z| > 4 "
                             "with >= 10 trials per side")
    args = parser.parse_args()

    if args.same_law:
        if args.counters_only or args.allow_new:
            print("bench_diff: --same-law takes no other mode flag",
                  file=sys.stderr)
            return 2
        for path in (args.baseline, args.current):
            if not os.path.isfile(path):
                print(f"same-law diff: {path} is not a file (--same-law "
                      "takes two COUNTERS_*.json files)", file=sys.stderr)
                return 2
        return 1 if diff_same_law(args.baseline, args.current) else 0

    if args.allow_new and not args.counters_only:
        print("bench_diff: --allow-new only applies to --counters-only",
              file=sys.stderr)
        return 2

    if args.counters_only:
        for path in (args.baseline, args.current):
            if not os.path.isfile(path):
                print(f"counter diff: {path} is not a file "
                      "(--counters-only takes two COUNTERS_*.json or "
                      "METRICS_*.json files)",
                      file=sys.stderr)
                return 2
        return 1 if diff_gating(args.baseline, args.current,
                                args.allow_new) else 0

    def bench_names(d):
        return {f[len("BENCH_"):-len(".json")]
                for f in os.listdir(d)
                if f.startswith("BENCH_") and f.endswith(".json")}

    base_names = bench_names(args.baseline)
    cur_names = bench_names(args.current)

    print(f"bench diff: {args.baseline} -> {args.current}")
    for name in sorted(base_names & cur_names):
        base = load(os.path.join(args.baseline, f"BENCH_{name}.json"))
        cur = load(os.path.join(args.current, f"BENCH_{name}.json"))
        if base is None or cur is None:
            continue
        base_hw = base.get("hardware_concurrency")
        cur_hw = cur.get("hardware_concurrency")
        cross_machine = (base_hw is not None and cur_hw is not None
                         and base_hw != cur_hw and not args.force)
        base_sha = base.get("git_sha")
        cur_sha = cur.get("git_sha")
        sha_note = (f"  [git {base_sha} -> {cur_sha}]"
                    if base_sha and cur_sha and base_sha != cur_sha else "")
        if cross_machine:
            # Only timing comparisons are machine-dependent; experiment
            # metric cells are seed-deterministic (montecarlo.h) and still
            # diff meaningfully across machines.  engine_micro's table IS
            # timings, so its metric diff is refused too.
            print(f"  {name}: timing REFUSED -- hardware_concurrency "
                  f"{base_hw} vs {cur_hw} (cross-machine timings are not "
                  f"comparable; --force to override){sha_note}")
        else:
            print(f"  {name}: elapsed_ms "
                  f"{fmt_delta(base.get('elapsed_ms'), cur.get('elapsed_ms'))}"
                  f"{sha_note}")
            if name == "engine_micro":
                diff_engine_micro(base, cur)
        if args.metrics and not (cross_machine and name == "engine_micro"):
            diff_metrics(name, base, cur, args.threshold)
    for name in sorted(cur_names - base_names):
        print(f"  {name}: new bench (no baseline)")
    for name in sorted(base_names - cur_names):
        print(f"  {name}: missing from current run")
    return 0


if __name__ == "__main__":
    sys.exit(main())
