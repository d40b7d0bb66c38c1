#!/usr/bin/env python3
"""Fail unless each run's round engine actually dispatched pool jobs.

Usage: check_pool_jobs.py FILE.json [FILE.json ...]

Each FILE is either a dglab --metrics-out dump (dg-metrics-v1) or a
dgcampaign SCN_<variant>.json report of an obs variant (which embeds the
same dump under "metrics").  The check reads the timing-domain counter
engine.dispatch.pool_jobs.  The round engine runs a round inline unless
the thread cap, the vertex count and the shard guard all allow blocks, so
a determinism check meant for the sharded path passes vacuously when its
input is too small to shard; this catches that.

Exit 0 when every file reports pool_jobs > 0; 1 otherwise.
"""
import json
import sys


def pool_jobs(path):
    with open(path) as f:
        doc = json.load(f)
    if "metrics" in doc:  # a campaign variant report
        doc = doc["metrics"]
    counters = doc.get("timing", {}).get("counters", {})
    return counters.get("engine.dispatch.pool_jobs", 0)


def main(paths):
    if not paths:
        print(__doc__, file=sys.stderr)
        return 2
    failed = False
    for path in paths:
        jobs = pool_jobs(path)
        if jobs > 0:
            print(f"check_pool_jobs: {path}: {jobs} pool jobs: OK")
        else:
            print(f"check_pool_jobs: {path}: no pool jobs (every round "
                  "ran inline)", file=sys.stderr)
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
