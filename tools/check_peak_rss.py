#!/usr/bin/env python3
"""Run a command and fail if its peak resident set exceeds a limit.

Usage: check_peak_rss.py LIMIT_MB COMMAND [ARG...]

Runs COMMAND with stdout discarded, reads the child's peak RSS from
getrusage(RUSAGE_CHILDREN).ru_maxrss (KiB on Linux), prints it, and
exits 1 when it is above LIMIT_MB (MiB) or COMMAND's own exit status when
that is non-zero.  The child starts as a fork of this interpreter, so a
reading below the interpreter's own RSS (~14 MB) is that floor, not the
command's.  CI uses it to hold a 65536-vertex dglab run under its
memory budget, e.g.

    check_peak_rss.py 160 build/tools/dglab run --topology=grid:256x256 \\
        --traffic=poisson:0.5 --phases=2
"""
import resource
import subprocess
import sys


def main(argv):
    if len(argv) < 3:
        print("usage: check_peak_rss.py LIMIT_MB COMMAND [ARG...]",
              file=sys.stderr)
        return 2
    try:
        limit_mb = float(argv[1])
    except ValueError:
        print(f"check_peak_rss: bad LIMIT_MB {argv[1]!r}", file=sys.stderr)
        return 2
    status = subprocess.run(argv[2:], stdout=subprocess.DEVNULL).returncode
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"peak RSS {peak_mb:.1f} MB (limit {limit_mb:g} MB): "
          f"{' '.join(argv[2:])}")
    if status != 0:
        print(f"check_peak_rss: command exited {status}", file=sys.stderr)
        return status
    return 1 if peak_mb > limit_mb else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
