#!/bin/sh
# dglab's stdout on a fixed set of good invocations must match the recorded
# transcripts byte for byte.  Each engine-running case runs at
# --round-threads=1 and =4 against the same file (results are identical at
# every thread count), so a refactor of the flag handling, the builders or
# the round engine that moves one number fails here.
#
#   tests/dglab_transcript_test.sh <dglab> <golden-dir>           compare
#   tests/dglab_transcript_test.sh <dglab> <golden-dir> --record  rewrite
set -u
dglab=$1
golden=$2
record=${3:-}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
failures=0

# check <name> <threads: yes|no> <dglab args...>
check() {
  name=$1
  threaded=$2
  shift 2
  if [ "$threaded" = yes ]; then
    variants="--round-threads=1 --round-threads=4"
  else
    variants="none"
  fi
  for v in $variants; do
    if [ "$v" = none ]; then
      "$dglab" "$@" >"$tmp/out" 2>"$tmp/err"
    else
      "$dglab" "$@" "$v" >"$tmp/out" 2>"$tmp/err"
    fi
    status=$?
    if [ "$status" -ne 0 ]; then
      echo "FAIL: $name ($v) exited $status"
      sed 's/^/  | /' "$tmp/err" | tail -n 5
      failures=$((failures + 1))
    elif [ "$record" = --record ]; then
      cp "$tmp/out" "$golden/$name.txt"
    elif ! cmp -s "$tmp/out" "$golden/$name.txt"; then
      echo "FAIL: $name ($v) differs from $golden/$name.txt"
      diff "$golden/$name.txt" "$tmp/out" | head -n 10 | sed 's/^/  | /'
      failures=$((failures + 1))
    else
      echo "ok:   $name ($v)"
    fi
  done
}

check net_grid no net --topology=grid:8x8
check seed_geometric yes seed --type=geometric --n=32
check run_geometric yes run --type=geometric --n=48 --phases=10
check run_alias_geometric yes --topology=geometric:64 --phases=10
check run_traffic_faults yes run --type=clique --k=8 \
  --traffic=poisson:0.05 --traffic-cap=2 --faults=poisson:0.02:64
check run_sinr yes run --type=geometric --n=48 --channel=sinr:3,2,0.1
check run_grid_dedup yes --topology=grid:16x16 --splice=dedup --seed=7
check run_reuse_ablate yes run --type=geometric --n=48 --phases=10 \
  --reuse=2 --ablate
check run_trace yes run --type=geometric --n=32 --phases=5 --trace=16
check sweep yes sweep --deltas=4,8 --phases=5

if [ "$failures" -ne 0 ]; then
  echo "$failures transcript(s) differ"
  exit 1
fi
