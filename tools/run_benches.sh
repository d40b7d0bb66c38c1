#!/usr/bin/env bash
# Sweep every bench binary and collect machine-readable results.
#
# Usage: tools/run_benches.sh [BUILD_DIR] [OUT_DIR] [FILTER]
#   BUILD_DIR  CMake build tree containing bench/ binaries (default: build)
#   OUT_DIR    where BENCH_*.json and BENCH_*.txt land (default: bench_out)
#   FILTER     only run benches whose name contains this substring
#
# Each bench_* binary mirrors its stdout tables into $DG_BENCH_JSON (see
# bench/bench_support.h); bench_engine_micro is google-benchmark, so
# tools/engine_micro_report.py converts its native report into the same
# {elapsed_ms, sections} shape with rounds/sec rows.  Its BM_EngineRound
# and BM_EngineRoundSparse series run at round_threads 1, 2, 4 and 8 in
# the one pass (`engine_micro_report.py --markdown` prints the scaling
# table from the JSON).  Every run produces a
# BENCH_<name>.json with per-bench timing and metric rows, plus the
# human-readable table in BENCH_<name>.txt.
set -u

BUILD_DIR=${1:-build}
OUT_DIR=${2:-bench_out}
FILTER=${3:-}

if [ ! -d "$BUILD_DIR/bench" ]; then
  echo "error: $BUILD_DIR/bench not found; build first:" >&2
  echo "  cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j" >&2
  exit 1
fi

mkdir -p "$OUT_DIR"
ran=0 failed=0

for bin in "$BUILD_DIR"/bench/bench_*; do
  [ -f "$bin" ] && [ -x "$bin" ] || continue
  name=$(basename "$bin")
  name=${name#bench_}
  case "$name" in
    *"$FILTER"*) ;;
    *) continue ;;
  esac
  json="$OUT_DIR/BENCH_${name}.json"
  txt="$OUT_DIR/BENCH_${name}.txt"
  # Drop stale results first: a bench that crashes never writes its JSON,
  # and a leftover file from a previous sweep must not pass for current.
  rm -f "$json" "$txt"
  echo "== bench_$name -> $json"
  if [ "$name" = engine_micro ]; then
    python3 "$(dirname "$0")/engine_micro_report.py" "$bin" "$json" "$txt"
  else
    DG_BENCH_JSON="$json" "$bin" > "$txt" 2>&1
  fi
  status=$?
  if [ $status -ne 0 ]; then
    # A bench can exit nonzero after its JSON was already written (the
    # report flushes at process exit); don't let failed results pass for
    # good ones.
    rm -f "$json"
    echo "   FAILED (exit $status); see $txt" >&2
    failed=$((failed + 1))
    continue
  fi
  ran=$((ran + 1))
done

echo "ran $ran bench(es), $failed failure(s); results in $OUT_DIR/"
[ $failed -eq 0 ]
