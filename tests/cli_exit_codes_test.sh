#!/bin/sh
# Bad command-line input must exit 2 with a message, never crash: numeric
# dglab flags outside the scenario schema's ranges, bad trace flags (which
# must be rejected before dglab prints or builds anything), flags outside a
# subcommand's flag table or written against the flag grammar, and a
# campaign file nested deeper than the JSON parser's cap.
#
#   tests/cli_exit_codes_test.sh <dglab> <dgcampaign>
set -u
dglab=$1
dgcampaign=$2
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
failures=0

# expect_exit2 <label> <command...>: the command must exit with status 2.
expect_exit2() {
  label=$1
  shift
  "$@" >"$tmp/out" 2>&1
  status=$?
  if [ "$status" -ne 2 ]; then
    echo "FAIL: $label exited $status, want 2"
    sed 's/^/  | /' "$tmp/out" | tail -n 5
    failures=$((failures + 1))
  else
    echo "ok:   $label -> 2: $(head -n 1 "$tmp/out")"
  fi
}

# expect_exit2_silent <label> <command...>: exit 2 with nothing on stdout.
expect_exit2_silent() {
  label=$1
  shift
  "$@" >"$tmp/stdout" 2>"$tmp/stderr"
  status=$?
  if [ "$status" -ne 2 ] || [ -s "$tmp/stdout" ]; then
    echo "FAIL: $label exited $status with $(wc -l <"$tmp/stdout") stdout" \
      "line(s), want 2 and none"
    cat "$tmp/stdout" "$tmp/stderr" | sed 's/^/  | /' | tail -n 5
    failures=$((failures + 1))
  else
    echo "ok:   $label -> 2: $(head -n 1 "$tmp/stderr")"
  fi
}

for flag in --n=0 --eps=0 --eps=2 --r=0.5 --phases=-1; do
  expect_exit2 "dglab run $flag" \
    "$dglab" run --type=geometric --n=16 --phases=1 "$flag"
done

# Values the scenario validator rejects (these used to abort on a library
# precondition), and non-numbers that strtod/strtoull used to read as 0.
for flags in "--side=0" "--side=-1" "--type=grid --cols=0" \
             "--type=grid --spacing=0" "--type=clique --k=0" \
             "--type=star --k=0" "--ack-scale=0" "--ack-scale=-1" \
             "--reuse=0" "--seed=abc" "--senders=abc" \
             "--type=clique --k=4 --channel=sinr:3,1,0.01"; do
  # shellcheck disable=SC2086  # $flags holds several words on purpose
  expect_exit2 "dglab run $flags" "$dglab" run --phases=1 $flags
done
for flag in --deltas=0 --deltas=abc; do
  expect_exit2 "dglab sweep $flag" "$dglab" sweep --phases=1 "$flag"
done
# A topology needs at least two vertices.
expect_exit2 "dglab net --n=1" "$dglab" net --n=1

# --trace is a wire-tail length in [1, 65536]; -1 used to wrap to 2^64-1
# and keep every event, abc and 0 used to become a one-event tail.
for flag in --trace=abc --trace=0 --trace=-1 --trace=65537 --trace=; do
  expect_exit2_silent "dglab run $flag" \
    "$dglab" run --type=geometric --n=16 --phases=1 "$flag"
done
# Trace filters: vertex ids must name a vertex (n=16), a round window must
# be LO:HI with HI < 2^63 (a larger HI used to abort), and both need
# --trace-out.
for flags in "--trace-vertices=16" "--trace-vertices=3,999999" \
             "--trace-vertices=4294967296" "--trace-rounds=9:2" \
             "--trace-rounds=0:18446744073709551615"; do
  expect_exit2_silent "dglab run $flags --trace-out" \
    "$dglab" run --type=geometric --n=16 --phases=1 "$flags" \
    --trace-out="$tmp/t.json"
done
for flag in --trace-rounds=1:2 --trace-vertices=1; do
  expect_exit2_silent "dglab run $flag (no --trace-out)" \
    "$dglab" run --type=geometric --n=16 --phases=1 "$flag"
done
expect_exit2_silent "dglab seed --trace=4" \
  "$dglab" seed --type=geometric --n=16 --trace=4

# One flag grammar (tools/cli_flags.h): a valued flag needs '=', a switch
# takes no value, no flag may be given twice, and each subcommand accepts
# only the flags it reads.  Otherwise each case below runs with the flag
# misread (--phases as 1 phase, --trace as a 1-event tail, --ablate=0 as
# ablated, the last --n winning) or silently ignored.
for flags in "--phases" "--phases=2 --trace" "--phases=1 --ablate=0" \
             "--n=32 --phases=1"; do
  # shellcheck disable=SC2086  # $flags holds several words on purpose
  expect_exit2 "dglab run --n=16 $flags" "$dglab" run --n=16 $flags
done
expect_exit2 "dglab sweep --senders=3" \
  "$dglab" sweep --deltas=4 --phases=5 --senders=3
expect_exit2 "dglab sweep --type=grid" \
  "$dglab" sweep --deltas=4 --phases=3 --type=grid
for flag in --phases=7 --ack-scale=0.1 --senders=2; do
  expect_exit2_silent "dglab seed $flag" "$dglab" seed --n=32 "$flag"
done
for flag in --eps=0.3 --sched=anti --round-threads=2; do
  expect_exit2_silent "dglab net $flag" "$dglab" net --n=32 "$flag"
done
smoke=$(dirname "$0")/../campaigns/smoke.json
# A valued flag needs a non-empty value: each of these used to run as if
# the flag were absent (every variant for --filter=; the whole campaign,
# then a failed write, for --out=).
for flag in --traffic= --faults=; do
  expect_exit2_silent "dglab run $flag" \
    "$dglab" run --type=geometric --n=16 --phases=1 "$flag"
done
expect_exit2_silent "dglab run --trace-vertices= --trace-out" \
  "$dglab" run --type=geometric --n=16 --phases=1 --trace-vertices= \
  --trace-out="$tmp/t.json"
expect_exit2 "dgcampaign run --filter=" \
  "$dgcampaign" run "$smoke" --quiet --out="$tmp/out_dir" --filter=
expect_exit2_silent "dgcampaign run --out=" \
  "$dgcampaign" run "$smoke" --out=
expect_exit2 "dgcampaign validate --threads=4" \
  "$dgcampaign" validate "$smoke" --threads=4
expect_exit2 "dgcampaign list --quiet=1" \
  "$dgcampaign" list "$smoke" --quiet=1
expect_exit2 "dgcampaign run --max-trials=99999999999999999999999" \
  "$dgcampaign" run "$smoke" --max-trials=99999999999999999999999 --quiet \
  --out="$tmp/out_dir"

# --round-threads is a positive integer: digits only, no sign, no blanks,
# and "run serial" is spelled 1, not 0.
for value in "" 0 -3 4x x " 2" +2; do
  expect_exit2_silent "dglab run --round-threads='$value'" \
    "$dglab" run --n=16 --phases=1 "--round-threads=$value"
  expect_exit2 "dgcampaign run --round-threads='$value'" \
    "$dgcampaign" run "$smoke" --quiet --out="$tmp/out_dir" \
    "--round-threads=$value"
done

# 200 000 unclosed '[' -- the recursive parser used to overflow the stack.
head -c 200000 /dev/zero | tr '\0' '[' >"$tmp/deep.json"
expect_exit2 "dgcampaign validate deep.json" \
  "$dgcampaign" validate "$tmp/deep.json"

if [ "$failures" -ne 0 ]; then
  echo "$failures bad invocation(s) did not exit 2"
  exit 1
fi
