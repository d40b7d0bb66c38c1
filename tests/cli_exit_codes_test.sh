#!/bin/sh
# Bad command-line input must exit 2 with a message, never crash: numeric
# dglab flags outside the scenario schema's ranges, and a campaign file
# nested deeper than the JSON parser's cap.
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

for flag in --n=0 --eps=0 --eps=2 --r=0.5 --phases=-1; do
  expect_exit2 "dglab run $flag" \
    "$dglab" run --type=geometric --n=16 --phases=1 "$flag"
done

# 200 000 unclosed '[' -- the recursive parser used to overflow the stack.
head -c 200000 /dev/zero | tr '\0' '[' >"$tmp/deep.json"
expect_exit2 "dgcampaign validate deep.json" \
  "$dgcampaign" validate "$tmp/deep.json"

if [ "$failures" -ne 0 ]; then
  echo "$failures bad invocation(s) did not exit 2"
  exit 1
fi
