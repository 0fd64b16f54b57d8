#!/bin/sh
# Flag-error contract of p2p_sweep: misused flags exit 2 with a message
# naming the flag or token, and output paths are named when they fail.
#
#   tests/cli_p2p_sweep.sh path/to/p2p_sweep
set -u
sweep=$1
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
status=0

# expect RC PATTERN ARGS...: run p2p_sweep with ARGS, require exit code
# RC and PATTERN (a fixed string) on stderr.
expect() {
  rc_want=$1
  pattern=$2
  shift 2
  rc=0
  "$sweep" "$@" > "$tmp/out" 2> "$tmp/err" || rc=$?
  if [ "$rc" -ne "$rc_want" ] || ! grep -qF -- "$pattern" "$tmp/err"; then
    echo "FAIL: p2p_sweep $* exited $rc (want $rc_want), stderr:" >&2
    cat "$tmp/err" >&2
    status=1
  fi
}

grid="lambda=1,2;us=1,2"

# Adaptive-only flags are rejected outside --adaptive whenever given,
# even at their default value.
expect 2 "--sim-rounds applies to --adaptive runs only" \
  --grid "$grid" --theory-only --sim-rounds 4
expect 2 "--sim-rounds applies to --adaptive runs only" \
  --grid "$grid" --theory-only --sim-rounds 5
expect 2 "--summary applies to --adaptive runs only" \
  --grid "$grid" --theory-only --summary=

# Boolean flags take true/false/yes/no/1/0; anything else is an error.
expect 2 "flag --fluid expects a boolean (true/false/yes/no/1/0), got 'foo'" \
  --grid "$grid" --theory-only --fluid foo
expect 0 "" --grid "$grid" --theory-only --fluid=no --out "$tmp/no.csv"
if head -n 1 "$tmp/no.csv" | grep -q fluid_verdict; then
  echo "FAIL: --fluid=no emitted a fluid_verdict column" >&2
  status=1
fi
expect 0 "" --grid "$grid" --theory-only --fluid=yes --out "$tmp/yes.csv"
if ! head -n 1 "$tmp/yes.csv" | grep -q fluid_verdict; then
  echo "FAIL: --fluid=yes emitted no fluid_verdict column" >&2
  status=1
fi

# An unwritable --summary path is named in the abort.
expect 134 "cannot open report output file \"$tmp/missing/s.json\"" \
  --grid "$grid" --adaptive 1 --theory-only --out "$tmp/a.csv" \
  --summary "$tmp/missing/s.json"

exit $status
