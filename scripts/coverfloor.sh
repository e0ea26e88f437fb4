#!/bin/sh
# coverfloor.sh — per-package statement coverage with enforced floors.
#
# The fault-injection wrapper and the resume protocol are the two places a
# silent test regression would hurt most: both are exercised almost entirely
# by tests, so dropping a test there drops real protection. CI fails when
# either package dips below its floor. Baselines are recorded in DESIGN.md;
# raise a floor when the baseline rises, never lower one to make CI pass.
#
# Usage: scripts/coverfloor.sh  (run from the repo root; `make cover` does)

set -eu

GO="${GO:-go}"

# "import/path floor" pairs. POSIX sh has no arrays; one pair per line.
FLOORS='
repro/internal/transport 85
repro/internal/transport/shmring 85
repro/internal/faultnet 85
repro/internal/lint 85
repro/internal/fleet 85
repro/internal/fuzz 85
'

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

fail=0
echo "package                        coverage  floor"
echo "-----------------------------  --------  -----"
echo "$FLOORS" | while read -r pkg floor; do
	[ -n "$pkg" ] || continue
	profile="$tmp/$(echo "$pkg" | tr / _).out"
	if ! $GO test -count=1 -coverprofile="$profile" "$pkg" >"$tmp/test.log" 2>&1; then
		cat "$tmp/test.log" >&2
		echo "coverfloor: tests failed in $pkg" >&2
		exit 1
	fi
	pct="$($GO tool cover -func="$profile" | awk '/^total:/ {sub(/%$/, "", $NF); print $NF}')"
	printf '%-29s  %7s%%  %4s%%\n' "$pkg" "$pct" "$floor"
	# awk handles the fractional comparison; sh arithmetic is integer-only.
	if ! awk -v p="$pct" -v f="$floor" 'BEGIN { exit !(p >= f) }'; then
		echo "coverfloor: $pkg at ${pct}% is below the ${floor}% floor" >&2
		exit 1
	fi
done || fail=1

exit "$fail"
