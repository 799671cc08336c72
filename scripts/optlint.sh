#!/usr/bin/env bash
# optlint.sh — every exported functional option has a caller.
#
# The rule: each exported `func With…` declared in non-test code outside
# bench/ must be called from non-test code outside bench/ — either as
# pkg.WithX( from another package, or as a bare WithX( in a non-test file of
# its own package (its declaration and comment lines do not count). An
# option only tests or the benchmark set is a knob nobody turns: make it a
# constant, a test helper, or give it a production caller.
#
# Harness files that live in a production package (sched's soak.go,
# repair's churn.go) still count as callers, so options only a harness sets
# pass until those files move out of their packages.
#
# The allowlist below names the options that still break the rule, each with
# the ROADMAP item that removes it. It can only shrink: an allowlisted name
# that gains a caller, or is no longer declared, fails the lint until its
# entry is deleted.
set -euo pipefail
cd "$(dirname "$0")/.."

allowlist='
sched.WithWorkers    bench/ catches up with the engine (bench/ is its only caller)
remote.WithServerLog bench/ catches up with the engine (bench/ and tests call it)
repair.WithMetrics   repair on the real path
repair.WithTracer    repair on the real path
'

src=()
while IFS= read -r f; do src+=("$f"); done < <(
  find . -name '*.go' ! -name '*_test.go' -not -path './bench/*' -not -path './.git/*' | sort)

fail=0
count=0
declared=' '
while IFS=: read -r file _ decl; do
  name=$(sed -E 's/^func (With[A-Za-z0-9_]*)\(.*/\1/' <<<"$decl")
  dir=${file%/*}
  pkg=$(awk '$1 == "package" { print $2; exit }' "$file")
  qual="$pkg.$name"
  declared+="$qual "
  count=$((count + 1))

  own=() other=()
  for f in "${src[@]}"; do
    if [ "${f%/*}" = "$dir" ]; then own+=("$f"); else other+=("$f"); fi
  done
  callers=$(
    { grep -HE "(^|[^[:alnum:]_.])$pkg\.$name\(" "${other[@]}" || true
      grep -HE "(^|[^[:alnum:]_.])$name\(" "${own[@]}" | grep -vE "^[^:]*:func $name\(" || true
    } | { grep -vE '^[^:]*:[[:space:]]*//' || true; } | cut -d: -f1 | sort -u | paste -sd' ' -)

  if grep -qE "^$qual[[:space:]]" <<<"$allowlist"; then
    if [ -n "$callers" ]; then
      echo "optlint: $qual is allowlisted but now has a caller ($callers): delete its allowlist entry"
      fail=1
    fi
  elif [ -z "$callers" ]; then
    echo "optlint: $file: $qual has no non-test caller outside bench/"
    fail=1
  fi
done < <(grep -HnE '^func With[A-Z][A-Za-z0-9_]*\(' "${src[@]}")

while read -r qual _; do
  [ -n "$qual" ] || continue
  case "$declared" in
    *" $qual "*) ;;
    *) echo "optlint: allowlisted $qual is not declared any more: delete its allowlist entry"; fail=1 ;;
  esac
done <<<"$allowlist"

if [ "$count" -eq 0 ]; then
  echo "optlint: found no exported options — declaration extraction broke?"
  exit 1
fi
if [ "$fail" -ne 0 ]; then
  echo "optlint: FAIL"
  exit 1
fi
echo "optlint: PASS ($count exported options checked, $(grep -c . <<<"$allowlist") allowlisted)"
