#!/usr/bin/env bash
# fuzz_smoke.sh — run every fuzz target in the module for 20 s each.
#
# The decoders behind every trust boundary (wire frames, journal records,
# checkpoints, spilled audit state, keys, proofs, curve points) each have a
# Fuzz target whose seed corpus runs in tier-1; this gives the mutator time
# on all of them. A crasher is written to the package's testdata/fuzz
# directory by `go test` and fails the script.
set -euo pipefail
cd "$(dirname "$0")/.."

count=0
for pkg in $(go list ./...); do
  for target in $(go test "$pkg" -list '^Fuzz' | grep '^Fuzz' || true); do
    echo "== $pkg $target"
    go test "$pkg" -run '^$' -fuzz "^${target}\$" -fuzztime 20s
    count=$((count + 1))
  done
done

if [ "$count" -eq 0 ]; then
  echo "fuzz smoke: found no fuzz targets — listing broke?"
  exit 1
fi
echo "fuzz smoke: PASS ($count targets)"
