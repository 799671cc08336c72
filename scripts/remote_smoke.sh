#!/usr/bin/env bash
# remote_smoke.sh — end-to-end smoke test of the remote provider transport.
#
# Launches three `dsn-audit serve` provider processes, then:
#   1. runs a clean 2-round remote audit that must pass (exit 0), and
#   2. runs a 40-round remote audit during which one provider is killed
#      mid-run: the audit must finish (no hang), exit non-zero, and show
#      exactly two EXPIRED engagements and one ABORTED (slashed) one.
set -euo pipefail

cd "$(dirname "$0")/.."
workdir=$(mktemp -d)
bin="$workdir/dsn-audit"
go build -o "$bin" ./cmd/dsn-audit

pids=()
cleanup() {
  for p in "${pids[@]:-}"; do kill "$p" 2>/dev/null || true; done
  rm -rf "$workdir"
}
trap cleanup EXIT

# Start three providers on kernel-chosen ports and collect their addresses.
# sp-a also serves /metrics, scraped mid-audit in phase 2.
addrs=()
for name in sp-a sp-b sp-c; do
  log="$workdir/$name.log"
  metrics_flag=""
  [ "$name" = sp-a ] && metrics_flag="-metrics 127.0.0.1:0"
  # shellcheck disable=SC2086
  "$bin" serve -addr 127.0.0.1:0 -name "$name" $metrics_flag >"$log" 2>&1 &
  pids+=($!)
  for _ in $(seq 1 100); do
    addr=$(grep -m1 '^LISTEN ' "$log" 2>/dev/null | cut -d' ' -f2 || true)
    [ -n "$addr" ] && break
    sleep 0.1
  done
  [ -n "$addr" ] || { echo "FAIL: $name never reported its address"; exit 1; }
  addrs+=("$addr")
done
metrics_addr=$(grep -m1 '^METRICS ' "$workdir/sp-a.log" | cut -d' ' -f2)
[ -n "$metrics_addr" ] || { echo "FAIL: sp-a never reported its metrics address"; exit 1; }
remote_list="${addrs[0]},${addrs[1]},${addrs[2]}"
echo "providers up: $remote_list"

# Phase 1: clean run must pass and exit 0.
if ! "$bin" -remote "$remote_list" -rounds 2 -seed smoke-clean \
    -call-timeout 30s >"$workdir/clean.log" 2>&1; then
  echo "FAIL: clean remote audit exited non-zero"
  tail -20 "$workdir/clean.log"
  exit 1
fi
grep -q 'audit passed' "$workdir/clean.log"
[ "$(grep -c 'state=EXPIRED' "$workdir/clean.log")" -eq 3 ]
echo "clean remote audit passed (3/3 engagements EXPIRED)"

# Phase 2: 40-round audit with provider 3 killed mid-run. A round of the
# three 1 MiB engagements settles in ~50 ms on a 2 GHz core and every prover
# speed-up shortens it, so the window is sized in rounds, not seconds: the
# kill goes out at the first progress line, before anything else, and the
# script checks that it landed in the first half of the run.
audit_log="$workdir/audit.log"
head -c 1048576 /dev/urandom >"$workdir/payload.bin"
"$bin" -remote "$remote_list" -file "$workdir/payload.bin" -rounds 40 \
  -seed smoke-kill -call-timeout 15s -retries 1 >"$audit_log" 2>&1 &
audit_pid=$!
# The first settled round streams a progress line: the earliest moment
# that is provably "mid-run".
for _ in $(seq 1 1200); do
  if grep -q 'progress: ' "$audit_log" 2>/dev/null; then break; fi
  kill -0 "$audit_pid" 2>/dev/null || break
  sleep 0.05
done
kill "${pids[2]}" 2>/dev/null || true
# The audit was still running when the kill was sent: the last progress line
# printed by then, "progress: S/T rounds settled", is short of half-way.
read -r settled total < <(grep 'progress: ' "$audit_log" | tail -1 | tr -c '0-9\n' ' ') || true
[ -n "${total:-}" ] && [ "$((2 * settled))" -lt "$total" ] \
  || { echo "FAIL: sp-c was killed with ${settled:-?}/${total:-?} rounds settled, not mid-run"; cat "$audit_log"; exit 1; }
echo "killed provider sp-c mid-run ($settled/$total rounds settled)"

# Mid-audit metrics scrape of sp-a, which is still serving its own
# engagement: with at least one round settled it has served challenges; its
# /metrics must be Prometheus-parseable with a nonzero Challenge request
# counter, and must expose the pre-declared driver-side families so one
# scrape config covers every process role.
scrape="$workdir/metrics.txt"
curl -sf "http://$metrics_addr/metrics" >"$scrape" || { echo "FAIL: /metrics scrape failed"; exit 1; }
grep -q '^# TYPE dsn_remote_requests_total counter' "$scrape" \
  || { echo "FAIL: /metrics missing dsn_remote_requests_total TYPE line"; cat "$scrape"; exit 1; }
challenges=$(grep '^dsn_remote_requests_total{type="Challenge"}' "$scrape" | awk '{print $2}')
[ -n "$challenges" ] && [ "${challenges%.*}" -gt 0 ] \
  || { echo "FAIL: mid-audit Challenge counter not positive: '$challenges'"; cat "$scrape"; exit 1; }
grep -q '^dsn_sched_ticks_total' "$scrape" \
  || { echo "FAIL: pre-declared scheduler family missing from provider /metrics"; cat "$scrape"; exit 1; }
echo "mid-audit metrics scrape ok ($challenges challenges served by sp-a)"

rc=0
wait "$audit_pid" || rc=$?
echo "audit exit code: $rc"
tail -5 "$audit_log"

[ "$rc" -eq 1 ] || { echo "FAIL: expected exit 1 (failed rounds), got $rc"; cat "$audit_log"; exit 1; }
[ "$(grep -c 'state=EXPIRED' "$audit_log")" -eq 2 ] || { echo "FAIL: want 2 surviving engagements"; cat "$audit_log"; exit 1; }
[ "$(grep -c 'state=ABORTED' "$audit_log")" -eq 1 ] || { echo "FAIL: want 1 slashed engagement"; cat "$audit_log"; exit 1; }
grep -q 'slashed' "$audit_log" || { echo "FAIL: no slashing reported"; cat "$audit_log"; exit 1; }

echo "remote smoke passed: survivors expired, killed provider slashed, exit code gates"
