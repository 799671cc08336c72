#!/usr/bin/env bash
# crash_smoke.sh — end-to-end crash-recovery smoke test of the durable
# audit CLI.
#
#   1. Runs a full durable audit (`dsn-audit -state A`) to completion and
#      captures its audit summary and balance deltas as the reference.
#   2. Starts the same audit against a second state dir with a per-tick
#      delay, kills it with SIGKILL once the journal has witnessed some
#      settled rounds, and resumes it with `dsn-audit resume -state B`.
#   3. The resumed run must exit 0 and print the same audit summary and
#      the same owner/provider balance deltas as the uninterrupted run.
#   4. A second resume of the finished state dir must be idempotent, and a
#      corrupted journal shard must be refused with exit code 3.
#   5. The same audit interrupted with SIGINT instead: the clean exit must
#      flush the journal's buffered tail, so the resume replays every round
#      the victim reported settled and reproduces the reference.
set -euo pipefail

cd "$(dirname "$0")/.."
workdir=$(mktemp -d)
bin="$workdir/dsn-audit"
go build -o "$bin" ./cmd/dsn-audit

cleanup() { rm -rf "$workdir"; }
trap cleanup EXIT

seed=crash-smoke
args=(-seed "$seed" -rounds 6 -k 40 -providers 12)
extract() { grep -E 'audit summary|balance delta' "$1"; }

# Phase 1: uninterrupted reference run.
"$bin" -state "$workdir/ref" "${args[@]}" >"$workdir/ref.log" 2>&1 \
  || { echo "FAIL: reference run exited $?"; cat "$workdir/ref.log"; exit 1; }
extract "$workdir/ref.log" >"$workdir/ref.summary"
echo "reference run:"
cat "$workdir/ref.summary"

# Phase 2: same audit, slowed down, killed mid-run.
"$bin" -state "$workdir/crash" "${args[@]}" -tick-delay 400ms \
  >"$workdir/crash.log" 2>&1 &
victim=$!
for _ in $(seq 1 200); do
  grep -q 'progress: 2 rounds settled' "$workdir/crash.log" 2>/dev/null && break
  sleep 0.1
done
grep -q 'progress: 2 rounds settled' "$workdir/crash.log" \
  || { echo "FAIL: victim never settled 2 rounds"; cat "$workdir/crash.log"; exit 1; }
kill -9 "$victim" 2>/dev/null || true
wait "$victim" 2>/dev/null || true
if grep -q 'audit passed' "$workdir/crash.log"; then
  echo "FAIL: victim finished before the kill landed; nothing was recovered"
  exit 1
fi
echo "victim killed after: $(grep -c '^progress:' "$workdir/crash.log") progress lines"

# Phase 3: resume must finish the audit and reproduce the reference.
"$bin" resume -state "$workdir/crash" >"$workdir/resume.log" 2>&1 \
  || { echo "FAIL: resume exited $?"; cat "$workdir/resume.log"; exit 1; }
grep -E 'replayed|recovered' "$workdir/resume.log"
extract "$workdir/resume.log" >"$workdir/resume.summary"
if ! diff -u "$workdir/ref.summary" "$workdir/resume.summary"; then
  echo "FAIL: resumed outcome differs from the uninterrupted run"
  exit 1
fi
echo "resume reproduced the reference summary and balances"

# Phase 4a: resuming the now-finished state dir is idempotent.
"$bin" resume -state "$workdir/crash" >"$workdir/resume2.log" 2>&1 \
  || { echo "FAIL: idempotent re-resume exited $?"; cat "$workdir/resume2.log"; exit 1; }
extract "$workdir/resume2.log" >"$workdir/resume2.summary"
diff -u "$workdir/ref.summary" "$workdir/resume2.summary" \
  || { echo "FAIL: re-resume changed the outcome"; exit 1; }

# Phase 4b: a flipped byte mid-journal must be refused with exit code 3.
shard=$(for f in "$workdir/crash/journal/"journal-*.log; do
  [ "$(wc -c <"$f")" -gt 40 ] && { echo "$f"; break; }
done)
byte=$(od -An -tu1 -j9 -N1 "$shard" | tr -d ' ')
printf "$(printf '\\%03o' $((byte ^ 0x40)))" \
  | dd of="$shard" bs=1 seek=9 count=1 conv=notrunc 2>/dev/null
rc=0
"$bin" resume -state "$workdir/crash" >"$workdir/corrupt.log" 2>&1 || rc=$?
if [ "$rc" -ne 3 ]; then
  echo "FAIL: corrupt journal exited $rc, want 3"
  cat "$workdir/corrupt.log"
  exit 1
fi
echo "corrupt journal refused with exit 3"

# Phase 5: a clean interrupt loses nothing the victim reported. The signal
# lands inside the 400 ms tick delay that follows the progress line, so no
# further verdict can be recorded unreported and the counts must be equal.
"$bin" -state "$workdir/intr" "${args[@]}" -tick-delay 400ms \
  >"$workdir/intr.log" 2>&1 &
victim=$!
for _ in $(seq 1 200); do
  grep -q 'progress: 2 rounds settled' "$workdir/intr.log" 2>/dev/null && break
  sleep 0.1
done
grep -q 'progress: 2 rounds settled' "$workdir/intr.log" \
  || { echo "FAIL: interrupt victim never settled 2 rounds"; cat "$workdir/intr.log"; exit 1; }
kill -INT "$victim"
wait "$victim" 2>/dev/null || true
grep -q 'context canceled' "$workdir/intr.log" \
  || { echo "FAIL: victim did not exit on the interrupt"; cat "$workdir/intr.log"; exit 1; }
reported=$(grep -c '^progress:' "$workdir/intr.log")
"$bin" resume -state "$workdir/intr" >"$workdir/intr-resume.log" 2>&1 \
  || { echo "FAIL: resume after interrupt exited $?"; cat "$workdir/intr-resume.log"; exit 1; }
grep -E 'replayed|recovered' "$workdir/intr-resume.log"
replayed=$(sed -n 's/^replayed \([0-9]*\) settled round(s).*/\1/p' "$workdir/intr-resume.log")
if [ "$replayed" != "$reported" ]; then
  echo "FAIL: victim reported $reported settled rounds before the interrupt, resume replayed ${replayed:-none}"
  exit 1
fi
extract "$workdir/intr-resume.log" >"$workdir/intr-resume.summary"
diff -u "$workdir/ref.summary" "$workdir/intr-resume.summary" \
  || { echo "FAIL: outcome after interrupt + resume differs from the uninterrupted run"; exit 1; }
echo "interrupt + resume replayed all $reported reported rounds and reproduced the reference"

echo "PASS: crash smoke"
