#!/bin/sh
# bench_pairs.sh — judge a performance change by alternating parent/change
# pairs of one benchmark workload.
#
#   scripts/bench_pairs.sh <parent-checkout> <change-checkout> <workload> <seed>...
#
# For every seed it runs the driver's own command,
#
#   bash bench/run.sh --workload W --seed S --seconds 16 --trace 0
#
# once in each checkout, alternating which side goes first, and reads only the
# last line of each run (the JSON object the driver reads). Per end-to-end
# metric of BENCHMARK.json it prints each side's median and quartiles, the
# pairs the change won and lost (ties count for neither), the parent's inter-quartile
# distance, and a verdict by the rule every perf PR since 13 has applied by
# hand (choosing-metrics guide, section 8): "gain" when the change won at
# least nine tenths of the pairs and the medians are apart by more than the
# parent's inter-quartile distance; "WORSE" when the change's median is worse
# than the parent's by more than the metric's bound. Give it at least ten
# seeds not used while writing the change. The raw last lines are kept in
# $BENCH_PAIRS_OUT when that names a file. Exit status 1 if a run failed, was
# incorrect, or any metric reads WORSE.
set -eu

if [ $# -lt 4 ]; then
  echo "usage: $0 <parent-checkout> <change-checkout> <workload> <seed>..." >&2
  exit 2
fi
parent=$1
change=$2
workload=$3
shift 3

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
runs="$tmp/runs"
: >"$runs"

pair=0
for seed in "$@"; do
  pair=$((pair + 1))
  if [ $((pair % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
  for side in $order; do
    if [ "$side" = parent ]; then dir=$parent; else dir=$change; fi
    echo "pair $pair, seed $seed: $side" >&2
    line=$( (cd "$dir" && bash bench/run.sh --workload "$workload" --seed "$seed" --seconds 16 --trace 0) | tail -n 1) || line=
    printf '%s %s %s\n' "$side" "$pair" "$line" >>"$runs"
  done
done
if [ -n "${BENCH_PAIRS_OUT:-}" ]; then cp "$runs" "$BENCH_PAIRS_OUT"; fi

awk -v workload="$workload" -v seeds="$*" '
# Quantile q of v[1..n] (sorted), linear interpolation between order statistics.
function quantile(v, n, q,    pos, lo) {
  pos = 1 + q * (n - 1); lo = int(pos)
  if (lo >= n) return v[n]
  return v[lo] + (pos - lo) * (v[lo + 1] - v[lo])
}
function sorted(src, n, dst,    i, j, t) {
  for (i = 1; i <= n; i++) dst[i] = src[i]
  for (i = 2; i <= n; i++) {
    t = dst[i]
    for (j = i - 1; j >= 1 && dst[j] > t; j--) dst[j + 1] = dst[j]
    dst[j + 1] = t
  }
}
function summary(v, n, out,    s) {
  sorted(v, n, s)
  out["med"] = quantile(s, n, 0.5); out["q1"] = quantile(s, n, 0.25); out["q3"] = quantile(s, n, 0.75)
}
function field(line, name,    pat) {
  pat = "\"" name "\":[{]\"value\":[-+0-9.eE]+"
  if (!match(line, pat)) return "missing"
  return substr(line, RSTART + length(name) + 12, RLENGTH - length(name) - 12) + 0
}
function count(line, name) {
  if (!match(line, "\"" name "\":[0-9]+")) return 0
  return substr(line, RSTART + length(name) + 3, RLENGTH - length(name) - 3) + 0
}

# First file: BENCHMARK.json, the end_to_end section only.
FNR == NR {
  if ($0 ~ /"end_to_end"/) { e2e = 1; next }
  if (e2e && $0 ~ /^[ \t]*\][ \t]*,?[ \t]*$/) e2e = 0
  if (!e2e) next
  if (match($0, /"name": *"[^"]+"/)) { m++; s = substr($0, RSTART, RLENGTH); sub(/"name": *"/, "", s); sub(/"$/, "", s); name[m] = s }
  if (match($0, /"better": *"[^"]+"/)) { s = substr($0, RSTART, RLENGTH); sub(/"better": *"/, "", s); sub(/"$/, "", s); better[m] = s }
  if (match($0, /"bound": *[0-9.]+/)) { s = substr($0, RSTART, RLENGTH); sub(/"bound": */, "", s); bound[m] = s + 0 }
  next
}

# Second file: "<side> <pair> <last JSON line>" per run.
{
  side = $1; p = $2 + 0; if (p > pairs) pairs = p
  line = $0; sub(/^[^ ]+ [^ ]+ /, "", line)
  if (line !~ /"correct":true/) { printf "pair %d, %s: run failed or incorrect: %.120s\n", p, side, line; broken = 1; next }
  attempted[side] += count(line, "attempted"); failed[side] += count(line, "failed")
  for (i = 1; i <= m; i++) {
    v = field(line, name[i])
    if (v == "missing") { printf "pair %d, %s: no metric %s\n", p, side, name[i]; broken = 1; continue }
    val[side, i, p] = v
  }
}

END {
  if (broken || pairs == 0) { print "bench_pairs: not every run produced a result"; exit 1 }
  printf "%s: %d pairs, seeds %s (bench/run.sh --seconds 16 --trace 0)\n", workload, pairs, seeds
  printf "failed/attempted: parent %d/%d, change %d/%d\n\n", failed["parent"], attempted["parent"], failed["change"], attempted["change"]
  printf "%-20s %-6s %-32s %-32s %8s %9s %11s  %s\n", "metric", "better", "parent median [q1, q3]", "change median [q1, q3]", "delta", "won-lost", "parent IQR", "verdict"
  for (i = 1; i <= m; i++) {
    won = 0; lost = 0
    for (p = 1; p <= pairs; p++) {
      a[p] = val["parent", i, p]; b[p] = val["change", i, p]
      d = b[p] - a[p]; if (better[i] == "higher") d = -d
      if (d < 0) won++; else if (d > 0) lost++
    }
    summary(a, pairs, pa); summary(b, pairs, ch)
    iqr = pa["q3"] - pa["q1"]
    diff = ch["med"] - pa["med"]; if (better[i] == "higher") diff = -diff
    rel = (pa["med"] != 0) ? diff / pa["med"] : 0
    verdict = "-"
    if (diff < 0 && won * 10 >= pairs * 9 && -diff > iqr) verdict = "gain"
    if (diff > 0 && rel > bound[i]) { verdict = "WORSE"; worse = 1 }
    printf "%-20s %-6s %-32s %-32s %+7.1f%% %4d-%-4d %11.4g  %s\n", name[i], better[i],
      sprintf("%.6g [%.6g, %.6g]", pa["med"], pa["q1"], pa["q3"]),
      sprintf("%.6g [%.6g, %.6g]", ch["med"], ch["q1"], ch["q3"]),
      100 * (ch["med"] - pa["med"]) / (pa["med"] != 0 ? pa["med"] : 1), won, lost, iqr, verdict
  }
  exit worse
}
' "$change/BENCHMARK.json" "$runs"
