#!/bin/sh
# Paired wall-clock comparison of a base revision against the working
# tree, on one benchmark workload:
#
#   scripts/perf-pairs.sh WORKLOAD BASE [N] [SEED]     (make perf-pairs)
#
# BASE is exported with git archive into a temporary directory (removed
# on exit) and built there, or taken from BASE_DIR when that names an
# existing checkout of it. The script then runs N pairs of
#
#   perf.exe --workload WORKLOAD --seed SEED --seconds 20 --trace 0
#
# one on each side, flipping which side runs first every pair, and keeps
# each run's JSON result line in OUT (default: a fresh temporary
# directory). It prints both sides' median and quartiles of every
# reported metric, and for updates_per_s the number of pairs the change
# won. A gain counts when the change wins at least 9 pairs in 10 and the
# medians differ by more than the base's interquartile range. Last, for
# every end_to_end metric that BENCHMARK.json lists, it prints the
# change/base ratio of the medians, flagged REGRESSED when the change's
# median is worse than the base's by more than the metric's bound.
set -eu

if [ $# -lt 2 ]; then
  echo "usage: $0 WORKLOAD BASE [N] [SEED]" >&2
  exit 2
fi
workload=$1
base=$2
pairs=${3:-10}
seed=${4:-42}
root=$(git rev-parse --show-toplevel)
out=${OUT:-$(mktemp -d "${TMPDIR:-/tmp}/perf-pairs.XXXXXX")}
mkdir -p "$out"

if [ -n "${BASE_DIR:-}" ]; then
  base_dir=$BASE_DIR
else
  base_dir=$(mktemp -d "${TMPDIR:-/tmp}/perf-pairs-base.XXXXXX")
  trap 'rm -rf "$base_dir"' EXIT
  git -C "$root" archive "$base" | tar -x -C "$base_dir"
fi

for dir in "$base_dir" "$root"; do
  dune build --root "$dir" bench/perf/perf.exe
done

run() { # side dir pair
  (cd "$2" && ./_build/default/bench/perf/perf.exe --workload "$workload" \
     --seed "$seed" --seconds 20 --trace 0) | tail -n 1 >"$out/$1-$3.json"
}

i=1
while [ "$i" -le "$pairs" ]; do
  if [ $((i % 2)) -eq 1 ]; then
    run base "$base_dir" "$i"; run change "$root" "$i"
  else
    run change "$root" "$i"; run base "$base_dir" "$i"
  fi
  i=$((i + 1))
done

echo "$workload, seed $seed, $pairs pairs of 20 s runs; base $base; results in $out"
# "name better bound", one line per end_to_end metric of BENCHMARK.json.
specs=$(sed -n '/"end_to_end"/,/]/p' "$root/BENCHMARK.json" |
  sed -n 's/.*"name": *"\([^"]*\)".*"better": *"\([a-z]*\)".*"bound": *\([0-9.]*\).*/\1 \2 \3/p')
wrong=$(cat "$out"/*.json | grep -vc '"correct":true' || true)
[ "$wrong" -eq 0 ] || echo "WARNING: $wrong runs failed their correctness checks"
# One "side pair metric value" line per number, then per-metric summaries.
for f in "$out"/base-*.json "$out"/change-*.json; do
  name=$(basename "$f" .json)
  grep -o '"[a-z0-9_.]*":{"value":[^,}]*' "$f" |
    sed 's/^"\([^"]*\)":{"value":/\1 /' |
    sed "s/^/${name%-*} ${name##*-} /"
done | awk -v pairs="$pairs" -v specs="$specs" '
  function median(a, n) { return n % 2 ? a[(n + 1) / 2] : (a[n / 2] + a[n / 2 + 1]) / 2 }
  # Python statistics.quantiles(n=4), the exclusive method perf.exe uses
  function quart(a, n, i,   m, j, d) {
    if (n < 2) return median(a, n)
    m = n + 1; j = int(i * m / 4); if (j < 1) j = 1; if (j > n - 1) j = n - 1
    d = i * m - j * 4
    return (a[j] * (4 - d) + a[j + 1] * d) / 4
  }
  function sorted(side, k,   n, i, j, t) {
    n = 0
    for (i = 1; i <= pairs; i++) if ((side, k, i) in v) s[++n] = v[side, k, i]
    for (i = 2; i <= n; i++) { t = s[i]; for (j = i - 1; j >= 1 && s[j] > t; j--) s[j + 1] = s[j]; s[j + 1] = t }
    return n
  }
  { v[$1, $3, $2] = $4; if (!($3 in seen)) { seen[$3] = 1; order[++m] = $3 } }
  END {
    printf "%-40s %36s   %36s\n", "metric", "base median [q1, q3]", "change median [q1, q3]"
    for (k = 1; k <= m; k++) {
      key = order[k]
      n = sorted("base", key); bm = median(s, n); b1 = quart(s, n, 1); b3 = quart(s, n, 3)
      n = sorted("change", key); cm = median(s, n); c1 = quart(s, n, 1); c3 = quart(s, n, 3)
      printf "%-40s %12.6g [%10.6g, %10.6g]   %12.6g [%10.6g, %10.6g]\n", key, bm, b1, b3, cm, c1, c3
      if (key == "updates_per_s") { gain = cm - bm; iqr = b3 - b1 }
    }
    wins = 0; n = 0
    for (i = 1; i <= pairs; i++)
      if (("base", "updates_per_s", i) in v && ("change", "updates_per_s", i) in v) {
        n++; if (v["change", "updates_per_s", i] > v["base", "updates_per_s", i]) wins++
      }
    printf "updates_per_s: change won %d of %d pairs; median gain %.6g vs base IQR %.6g\n", wins, n, gain, iqr
    printf "\n%-40s %12s %12s %8s\n", "end-to-end metric (BENCHMARK.json)", "change/base", "better", "bound"
    ns = split(specs, spec, "\n")
    for (k = 1; k <= ns; k++) {
      split(spec[k], f, " "); key = f[1]; better = f[2]; bound = f[3]
      if (!(key in seen)) { printf "%-40s %12s\n", key, "missing"; continue }
      n = sorted("base", key); bm = median(s, n)
      n = sorted("change", key); cm = median(s, n)
      if (better == "higher") worse = cm < bm * (1 - bound)
      else worse = cm > bm * (1 + bound)
      ratio = bm != 0 ? sprintf("%.4f", cm / bm) : (cm == 0 ? "1" : "-")
      printf "%-40s %12s %12s %8s%s\n", key, ratio, better, bound, worse ? "  REGRESSED" : ""
    }
  }'
