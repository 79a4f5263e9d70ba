#!/bin/sh
# Same-host A/B of the end-to-end benchmark (perfbench): a base revision
# against this checkout's working tree.
#
#   scripts/bench_ab.sh BASE [WORKLOAD] [ROUNDS]
#
# BASE is any git revision that has perfbench/run.sh. WORKLOAD
# defaults to stream-geant-ic and ROUNDS to 3. BASE is exported with
# `git archive` into a temporary directory (removed on exit; set TMPDIR to
# choose where) and built there. Base and head then run interleaved, one
# run each per round, for BENCHMARK.json's run_seconds with --trace 0; the
# side that runs first alternates (AB BA AB ...), so a drift in host speed
# does not favour either. Both runs of a round share a seed and every round
# has its own (101, 102, ...). Finally
# `perfbench/main.exe spread base... -- head...` prints each end-to-end
# metric's base median, base quartile spread and how much worse the head
# median is (negative: better); it exits 1 if any metric got worse than
# its bound. A second table then gives, per end-to-end metric, the
# head/base median ratio and how many rounds the head won against the
# base run with the same seed — the benchmark check's nine-in-ten rule —
# and a 95% percentile-bootstrap interval on the ratio: the rounds are
# resampled as (base, head) pairs with replacement 2,000 times (awk's
# rand() under a fixed seed, so a rerun prints the same interval), the
# ratio of medians is taken for each resample, and its 2.5th and 97.5th
# percentiles are printed. An interval that excludes 1 is a change the
# rounds resolve. With fewer than 6 rounds the column reads
# "n/a (<6 rounds)" instead: so few pairs make the interval too narrow to
# trust (a 3-round A/A run of a revision against itself excluded 1 on two
# metrics, since a clean sweep of n pairs happens 2/2^n of the time with
# no change at all). The direction
# comes from BENCHMARK.json's "better" (read with jq when it is
# installed); equal values count for neither side. The exit status is the
# spread's. The run outputs are kept in the directory printed at the
# start.
set -eu

if [ $# -lt 1 ] || [ $# -gt 3 ]; then
  echo "usage: scripts/bench_ab.sh BASE [WORKLOAD] [ROUNDS]" >&2
  exit 2
fi
workload=${2:-stream-geant-ic}
rounds=${3:-3}

cd "$(dirname "$0")/.."
head_dir=$(pwd)
base=$(git rev-parse --verify "$1^{commit}")
if ! git cat-file -e "$base:perfbench/run.sh" 2>/dev/null; then
  echo "bench_ab.sh: $1 has no perfbench/run.sh" >&2
  exit 2
fi
seconds=$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' BENCHMARK.json)

work=$(mktemp -d "${TMPDIR:-/tmp}/bench_ab.XXXXXX")
out=$(mktemp -d "${TMPDIR:-/tmp}/bench_ab_out.XXXXXX")
trap 'rm -rf "$work"' EXIT
echo "base $base, head: working tree; $workload, $rounds rounds of ${seconds} s"
echo "run outputs: $out"

git archive "$base" | tar -x -C "$work"
# Build both before the first round so no build lands inside a run.
(cd "$work" && dune build --root . ./perfbench/main.exe ./bin/ic_lab.exe)
dune build --root . ./perfbench/main.exe ./bin/ic_lab.exe

r=1
while [ "$r" -le "$rounds" ]; do
  seed=$((100 + r))
  if [ $((r % 2)) -eq 1 ]; then order="base head"; else order="head base"; fi
  for side in $order; do
    if [ "$side" = base ]; then dir=$work; else dir=$head_dir; fi
    if ! (cd "$dir" && sh perfbench/run.sh --workload "$workload" \
      --seed "$seed" --seconds "$seconds" --trace 0) \
      >"$out/$side.$r.out" 2>"$out/$side.$r.err"; then
      echo "bench_ab.sh: the $side run of round $r failed:" >&2
      tail -n 5 "$out/$side.$r.err" >&2
      exit 1
    fi
    echo "round $r/$rounds: $side done (seed $seed)"
  done
  r=$((r + 1))
done

set --
r=1
while [ "$r" -le "$rounds" ]; do set -- "$@" "$out/base.$r.out"; r=$((r + 1)); done
set -- "$@" --
r=1
while [ "$r" -le "$rounds" ]; do set -- "$@" "$out/head.$r.out"; r=$((r + 1)); done
status=0
./_build/default/perfbench/main.exe spread "$@" || status=$?

# "name better" for each end-to-end metric of BENCHMARK.json.
directions() {
  if command -v jq >/dev/null 2>&1; then
    jq -r '.end_to_end[] | "\(.name) \(.better)"' BENCHMARK.json
  else
    awk '/"end_to_end"/ { on = 1 } on && /^  \]/ { on = 0 }
      on && /"name"/ { gsub(/[",]/, "", $2); name = $2 }
      on && /"better"/ { gsub(/[",]/, "", $2); print name, $2 }' BENCHMARK.json
  fi
}

# The value of metric $2 in the result line of run output $1.
value() {
  grep '^{"correct"' "$1" | tail -n 1 |
    sed -n "s/.*\"$2\": {\"value\": \([^,]*\),.*/\1/p"
}

echo
printf '%-18s %10s %21s %9s\n' metric head/base "95% bootstrap CI" "head won"
directions | while read -r name better; do
  r=1
  while [ "$r" -le "$rounds" ]; do
    echo "$(value "$out/base.$r.out" "$name") $(value "$out/head.$r.out" "$name")"
    r=$((r + 1))
  done | awk -v name="$name" -v better="$better" '
    function sort(a, n,   i, j, t) {
      for (i = 2; i <= n; i++)
        for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
    }
    function median(a, n) {
      sort(a, n)
      return n % 2 ? a[(n + 1) / 2] : (a[n / 2] + a[n / 2 + 1]) / 2
    }
    NF == 2 {
      n++; b[n] = $1; h[n] = $2
      if (better == "lower" ? $2 < $1 : $2 > $1) won++
    }
    END {
      if (n == 0) exit
      for (i = 1; i <= n; i++) { sb[i] = b[i]; sh[i] = h[i] }
      mb = median(sb, n); mh = median(sh, n)
      ratio = mb == 0 ? "n/a" : sprintf("%.4f", mh / mb)
      ci = "n/a (<6 rounds)"
      if (n >= 6) {
        srand(20261018)
        resamples = 2000; kept = 0
        for (s = 1; s <= resamples; s++) {
          for (i = 1; i <= n; i++) { k = int(rand() * n) + 1; sb[i] = b[k]; sh[i] = h[k] }
          rb = median(sb, n)
          if (rb != 0) r[++kept] = median(sh, n) / rb
        }
        ci = "n/a"
        if (kept > 0) {
          sort(r, kept)
          lo = int(0.025 * kept); if (lo < 1) lo = 1
          hi = int(0.975 * kept + 0.999999); if (hi > kept) hi = kept
          ci = sprintf("[%.4f, %.4f]", r[lo], r[hi])
        }
      }
      printf "%-18s %10s %21s %6d/%d\n", name, ratio, ci, won, n
    }'
done
exit "$status"
