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
# its bound. The run outputs are kept in the directory printed at the
# start.
#
# Only the medians are compared: there is no confidence interval yet.
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
./_build/default/perfbench/main.exe spread "$@"
