#!/bin/sh
# Builds the benchmark and ic-lab from this checkout's sources, then runs
# the benchmark with the given arguments:
#   sh perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run it from the root of the checkout. Build output goes to stderr, so the
# last line of standard output is the result object.
#
# The benchmark and the ic-lab server it starts are pinned to the last CPU
# when taskset is available: a served query then costs two local context
# switches instead of two cross-CPU wake-ups, whose latency on a VM is set
# by the host (unpinned, closed-loop throughput spread 0.45 across five
# seeds on a 2-vCPU VM; pinned, 0.09).
set -eu
if [ ! -f dune-project ] || [ ! -d lib/runtime ] || [ ! -d bin ]; then
  echo "perfbench/run.sh: run from the root of a repository checkout" >&2
  exit 2
fi
dune build --root . ./perfbench/main.exe ./bin/ic_lab.exe 1>&2
if command -v taskset >/dev/null 2>&1 && command -v nproc >/dev/null 2>&1; then
  exec taskset -c "$(($(nproc) - 1))" ./_build/default/perfbench/main.exe "$@"
fi
exec ./_build/default/perfbench/main.exe "$@"
