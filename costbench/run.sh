#!/usr/bin/env bash
# Build the benchmark from the source tree it sits in, then run it with
# the given arguments. Run from the repository root:
#   bash costbench/run.sh --workload bfs-kout --seed 2014 --seconds 20 --trace 0
# Build output goes to stderr, so the last line of stdout is the result.
# The build cache is off and temporary files stay in the checkout.
set -euo pipefail
export DUNE_CACHE=disabled TMPDIR="$PWD/.bench_tmp"
mkdir -p "$TMPDIR"
dune build --root . ./costbench/benchmark.exe 1>&2
exec ./_build/default/costbench/benchmark.exe "$@"
