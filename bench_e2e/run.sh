#!/bin/sh
# Build the end-to-end benchmark from source, then run it with every
# argument passed through, e.g.
#   sh bench_e2e/run.sh --workload grid-uniform --seed 1 --seconds 10 --trace 0
# Run from the repository root. Build output goes to _build/ (stderr);
# stdout carries only the benchmark's result lines.
set -e
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "run.sh: no dune-project and lib/ here; run from the repository root" >&2
  exit 2
fi
dune build --root . --cache=disabled -j 2 --display quiet ./bench_e2e/e2e.exe >&2
exec ./_build/default/bench_e2e/e2e.exe "$@"
