#!/bin/sh
# Build the benchmark from source, then run it with the given arguments:
#
#   sh benchmark/run.sh --workload oe_insert --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Everything the build writes stays in
# _build/: the dune cache is off and temporary files go to _build/tmp.
set -eu
cd "$(dirname "$0")/.."
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi
export DUNE_CACHE=disabled
mkdir -p _build/tmp
TMPDIR="$(pwd)/_build/tmp"
export TMPDIR
dune build --root . --display quiet ./benchmark/main.exe >&2
exec ./_build/default/benchmark/main.exe "$@"
