#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of the
# repository:
#   bash gcbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Build output goes to standard error, so the last line of standard
# output is the benchmark's JSON result.  The build stays inside the
# checkout: dune's shared cache is off.
set -euo pipefail
cd "$(dirname "$0")/.."
DUNE_CACHE=disabled dune build --root . ./gcbench/main.exe \
  ./gcbench/hostprobe/hostprobe.exe 1>&2
exec ./_build/default/gcbench/main.exe "$@"
