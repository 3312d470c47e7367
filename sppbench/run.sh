#!/usr/bin/env bash
# Build the serving-stack benchmark from source, then run it.
#   bash sppbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Build output goes to stderr; the last stdout line is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . --profile release ./sppbench/main.exe 1>&2
exec ./_build/default/sppbench/main.exe "$@"
