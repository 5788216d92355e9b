#!/usr/bin/env bash
# Build the benchmark from source with dune, then run it with the given
# arguments. Run from the repository root:
#   bash perfbench/run.sh --workload corpus-warm --seed 1 --seconds 10 --trace 0
# Build output stays in the checkout (_build/); the shared dune cache is
# off so nothing is written outside it.
set -euo pipefail
export DUNE_CACHE=disabled
if ! command -v dune >/dev/null 2>&1; then
  echo "perfbench: dune not found on PATH" >&2
  exit 1
fi
dune build --root . --display quiet ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
