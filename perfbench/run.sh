#!/usr/bin/env bash
# Build the benchmark from the checkout's sources, then run it.
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Must be started from the repository root. Build output goes to stderr,
# so the last line of stdout is the benchmark's JSON result.
set -euo pipefail
dune build --root . ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
