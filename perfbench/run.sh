#!/usr/bin/env bash
# Build the benchmark and the guardrail CLI from this checkout, then run
# one workload:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Build output goes to stderr; the last line of stdout is the result.
set -euo pipefail
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi
dune build --root . ./perfbench/bench.exe ./bin/guardrail_cli.exe 1>&2
exec ./_build/default/perfbench/bench.exe "$@"
