#!/usr/bin/env bash
# Build the benchmark from source (release profile, its own build
# directory, no shared dune cache: nothing is written outside the
# checkout) and run it.  Usage, from the repository root:
#   bash perfbench/run.sh --workload fs-churn --seed 1 --seconds 30 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . --build-dir .bench_build --profile release \
  --cache=disabled ./perfbench/main.exe 1>&2
exec ./.bench_build/default/perfbench/main.exe "$@"
