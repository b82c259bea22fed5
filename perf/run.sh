#!/bin/sh
# Builds the benchmark from the source tree this script sits in and runs
# it with the given arguments:
#
#   sh perf/run.sh --workload forward --seed 3 --seconds 30 --trace 0
#
# --root pins the dune workspace to this tree even when a directory above
# it holds a dune-project, and the shared dune cache stays off so the
# build writes only under _build.
set -e
cd "$(dirname "$0")/.."
exec dune exec --root . --cache=disabled --display quiet perf/run.exe -- "$@"
