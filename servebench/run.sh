#!/bin/sh
# Build the jfeed daemon and the load generator from this checkout's
# sources, then run one benchmark run.  From the repository root:
#
#   sh servebench/run.sh --workload fresh-tests --seed 1 --seconds 25 --trace 0
#
# The last line of stdout is the run's JSON result.
set -e
dune build --root . --cache=disabled --display=quiet \
  ./bin/jfeed.exe ./servebench/main.exe 1>&2
exec ./_build/default/servebench/main.exe \
  --jfeed ./_build/default/bin/jfeed.exe "$@"
