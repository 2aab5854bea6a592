#!/bin/sh
# Build the benchmark from this checkout, then run it. Arguments pass
# through: --workload NAME --seed N --seconds S --trace 0|1 [--smoke].
set -eu
dune build --root . ./perfbench/perfbench.exe 1>&2
exec ./_build/default/perfbench/perfbench.exe "$@"
