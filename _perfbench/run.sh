#!/usr/bin/env bash
# Builds the SAMURAI benchmark from the source tree it sits in and runs
# it with the given arguments, e.g.
#
#   bash _perfbench/run.sh --workload spectra --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the current directory (the root of the source tree).
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=
# The official Go distribution installs to /usr/local/go.
command -v go >/dev/null 2>&1 || export PATH="$PATH:/usr/local/go/bin"
(cd "$root/_perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -workdir "$build/work" "$@"
