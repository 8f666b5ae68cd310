#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the arguments
# given. Everything the go command leaves behind (compiler cache, temporary
# files, its own counters, the binary) stays under bench/out/, which
# bench/.gitignore names, so a run reads and writes nothing outside the
# checkout.
set -euo pipefail
bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
mkdir -p "$bench/out/tmp"
export GOCACHE=$bench/out/go-cache GOTMPDIR=$bench/out/tmp GOPATH=$bench/out/gopath
export XDG_CONFIG_HOME=$bench/out/config GOFLAGS=-buildvcs=false
go build -C "$bench" -o "$bench/out/tdpbench" .
cd "$bench/.."
exec "$bench/out/tdpbench" "$@"
