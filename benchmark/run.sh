#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ of the checkout it is
# run from, then runs it there with the arguments given. Nothing is read or
# written outside the checkout: the Go build cache, GOPATH and the go
# command's own config and telemetry directory live in .bench_build too.
set -euo pipefail
root=$PWD
src=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=$root/.bench_build
mkdir -p "$out"
(
	cd "$src"
	HOME=$out/home XDG_CONFIG_HOME=$out/home/.config GOCACHE=$out/go-cache GOPATH=$out/gopath \
		GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOWORK=off GOENV=off \
		go build -o "$out/divabench" .
) >&2
exec "$out/divabench" "$@"
