#!/usr/bin/env bash
# The benchmark's one entry point: builds once into .bench_build/ at the
# root of the checkout (Go build cache, module path and go's own config
# included, so nothing is written outside the checkout) and runs the
# binary with the given arguments. Without --workload it runs the full
# set: every workload, both passes.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
(
	cd "$here"
	GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
		GOPROXY=off GOTOOLCHAIN=local \
		go build -o "$build/mpdash-bench" .
)
exec "$build/mpdash-bench" --out "$here/out" "$@"
