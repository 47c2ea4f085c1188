#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it:
#
#   bash bench/run.sh --workload nsm-io --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh record -out bench/baseline/<sha>.json
#   bash bench/run.sh compare BASE.json CHANGE.json
#
# Everything it writes (the Go build cache, the binary, table files, span
# dumps) goes under .bench_build/ at the root of the checkout.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"
# The Go tool keeps its cache, telemetry and module downloads under these;
# point them into the checkout. The build needs no network: the only module
# required is the repository itself, replaced by ../ in bench/go.mod.
env HOME="$out/home" GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off \
	go build -C "$root/bench" -o "$out/coopscan-bench" .
cd "$root"
exec "$out/coopscan-bench" "$@"
