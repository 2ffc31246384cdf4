#!/usr/bin/env bash
# Builds selectd, selectrouter and the harness from this checkout's sources,
# then runs one benchmark workload:
#
#   bash perfbench/run.sh --workload replica-hot --seed 1 --seconds 16 --trace 0
#
# Build outputs, the Go build cache and run artifacts all live under
# .bench_build/ at the checkout root, so a run reads and writes nothing
# outside the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOFLAGS=
export GOCACHE="$out/gocache" GOPATH="$out/gopath"
mkdir -p "$out/bin" "$out/run"

go build -o "$out/bin/selectd" ./cmd/selectd
go build -o "$out/bin/selectrouter" ./cmd/selectrouter
go -C perfbench build -o "$out/bin/perfbench" .

exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/run" "$@"
