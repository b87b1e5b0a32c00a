#!/usr/bin/env bash
# Entry point of the repository benchmark. Run it from the repository root:
#
#   bash bench/run.sh --workload sweep_single --seed 1 --seconds 10 --trace 0
#
# It builds nbbench and the nbandit binary from source into .bench_build/
# (the Go build cache, temp files and toolchain state live there too, so
# nothing is written outside the checkout), then execs nbbench with the
# given arguments. Building is not timed; with a warm cache it takes about
# a second. Every flag is documented by `bash bench/run.sh -h`.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

(cd "$root/bench" && go build -o "$out/bin/nbbench" ./cmd/nbbench) >&2
go build -o "$out/bin/nbandit" ./cmd/nbandit >&2

exec "$out/bin/nbbench" -nbandit "$out/bin/nbandit" -work "$out/work" -out "$out/results" "$@"
