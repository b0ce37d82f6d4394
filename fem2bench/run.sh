#!/usr/bin/env bash
# Builds fem2d and the benchmark from this checkout's sources, then runs
# the benchmark with the given arguments:
#
#   bash fem2bench/run.sh --workload load-sweep --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root.  Everything it builds or writes goes
# under .bench_build, including the Go build cache.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/fem2d" || ! -f "$root/fem2bench/go.mod" ]]; then
	echo "fem2bench: run from the repository root (go.mod, cmd/fem2d and fem2bench/ must be present)" >&2
	exit 2
fi
mkdir -p "$out/bin" "$out/tmp"
# Keep the go command's cache, module cache, temporary files and
# telemetry inside the checkout; the build needs no network.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go build -o "$out/bin/fem2d" ./cmd/fem2d
(cd "$root/fem2bench" && go build -o "$out/bin/fem2bench" .)
exec "$out/bin/fem2bench" -bin "$out/bin/fem2d" -workdir "$out" "$@"
