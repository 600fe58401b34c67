#!/usr/bin/env bash
# Builds cyclebench and the daemons it drives (cscd, cscrouter) from this
# checkout, then runs cyclebench with the given arguments. Run it from the
# repository root:
#
#   bash bench/run.sh --workload lookup --seed 1 --seconds 10 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ at the
# root (the Go build cache, GOPATH and the go command's own config and
# telemetry included), and no module is downloaded.
set -euo pipefail

root=$(pwd)
for src in go.mod cmd/cscd cmd/cscrouter bench/go.mod; do
	if [ ! -e "$src" ]; then
		echo "run.sh: $src not found: run this from the root of a full checkout" >&2
		exit 1
	fi
done

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOFLAGS=

# With telemetry on, the go command starts a detached upload process that
# can outlive this script; "go telemetry off" itself starts none.
go telemetry off

go build -o "$out/bin/cscd" ./cmd/cscd
go build -o "$out/bin/cscrouter" ./cmd/cscrouter
(cd bench && go build -o "$out/bin/cyclebench" .)

exec "$out/bin/cyclebench" -bin "$out/bin" -work "$out/run" "$@"
