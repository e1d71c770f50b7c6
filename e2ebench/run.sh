#!/usr/bin/env bash
# Builds stppd and the e2ebench driver from the checkout in the current
# directory, then runs the benchmark with the given arguments:
#
#   bash e2ebench/run.sh --workload aisle-durable --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under $CARGO_TARGET_DIR
# (default .bench_build): binaries, the Go build cache, temp files and
# the daemons' data directories.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp TMPDIR=$out/tmp GOPATH=$out/home/go \
	GOMODCACHE=$out/home/go/pkg/mod XDG_CONFIG_HOME=$out/home/.config \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOTELEMETRY=off
if [ ! -f go.mod ] || [ ! -d cmd/stppd ] || [ ! -f e2ebench/go.mod ]; then
	echo "e2ebench: run from the root of a repository checkout" >&2
	exit 2
fi
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/home"
go build -o "$out/bin/stppd" ./cmd/stppd >&2
(cd e2ebench && go build -o "$out/bin/e2ebench" .) >&2
exec "$out/bin/e2ebench" -out "$out" "$@"
