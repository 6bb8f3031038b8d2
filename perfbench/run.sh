#!/usr/bin/env bash
# Builds the benchmark and the lazyd daemon from the checkout it is run in,
# then runs one benchmark workload:
#
#   bash perfbench/run.sh --workload gemm-baseline --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build artefact (binaries, Go build
# cache) and every file a run writes goes under .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/lazyd" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the root of a lazydram checkout" >&2
	exit 2
fi
out=$root/.bench_build
mkdir -p "$out"
export GOCACHE=$out/gocache GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOTELEMETRY=off GOFLAGS=
go build -o "$out/lazyd" ./cmd/lazyd >&2
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -root "$root" "$@"
