#!/usr/bin/env bash
# Builds the benchmark and the colab-serve binary from the sources of the
# checkout it is started in, then runs the benchmark with the given
# arguments. Run it from the root of a checkout:
#
#   bash perfbench/run.sh --workload paper-matrix --seed 1 --seconds 12 --trace 0
#
# Everything it writes (the Go build cache, binaries, temp journals and
# trace files) goes under .bench_build/perfbench in the checkout.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/colab-serve" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the root of a colab checkout (go.mod, cmd/colab-serve and perfbench/ are required)" >&2
	exit 2
fi
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config" "$out/work"
# XDG_CONFIG_HOME keeps the go command's own settings and telemetry
# counters inside the checkout too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" TMPDIR="$out/gotmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -o "$out/colab-serve" ./cmd/colab-serve
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" -work "$out/work" -serve-bin "$out/colab-serve" "$@"
