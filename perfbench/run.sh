#!/usr/bin/env bash
# Builds the perfbench binary from source and runs it from the repository
# root, passing every argument through:
#
#   bash perfbench/run.sh --workload lenet-fast --seed 2020 --seconds 20 --trace 0
#
# Build products, the Go build cache and the go command's config and
# telemetry directory live under $CARGO_TARGET_DIR (default
# .bench_build), so the run writes only inside the checkout.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
out=$(cd "$out" && pwd)
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/mod" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd perfbench && go build -buildvcs=false -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
