#!/usr/bin/env bash
# Builds simkvd, simingestd and the e2ebench load generator from this
# checkout into .bench_build/, then runs e2ebench with the given arguments:
#
#   bash e2ebench/run.sh --workload kv-wire --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The Go build cache, GOPATH and temporary
# files live under .bench_build/ too, so nothing outside the checkout is
# written.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config/go/telemetry"
# XDG_CONFIG_HOME keeps the go command's config here too. Telemetry is turned
# off there: in its default mode the go command starts a detached child
# process (its own session) that can outlive this script.
printf 'off\n' >"$out/config/go/telemetry/mode"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go build -o "$out/simkvd" ./cmd/simkvd
go build -o "$out/simingestd" ./cmd/simingestd
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" -bin "$out" "$@"
