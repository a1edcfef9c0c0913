#!/usr/bin/env bash
# Builds incastsim, figures and incastbench from the sources in the
# current directory (the repository root) into .bench_build/bin, then runs
# incastbench with the given arguments. Every build file, cache and
# scratch file stays under .bench_build; nothing is fetched from the
# network.
set -euo pipefail

for src in go.mod cmd/incastsim cmd/figures internal/bench/incastbench/go.mod; do
	if [ ! -e "$src" ]; then
		echo "run.sh: $src not found; run this from the root of an incastlab checkout" >&2
		exit 2
	fi
done

build="$PWD/.bench_build"
mkdir -p "$build/bin" "$build/config/go/telemetry"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
# With telemetry on (the default, "local", for a fresh config directory) the
# go command starts a detached child that outlives the build; turn it off.
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"

go build -o "$build/bin/" ./cmd/incastsim ./cmd/figures
go -C internal/bench/incastbench build -o "$build/bin/incastbench" .
exec "$build/bin/incastbench" "$@"
