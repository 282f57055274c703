#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given flags. Run it
# from the repository root:
#
#   bash perfbench/run.sh --workload lib-sort --seed 1 --seconds 45 --trace 0
#
# The binary, the Go build cache, temporary files and a traced run's
# spans all stay under .bench_build/ in the current directory. The
# build needs the repository's own go.mod one level up, so in a copy
# that holds only the benchmark it fails, and the run with it.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOENV=off GOWORK=off GOTOOLCHAIN=local GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
