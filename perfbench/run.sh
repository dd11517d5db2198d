#!/usr/bin/env bash
# Builds perfbench from the checkout it is run in and runs it with the
# given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload kv-point --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binary, Go build cache, span files, run
# records) goes under $CARGO_TARGET_DIR, or .bench_build when it is unset.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/perfbench/tmp"

export GOCACHE=$out/perfbench/gocache
export GOMODCACHE=$out/perfbench/gomodcache
export GOTMPDIR=$out/perfbench/tmp
export XDG_CONFIG_HOME=$out/perfbench/config
export GOTOOLCHAIN=local
export GOFLAGS=
export GOWORK=off
export GOPROXY=off

(cd "$root/perfbench" && go build -o "$out/perfbench/perfbench" .) >&2
exec "$out/perfbench/perfbench" "$@"
