#!/usr/bin/env bash
# Builds the benchmark and the catalyzerd daemon from the checkout it
# runs in, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload fork-large --seed 1 --seconds 15 --trace 0
#   bash perfbench/run.sh --workload restore-mix --seed 1 --seconds 30 --steady 5
#
# Run it from the root of the checkout. Every build output, the Go build
# cache and the trace files stay under .bench_build/ in that checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/perfbench/go.mod" ]; then
	echo "run.sh: run from the root of the checkout" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp"
# The go command also writes telemetry under the user's config directory
# and would use GOPATH for a module cache; keep both in the checkout too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off

# Both binaries come from this checkout: the daemon through the replace
# directive in perfbench/go.mod, which points at the checkout root.
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" . && go build -o "$out/bin/catalyzerd" catalyzer/cmd/catalyzerd)

exec "$out/bin/perfbench" --daemon "$out/bin/catalyzerd" --out "$out/perfbench" "$@"
