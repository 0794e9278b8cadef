#!/usr/bin/env bash
# Builds the perfbench binary from the checkout's sources and runs it with
# the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload cic-pcap --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binary, Go build cache, temp files, the Go
# toolchain's own config and telemetry) stays under $CARGO_TARGET_DIR, or
# .bench_build when that is unset.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/.." && pwd)
if [ ! -f "$root/go.mod" ]; then
	echo "perfbench: no go.mod at $root: run from a checkout of the repository" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"

# Identify the code under test: the git commit when there is one, else a
# digest of the module's Go sources.
commit=
if [ -e "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || true)
fi
if [ -z "$commit" ]; then
	commit="src-$(cd "$root" && find . -path ./.bench_build -prune -o \( -name '*.go' -o -name go.mod \) -print |
		LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-12)"
fi

export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOPROXY=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$here" && go build -trimpath -ldflags "-X main.commit=$commit" -o "$out/perfbench" .)
exec "$out/perfbench" -trace-dir "$out/trace" "$@"
