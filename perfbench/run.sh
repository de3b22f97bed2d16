#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the repository root
# and replaces this shell with it, so no other process outlives a run.
# Usage: bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
# Keep every file the toolchain writes inside the checkout.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
  GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" XDG_CONFIG_HOME="$build/config" \
  GOTOOLCHAIN=local GOFLAGS=
commit=unknown
if [ -e "$root/.git" ] && command -v git >/dev/null 2>&1; then
  commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
fi
(cd "$here" && go build -trimpath -buildvcs=false -ldflags "-X main.commit=$commit" -o "$build/perfbench" .)
exec "$build/perfbench" -root "$root" "$@"
