#!/usr/bin/env bash
# The benchmark's one command: build the harness if needed, then run it.
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repo root. The binary goes to $CARGO_TARGET_DIR (default:
# benchmark/target) and is rebuilt only when it is missing or older than a
# source it is built from -- `cargo build` on every run would recompile
# satmapit-service each time outside a git checkout, because its build
# script watches .git/HEAD.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
bin="$target/release/satmapit-benchmark"

stale() {
    [ ! -x "$bin" ] && return 0
    local newer
    newer="$(find "$here/src" "$here/Cargo.toml" "$here/Cargo.lock" "$here/expected_ii.txt" \
        "$here/../crates" "$here/../third_party" -type f -newer "$bin" -print -quit)"
    [ -n "$newer" ]
}

if stale; then
    CARGO_TARGET_DIR="$target" cargo build --release --offline \
        --manifest-path "$here/Cargo.toml" >&2
fi
exec "$bin" "$@"
