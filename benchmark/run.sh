#!/usr/bin/env bash
# The repo benchmark: builds the benchmark package (release, offline)
# and runs it. With no arguments it runs every workload with seed 42;
# see README.md for the other modes. Called from the repository root or
# from anywhere else — paths are resolved from this script's location.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# The driver sets CARGO_TARGET_DIR; a developer's build shares the
# repository's own target directory.
target="${CARGO_TARGET_DIR:-$here/../target}"
cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
exec "$target/release/pacon-benchmark" --out-dir "$here/out" "$@"
