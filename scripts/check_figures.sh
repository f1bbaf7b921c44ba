#!/usr/bin/env bash
# Output gate: every section of figure_outputs.txt that runs on virtual
# time is bit-identical run to run — fig01–fig12 (batch 1) and the
# ablations, bulk_insertion, latency, commit_batch (batch 8/32, the
# batched commit path) and read_path supplements. Builds the bench
# binaries once (release), runs them, and diffs their stdout against the
# recorded sections, `wrote <path>` lines left out on both sides (they
# name the checkout); exits non-zero on any drift. commit_batch and
# read_path rewrite their BENCH_*.json at the repository root as they run.
set -euo pipefail
cd "$(dirname "$0")/.."
bins=(
  fig01_client_scalability
  fig02_path_traversal_motivation
  fig07_single_app
  fig08_multi_app
  fig09_path_traversal
  fig10_overhead
  fig11_scalability
  fig12_madbench
  ablations
  bulk_insertion
  latency
  commit_batch
  read_path
)
# figure_outputs.txt holds run_all_figures.sh's output; these are its
# sections up to wal_commit, the first one timed on the host clock.
first_unchecked="=== wal_commit ==="
cargo build --release --quiet -p pacon-bench
target="${CARGO_TARGET_DIR:-target}"
got="$target/check_figures.out"
for b in "${bins[@]}"; do
  echo "=== $b ==="
  "$target/release/$b"
  echo
done | grep -v '^wrote ' > "$got"
want() { sed "/^${first_unchecked}\$/,\$d" figure_outputs.txt | grep -v '^wrote '; }
if ! diff -u <(want) "$got"; then
  echo "check_figures: virtual-time bench stdout drifted from figure_outputs.txt" >&2
  exit 1
fi
echo "check_figures: ${#bins[@]} virtual-time bench outputs identical to figure_outputs.txt"
