#!/usr/bin/env bash
# Gate for behaviour-preserving changes: fig01–fig12 run on virtual time,
# so their stdout is bit-identical run to run. Builds the bench binaries
# once (release), runs the eight figures and diffs their stdout against
# the recorded lines of figure_outputs.txt; exits non-zero on any drift.
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
)
# figure_outputs.txt holds run_all_figures.sh's output; the figures are
# its first eight sections.
recorded_lines=172
cargo build --release --quiet -p pacon-bench
target="${CARGO_TARGET_DIR:-target}"
got="$target/check_figures.out"
for b in "${bins[@]}"; do
  echo "=== $b ==="
  "$target/release/$b"
  echo
done > "$got"
if ! diff -u <(head -n "$recorded_lines" figure_outputs.txt) "$got"; then
  echo "check_figures: fig01–fig12 stdout drifted from figure_outputs.txt" >&2
  exit 1
fi
echo "check_figures: fig01–fig12 stdout identical to figure_outputs.txt"
