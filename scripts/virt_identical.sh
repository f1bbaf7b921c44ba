#!/usr/bin/env bash
# Same-numbers gate: runs the repo benchmark's four workloads (seed 42,
# 3 s each) at <rev> and at the working tree, and exits 1 if any `virt.*`
# value or the `attempted` / `failed` op counts of a workload differ.
# `virt.*` is time on the modelled cluster, bit-identical run to run, so a
# change that only restructures or speeds up the program must leave every
# one of them equal. A run repeats its workload until 3 s of host time are
# measured, so the op counts are compared per repetition.
#
#   bash scripts/virt_identical.sh <rev>
#
# <rev> is exported (`git archive`) into a temporary directory and built
# there into its own target directory, `virt_identical/` under
# `$CARGO_TARGET_DIR` (or `target/`), kept so that the next run builds
# incrementally. The working tree builds where `benchmark/run.sh` puts it.
# Each checkout writes its benchmark output to its own `benchmark/out/`.
set -euo pipefail
rev="${1:?usage: scripts/virt_identical.sh <rev>}"
root="$(cd "$(dirname "$0")/.." && pwd)"
commit="$(git -C "$root" rev-parse --verify "$rev^{commit}")"
tmp="$(mktemp -d "${TMPDIR:-/tmp}/virt_identical.XXXXXX")"
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/tree"
git -C "$root" archive "$commit" | tar -x -C "$tmp/tree"
target="${CARGO_TARGET_DIR:-$root/target}"
workloads=(create_storm stat_hot cold_evict durable_recover)

# The compared fields of one run, one per line: every `virt.*` value of
# its result line (the last line of stdout), then the op counts over the
# repetitions its DETAIL line reports.
run() { # <checkout> <target dir> <workload>
  local out="$tmp/out" err="$tmp/err"
  if ! CARGO_TARGET_DIR="$2" bash "$1/benchmark/run.sh" \
      --workload "$3" --seed 42 --seconds 3 >"$out" 2>"$err"; then
    cat "$err" >&2
    echo "virt_identical: $3 failed in $1" >&2
    return 2
  fi
  local result reps
  result="$(tail -n 1 "$out")"
  reps="$(grep -o '"reps":[0-9]*' "$out" | head -n 1 | cut -d: -f2)"
  grep -o '"virt\.[^"]*":{"value":[^,}]*' <<<"$result" | sed 's/{"value"://'
  for count in attempted failed; do
    local n
    n="$(grep -o "\"$count\":[0-9]*" <<<"$result" | cut -d: -f2)"
    echo "\"$count\" per repetition: $(awk -v n="$n" -v r="$reps" 'BEGIN { print n / r }')"
  done
}

status=0
for w in "${workloads[@]}"; do
  want="$(run "$tmp/tree" "$target/virt_identical" "$w")"
  got="$(run "$root" "$target" "$w")"
  if ! grep -q '^"virt\.' <<<"$want"; then
    echo "virt_identical: $w: no virt.* values in the result line at $rev" >&2
    status=1
  elif diff -u --label "$w@$rev" --label "$w@worktree" <(echo "$want") <(echo "$got"); then
    echo "virt_identical: $w: $(wc -l <<<"$want") fields identical"
  else
    status=1
  fi
done
if [[ $status -ne 0 ]]; then
  echo "virt_identical: the working tree's numbers differ from $rev" >&2
fi
exit $status
