#!/bin/sh
# The "no behaviour change" oracle: rerun the seeded repro_* and exp_*
# benches into a temp dir and compare byte for byte with the checked-in
# results/repro_outputs.txt and results/exp_outputs.txt.
#
#   tools/results_oracle.sh [build_dir]
#
# Exit 0 iff both files match.  A change that alters behavior on purpose
# regenerates them with tools/regen_results.sh in the same commit.
set -eu

root=$(cd "$(dirname "$0")/.." && pwd)
build="${1:-$root/build}"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

sh "$root/tools/bench_outputs.sh" "$build" "$tmp" > /dev/null
status=0
for f in repro_outputs.txt exp_outputs.txt; do
  if cmp "$tmp/$f" "$root/results/$f"; then
    echo "results/$f: byte-identical"
  else
    diff "$root/results/$f" "$tmp/$f" | head -40 >&2 || true
    status=1
  fi
done
exit "$status"
