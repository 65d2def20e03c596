#!/bin/sh
# Run the seeded paper-artifact and experiment benches and write their output
# to OUT_DIR/repro_outputs.txt and OUT_DIR/exp_outputs.txt:
#
#   tools/bench_outputs.sh [build_dir] [out_dir]     # defaults: build results
#
# repro_* benches reproduce the paper's exact artifacts (Part A of
# EXPERIMENTS.md); exp_* benches are the quantitative sweeps (Part B/D).
# Every one is seeded and deterministic, so the two files change only when
# the code's behavior does.  tools/regen_results.sh writes them into
# results/; tools/results_oracle.sh compares a fresh run against results/.
set -eu

build="${1:-build}"
out_dir="${2:-results}"
if [ ! -d "$build/bench" ]; then
  echo "error: $build/bench not found; build first" >&2
  exit 1
fi

run_group() {
  out="$1"
  shift
  : > "$out"
  for name in "$@"; do
    echo "===== build/bench/$name ====="
    "$build/bench/$name"
  done > "$out"
  echo "wrote $out"
}

run_group "$out_dir/repro_outputs.txt" \
  repro_table1 repro_table2 repro_fig1_fig2 repro_fig3_fig6 repro_fig7

run_group "$out_dir/exp_outputs.txt" \
  exp_delays exp_false_causality exp_buffering exp_metadata exp_ws \
  exp_loss exp_partial exp_crash
