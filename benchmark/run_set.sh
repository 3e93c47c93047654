#!/usr/bin/env bash
# Collects one set of runs for `refloat-benchmark --compare`: every workload at each
# of the given seeds (default: ten seeds), one result line per run, into
# OUT_DIR/<workload>.jsonl.  Run it from the repo root.
#
#   benchmark/run_set.sh OUT_DIR [SEED...]
#
# Every run is an end-to-end run of the benchmark's own length, so two sets differ
# only in the commit they were built from.  Build output goes to CARGO_TARGET_DIR, or
# ./target.
set -euo pipefail

out="${1:?usage: benchmark/run_set.sh OUT_DIR [SEED...]}"
shift
if [ "$#" -gt 0 ]; then seeds=("$@"); else seeds=(11 12 13 14 15 16 17 18 19 20); fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"

cargo build --release --quiet --manifest-path benchmark/Cargo.toml
bin="$CARGO_TARGET_DIR/release/refloat-benchmark"
mkdir -p "$out"
# `--list` opens with the workloads, one indented name per line, up to a blank line.
"$bin" --list | awk 'NR > 1 && NF == 0 { exit } NR > 1 { print $1 }' | while read -r workload; do
    for seed in "${seeds[@]}"; do
        "$bin" --workload "$workload" --seed "$seed" 2>/dev/null |
            tail -n 1 >>"$out/$workload.jsonl" ||
            echo "$workload seed $seed failed a gate; its result line is kept" >&2
    done
done
