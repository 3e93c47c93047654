#!/usr/bin/env bash
# Diffs the stdout of the twelve bins that regenerate the paper's tables against the
# goldens beside this script, and exits nonzero on any difference or failed run.
# With --bless it rewrites the goldens instead.  Run from the repository root after
# `cargo build --release`; the set takes about 95 s on a 2-core box.
set -u
dir=crates/bench/golden
out=$(mktemp)
trap 'rm -f "$out"' EXIT
status=0
for bin in fig2_fixed_point fig3_cost_model table3_formats \
    table1_truncation table5_matrices table6_iterations table8_memory \
    fig3d_locality fig8_performance fig9_traces fig10_noise ablation_format; do
    case $bin in
        fig2_fixed_point | fig3_cost_model | table3_formats) flags=() ;;
        *) flags=(--quick) ;;
    esac
    if ! ./target/release/"$bin" "${flags[@]}" >"$out"; then
        echo "$bin ${flags[*]} failed" >&2
        status=1
    elif [ "${1-}" = --bless ]; then
        cp "$out" "$dir/$bin.txt"
    elif ! diff -u "$dir/$bin.txt" - <"$out"; then
        status=1
    fi
done
exit $status
