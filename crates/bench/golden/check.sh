#!/usr/bin/env bash
# Diffs the stdout of the twelve bins that regenerate the paper's tables against the
# goldens beside this script, and exits nonzero on any difference or failed run.
# With --bless it rewrites the goldens instead.  Run from the repository root after
# `cargo build --release`.  The bins run concurrently, each into its own file, and are
# then diffed in the order below; the set takes about 21-23 s on a 2-core box, led by
# its slowest bins, fig9_traces, fig8_performance and table6_iterations --quick
# (about 11 s each when run alone).
set -u
dir=crates/bench/golden
bins=(fig2_fixed_point fig3_cost_model table3_formats
    table1_truncation table5_matrices table6_iterations table8_memory
    fig3d_locality fig8_performance fig9_traces fig10_noise ablation_format)
flags_of() {
    case $1 in
        fig2_fixed_point | fig3_cost_model | table3_formats) flags=() ;;
        *) flags=(--quick) ;;
    esac
}
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
for bin in "${bins[@]}"; do
    flags_of "$bin"
    (
        ./target/release/"$bin" "${flags[@]}" >"$out/$bin.txt"
        echo $? >"$out/$bin.status"
    ) &
done
wait
status=0
for bin in "${bins[@]}"; do
    flags_of "$bin"
    if [ "$(cat "$out/$bin.status")" != 0 ]; then
        echo "$bin ${flags[*]} failed" >&2
        status=1
    elif [ "${1-}" = --bless ]; then
        cp "$out/$bin.txt" "$dir/$bin.txt"
    elif ! diff -u "$dir/$bin.txt" - <"$out/$bin.txt"; then
        status=1
    fi
done
exit $status
