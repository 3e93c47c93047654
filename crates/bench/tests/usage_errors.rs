//! Every binary parses its command line through one declared-flags call, so a flag it
//! does not take is a usage error (status 2, one line naming the flag), never a run of
//! the default mode; and a path- or number-taking flag with no value is one too, never
//! a run that silently skips the output or writes it to a file named after the next
//! flag.

use std::process::Command;

/// Every binary, with the switches and the value flags it declares.
const BINS: &[(&str, &str, &str)] = &[
    (env!("CARGO_BIN_EXE_ablation_format"), "--quick", ""),
    (env!("CARGO_BIN_EXE_fig10_noise"), "--quick", "--json"),
    (env!("CARGO_BIN_EXE_fig2_fixed_point"), "", ""),
    (env!("CARGO_BIN_EXE_fig3_cost_model"), "", ""),
    (env!("CARGO_BIN_EXE_fig3d_locality"), "--quick", "--json"),
    (
        env!("CARGO_BIN_EXE_fig8_performance"),
        "--quick --details",
        "--json",
    ),
    (env!("CARGO_BIN_EXE_fig9_traces"), "--quick", "--out"),
    (
        env!("CARGO_BIN_EXE_fig_autotune"),
        "--quick",
        "--tolerance --json",
    ),
    (
        env!("CARGO_BIN_EXE_fig_cluster"),
        "--quick",
        "--seed --json",
    ),
    (env!("CARGO_BIN_EXE_fig_faults"), "--quick", "--seed"),
    (
        env!("CARGO_BIN_EXE_fig_refinement"),
        "--quick",
        "--target --json",
    ),
    (env!("CARGO_BIN_EXE_fig_scheduling"), "--quick", "--json"),
    (
        env!("CARGO_BIN_EXE_fig_sharding"),
        "--smoke --quick",
        "--json",
    ),
    (env!("CARGO_BIN_EXE_fig_transient"), "--quick", "--seed"),
    (
        env!("CARGO_BIN_EXE_serve_traffic"),
        "--quick",
        SERVE_TRAFFIC_VALUES,
    ),
    (env!("CARGO_BIN_EXE_table1_truncation"), "--quick", "--json"),
    (env!("CARGO_BIN_EXE_table3_formats"), "", ""),
    (
        env!("CARGO_BIN_EXE_table5_matrices"),
        "--quick --cond",
        "--json",
    ),
    (env!("CARGO_BIN_EXE_table6_iterations"), "--quick", "--json"),
    (env!("CARGO_BIN_EXE_table8_memory"), "--quick", "--json"),
];

const SERVE_TRAFFIC_VALUES: &str = "--jobs --workers --seed --cache --json --trace --nodes \
    --max-in-system --quota --arrivals --rate --tenants --skew";

/// Runs `bin` with `args` and asserts a usage error: exit status 2, one line on stderr
/// that contains `names`, and no run started (empty stdout).
fn assert_usage_error(bin: &str, args: &[&str], names: &str) {
    // A scratch working directory, so a regression that takes the next flag for a
    // path cannot litter the crate with a file named `--quick`.
    let dir = std::env::temp_dir().join(format!("refloat_usage_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let out = Command::new(bin)
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("spawn the binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{bin} {args:?} must exit 2; stderr: {stderr}"
    );
    assert_eq!(
        stderr.trim_end().lines().count(),
        1,
        "{bin} {args:?} must print one line: {stderr}"
    );
    assert!(
        stderr.contains(names),
        "{bin} {args:?} must say {names:?}: {stderr}"
    );
    assert!(out.stdout.is_empty(), "{bin} {args:?} must not start a run");
}

fn assert_missing_value(bin: &str, args: &[&str], flag: &str) {
    assert_usage_error(bin, args, &format!("{flag} requires a value"));
}

#[test]
fn every_bin_refuses_a_flag_it_does_not_take() {
    for &(bin, switches, _) in BINS {
        assert_usage_error(bin, &["--bogus"], "unknown flag --bogus");
        for switch in switches.split_whitespace() {
            assert_usage_error(bin, &[switch, "--bogus"], "unknown flag --bogus");
            assert_usage_error(bin, &["--bogus", switch], "unknown flag --bogus");
        }
    }
}

#[test]
fn every_dangling_value_flag_is_a_missing_value() {
    for &(bin, switches, value_flags) in BINS {
        for flag in value_flags.split_whitespace() {
            assert_missing_value(bin, &[flag], flag);
            for switch in switches.split_whitespace() {
                assert_missing_value(bin, &[switch, flag], flag);
                assert_missing_value(bin, &[flag, switch], flag);
            }
        }
    }
}

#[test]
fn a_typo_a_stray_flag_or_a_pathless_out_never_runs() {
    assert_usage_error(
        env!("CARGO_BIN_EXE_table5_matrices"),
        &["--quik"],
        "unknown flag --quik",
    );
    assert_usage_error(
        env!("CARGO_BIN_EXE_fig_faults"),
        &["--bogus", "--quick"],
        "unknown flag --bogus",
    );
    assert_missing_value(
        env!("CARGO_BIN_EXE_fig9_traces"),
        &["--out", "--quick"],
        "--out",
    );
}

#[test]
fn a_bad_or_dangling_numeric_flag_on_a_fig_bin_is_a_usage_error() {
    let (refinement, autotune) = (
        env!("CARGO_BIN_EXE_fig_refinement"),
        env!("CARGO_BIN_EXE_fig_autotune"),
    );
    assert_usage_error(
        refinement,
        &["--quick", "--target", "ten"],
        "--target \"ten\"",
    );
    assert_usage_error(
        autotune,
        &["--quick", "--tolerance", "-1"],
        "--tolerance \"-1\"",
    );
    assert_missing_value(refinement, &["--quick", "--target"], "--target");
}

#[test]
fn a_misspelt_switch_is_an_unknown_flag() {
    let sharding = env!("CARGO_BIN_EXE_fig_sharding");
    assert_usage_error(sharding, &["--smok"], "unknown flag --smok");
    // The three bins that take no flags at all.
    for bin in [
        env!("CARGO_BIN_EXE_fig2_fixed_point"),
        env!("CARGO_BIN_EXE_fig3_cost_model"),
        env!("CARGO_BIN_EXE_table3_formats"),
    ] {
        assert_usage_error(bin, &["--quick"], "unknown flag --quick");
    }
}
