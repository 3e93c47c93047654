//! A path-taking flag with no path is a usage error (status 2, one line naming the
//! flag), never a run that silently skips the output or writes it to a file named
//! after the next flag.  So is a flag the binary does not take, never a run of the
//! default mode.

use std::process::Command;

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
        "{args:?} must exit 2; stderr: {stderr}"
    );
    assert_eq!(
        stderr.trim_end().lines().count(),
        1,
        "{args:?} must print one line: {stderr}"
    );
    assert!(
        stderr.contains(names),
        "{args:?} must say {names:?}: {stderr}"
    );
    assert!(out.stdout.is_empty(), "{args:?} must not start a run");
}

fn assert_missing_value(bin: &str, args: &[&str], flag: &str) {
    assert_usage_error(bin, args, &format!("{flag} requires a value"));
}

#[test]
fn a_dangling_trace_or_json_on_serve_traffic_is_a_missing_value() {
    let bin = env!("CARGO_BIN_EXE_serve_traffic");
    assert_missing_value(bin, &["--quick", "--trace"], "--trace");
    assert_missing_value(bin, &["--trace", "--quick"], "--trace");
    assert_missing_value(bin, &["--quick", "--json"], "--json");
    assert_missing_value(bin, &["--json", "--quick"], "--json");
}

#[test]
fn a_dangling_json_on_fig_cluster_is_a_missing_value() {
    let bin = env!("CARGO_BIN_EXE_fig_cluster");
    assert_missing_value(bin, &["--quick", "--json"], "--json");
    assert_missing_value(bin, &["--json", "--quick"], "--json");
}

#[test]
fn a_dangling_json_on_an_experiment_bin_is_a_missing_value() {
    assert_missing_value(
        env!("CARGO_BIN_EXE_fig_sharding"),
        &["--json", "--smoke"],
        "--json",
    );
    assert_missing_value(
        env!("CARGO_BIN_EXE_table5_matrices"),
        &["--quick", "--json"],
        "--json",
    );
    for bin in [
        env!("CARGO_BIN_EXE_fig_scheduling"),
        env!("CARGO_BIN_EXE_fig_sharding"),
        env!("CARGO_BIN_EXE_fig_autotune"),
        env!("CARGO_BIN_EXE_fig_refinement"),
        env!("CARGO_BIN_EXE_fig8_performance"),
        env!("CARGO_BIN_EXE_fig10_noise"),
        env!("CARGO_BIN_EXE_fig3d_locality"),
        env!("CARGO_BIN_EXE_table1_truncation"),
        env!("CARGO_BIN_EXE_table5_matrices"),
        env!("CARGO_BIN_EXE_table6_iterations"),
        env!("CARGO_BIN_EXE_table8_memory"),
    ] {
        assert_missing_value(bin, &["--quick", "--json"], "--json");
        assert_missing_value(bin, &["--json", "--quick"], "--json");
    }
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
fn a_flag_a_bin_does_not_take_is_an_unknown_flag() {
    let sharding = env!("CARGO_BIN_EXE_fig_sharding");
    assert_usage_error(sharding, &["--smok"], "unknown flag --smok");
    assert_usage_error(sharding, &["--smoke", "--bogus"], "unknown flag --bogus");
    // The three bins that take no flags at all.
    for bin in [
        env!("CARGO_BIN_EXE_fig2_fixed_point"),
        env!("CARGO_BIN_EXE_fig3_cost_model"),
        env!("CARGO_BIN_EXE_table3_formats"),
    ] {
        assert_usage_error(bin, &["--bogus"], "unknown flag --bogus");
        assert_usage_error(bin, &["--quick"], "unknown flag --quick");
    }
}
