//! A path-taking flag with no path is a usage error (status 2, one line naming the
//! flag), never a run that silently skips the output or writes it to a file named
//! after the next flag.

use std::process::Command;

fn assert_missing_value(bin: &str, args: &[&str], flag: &str) {
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
        stderr.contains(&format!("{flag} requires a value")),
        "{args:?} must name the dangling {flag}: {stderr}"
    );
    assert!(out.stdout.is_empty(), "{args:?} must not start a run");
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
