//! Experiment harness for the ReFloat reproduction.
//!
//! Every table and figure of the paper's evaluation section has a dedicated binary in
//! `src/bin/` (the README's *Experiments and benchmarks* section sorts them, and their
//! printed tables are committed under `golden/`); this library holds the shared pieces:
//!
//! * [`experiment`] — workload preparation, the solver runs for each platform
//!   (FP64 / ReFloat / Feinberg), and the Fig. 8 performance-row computation,
//! * [`table`] — plain-text table rendering for the binaries' stdout reports,
//! * [`json`] — serialisable result records for `--json <path>`,
//! * [`args`] — the one command-line parse every binary makes
//!   ([`args::Args::from_env`]): an unknown flag, a dangling value or a bad value is a
//!   printed [`args::UsageError`] and exit code 2, never a panic or a silent default.
//!
//! The Criterion micro-benchmarks live in `benches/` and cover the wall-clock cost of
//! the building blocks themselves (SpMV, block conversion, quantized SpMV, the bit-exact
//! crossbar pipeline and whole solver iterations).

#![forbid(unsafe_code)]

pub mod args;
pub mod experiment;
pub mod json;
pub mod table;

pub use experiment::{
    solve_all_platforms, ExperimentConfig, PerformanceRow, PlatformSolve, PreparedWorkload,
};
