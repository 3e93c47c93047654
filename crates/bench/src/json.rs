//! Serialisable experiment records.
//!
//! Most experiment binaries can dump their results as JSON (via `--json <path>`) for
//! scripts to read; their printed tables are diffed against `crates/bench/golden/`.

use serde::{Deserialize, Serialize};
use std::path::Path;

use crate::experiment::PerformanceRow;
use reram_sim::SolverKind;

/// A serialisable snapshot of one Fig. 8 row.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct PerformanceRecord {
    /// Workload id (paper figure label).
    pub id: u32,
    /// Workload name.
    pub name: String,
    /// `"CG"` or `"BiCGSTAB"`.
    pub solver: String,
    /// Clusters required per SpMV (non-empty 128×128 blocks).
    pub clusters_required: u64,
    /// Iteration counts (None = NC).
    pub iterations_double: Option<usize>,
    /// Iterations of the ReFloat run.
    pub iterations_refloat: Option<usize>,
    /// Iterations of the Feinberg run.
    pub iterations_feinberg: Option<usize>,
    /// Modelled solver times in seconds.
    pub gpu_s: f64,
    /// Feinberg with its own convergence (None = NC).
    pub feinberg_s: Option<f64>,
    /// Feinberg-fc (FP64 iterations on Feinberg hardware).
    pub feinberg_fc_s: f64,
    /// ReFloat.
    pub refloat_s: f64,
    /// Speedup of ReFloat over the GPU.
    pub speedup_refloat_vs_gpu: f64,
    /// Speedup of ReFloat over Feinberg-fc.
    pub speedup_refloat_vs_feinberg_fc: f64,
}

impl From<&PerformanceRow> for PerformanceRecord {
    fn from(row: &PerformanceRow) -> Self {
        PerformanceRecord {
            id: row.id,
            name: row.name.to_string(),
            solver: match row.solver {
                SolverKind::Cg => "CG".to_string(),
                SolverKind::BiCgStab => "BiCGSTAB".to_string(),
            },
            clusters_required: row.clusters_required,
            iterations_double: row.iterations_double,
            iterations_refloat: row.iterations_refloat,
            iterations_feinberg: row.iterations_feinberg,
            gpu_s: row.gpu_s,
            feinberg_s: row.feinberg_s,
            feinberg_fc_s: row.feinberg_fc_s,
            refloat_s: row.refloat_s,
            speedup_refloat_vs_gpu: row.speedup_refloat(),
            speedup_refloat_vs_feinberg_fc: row.speedup_refloat_over_feinberg_fc(),
        }
    }
}

/// Writes any serialisable record set as pretty-printed JSON.
pub fn write_json<T: Serialize, P: AsRef<Path>>(path: P, records: &T) -> std::io::Result<()> {
    let text = serde_json::to_string_pretty(records)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    std::fs::write(path, text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_roundtrips_through_json() {
        let record = PerformanceRecord {
            id: 355,
            name: "crystm03".into(),
            solver: "CG".into(),
            clusters_required: 2500,
            iterations_double: Some(80),
            iterations_refloat: Some(95),
            iterations_feinberg: None,
            gpu_s: 5.0e-3,
            feinberg_s: None,
            feinberg_fc_s: 2.2e-3,
            refloat_s: 3.1e-4,
            speedup_refloat_vs_gpu: 16.1,
            speedup_refloat_vs_feinberg_fc: 7.1,
        };
        let text = serde_json::to_string(&record).unwrap();
        let back: PerformanceRecord = serde_json::from_str(&text).unwrap();
        assert_eq!(back, record);
    }

    #[test]
    fn write_json_creates_a_readable_file() {
        let dir = std::env::temp_dir().join("refloat_bench_json_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("records.json");
        write_json(&path, &vec![1, 2, 3]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains('1') && text.contains('3'));
    }
}
