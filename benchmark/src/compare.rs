//! `--compare A B`: two sets of runs, side by side.
//!
//! A set is a directory holding `<workload>.jsonl`, one result line per run (what
//! `run_set.sh` collects).  For every workload and end-to-end metric this prints
//! both medians, each side's spread (interquartile distance over median, the
//! driver's measure), the ratio of B to A with A as its base, and a verdict against
//! the metric's bound.

use std::path::Path;

use crate::result::RunResult;
use crate::spec::{Better, MetricSpec, END_TO_END, WORKLOADS};
use crate::stats::{iqr_share, median};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// The runs spread wider than the bound and do not separate, so the medians
    /// cannot show whether the metric moved.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        0.0
    } else {
        iqr_share(values)
    }
}

pub fn judge(spec: &MetricSpec, a: &[f64], b: &[f64]) -> Verdict {
    let bound = spec.bound.unwrap_or(0.0);
    let (base, other) = (median(a), median(b));
    let worse_by = match spec.better {
        Better::Lower => other - base,
        Better::Higher => base - other,
    } / base.abs();
    if worse_by > bound {
        return Verdict::Worse;
    }
    let better = |x: f64, y: f64| match spec.better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let separated = b.iter().all(|&x| a.iter().all(|&y| better(x, y)));
    if (spread(a) > bound || spread(b) > bound) && !separated {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

fn read_set(dir: &Path, workload: &str) -> Result<Vec<RunResult>, String> {
    let path = dir.join(format!("{workload}.jsonl"));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .filter(|line| !line.trim().is_empty())
        .map(|line| RunResult::from_json(line).map_err(|e| format!("{}: {e}", path.display())))
        .collect()
}

/// Prints the comparison; `Ok(true)` when no metric is `worse`.
pub fn run(a: &Path, b: &Path) -> Result<bool, String> {
    let mut clean = true;
    println!(
        "{:<16} {:<22} {:>14} {:>8} {:>14} {:>8} {:>9}  verdict",
        "workload", "metric", "A median", "A iqr", "B median", "B iqr", "B/A"
    );
    for workload in WORKLOADS {
        let (runs_a, runs_b) = (read_set(a, workload.name)?, read_set(b, workload.name)?);
        if runs_a.is_empty() || runs_b.is_empty() {
            return Err(format!("{}: a set holds no run", workload.name));
        }
        for side in [&runs_a, &runs_b] {
            if let Some(bad) = side.iter().find(|r| !r.correct || r.failed > 0) {
                println!(
                    "{:<16} a run failed its correctness gate ({} of {} jobs failed)",
                    workload.name, bad.failed, bad.attempted
                );
                clean = false;
            }
        }
        for spec in END_TO_END {
            let values = |runs: &[RunResult]| -> Result<Vec<f64>, String> {
                runs.iter()
                    .map(|r| {
                        r.metric(spec.name)
                            .ok_or_else(|| format!("{}: no {}", workload.name, spec.name))
                    })
                    .collect()
            };
            let (va, vb) = (values(&runs_a)?, values(&runs_b)?);
            let verdict = judge(spec, &va, &vb);
            clean &= verdict != Verdict::Worse;
            println!(
                "{:<16} {:<22} {:>14.6e} {:>8.4} {:>14.6e} {:>8.4} {:>9.4}  {}",
                workload.name,
                spec.name,
                median(&va),
                spread(&va),
                median(&vb),
                spread(&vb),
                median(&vb) / median(&va),
                verdict.label()
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Source;

    fn lower(bound: f64) -> MetricSpec {
        MetricSpec {
            name: "latency_ms",
            unit: "ms",
            better: Better::Lower,
            bound: Some(bound),
            source: Source::Outside,
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let steady = [10.0, 10.1, 9.9, 10.0, 10.05];
        let slower = [11.5, 11.6, 11.4, 11.5, 11.55];
        assert_eq!(judge(&lower(0.10), &steady, &steady), Verdict::Ok);
        assert_eq!(judge(&lower(0.10), &steady, &slower), Verdict::Worse);
        // A gain is never `worse`, whatever the direction of the metric.
        assert_eq!(judge(&lower(0.10), &slower, &steady), Verdict::Ok);
        let higher = MetricSpec {
            better: Better::Higher,
            ..lower(0.10)
        };
        assert_eq!(judge(&higher, &slower, &steady), Verdict::Worse);

        // Runs that spread wider than the bound cannot show "unchanged" ...
        let noisy_a = [8.0, 10.0, 12.0, 9.0, 11.0];
        let noisy_b = [8.5, 10.2, 12.1, 9.1, 11.3];
        assert_eq!(judge(&lower(0.10), &noisy_a, &noisy_b), Verdict::Unresolved);
        // ... unless every run of B beats every run of A.
        let faster = [5.0, 7.0, 6.0, 6.5, 5.5];
        assert_eq!(judge(&lower(0.10), &noisy_a, &faster), Verdict::Ok);
    }
}
