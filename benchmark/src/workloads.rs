//! The five workloads: how each one's inputs are made from the seed.
//!
//! Set-up builds everything the timed region needs — matrices (and, through
//! `MatrixHandle::new`, their fingerprints), right-hand sides and the job list —
//! so the program under test only ever sees generated inputs, never the seed.

use std::sync::Arc;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use refloat_core::ReFloatConfig;
use refloat_matgen::traffic::{self, ArrivalProcess, TrafficSpec};
use refloat_matgen::{fem, generators, TransientChain, TransientSpec};
use refloat_runtime::{MatrixHandle, RefinementSpec, SolvePlan};
use refloat_solvers::{SolverConfig, SolverKind};
use refloat_sparse::CooMatrix;

/// Seed of every generated matrix except the transient chain's.  `--seed` moves the
/// right-hand sides, the job order, the tenants and the arrival times, not these
/// matrices: iteration counts, simulated cycles and solve times differ by 5-15 % from
/// one random matrix of a family to the next, which would drown what a benchmark
/// that compares two commits has to resolve.
const MATRIX_SEED: u64 = 2023;

/// The true relative residual every refined job must reach.
pub const REFINED_TARGET: f64 = 1e-8;

/// One matrix a workload solves on, with the format and solver its tenant chose.
pub struct Entry {
    pub handle: MatrixHandle,
    pub format: ReFloatConfig,
    pub solver: SolverKind,
}

/// One submission.
pub struct Job {
    pub tenant: String,
    /// Index into [`Inputs::entries`].
    pub entry: usize,
    /// `None` = the service's default all-ones right-hand side.
    pub rhs: Option<Arc<Vec<f64>>>,
    /// Open loop only: seconds after the start of the timed region the job is due.
    pub due_s: f64,
}

/// How the job list is offered to the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Drive {
    /// Closed loop, one ticket outstanding.
    OneAtATime,
    /// Closed loop: `submit` blocks on the bounded queue, a collector stamps
    /// completions from outside.
    Closed,
    /// Open loop: each job is submitted at its due time whatever the service does.
    Open,
    /// `client.sequence()`: each step waits for the previous one by construction.
    Sequence,
}

/// Shape of the service a workload runs against.
#[derive(Debug, Clone, Copy)]
pub struct Service {
    /// Workers per node.
    pub workers: usize,
    pub queue_capacity: usize,
    pub cache_capacity: usize,
    /// `Some((nodes, max_in_system))` = a `ClusterRuntime`.
    pub cluster: Option<(usize, usize)>,
}

impl Service {
    pub fn total_workers(&self) -> usize {
        self.workers * self.cluster.map_or(1, |(nodes, _)| nodes)
    }
}

pub struct Inputs {
    pub entries: Vec<Entry>,
    /// Untimed jobs run one at a time before every timed repetition.
    pub warmup: Vec<Job>,
    pub jobs: Vec<Job>,
    pub drive: Drive,
    pub service: Service,
    pub solver_config: SolverConfig,
    /// `true` = every job carries `RefinementSpec::to_target(REFINED_TARGET)`.
    pub refined: bool,
}

impl Inputs {
    pub fn plan(&self, job: &Job) -> SolvePlan {
        let entry = &self.entries[job.entry];
        let mut builder = SolvePlan::new(job.tenant.clone(), entry.handle.clone(), entry.format)
            .solver(entry.solver)
            .solver_config(self.solver_config.clone());
        if let Some(rhs) = &job.rhs {
            builder = builder.rhs(Arc::clone(rhs));
        }
        if self.refined {
            builder = builder.refinement(RefinementSpec::to_target(REFINED_TARGET));
        }
        builder.build().expect("benchmark plans are valid")
    }

    /// The right-hand side the service solves `job` against.
    pub fn rhs_of(&self, job: &Job) -> Arc<Vec<f64>> {
        match &job.rhs {
            Some(rhs) => Arc::clone(rhs),
            None => Arc::new(vec![1.0; self.entries[job.entry].handle.csr().nrows()]),
        }
    }

    /// Builds a workload's inputs from the seed; `smoke` shrinks every size so all
    /// five workloads run in seconds (unit tests).
    pub fn build(workload: &str, seed: u64, smoke: bool) -> Option<Inputs> {
        Some(match workload {
            "solve_refined" => solve_refined(seed, smoke),
            "serve_hot" => serve_hot(seed, smoke),
            "serve_cold" => serve_cold(seed, smoke),
            "transient_chain" => transient_chain(seed, smoke),
            "cluster_open" => cluster_open(seed, smoke),
            _ => return None,
        })
    }
}

fn entry(name: &str, coo: CooMatrix, format: ReFloatConfig, solver: SolverKind) -> Entry {
    Entry {
        handle: MatrixHandle::new(name, coo.to_csr()),
        format,
        solver,
    }
}

/// `(7,3,8)(5,16)`: 128-wide blocks, the `f = 8` matrix fraction the tiny-valued
/// mass matrices need, and the wide-vector class `(ev, fv) = (5, 16)`.  With the
/// narrow `(3, 8)` vector format the same refined solve takes anywhere from 222 to
/// 5 204 iterations depending on the seed (inner solves stall and run into their
/// cap); with `(5, 16)` it takes the same count every time, which is what a
/// benchmark that compares commits needs from its inputs.
fn wide_fraction() -> ReFloatConfig {
    ReFloatConfig::new(7, 3, 8, 5, 16)
}

fn default_solver_config() -> SolverConfig {
    SolverConfig::relative(1e-8)
        .with_max_iterations(5_000)
        .with_trace(false)
}

fn plain_job(index: usize, entry: usize) -> Job {
    Job {
        tenant: format!("tenant-{}", index % 16),
        entry,
        rhs: None,
        due_s: 0.0,
    }
}

/// A smooth positive source term, `1 + 0.5·sin(2πk·i/n + φ)`, with the wave number
/// `k` in 1..=8 and the phase `φ` drawn from the seed: the shape of a discretised
/// PDE load (what the transient chain also uses), different for every seed.
fn smooth_rhs(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let waves = rng.gen_range(1..=8usize) as f64;
    let phase = rng.gen::<f64>() * std::f64::consts::TAU;
    (0..n)
        .map(|i| 1.0 + 0.5 * (std::f64::consts::TAU * waves * i as f64 / n as f64 + phase).sin())
        .collect()
}

/// Dense blocks (a 27-point mass stencil, ~470 nnz per 128-block) then scattered
/// ones (a random graph, ~2 nnz per block): opposite ends of block density.
fn solve_refined(seed: u64, smoke: bool) -> Inputs {
    let (side, graph_n, mass_rhs, graph_rhs) = if smoke {
        (6, 600, 2, 2)
    } else {
        (29, 20_000, 8, 14)
    };
    let entries = vec![
        entry(
            "crystm03-analogue",
            generators::mass_matrix_3d(side, side, side, 1e-12, 0.8, MATRIX_SEED ^ 0x355),
            wide_fraction(),
            SolverKind::Cg,
        ),
        entry(
            "scattered-graph",
            generators::random_spd_graph(graph_n, 6, 1.35, 1.0, MATRIX_SEED ^ 0x2257),
            wide_fraction(),
            SolverKind::Cg,
        ),
    ];
    let seeded_rhs = |which: usize, salt: u64| {
        let n = entries[which].handle.csr().nrows();
        Some(Arc::new(smooth_rhs(n, seed.wrapping_add(salt))))
    };
    let job = |which: usize, salt: u64| Job {
        tenant: "solver".to_string(),
        entry: which,
        rhs: seeded_rhs(which, salt),
        due_s: 0.0,
    };
    let warmup = vec![job(0, 1_000), job(1, 1_001)];
    let jobs = (0..mass_rhs)
        .map(|i| job(0, i))
        .chain((0..graph_rhs).map(|i| job(1, 100 + i)))
        .collect();
    Inputs {
        entries,
        warmup,
        jobs,
        drive: Drive::OneAtATime,
        service: Service {
            workers: 1,
            queue_capacity: 4,
            cache_capacity: 32,
            cluster: None,
        },
        solver_config: default_solver_config(),
        refined: true,
    }
}

/// Eight matrices of mixed shapes, formats and solvers: `serve_traffic`'s catalog as it
/// stood when the benchmark was defined (that one is private to its binary).  This
/// copy is the benchmark's own and stays as it is whatever `serve_traffic` does later.
fn catalog(scale: usize) -> Vec<Entry> {
    let fmt = ReFloatConfig::new;
    let seed = MATRIX_SEED;
    let graph_n = 60 * scale;
    vec![
        entry(
            "minsurfo-s",
            generators::laplacian_2d(scale, scale, 0.1),
            fmt(7, 3, 3, 3, 8),
            SolverKind::Cg,
        ),
        entry(
            "crystm-s",
            generators::mass_matrix_3d(scale / 4, scale / 4, scale / 4, 1e-12, 0.8, seed ^ 0x353),
            fmt(7, 3, 8, 3, 8),
            SolverKind::Cg,
        ),
        entry(
            "wathen-s",
            generators::wathen(scale / 3, scale / 3, seed ^ 0x1288),
            fmt(7, 5, 8, 5, 16),
            SolverKind::Cg,
        ),
        entry(
            "shallow-s",
            generators::sphere_ring_3regular(64 * scale, 1e12, 0.18),
            fmt(7, 3, 3, 3, 8),
            SolverKind::Cg,
        ),
        entry(
            "gridgena-s",
            generators::anisotropic_9pt(scale, scale, 1.0, 0.05, 1e-3),
            fmt(6, 3, 3, 3, 16),
            SolverKind::Cg,
        ),
        entry(
            "thermomech-s",
            generators::random_spd_graph(graph_n, 6, 1.4, 1.0, seed ^ 0x2257),
            fmt(7, 3, 3, 3, 8),
            SolverKind::Cg,
        ),
        entry(
            "thermomech-dm-s",
            generators::random_spd_graph(graph_n, 6, 1.4, 1e-10, seed ^ 0x2259),
            fmt(6, 3, 3, 3, 8),
            SolverKind::Cg,
        ),
        entry(
            "convdiff-s",
            generators::convection_diffusion_2d(scale, scale, 8.0),
            fmt(7, 5, 16, 5, 16),
            SolverKind::BiCgStab,
        ),
    ]
}

/// Rank-skewed popularity: rank 0 is ~8x more popular than rank 7.
fn popularity(entries: usize) -> Vec<f64> {
    (0..entries).map(|rank| 1.0 / (rank as f64 + 1.0)).collect()
}

/// `jobs` picks whose per-entry counts follow `weights` exactly (largest remainder),
/// in an order shuffled by the seed.  Fixing the mix and seeding only the order keeps
/// the work of a repetition the same from seed to seed, so a throughput difference
/// between two runs is the program's and not the draw's.
fn stratified_picks(jobs: usize, weights: &[f64], seed: u64) -> Vec<usize> {
    let total: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| jobs as f64 * w / total).collect();
    let mut counts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..weights.len()).collect();
    by_remainder.sort_by(|&a, &b| {
        (exact[b] - exact[b].floor())
            .total_cmp(&(exact[a] - exact[a].floor()))
            .then(a.cmp(&b))
    });
    let short = jobs - counts.iter().sum::<usize>();
    for &which in by_remainder.iter().take(short) {
        counts[which] += 1;
    }
    let mut picks: Vec<usize> = counts
        .iter()
        .enumerate()
        .flat_map(|(which, &count)| std::iter::repeat_n(which, count))
        .collect();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    for i in (1..picks.len()).rev() {
        picks.swap(i, rng.gen_range(0..=i));
    }
    picks
}

fn one_warmup_job_per_entry(entries: &[Entry]) -> Vec<Job> {
    (0..entries.len())
        .map(|which| plain_job(which, which))
        .collect()
}

fn serve_hot(seed: u64, smoke: bool) -> Inputs {
    let (scale, jobs) = if smoke { (16, 40) } else { (48, 420) };
    let entries = catalog(scale);
    let picks = stratified_picks(jobs, &popularity(entries.len()), seed);
    Inputs {
        warmup: one_warmup_job_per_entry(&entries),
        jobs: picks
            .iter()
            .enumerate()
            .map(|(i, &which)| plain_job(i, which))
            .collect(),
        entries,
        drive: Drive::Closed,
        service: Service {
            workers: 2,
            queue_capacity: 4,
            cache_capacity: 32,
            cluster: None,
        },
        solver_config: default_solver_config(),
        refined: false,
    }
}

fn serve_cold(seed: u64, smoke: bool) -> Inputs {
    let (matrices, side, graph_n, jobs) = if smoke {
        (6, 6, 800, 12)
    } else {
        (32, 24, 27_648, 200)
    };
    let entries: Vec<Entry> = (0..matrices)
        .map(|rank| {
            let matrix_seed = MATRIX_SEED + rank as u64;
            let coo = if rank % 2 == 0 {
                generators::mass_matrix_3d(side, side, side, 1e-12, 0.8, matrix_seed)
            } else {
                generators::random_spd_graph(graph_n, 6, 1.35, 1.0, matrix_seed)
            };
            entry(
                &format!("cold-{rank}"),
                coo,
                wide_fraction(),
                SolverKind::Cg,
            )
        })
        .collect();
    // A stride coprime with the matrix count visits every matrix before any repeats,
    // so the 4-entry cache has always evicted a matrix by the time it comes back.
    // The seed picks where the cycle starts.
    let stride = if smoke { 5 } else { 7_919 };
    let start = (seed % matrices as u64) as usize;
    Inputs {
        warmup: Vec::new(),
        jobs: (0..jobs)
            .map(|i| plain_job(i, (start + i * stride) % matrices))
            .collect(),
        entries,
        drive: Drive::Closed,
        service: Service {
            workers: 2,
            queue_capacity: 4,
            cache_capacity: 4,
            cluster: None,
        },
        solver_config: SolverConfig::relative(1e-2)
            .with_max_iterations(5_000)
            .with_trace(false),
        refined: false,
    }
}

fn transient_chain(seed: u64, smoke: bool) -> Inputs {
    let (grid, steps) = if smoke { (12, 5) } else { (96, 240) };
    let chain = TransientChain::new(
        fem::poisson_2d(grid, grid, 0.2, seed),
        TransientSpec::default()
            .with_steps(steps)
            .with_seed(seed)
            .with_drift(1e-7, 0.25)
            .with_rhs_phase(1e-6)
            .with_mass(0.5, 0.0),
    );
    let mut entries = Vec::with_capacity(steps);
    let mut jobs = Vec::with_capacity(steps);
    for step in chain {
        jobs.push(Job {
            tenant: "sim".to_string(),
            entry: step.index,
            rhs: Some(Arc::new(step.rhs)),
            due_s: 0.0,
        });
        entries.push(Entry {
            handle: MatrixHandle::new(format!("heat-{}", step.index), step.matrix),
            format: wide_fraction(),
            solver: SolverKind::Cg,
        });
    }
    Inputs {
        entries,
        // Step 0 of a chain is cold by nature; warming it would hide the one full
        // encode and programming the workload is meant to amortise.
        warmup: Vec::new(),
        jobs,
        drive: Drive::Sequence,
        service: Service {
            workers: 1,
            queue_capacity: 4,
            cache_capacity: 32,
            cluster: None,
        },
        solver_config: default_solver_config(),
        refined: true,
    }
}

fn cluster_open(seed: u64, smoke: bool) -> Inputs {
    let (scale, jobs, rate_per_s) = if smoke {
        (16, 30, 60.0)
    } else {
        (32, 300, 60.0)
    };
    let entries = catalog(scale);
    // Only the arrival times and the tenants are taken from the trace; the items come
    // from `stratified_picks` below, so the generator is given a one-item catalog.
    let mut arrivals = traffic::generate(
        &TrafficSpec {
            jobs,
            tenants: 16,
            tenant_skew: 1.1,
            arrivals: ArrivalProcess::Poisson { rate_per_s },
            seed,
        },
        &[1.0],
    );
    // A Poisson trace of n arrivals spans n/rate seconds only on average (+-6% at
    // n = 300).  Stretching every trace to exactly that span keeps the gaps' shape
    // and makes the offered rate the same for every seed.
    let span_s = jobs as f64 / rate_per_s;
    let last_s = arrivals.last().map_or(span_s, |a| a.at_s);
    for arrival in &mut arrivals {
        arrival.at_s *= span_s / last_s;
    }
    let items = stratified_picks(jobs, &popularity(entries.len()), seed);
    Inputs {
        warmup: one_warmup_job_per_entry(&entries),
        jobs: arrivals
            .iter()
            .zip(items)
            .map(|(arrival, item)| Job {
                tenant: format!("tenant-{}", arrival.tenant),
                entry: item,
                rhs: None,
                due_s: arrival.at_s,
            })
            .collect(),
        entries,
        drive: Drive::Open,
        service: Service {
            workers: 1,
            // Deep enough that `submit` never blocks the arrival schedule.
            queue_capacity: 64,
            cache_capacity: 32,
            cluster: Some((2, 64)),
        },
        solver_config: default_solver_config(),
        refined: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stratified_picks_follow_the_weights_exactly_whatever_the_seed() {
        let weights = popularity(8);
        for seed in [1, 2, 2023] {
            let picks = stratified_picks(200, &weights, seed);
            assert_eq!(picks.len(), 200);
            let mut counts = [0usize; 8];
            for &p in &picks {
                counts[p] += 1;
            }
            assert_eq!(counts, [74, 37, 25, 18, 15, 12, 10, 9]);
        }
        assert_ne!(
            stratified_picks(200, &weights, 1),
            stratified_picks(200, &weights, 2)
        );
    }

    #[test]
    fn the_open_loop_schedule_is_a_pure_function_of_the_seed() {
        let schedule = |seed| -> Vec<(u64, usize, String)> {
            cluster_open(seed, true)
                .jobs
                .iter()
                .map(|j| (j.due_s.to_bits(), j.entry, j.tenant.clone()))
                .collect()
        };
        assert_eq!(schedule(7), schedule(7));
        assert_ne!(schedule(7), schedule(8));
        // Every trace spans exactly jobs/rate seconds and never runs backwards.
        let inputs = cluster_open(7, true);
        let due: Vec<f64> = inputs.jobs.iter().map(|j| j.due_s).collect();
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        assert!((due.last().unwrap() - 30.0 / 60.0).abs() < 1e-12);
    }

    #[test]
    fn the_cold_stride_visits_every_matrix_before_repeating() {
        let inputs = serve_cold(1, true);
        let first_cycle: std::collections::BTreeSet<usize> = inputs.jobs[..inputs.entries.len()]
            .iter()
            .map(|j| j.entry)
            .collect();
        assert_eq!(first_cycle.len(), inputs.entries.len());
        assert_eq!(7_919 % 32 % 2, 1, "the full-size stride is coprime with 32");
    }
}
