//! ReRAM crossbar accelerator simulator for the ReFloat reproduction.
//!
//! The paper evaluates ReFloat on a simulated crossbar accelerator (Table IV); this
//! crate rebuilds that simulation infrastructure:
//!
//! * [`xbar`] — single-bit crossbars and the bit-sliced fixed-point MVM pipeline of
//!   Fig. 2 (bit-exact, used to validate the functional ReFloat operator),
//! * [`engine`] — the floating-point processing engine of Fig. 6(b/c): one ReFloat
//!   block × one vector segment through the integer pipeline, scaled by `2^{eb+ebv}`,
//! * [`cost`] — the closed-form crossbar-count (Eq. 2) and cycle-count (Eq. 3) models,
//! * [`accelerator`] — the chip-level organization (banks / clusters / crossbars of
//!   Table IV), the cluster-requirement arithmetic of §VI.B and the SpMV / solver-time
//!   model used to regenerate Fig. 8; one SpMV price ([`AcceleratorConfig::spmv_price`])
//!   covers a pool of chips executing block-row shards in parallel (makespan = slowest
//!   shard, plus a fixed-order host gather), and one chip is the pool of one,
//! * [`gpu`] — a roofline + kernel-launch latency model standing in for the V100 +
//!   cuSPARSE baseline (see the README's *Substitutions* for the argument),
//! * [`events`] — the [`CycleEvent`] record: simulated cycles and seconds attributed
//!   to one chip phase (program / compute / stream-write / reduction / host-fp64),
//! * [`noise`] — the random-telegraph-noise model of the Fig. 10 robustness study,
//! * [`fault`] — persistent device faults: seeded per-crossbar stuck-at maps, lognormal
//!   drift-with-age, wear accumulation, the [`DeviceHealth`] summary trait, and the
//!   fault-injecting [`FaultyReFloatOperator`] with spare remapping and ABFT detection.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod accelerator;
pub mod cost;
pub mod engine;
pub mod events;
pub mod fault;
pub mod gpu;
pub mod noise;
pub mod xbar;

pub use accelerator::{AcceleratorConfig, SolverKind, SolverTimeBreakdown};
pub use cost::{crossbar_count_eq2, crossbars_per_cluster, cycle_count_eq3};
pub use events::{ChipPhase, CycleEvent};
pub use fault::{
    ChipFaultState, DeviceHealth, FaultMap, FaultModelConfig, FaultyReFloatOperator, HealthSummary,
};
pub use gpu::GpuModel;
pub use noise::NoisyReFloatOperator;
