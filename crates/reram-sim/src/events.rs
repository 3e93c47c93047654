//! Cycle events: the per-phase attribution of simulated cycles and seconds (program /
//! compute / stream-write / reduction / host-fp64) that a host exports, without the
//! simulator depending on any particular telemetry backend.
//!
//! Seconds here are **simulated** seconds from the Eq. 3 cycle model — bitwise
//! reproducible, never wall clock (see the deterministic-clock contract in
//! `refloat-telemetry`).

/// A phase of chip activity that consumes simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChipPhase {
    /// Writing ReFloat blocks into crossbars (one-off per encoded matrix).
    Program,
    /// Crossbar MVM compute (the Eq. 3 pipeline).
    Compute,
    /// Streaming vector segments / results between host and chip.
    StreamWrite,
    /// Cross-chip reduction of partial results (sharded solves only).
    Reduction,
    /// Host-side fp64 work attributed to the solve (residuals, refinement).
    HostFp64,
}

impl ChipPhase {
    /// All phases, in pipeline order.
    pub const ALL: [ChipPhase; 5] = [
        ChipPhase::Program,
        ChipPhase::Compute,
        ChipPhase::StreamWrite,
        ChipPhase::Reduction,
        ChipPhase::HostFp64,
    ];

    /// A stable lowercase label for exports.
    pub fn label(self) -> &'static str {
        match self {
            ChipPhase::Program => "program",
            ChipPhase::Compute => "compute",
            ChipPhase::StreamWrite => "stream_write",
            ChipPhase::Reduction => "reduction",
            ChipPhase::HostFp64 => "host_fp64",
        }
    }
}

/// One attribution of simulated cost to a chip phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CycleEvent {
    /// The phase the cost belongs to.
    pub phase: ChipPhase,
    /// Model cycles spent in the phase (0 for host-side phases, which are modelled
    /// in seconds directly).
    pub cycles: u64,
    /// Simulated seconds spent in the phase.
    pub seconds: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_unique_and_stable() {
        let labels: Vec<&str> = ChipPhase::ALL.iter().map(|p| p.label()).collect();
        let mut dedup = labels.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len());
        assert_eq!(ChipPhase::Compute.label(), "compute");
    }
}
