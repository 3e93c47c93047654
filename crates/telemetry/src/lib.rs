//! Observability for the ReFloat solve service.
//!
//! Two independent layers, used together by `refloat-runtime` and the bench harness:
//!
//! * [`trace`] — a lightweight span/event tracing API ([`TraceSink`], [`TraceEvent`],
//!   [`SpanKind`]).  Workers batch the events of one job and flush them with a single
//!   lock acquisition; the sink exports JSON-lines through the `serde_json` shim.
//! * [`metrics`] — a [`MetricsRegistry`] of named [`Counter`]s, [`Gauge`]s and
//!   fixed-bucket [`Histogram`]s.  All hot-path updates are plain atomics (no lock),
//!   histograms from different workers merge associatively, and a [`MetricsSnapshot`]
//!   can be taken from a *live* runtime at any time.
//!
//! # Clock contract
//!
//! See [`clock`] for the deterministic-clock contract: which fields carry *wall-clock*
//! seconds (host-dependent, never part of determinism digests) and which carry
//! *simulated* seconds from the cycle-accurate cost model (bitwise reproducible).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod clock;
pub mod metrics;
pub mod sync;
pub mod trace;

pub use clock::{Clock, ManualClock, WallClock};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot};
pub use trace::{parse_jsonl, SpanKind, TraceEvent, TraceSink};
