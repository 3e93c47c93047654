//! The worker-side trace builder: accumulates one job's [`TraceEvent`]s locally and
//! flushes them to the shared [`TraceSink`] in a single batch, so tracing costs one
//! sink-lock acquisition per *job*.  With no sink configured every method is a no-op
//! and detail strings are never even formatted (the closures are not called).

use refloat_telemetry::{SpanKind, TraceEvent, TraceSink};

/// One job's in-flight trace.  Created per dequeued job by the worker loop and
/// threaded through `execute_job`; disabled (all no-ops) when the runtime has no
/// trace sink.
pub(crate) struct JobTrace<'a> {
    sink: Option<&'a TraceSink>,
    job_id: u64,
    worker: u64,
    seq: u32,
    events: Vec<TraceEvent>,
}

impl<'a> JobTrace<'a> {
    /// `seq_base` is the first sequence number this builder may use: the leading
    /// slots of a job's timeline belong to the submit-side admit/route events (and
    /// to one reroute event per killed chip that handed the job on), so worker
    /// events must start after them to keep `(job_id, seq)` unique.
    pub(crate) fn new(
        sink: Option<&'a TraceSink>,
        job_id: u64,
        worker: usize,
        seq_base: u32,
    ) -> Self {
        JobTrace {
            sink,
            job_id,
            worker: worker as u64,
            seq: seq_base,
            events: Vec::new(),
        }
    }

    /// Whether events are being collected (callers may skip preparing inputs).
    pub(crate) fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// The sink clock's current reading (0.0 when tracing is disabled — only ever
    /// used as the start anchor of a span that is then never emitted).
    pub(crate) fn now_s(&self) -> f64 {
        self.sink.map(|s| s.now_s()).unwrap_or(0.0)
    }

    fn push(&mut self, kind: SpanKind, start_s: f64, end_s: f64, detail: String) {
        self.events.push(TraceEvent {
            job_id: self.job_id,
            seq: self.seq,
            worker: Some(self.worker),
            kind,
            start_s,
            end_s,
            detail,
        });
        self.seq += 1;
    }

    /// An instant event at "now".
    pub(crate) fn instant(&mut self, kind: SpanKind, detail: impl FnOnce() -> String) {
        if self.sink.is_some() {
            let now = self.now_s();
            self.push(kind, now, now, detail());
        }
    }

    /// A span from an earlier [`now_s`](Self::now_s) anchor to "now".
    pub(crate) fn span(&mut self, kind: SpanKind, start_s: f64, detail: impl FnOnce() -> String) {
        if self.sink.is_some() {
            let end = self.now_s();
            self.push(kind, start_s.min(end), end, detail());
        }
    }

    /// A span of known duration ending "now" — for stages whose timing was measured
    /// elsewhere (queue wait, a cache miss's encode seconds).
    pub(crate) fn span_backdated(
        &mut self,
        kind: SpanKind,
        duration_s: f64,
        detail: impl FnOnce() -> String,
    ) {
        if self.sink.is_some() {
            let end = self.now_s();
            self.push(kind, (end - duration_s.max(0.0)).max(0.0), end, detail());
        }
    }

    /// Flushes the job's events to the sink (one lock acquisition).
    pub(crate) fn flush(self) {
        if let Some(sink) = self.sink {
            sink.record_batch(self.events);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use refloat_telemetry::ManualClock;
    use std::sync::Arc;

    #[test]
    fn disabled_trace_is_free_and_never_formats_details() {
        let mut jt = JobTrace::new(None, 1, 0, 0);
        assert!(!jt.enabled());
        jt.instant(SpanKind::Dequeue, || panic!("must not be called"));
        jt.span(SpanKind::Execute, 0.0, || panic!("must not be called"));
        jt.flush();
    }

    #[test]
    fn seq_base_reserves_leading_slots_for_cluster_events() {
        let sink = TraceSink::wall();
        let mut jt = JobTrace::new(Some(&sink), 9, 1, 2);
        jt.instant(SpanKind::Dequeue, || "after-admit-and-route".to_string());
        jt.flush();
        let events = sink.snapshot();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].seq, 2, "seqs 0/1 stay free for admit/route");
    }

    #[test]
    fn events_are_sequenced_and_flushed_as_one_batch() {
        let clock = Arc::new(ManualClock::new());
        let sink = TraceSink::new(Arc::clone(&clock) as Arc<dyn refloat_telemetry::Clock>);
        let mut jt = JobTrace::new(Some(&sink), 7, 3, 0);
        clock.set(1.0);
        let start = jt.now_s();
        clock.set(1.5);
        jt.span(SpanKind::Execute, start, || "iterations=10".to_string());
        jt.span_backdated(SpanKind::QueueWait, 0.25, String::new);
        jt.instant(SpanKind::Dequeue, || "priority=standard".to_string());
        assert!(sink.is_empty(), "nothing reaches the sink before flush");
        jt.flush();
        let events = sink.snapshot();
        assert_eq!(events.len(), 3);
        assert_eq!(
            events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert_eq!(events[0].kind, SpanKind::Execute);
        assert_eq!(events[0].start_s, 1.0);
        assert_eq!(events[0].end_s, 1.5);
        assert_eq!(events[1].start_s, 1.25);
        assert_eq!(events[2].worker, Some(3));
        assert_eq!(events[2].duration_s(), 0.0);
    }
}
