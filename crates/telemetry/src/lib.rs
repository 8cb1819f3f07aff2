//! # peertrust-telemetry
//!
//! The observability layer for PeerTrust negotiations: structured tracing
//! spans, a metrics registry of named counters and histograms, and a
//! chronological per-negotiation [`Timeline`] export.
//!
//! The 2004 prototype had no instrumentation beyond Prolog trace output;
//! every experiment figure in the paper is an aggregate the authors
//! computed by hand. This crate makes those aggregates — queries issued
//! and answered per peer, messages and payload bytes on the wire,
//! disclosures granted and refused by reason, SLD resolution steps,
//! negotiation rounds and simulated ticks — first-class, so experiment
//! tables are read off a registry instead of re-derived.
//!
//! Design constraints, in order:
//!
//! 1. **Zero cost when off.** The default handle ([`Telemetry::disabled`])
//!    holds no allocation and every instrumentation site guards on
//!    [`Telemetry::enabled`], a null check. Hot paths (the SLD inner loop)
//!    accumulate into their existing counters and flush once per call.
//! 2. **Thread-safe.** [`Recorder`] implementations are `Send + Sync`;
//!    sinks lock internally. One handle serves every worker thread of the
//!    batch and serving executors.
//! 3. **No external dependencies.** Like `peertrust_crypto::sha256`, the
//!    ring buffer, registry, and JSONL writer are hand-rolled on std.
//!
//! Time is the same [`Tick`] the crypto layer uses for credential validity
//! windows: instrumented layers stamp events with their domain clock (the
//! simulated network's tick where one exists), while a global sequence
//! number gives a total order across layers.

pub mod event;
pub mod metrics;
pub mod recorder;
pub mod timeline;
pub mod trace;

pub use event::{Field, SpanId, TraceEvent, Value};
pub use metrics::{HistogramSnapshot, Metrics, MetricsSnapshot};
pub use recorder::{JsonlWriter, NoopRecorder, Recorder, RingBuffer};
pub use timeline::{Span, Timeline};
pub use trace::{critical_path_summary, to_chrome_json, CriticalPath, SpanKind, Trace, TraceSpan};

pub use peertrust_crypto::Tick;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

struct Inner {
    recorder: Box<dyn Recorder>,
    metrics: Metrics,
    /// Global event sequence — the total order across layers.
    seq: AtomicU64,
    next_span: AtomicU64,
}

/// A cloneable handle to one telemetry pipeline (recorder + metrics).
///
/// `Telemetry::disabled()` is the no-op default: no allocation, and
/// [`Telemetry::enabled`] is a null check, so instrumented code pays one
/// branch when telemetry is off.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl Telemetry {
    /// The no-op handle: records nothing, counts nothing.
    pub fn disabled() -> Telemetry {
        Telemetry { inner: None }
    }

    /// A live pipeline feeding `recorder`.
    pub fn with_recorder(recorder: Box<dyn Recorder>) -> Telemetry {
        Telemetry {
            inner: Some(Arc::new(Inner {
                recorder,
                metrics: Metrics::new(),
                // Span id 0 means "no span", so both counters start at 1.
                seq: AtomicU64::new(1),
                next_span: AtomicU64::new(1),
            })),
        }
    }

    /// A live pipeline backed by an in-memory ring buffer of `capacity`
    /// events. Returns the handle and the shared buffer for inspection.
    pub fn ring(capacity: usize) -> (Telemetry, Arc<RingBuffer>) {
        let ring = Arc::new(RingBuffer::new(capacity));
        let tele = Telemetry::with_recorder(Box::new(SharedRing(ring.clone())));
        (tele, ring)
    }

    /// The cheap guard every instrumentation site checks first.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The metrics registry, if enabled.
    pub fn metrics(&self) -> Option<&Metrics> {
        self.inner.as_deref().map(|i| &i.metrics)
    }

    /// Increment counter `name` by `by` (no-op when disabled).
    #[inline]
    pub fn incr(&self, name: &str, by: u64) {
        if let Some(inner) = self.inner.as_deref() {
            inner.metrics.incr(name, by);
        }
    }

    /// Record `value` into histogram `name` (no-op when disabled).
    #[inline]
    pub fn observe(&self, name: &str, value: u64) {
        if let Some(inner) = self.inner.as_deref() {
            inner.metrics.observe(name, value);
        }
    }

    /// Emit one event. `span`/`negotiation` may be 0 ("none").
    pub fn event(&self, at: Tick, span: SpanId, negotiation: u64, kind: &str, fields: Vec<Field>) {
        if let Some(inner) = self.inner.as_deref() {
            let seq = inner.seq.fetch_add(1, Ordering::Relaxed);
            inner.recorder.record(TraceEvent {
                seq,
                at,
                span: span.0,
                negotiation,
                kind: kind.to_string(),
                fields,
            });
        }
    }

    /// Open a span: allocates an id and emits a `span.start` event carrying
    /// the span's name. Returns [`SpanId::NONE`] when disabled, which
    /// [`Telemetry::span_end`] ignores.
    pub fn span_start(
        &self,
        at: Tick,
        negotiation: u64,
        name: &str,
        mut fields: Vec<Field>,
    ) -> SpanId {
        let Some(inner) = self.inner.as_deref() else {
            return SpanId::NONE;
        };
        let id = SpanId(inner.next_span.fetch_add(1, Ordering::Relaxed));
        fields.insert(0, Field::str("name", name));
        self.event(at, id, negotiation, "span.start", fields);
        id
    }

    /// Close a span opened with [`Telemetry::span_start`].
    pub fn span_end(&self, at: Tick, span: SpanId, negotiation: u64, fields: Vec<Field>) {
        if span == SpanId::NONE {
            return;
        }
        self.event(at, span, negotiation, "span.end", fields);
    }

    /// Flush the underlying recorder (meaningful for buffered writers).
    pub fn flush(&self) {
        if let Some(inner) = self.inner.as_deref() {
            inner.recorder.flush();
        }
    }
}

/// Adapter: an `Arc<RingBuffer>` shared between the pipeline and the
/// inspecting test/bench code.
struct SharedRing(Arc<RingBuffer>);

impl Recorder for SharedRing {
    fn record(&self, event: TraceEvent) {
        self.0.record(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let t = Telemetry::disabled();
        assert!(!t.enabled());
        t.incr("x", 1);
        t.observe("y", 5);
        t.event(0, SpanId::NONE, 0, "k", vec![]);
        let span = t.span_start(0, 0, "s", vec![]);
        assert_eq!(span, SpanId::NONE);
        t.span_end(0, span, 0, vec![]);
        assert!(t.metrics().is_none());
    }

    #[test]
    fn ring_pipeline_records_events_and_metrics() {
        let (t, ring) = Telemetry::ring(16);
        assert!(t.enabled());
        t.incr("queries", 2);
        t.incr("queries", 1);
        t.observe("depth", 4);
        let span = t.span_start(10, 7, "negotiation", vec![Field::str("goal", "r(x)")]);
        t.event(11, span, 7, "query", vec![Field::u64("qid", 1)]);
        t.span_end(12, span, 7, vec![]);

        let events = ring.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].kind, "span.start");
        assert_eq!(events[1].kind, "query");
        assert_eq!(events[2].kind, "span.end");
        // Same span id throughout, global sequence strictly increasing.
        assert!(events.iter().all(|e| e.span == span.0));
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));

        let m = t.metrics().unwrap().snapshot();
        assert_eq!(m.counters["queries"], 3);
        assert_eq!(m.histograms["depth"].count, 1);
        assert_eq!(m.histograms["depth"].max, 4);
    }

    #[test]
    fn spans_get_distinct_ids() {
        let (t, _ring) = Telemetry::ring(8);
        let a = t.span_start(0, 1, "a", vec![]);
        let b = t.span_start(0, 2, "b", vec![]);
        assert_ne!(a, b);
        assert_ne!(a, SpanId::NONE);
    }
}
