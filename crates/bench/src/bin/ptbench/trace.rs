//! The traced run's recorder and the self-time decomposition.
//!
//! [`WallClock`] is the benchmark's own `Recorder`: it stamps
//! `Instant::now()` on every span boundary the program emits and keeps
//! the marks in memory. Spans nest on the one worker thread, so a layer's
//! self time is its span's duration minus the time its child spans cover.

use peertrust_telemetry::{Recorder, TraceEvent};
use serde_json::{Number, Value};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Identifies an open span. Telemetry spans (`span.start`/`span.end`) and
/// the session's causal spans (`trace.start`/`trace.end`) number
/// themselves independently, so the two id spaces are kept apart.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKey {
    Span(u64),
    Trace(u64),
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MarkKind {
    Open { key: SpanKey, name: String },
    Close { key: SpanKey },
}

/// One span boundary at `at_ns` after an arbitrary origin.
#[derive(Clone, Debug)]
pub struct Mark {
    pub at_ns: u64,
    pub kind: MarkKind,
}

/// A closed span.
#[derive(Clone, Debug, PartialEq)]
pub struct Interval {
    pub name: String,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// Per-span-name totals over a mark stream.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Decomposition {
    /// Duration minus the time child spans cover.
    pub self_ns: BTreeMap<String, u64>,
    /// Full duration.
    pub total_ns: BTreeMap<String, u64>,
    pub intervals: Vec<Interval>,
}

/// Decompose a single-threaded mark stream into self and total time per
/// span name. A close whose span was never opened here (causal spans of
/// kinds the recorder does not keep, such as the negotiation root) is
/// ignored; a close below the top of the stack first closes the spans
/// left open above it.
pub fn decompose(marks: &[Mark]) -> Decomposition {
    struct Open {
        key: SpanKey,
        name: String,
        start: u64,
        children: u64,
    }
    let mut out = Decomposition::default();
    let mut stack: Vec<Open> = Vec::new();
    for mark in marks {
        match &mark.kind {
            MarkKind::Open { key, name } => stack.push(Open {
                key: *key,
                name: name.clone(),
                start: mark.at_ns,
                children: 0,
            }),
            MarkKind::Close { key } => {
                let Some(pos) = stack.iter().rposition(|o| o.key == *key) else {
                    continue;
                };
                while stack.len() > pos {
                    let open = stack.pop().expect("stack holds the span");
                    let dur = mark.at_ns.saturating_sub(open.start);
                    *out.self_ns.entry(open.name.clone()).or_default() +=
                        dur.saturating_sub(open.children);
                    *out.total_ns.entry(open.name.clone()).or_default() += dur;
                    if let Some(parent) = stack.last_mut() {
                        parent.children += dur;
                    }
                    out.intervals.push(Interval {
                        name: open.name,
                        start_ns: open.start,
                        dur_ns: dur,
                    });
                }
            }
        }
    }
    out
}

/// The in-memory wall-clock recorder. Share it with the pipeline through
/// [`WallClock::recorder`] and drain it with [`WallClock::take`].
pub struct WallClock {
    origin: Instant,
    marks: Mutex<Vec<Mark>>,
}

impl WallClock {
    pub fn new() -> Arc<WallClock> {
        Arc::new(WallClock {
            origin: Instant::now(),
            marks: Mutex::new(Vec::new()),
        })
    }

    pub fn recorder(self: &Arc<Self>) -> Box<dyn Recorder> {
        Box::new(Shared(self.clone()))
    }

    /// Remove and return every mark recorded so far.
    pub fn take(&self) -> Vec<Mark> {
        std::mem::take(&mut *self.marks.lock().expect("recorder lock poisoned"))
    }

    fn push(&self, kind: MarkKind) {
        let at_ns = self.origin.elapsed().as_nanos() as u64;
        self.marks
            .lock()
            .expect("recorder lock poisoned")
            .push(Mark { at_ns, kind });
    }
}

struct Shared(Arc<WallClock>);

impl Recorder for Shared {
    fn record(&self, event: TraceEvent) {
        let kind = match event.kind.as_str() {
            "span.start" => MarkKind::Open {
                key: SpanKey::Span(event.span),
                name: event.str_field("name").unwrap_or("span").to_string(),
            },
            "span.end" => MarkKind::Close {
                key: SpanKey::Span(event.span),
            },
            // Only request spans are kept: the root span coincides with
            // the `negotiation` span, and gem/backoff spans are off this
            // benchmark's paths.
            "trace.start" if event.str_field("kind") == Some("request") => MarkKind::Open {
                key: SpanKey::Trace(event.u64_field("span").unwrap_or(0)),
                name: "request".to_string(),
            },
            "trace.end" => MarkKind::Close {
                key: SpanKey::Trace(event.u64_field("span").unwrap_or(0)),
            },
            _ => return,
        };
        self.0.push(kind);
    }
}

/// Chrome trace-event JSON ("X" complete events, wall-clock µs) for
/// `(job, layer, interval)` triples.
pub fn chrome_json(spans: &[(usize, &'static str, Interval)]) -> String {
    let num = |x: f64| Value::Number(Number::F64(x));
    let events = spans
        .iter()
        .map(|(job, layer, iv)| {
            Value::Object(vec![
                ("name".into(), Value::String(iv.name.clone())),
                ("cat".into(), Value::String((*layer).into())),
                ("ph".into(), Value::String("X".into())),
                ("ts".into(), num(iv.start_ns as f64 / 1e3)),
                ("dur".into(), num(iv.dur_ns as f64 / 1e3)),
                ("pid".into(), Value::Number(Number::U64(1))),
                ("tid".into(), Value::Number(Number::U64(1))),
                (
                    "args".into(),
                    Value::Object(vec![(
                        "job".into(),
                        Value::Number(Number::U64(*job as u64)),
                    )]),
                ),
            ])
        })
        .collect();
    Value::Object(vec![
        ("traceEvents".into(), Value::Array(events)),
        ("displayTimeUnit".into(), Value::String("ns".into())),
    ])
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn open(at_ns: u64, key: SpanKey, name: &str) -> Mark {
        Mark {
            at_ns,
            kind: MarkKind::Open {
                key,
                name: name.to_string(),
            },
        }
    }

    fn close(at_ns: u64, key: SpanKey) -> Mark {
        Mark {
            at_ns,
            kind: MarkKind::Close { key },
        }
    }

    /// negotiation ⊃ request ⊃ engine.solve ⊃ request, as the session
    /// nests a counter-query inside the responder's solve.
    #[test]
    fn self_time_of_nested_spans() {
        use SpanKey::{Span, Trace};
        let marks = [
            open(0, Span(1), "negotiation"),
            open(10, Trace(2), "request"),
            open(20, Span(2), "engine.solve"),
            open(30, Trace(3), "request"),
            close(60, Trace(3)),
            close(80, Span(2)),
            close(90, Trace(2)),
            // The root causal span was never opened: its end is ignored.
            close(95, Trace(1)),
            close(100, Span(1)),
        ];
        let d = decompose(&marks);
        assert_eq!(d.self_ns["negotiation"], 20);
        assert_eq!(d.self_ns["request"], 20 + 30);
        assert_eq!(d.self_ns["engine.solve"], 30);
        assert_eq!(d.total_ns["request"], 80 + 30);
        assert_eq!(
            d.self_ns.values().sum::<u64>(),
            100,
            "self times tile the root"
        );
        assert_eq!(d.intervals.len(), 4);
    }

    #[test]
    fn unbalanced_close_closes_inner_spans() {
        use SpanKey::Span;
        let marks = [
            open(0, Span(1), "outer"),
            open(5, Span(2), "inner"),
            close(20, Span(1)),
        ];
        let d = decompose(&marks);
        assert_eq!(d.total_ns["inner"], 15);
        assert_eq!(d.self_ns["outer"], 5);
    }

    #[test]
    fn chrome_export_is_valid_json() {
        let iv = Interval {
            name: "engine.solve".into(),
            start_ns: 1500,
            dur_ns: 2500,
        };
        let json = chrome_json(&[(3, "engine", iv)]);
        let v: Value = serde_json::from_str(&json).unwrap();
        let e = &v["traceEvents"][0];
        assert_eq!(e["ph"], "X");
        assert_eq!(e["ts"].as_f64(), Some(1.5));
        assert_eq!(e["dur"].as_f64(), Some(2.5));
        assert_eq!(e["args"]["job"], 3u64);
    }
}
