//! Cross-peer causal traces: DAG reconstruction, critical-path
//! profiling, and Chrome trace-event export.
//!
//! A negotiation is one *trace* (trace id = negotiation id). Inside a
//! trace, the session and the transports emit events carrying span
//! coordinates in their fields — `trace`, `span`, `parent` — where span
//! ids are allocated from a per-negotiation counter (NOT the global
//! telemetry span counter), so the reconstructed trace is deterministic
//! across runs and scheduler worker counts. Four span kinds exist:
//!
//! * **root** — the whole negotiation, opened/closed by the session
//!   (`trace.start`/`trace.end` events);
//! * **request** — one remote query evaluated by a peer, nested under
//!   the requesting span (`trace.start`/`trace.end`);
//! * **transit** — one message on the wire, derived from a `net.send`
//!   event and closed by the matching `net.deliver`; a transit that never
//!   closes was dropped by the fault lane;
//! * **backoff** — a resilience retry wait (`trace.start`/`trace.end`).
//!
//! `net.fault` events carrying a `span` field annotate the owning
//! transit span, so injected drops/delays/corruptions are visible on the
//! critical path. Because the session driver is synchronous in simulated
//! time, the whole negotiation IS the critical path; the useful output is
//! its decomposition — local solve ticks vs network wait vs retry
//! backoff — computed as exact interval-union measures that always sum
//! to the end-to-end duration.
//!
//! [`to_chrome_json`] renders traces in the Chrome trace-event format
//! (load `trace.json` at <https://ui.perfetto.dev> or
//! `chrome://tracing`): one "process" per negotiation, one "thread" lane
//! per peer, complete (`ph:"X"`) events per span, and instant events for
//! faults. The export contains no global sequence numbers, so its bytes
//! are identical for identical negotiations regardless of how many
//! scheduler workers recorded them.

use crate::event::TraceEvent;
use std::collections::BTreeMap;

/// What a reconstructed span represents.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SpanKind {
    /// The whole negotiation.
    Root,
    /// One remote query evaluated by a peer.
    Request,
    /// One message on the wire.
    Transit,
    /// A resilience retry wait.
    Backoff,
}

impl SpanKind {
    fn parse(s: &str) -> SpanKind {
        match s {
            "root" => SpanKind::Root,
            "backoff" => SpanKind::Backoff,
            "transit" => SpanKind::Transit,
            _ => SpanKind::Request,
        }
    }

    /// Category string used in the Chrome export.
    pub fn category(&self) -> &'static str {
        match self {
            SpanKind::Root => "root",
            SpanKind::Request => "request",
            SpanKind::Transit => "transit",
            SpanKind::Backoff => "backoff",
        }
    }
}

/// One node of the causal DAG.
#[derive(Clone, PartialEq, Debug)]
pub struct TraceSpan {
    /// Trace (= negotiation) this span belongs to.
    pub trace: u64,
    /// Span id, allocated per-negotiation (root is always 1).
    pub id: u64,
    /// Parent span id (0 for the root).
    pub parent: u64,
    pub name: String,
    /// Peer whose lane the span renders on (the executing/receiving peer).
    pub peer: String,
    pub kind: SpanKind,
    pub start: u64,
    pub end: u64,
    /// For transit spans: whether the message was actually delivered.
    /// A `false` here with `start == end` is a fault-lane drop.
    pub delivered: bool,
    /// Fault-lane annotations on this span, as `"<kind>@<tick>"`.
    pub faults: Vec<String>,
}

impl TraceSpan {
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// One hop on the critical path (a delivered transit span).
#[derive(Clone, PartialEq, Debug)]
pub struct Hop {
    pub span: u64,
    pub name: String,
    pub peer: String,
    pub start: u64,
    pub end: u64,
    pub faults: Vec<String>,
}

/// Exact decomposition of a negotiation's end-to-end latency. The three
/// components are interval-union measures clipped to the root span, so
/// `solve_ticks + net_wait_ticks + backoff_ticks == total_ticks` always
/// holds (overlap between backoff and in-flight transit is attributed to
/// network wait).
#[derive(Clone, PartialEq, Debug)]
pub struct CriticalPath {
    pub trace: u64,
    pub total_ticks: u64,
    /// Ticks where at least one message was in flight.
    pub net_wait_ticks: u64,
    /// Ticks spent in retry backoff with nothing in flight.
    pub backoff_ticks: u64,
    /// The remainder: local SLD solving and bookkeeping.
    pub solve_ticks: u64,
    /// Delivered transit spans, in chronological order.
    pub hops: Vec<Hop>,
}

/// The reconstructed causal DAG of one negotiation.
#[derive(Clone, PartialEq, Debug)]
pub struct Trace {
    /// Trace id (= negotiation id).
    pub id: u64,
    /// Spans sorted by id (allocation order within the negotiation).
    pub spans: Vec<TraceSpan>,
    /// Deliver events that had no matching send ([`Trace::validate`]
    /// rejects these): `(span id, tick)`.
    pub orphan_delivers: Vec<(u64, u64)>,
}

impl Trace {
    /// Reconstruct one trace per negotiation from a recorded event
    /// stream, ordered by trace id. Events without trace coordinates are
    /// ignored, so this can consume the same stream `Timeline` does.
    pub fn from_events(events: &[TraceEvent]) -> Vec<Trace> {
        let mut evs: Vec<&TraceEvent> = events.iter().collect();
        evs.sort_by_key(|e| e.seq);

        // trace id -> span id -> span, insertion-ordered per trace.
        let mut traces: BTreeMap<u64, Trace> = BTreeMap::new();
        // Fault annotations whose span did not exist yet when the fault
        // event was recorded (the simulator decides a message's fate at
        // send time, *before* it emits the `net.send` that opens the
        // transit span): `(trace, span, label, tick)`, resolved after
        // the main pass.
        let mut pending_faults: Vec<(u64, u64, String, u64)> = Vec::new();
        for e in evs {
            let Some(trace_id) = e.u64_field("trace") else {
                continue;
            };
            let t = traces.entry(trace_id).or_insert_with(|| Trace {
                id: trace_id,
                spans: Vec::new(),
                orphan_delivers: Vec::new(),
            });
            let span_id = e.u64_field("span").unwrap_or(0);
            match e.kind.as_str() {
                "trace.start" => t.spans.push(TraceSpan {
                    trace: trace_id,
                    id: span_id,
                    parent: e.u64_field("parent").unwrap_or(0),
                    name: e.str_field("name").unwrap_or("<unnamed>").to_string(),
                    peer: e.str_field("peer").unwrap_or("").to_string(),
                    kind: SpanKind::parse(e.str_field("kind").unwrap_or("")),
                    start: e.at,
                    end: e.at,
                    delivered: true,
                    faults: Vec::new(),
                }),
                "trace.end" => {
                    if let Some(s) = t.spans.iter_mut().find(|s| s.id == span_id) {
                        s.end = s.end.max(e.at);
                    }
                }
                "net.send" => t.spans.push(TraceSpan {
                    trace: trace_id,
                    id: span_id,
                    parent: e.u64_field("parent").unwrap_or(0),
                    name: format!(
                        "transit {} {}\u{2192}{}",
                        e.str_field("kind").unwrap_or("?"),
                        e.str_field("from").unwrap_or("?"),
                        e.str_field("to").unwrap_or("?"),
                    ),
                    peer: e.str_field("to").unwrap_or("").to_string(),
                    kind: SpanKind::Transit,
                    start: e.at,
                    end: e.at,
                    delivered: false,
                    faults: Vec::new(),
                }),
                "net.deliver" => {
                    match t
                        .spans
                        .iter_mut()
                        .find(|s| s.id == span_id && s.kind == SpanKind::Transit)
                    {
                        Some(s) => {
                            s.end = s.end.max(e.at);
                            s.delivered = true;
                        }
                        None => t.orphan_delivers.push((span_id, e.at)),
                    }
                }
                k if k.starts_with("net.fault") => {
                    let label = format!("{}@{}", e.str_field("kind").unwrap_or("fault"), e.at);
                    match t.spans.iter_mut().find(|s| s.id == span_id) {
                        Some(s) => {
                            s.faults.push(label);
                            s.end = s.end.max(e.at);
                        }
                        None => pending_faults.push((trace_id, span_id, label, e.at)),
                    }
                }
                _ => {}
            }
        }

        for (trace_id, span_id, label, at) in pending_faults {
            if let Some(s) = traces
                .get_mut(&trace_id)
                .and_then(|t| t.spans.iter_mut().find(|s| s.id == span_id))
            {
                s.faults.push(label);
                s.end = s.end.max(at);
            }
        }

        let mut out: Vec<Trace> = traces.into_values().collect();
        for t in &mut out {
            t.spans.sort_by_key(|s| s.id);
        }
        out
    }

    /// The span with the given id.
    pub fn span(&self, id: u64) -> Option<&TraceSpan> {
        self.spans.iter().find(|s| s.id == id)
    }

    /// The root span (parent 0), if the trace is well-formed.
    pub fn root(&self) -> Option<&TraceSpan> {
        self.spans.iter().find(|s| s.parent == 0)
    }

    /// Well-formedness: exactly one root, every parent edge resolves,
    /// every deliver matched a send, every span's interval is ordered and
    /// nested inside its parent's.
    pub fn validate(&self) -> Result<(), String> {
        if let Some(&(span, at)) = self.orphan_delivers.first() {
            return Err(format!(
                "trace {}: deliver for span {span} at tick {at} has no matching send",
                self.id
            ));
        }
        let roots = self.spans.iter().filter(|s| s.parent == 0).count();
        if roots != 1 {
            return Err(format!("trace {}: {roots} root spans (want 1)", self.id));
        }
        let by_id: BTreeMap<u64, &TraceSpan> = self.spans.iter().map(|s| (s.id, s)).collect();
        if by_id.len() != self.spans.len() {
            return Err(format!("trace {}: duplicate span ids", self.id));
        }
        for s in &self.spans {
            if s.start > s.end {
                return Err(format!(
                    "trace {}: span {} ends ({}) before it starts ({})",
                    self.id, s.id, s.end, s.start
                ));
            }
            if s.parent == 0 {
                continue;
            }
            let Some(p) = by_id.get(&s.parent) else {
                return Err(format!(
                    "trace {}: span {} has unknown parent {}",
                    self.id, s.id, s.parent
                ));
            };
            if s.start < p.start || s.end > p.end {
                return Err(format!(
                    "trace {}: span {} [{}, {}] escapes parent {} [{}, {}]",
                    self.id, s.id, s.start, s.end, p.id, p.start, p.end
                ));
            }
        }
        Ok(())
    }

    /// Decompose the end-to-end latency into solve / network wait /
    /// retry backoff, with the delivered transits as hops.
    pub fn critical_path(&self) -> CriticalPath {
        let (root_start, root_end) = match self.root() {
            Some(r) => (r.start, r.end),
            None => (0, 0),
        };
        let clip = |s: &TraceSpan| -> Option<(u64, u64)> {
            let a = s.start.max(root_start);
            let b = s.end.min(root_end);
            (a < b).then_some((a, b))
        };
        let net: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.kind == SpanKind::Transit && s.delivered)
            .filter_map(clip)
            .collect();
        let mut net_and_backoff = net.clone();
        net_and_backoff.extend(
            self.spans
                .iter()
                .filter(|s| s.kind == SpanKind::Backoff)
                .filter_map(clip),
        );
        let total = root_end.saturating_sub(root_start);
        let net_wait = union_measure(net);
        let backoff = union_measure(net_and_backoff) - net_wait;
        let mut hops: Vec<Hop> = self
            .spans
            .iter()
            .filter(|s| s.kind == SpanKind::Transit && s.delivered)
            .map(|s| Hop {
                span: s.id,
                name: s.name.clone(),
                peer: s.peer.clone(),
                start: s.start,
                end: s.end,
                faults: s.faults.clone(),
            })
            .collect();
        hops.sort_by_key(|h| (h.start, h.span));
        CriticalPath {
            trace: self.id,
            total_ticks: total,
            net_wait_ticks: net_wait,
            backoff_ticks: backoff,
            solve_ticks: total - net_wait - backoff,
            hops,
        }
    }
}

/// Total length covered by a set of (possibly overlapping) intervals.
fn union_measure(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0u64;
    let mut reach = 0u64;
    for (a, b) in intervals {
        if b <= reach {
            continue;
        }
        covered += b - a.max(reach);
        reach = b;
    }
    covered
}

/// Render the critical path as a short text report.
pub fn critical_path_summary(cp: &CriticalPath) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "trace {}: {} ticks end-to-end = {} solve + {} net wait + {} backoff ({} hops)",
        cp.trace,
        cp.total_ticks,
        cp.solve_ticks,
        cp.net_wait_ticks,
        cp.backoff_ticks,
        cp.hops.len()
    );
    for h in &cp.hops {
        let _ = write!(
            out,
            "  span {:>3} [{:>4}, {:>4}] {:>4} ticks  {}",
            h.span,
            h.start,
            h.end,
            h.end - h.start,
            h.name
        );
        if h.faults.is_empty() {
            out.push('\n');
        } else {
            let _ = writeln!(out, "  !{}", h.faults.join(" !"));
        }
    }
    out
}

/// Escape a string for inclusion in a JSON string literal.
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Render traces in the Chrome trace-event JSON format (Perfetto /
/// `chrome://tracing` loadable). One process per trace, one thread lane
/// per peer, `ph:"X"` complete events per span, `ph:"i"` instants for
/// fault annotations. Ticks map to microseconds. The output is fully
/// deterministic: no sequence numbers, stable ordering (traces by id,
/// spans by id, peers sorted by name).
pub fn to_chrome_json(traces: &[Trace]) -> String {
    use std::fmt::Write;
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let push = |s: String, out: &mut String, first: &mut bool| {
        if !*first {
            out.push(',');
        }
        *first = false;
        out.push('\n');
        out.push_str(&s);
    };

    let mut sorted: Vec<&Trace> = traces.iter().collect();
    sorted.sort_by_key(|t| t.id);
    for t in sorted {
        let mut peers: Vec<&str> = t.spans.iter().map(|s| s.peer.as_str()).collect();
        peers.sort_unstable();
        peers.dedup();
        let lane = |peer: &str| peers.iter().position(|p| *p == peer).unwrap_or(0);

        push(
            format!(
                "{{\"ph\":\"M\",\"pid\":{},\"name\":\"process_name\",\
                 \"args\":{{\"name\":\"negotiation {}\"}}}}",
                t.id, t.id
            ),
            &mut out,
            &mut first,
        );
        for (i, p) in peers.iter().enumerate() {
            push(
                format!(
                    "{{\"ph\":\"M\",\"pid\":{},\"tid\":{},\"name\":\"thread_name\",\
                     \"args\":{{\"name\":\"{}\"}}}}",
                    t.id,
                    i,
                    escape_json(p)
                ),
                &mut out,
                &mut first,
            );
        }
        for s in &t.spans {
            let mut ev = format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":{},\"tid\":{},\"args\":{{\"span\":{},\"parent\":{}",
                escape_json(&s.name),
                s.kind.category(),
                s.start,
                s.duration(),
                t.id,
                lane(&s.peer),
                s.id,
                s.parent
            );
            if s.kind == SpanKind::Transit && !s.delivered {
                ev.push_str(",\"dropped\":true");
            }
            ev.push_str("}}");
            push(ev, &mut out, &mut first);
            for f in &s.faults {
                push(
                    format!(
                        "{{\"name\":\"fault: {}\",\"cat\":\"fault\",\"ph\":\"i\",\"ts\":{},\
                         \"pid\":{},\"tid\":{},\"s\":\"t\",\"args\":{{\"span\":{}}}}}",
                        escape_json(f),
                        f.rsplit('@')
                            .next()
                            .and_then(|t| t.parse::<u64>().ok())
                            .unwrap_or(s.start),
                        t.id,
                        lane(&s.peer),
                        s.id
                    ),
                    &mut out,
                    &mut first,
                );
            }
        }
    }
    let _ = write!(out, "\n]}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Field;
    use crate::Telemetry;

    /// A synthetic two-peer negotiation: root on Alice, one request on
    /// Bob with a query transit out (fault-delayed), an answer transit
    /// back, and a backoff wait overlapping nothing.
    fn sample_events() -> Vec<TraceEvent> {
        let (t, ring) = Telemetry::ring(64);
        let tr = |v| Field::u64("trace", v);
        t.event(
            0,
            crate::SpanId::NONE,
            1,
            "trace.start",
            vec![
                tr(1),
                Field::u64("span", 1),
                Field::u64("parent", 0),
                Field::str("name", "negotiation"),
                Field::str("peer", "Alice"),
                Field::str("kind", "root"),
            ],
        );
        t.event(
            0,
            crate::SpanId::NONE,
            1,
            "trace.start",
            vec![
                tr(1),
                Field::u64("span", 2),
                Field::u64("parent", 1),
                Field::str("name", "request r(x) @ Bob"),
                Field::str("peer", "Bob"),
                Field::str("kind", "request"),
            ],
        );
        t.event(
            0,
            crate::SpanId::NONE,
            1,
            "net.send",
            vec![
                Field::str("from", "Alice"),
                Field::str("to", "Bob"),
                Field::str("kind", "query"),
                tr(1),
                Field::u64("span", 3),
                Field::u64("parent", 2),
            ],
        );
        t.event(
            1,
            crate::SpanId::NONE,
            1,
            "net.fault",
            vec![
                Field::str("kind", "delay"),
                tr(1),
                Field::u64("span", 3),
                Field::u64("parent", 2),
            ],
        );
        t.event(
            4,
            crate::SpanId::NONE,
            1,
            "net.deliver",
            vec![
                Field::str("to", "Bob"),
                Field::str("kind", "query"),
                tr(1),
                Field::u64("span", 3),
            ],
        );
        // Backoff while waiting for the (delayed) answer.
        t.event(
            4,
            crate::SpanId::NONE,
            1,
            "trace.start",
            vec![
                tr(1),
                Field::u64("span", 4),
                Field::u64("parent", 2),
                Field::str("name", "backoff"),
                Field::str("peer", "Alice"),
                Field::str("kind", "backoff"),
            ],
        );
        t.event(6, crate::SpanId::NONE, 1, "trace.end", {
            vec![tr(1), Field::u64("span", 4)]
        });
        t.event(
            6,
            crate::SpanId::NONE,
            1,
            "net.send",
            vec![
                Field::str("from", "Bob"),
                Field::str("to", "Alice"),
                Field::str("kind", "answers"),
                tr(1),
                Field::u64("span", 5),
                Field::u64("parent", 2),
            ],
        );
        t.event(
            8,
            crate::SpanId::NONE,
            1,
            "net.deliver",
            vec![
                Field::str("to", "Alice"),
                Field::str("kind", "answers"),
                tr(1),
                Field::u64("span", 5),
            ],
        );
        t.event(8, crate::SpanId::NONE, 1, "trace.end", {
            vec![tr(1), Field::u64("span", 2)]
        });
        t.event(10, crate::SpanId::NONE, 1, "trace.end", {
            vec![tr(1), Field::u64("span", 1)]
        });
        ring.events()
    }

    #[test]
    fn reconstructs_a_well_formed_trace() {
        let traces = Trace::from_events(&sample_events());
        assert_eq!(traces.len(), 1);
        let t = &traces[0];
        assert_eq!(t.id, 1);
        assert_eq!(t.spans.len(), 5);
        t.validate().expect("well-formed");

        let root = t.root().unwrap();
        assert_eq!((root.id, root.start, root.end), (1, 0, 10));
        let query = t.span(3).unwrap();
        assert_eq!(query.kind, SpanKind::Transit);
        assert!(query.delivered);
        assert_eq!((query.start, query.end), (0, 4));
        assert_eq!(query.faults, ["delay@1"]);
        assert_eq!(query.parent, 2);
    }

    #[test]
    fn critical_path_decomposes_exactly() {
        let traces = Trace::from_events(&sample_events());
        let cp = traces[0].critical_path();
        assert_eq!(cp.total_ticks, 10);
        // Transits cover [0,4] and [6,8]; backoff [4,6] overlaps neither.
        assert_eq!(cp.net_wait_ticks, 6);
        assert_eq!(cp.backoff_ticks, 2);
        assert_eq!(cp.solve_ticks, 2);
        assert_eq!(
            cp.solve_ticks + cp.net_wait_ticks + cp.backoff_ticks,
            cp.total_ticks
        );
        assert_eq!(cp.hops.len(), 2);
        assert_eq!(cp.hops[0].span, 3);

        let summary = critical_path_summary(&cp);
        assert!(summary.contains("10 ticks end-to-end"));
        assert!(summary.contains("!delay@1"));
    }

    #[test]
    fn orphan_deliver_fails_validation() {
        let (t, ring) = Telemetry::ring(8);
        t.event(
            0,
            crate::SpanId::NONE,
            1,
            "trace.start",
            vec![
                Field::u64("trace", 1),
                Field::u64("span", 1),
                Field::u64("parent", 0),
                Field::str("name", "negotiation"),
                Field::str("kind", "root"),
            ],
        );
        t.event(
            3,
            crate::SpanId::NONE,
            1,
            "net.deliver",
            vec![Field::u64("trace", 1), Field::u64("span", 9)],
        );
        let traces = Trace::from_events(&ring.events());
        let err = traces[0].validate().unwrap_err();
        assert!(err.contains("no matching send"), "{err}");
    }

    #[test]
    fn escaping_and_chrome_schema() {
        let mut spans = vec![TraceSpan {
            trace: 1,
            id: 1,
            parent: 0,
            name: "needs \"escaping\"\n\\".to_string(),
            peer: "Alice".to_string(),
            kind: SpanKind::Root,
            start: 0,
            end: 5,
            delivered: true,
            faults: vec![],
        }];
        spans.push(TraceSpan {
            trace: 1,
            id: 2,
            parent: 1,
            name: "transit query Alice\u{2192}Bob".to_string(),
            peer: "Bob".to_string(),
            kind: SpanKind::Transit,
            start: 1,
            end: 1,
            delivered: false,
            faults: vec!["drop@1".to_string()],
        });
        let trace = Trace {
            id: 1,
            spans,
            orphan_delivers: vec![],
        };
        let json = to_chrome_json(&[trace]);
        let parsed: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        let events = parsed["traceEvents"].as_array().expect("traceEvents");
        // 1 process metadata + 2 thread metadata + 2 spans + 1 fault.
        assert_eq!(events.len(), 6);
        for e in events {
            assert!(e.get("ph").is_some() && e.get("pid").is_some());
            if e["ph"] == "X" {
                for k in ["name", "cat", "ts", "dur", "tid", "args"] {
                    assert!(e.get(k).is_some(), "complete event missing {k}");
                }
            }
        }
        let dropped = events
            .iter()
            .find(|e| e["ph"] == "X" && e["args"].get("dropped").is_some())
            .expect("dropped transit annotated");
        assert_eq!(dropped["args"]["dropped"], true);
    }

    #[test]
    fn chrome_export_is_deterministic() {
        let a = to_chrome_json(&Trace::from_events(&sample_events()));
        let b = to_chrome_json(&Trace::from_events(&sample_events()));
        assert_eq!(a, b);
        assert!(a.contains("\"ph\":\"i\""), "fault instant present");
    }
}
