//! Deterministic simulated network.
//!
//! The 2004 prototype ran peers as Java applications talking over secure
//! sockets. For reproducible experiments we substitute an in-process
//! discrete-event transport: messages are enqueued with a delivery tick
//! computed from a [`LatencyModel`], and the negotiation driver pumps the
//! network by polling each peer's inbox. Determinism (a seeded RNG drives
//! any latency jitter) makes negotiation traces byte-for-byte reproducible,
//! which the interop and safety property tests rely on.

use crate::faults::{FaultKind, FaultLane, FaultPlan, FaultStats, MessageFate};
use crate::message::{Message, MessageId, Payload, TraceContext};
use crate::topology::Topology;
use peertrust_core::PeerId;
use peertrust_telemetry::{Field, Telemetry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;

/// Append `trace`/`span`/`parent` fields to a telemetry event when the
/// context is live; untraced events keep their exact pre-tracing shape.
fn push_trace_fields(fields: &mut Vec<Field>, trace: TraceContext) {
    if !trace.is_none() {
        fields.push(Field::u64("trace", trace.trace_id));
        fields.push(Field::u64("span", trace.span_id));
        fields.push(Field::u64("parent", trace.parent_span_id));
    }
}

/// Abstract network time (one tick ≈ one latency unit).
pub type Tick = u64;

/// Per-link latency in ticks.
#[derive(Clone, Debug)]
pub enum LatencyModel {
    /// Same latency on every link.
    Constant(Tick),
    /// Uniformly random in `[min, max]`, drawn from the seeded RNG.
    Uniform { min: Tick, max: Tick },
    /// Explicit per-link latencies; missing links use `default`.
    PerLink {
        links: HashMap<(PeerId, PeerId), Tick>,
        default: Tick,
    },
}

impl LatencyModel {
    fn sample(&self, from: PeerId, to: PeerId, rng: &mut StdRng) -> Tick {
        match self {
            LatencyModel::Constant(t) => *t,
            LatencyModel::Uniform { min, max } => rng.gen_range(*min..=*max),
            LatencyModel::PerLink { links, default } => *links.get(&(from, to)).unwrap_or(default),
        }
    }
}

/// Transport errors.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum NetError {
    /// Topology forbids this link.
    NotConnected { from: PeerId, to: PeerId },
    /// Hop budget exceeded (forwarding loop guard).
    TooManyHops { limit: u32 },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::NotConnected { from, to } => {
                write!(f, "no link from {from} to {to} in topology")
            }
            NetError::TooManyHops { limit } => write!(f, "hop limit {limit} exceeded"),
        }
    }
}

impl std::error::Error for NetError {}

/// Aggregate transport metrics (inputs to every experiment's
/// messages/bytes columns).
#[derive(Clone, Default, Debug)]
pub struct NetStats {
    pub messages_sent: u64,
    pub bytes_sent: u64,
    pub queries: u64,
    pub answers: u64,
    pub pushes: u64,
    pub failures: u64,
    pub per_peer_sent: HashMap<PeerId, u64>,
    /// Messages moved into an inbox (each duplicate delivery counts).
    pub delivered: u64,
    /// Messages lost for any reason (injected drop + corruption + crash).
    pub dropped: u64,
    /// Extra copies enqueued by the fault lane.
    pub duplicated: u64,
    /// Deliveries shifted later by an injected delay.
    pub delayed: u64,
    /// Deliveries jittered by an injected reorder.
    pub reordered: u64,
    /// Messages lost to in-flight payload corruption.
    pub corrupted: u64,
    /// Messages lost because the recipient was crashed at delivery time.
    pub crash_dropped: u64,
}

/// One entry in the network trace.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    pub at: Tick,
    pub delivered_at: Tick,
    pub message: Message,
}

/// The deterministic simulated network.
pub struct SimNetwork {
    topology: Topology,
    latency: LatencyModel,
    rng: StdRng,
    now: Tick,
    next_msg_id: u64,
    max_hops: u32,
    /// Messages keyed by delivery tick (BTreeMap gives deterministic
    /// time-ordered iteration), each bucket FIFO.
    in_flight: BTreeMap<Tick, VecDeque<Message>>,
    inboxes: HashMap<PeerId, VecDeque<Message>>,
    stats: NetStats,
    trace: Vec<TraceEvent>,
    record_trace: bool,
    telemetry: Telemetry,
    /// Optional fault-injection lane. With [`FaultPlan::none`] the lane
    /// draws no randomness and injects nothing — the wrapped path is
    /// byte-identical to the unwrapped one (tested).
    lane: Option<FaultLane>,
    /// Per-message fates, tracked only while a lane is attached (the
    /// resilience layer polls these to decide whether to retry).
    fates: HashMap<MessageId, MessageFate>,
}

impl SimNetwork {
    /// A full-mesh, constant-latency-1 network with the given seed.
    pub fn new(seed: u64) -> SimNetwork {
        SimNetwork::with(Topology::FullMesh, LatencyModel::Constant(1), seed)
    }

    /// A network for job `job_index` of a batch: the seed is derived
    /// deterministically from `(base_seed, job_index)` with a
    /// splitmix64-style mix, so every job sees its own independent but
    /// reproducible latency/ordering stream — identical across runs and
    /// regardless of which worker thread executes the job.
    pub fn for_job(base_seed: u64, job_index: usize) -> SimNetwork {
        let mut z = base_seed
            .wrapping_add(0x9e37_79b9_7f4a_7c15)
            .wrapping_add((job_index as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        SimNetwork::new(z ^ (z >> 31))
    }

    pub fn with(topology: Topology, latency: LatencyModel, seed: u64) -> SimNetwork {
        SimNetwork {
            topology,
            latency,
            rng: StdRng::seed_from_u64(seed),
            now: 0,
            next_msg_id: 0,
            max_hops: 256,
            in_flight: BTreeMap::new(),
            inboxes: HashMap::new(),
            stats: NetStats::default(),
            trace: Vec::new(),
            record_trace: false,
            telemetry: Telemetry::disabled(),
            lane: None,
            fates: HashMap::new(),
        }
    }

    /// Record every delivery in [`SimNetwork::trace`].
    pub fn with_trace(mut self) -> SimNetwork {
        self.record_trace = true;
        self
    }

    /// Maximum forwarding hops before a message is rejected.
    pub fn with_max_hops(mut self, max_hops: u32) -> SimNetwork {
        self.max_hops = max_hops;
        self
    }

    /// Attach a telemetry pipeline: every send/delivery becomes a trace
    /// event, and per-peer / per-kind transport counters accumulate in
    /// the metrics registry.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> SimNetwork {
        self.telemetry = telemetry;
        self
    }

    /// Attach a fault-injection lane driven by `plan`. A
    /// [`FaultPlan::none`] plan leaves behavior byte-identical to the
    /// unwrapped network while still tracking per-message fates.
    pub fn with_faults(mut self, plan: FaultPlan) -> SimNetwork {
        self.lane = Some(FaultLane::new(plan));
        self
    }

    pub fn now(&self) -> Tick {
        self.now
    }

    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    pub fn trace(&self) -> &[TraceEvent] {
        &self.trace
    }

    /// The attached fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.lane.as_ref().map(FaultLane::plan)
    }

    /// Injection counters from the attached lane, if any.
    pub fn fault_stats(&self) -> Option<&FaultStats> {
        self.lane.as_ref().map(FaultLane::stats)
    }

    /// The fate of a sent message. `None` when no lane is attached (no
    /// tracking) or the id is unknown.
    pub fn fate(&self, id: MessageId) -> Option<MessageFate> {
        self.fates.get(&id).copied()
    }

    /// The earliest pending delivery instant, if anything is in flight.
    pub fn next_tick(&self) -> Option<Tick> {
        self.in_flight.keys().next().copied()
    }

    /// Total messages currently in flight (including duplicate copies).
    pub fn in_flight_len(&self) -> usize {
        self.in_flight.values().map(VecDeque::len).sum()
    }

    /// Deliver everything due at or before `t`, then advance the clock to
    /// at least `t` (the resilience layer uses this to sit out a backoff
    /// window deterministically).
    pub fn advance_to(&mut self, t: Tick) {
        while self.next_tick().is_some_and(|next| next <= t) {
            self.step();
        }
        if self.now < t {
            self.now = t;
        }
    }

    /// Enqueue a message. Assigns the message id; returns it.
    pub fn send(
        &mut self,
        negotiation: crate::message::NegotiationId,
        from: PeerId,
        to: PeerId,
        payload: Payload,
        hops: u32,
    ) -> Result<MessageId, NetError> {
        self.send_traced(negotiation, from, to, payload, hops, TraceContext::NONE)
    }

    /// [`SimNetwork::send`] with causal trace coordinates stamped on the
    /// message: telemetry events for its send, delivery, and any
    /// fault-lane verdict carry `trace`/`span`/`parent` fields, so the
    /// trace reconstruction can attribute them to the owning span.
    pub fn send_traced(
        &mut self,
        negotiation: crate::message::NegotiationId,
        from: PeerId,
        to: PeerId,
        payload: Payload,
        hops: u32,
        trace: TraceContext,
    ) -> Result<MessageId, NetError> {
        if !self.topology.can_send(from, to) {
            return Err(NetError::NotConnected { from, to });
        }
        if hops > self.max_hops {
            return Err(NetError::TooManyHops {
                limit: self.max_hops,
            });
        }
        let id = MessageId(self.next_msg_id);
        self.next_msg_id += 1;
        let msg = Message {
            id,
            negotiation,
            from,
            to,
            payload,
            hops,
            trace,
        };

        self.stats.messages_sent += 1;
        self.stats.bytes_sent += msg.encoded_size() as u64;
        *self.stats.per_peer_sent.entry(from).or_default() += 1;
        match &msg.payload {
            Payload::Query { .. } => self.stats.queries += 1,
            Payload::Answers { .. } => self.stats.answers += 1,
            Payload::CredentialPush { .. } => self.stats.pushes += 1,
            Payload::Failure { .. } => self.stats.failures += 1,
            Payload::PolicyRequest { .. } => self.stats.queries += 1,
            Payload::PolicyDisclosure { .. } => self.stats.answers += 1,
            Payload::GemQuery { .. } => self.stats.queries += 1,
            Payload::GemAnswers { .. } => self.stats.answers += 1,
            // Completion notices are control traffic: counted in
            // messages/bytes above, not as queries or answers.
            Payload::GemComplete { .. } => {}
        }

        let latency = self.latency.sample(from, to, &mut self.rng).max(1);
        let mut deliver_at = self.now + latency;

        // Fault lane: decide this message's fate deterministically. With a
        // none-plan the branch is never taken — no RNG draws, no counters,
        // no telemetry — keeping the wrapped path byte-identical.
        let mut dropped: Option<FaultKind> = None;
        let mut duplicate_at: Option<Tick> = None;
        if let Some(lane) = &mut self.lane {
            if !lane.plan().is_none() {
                let verdict = lane.apply(&msg, deliver_at);
                deliver_at = verdict.deliver_at;
                dropped = verdict.dropped;
                duplicate_at = verdict.duplicate_at;
                // Non-drop fates are annotated onto the owning trace span
                // (traced sends only, so untraced streams are unchanged).
                let annotate = |telemetry: &Telemetry, fault: &str, now: Tick| {
                    if telemetry.enabled() && !trace.is_none() {
                        let mut fields = vec![
                            Field::str("kind", fault.to_string()),
                            Field::str("from", from.to_string()),
                            Field::str("to", to.to_string()),
                        ];
                        push_trace_fields(&mut fields, trace);
                        telemetry.event(
                            now,
                            peertrust_telemetry::SpanId::NONE,
                            negotiation.0,
                            "net.fault",
                            fields,
                        );
                    }
                };
                if verdict.delayed {
                    self.stats.delayed += 1;
                    self.telemetry.incr("net.fault.delayed", 1);
                    annotate(&self.telemetry, "delay", self.now);
                }
                if verdict.reordered {
                    self.stats.reordered += 1;
                    self.telemetry.incr("net.fault.reordered", 1);
                    annotate(&self.telemetry, "reorder", self.now);
                }
                if duplicate_at.is_some() {
                    self.stats.duplicated += 1;
                    self.telemetry.incr("net.fault.duplicated", 1);
                    annotate(&self.telemetry, "duplicate", self.now);
                }
                if let Some(kind) = dropped {
                    self.stats.dropped += 1;
                    match kind {
                        FaultKind::Drop => {}
                        FaultKind::Corrupt => self.stats.corrupted += 1,
                        FaultKind::Crash => self.stats.crash_dropped += 1,
                    }
                    self.telemetry
                        .incr(&format!("net.fault.{}", kind.name()), 1);
                    if self.telemetry.enabled() {
                        let mut fields = vec![
                            Field::str("kind", kind.name()),
                            Field::str("from", from.to_string()),
                            Field::str("to", to.to_string()),
                            Field::u64("at", deliver_at),
                        ];
                        push_trace_fields(&mut fields, trace);
                        self.telemetry.event(
                            self.now,
                            peertrust_telemetry::SpanId::NONE,
                            negotiation.0,
                            "net.fault",
                            fields,
                        );
                    }
                }
            }
            self.fates.insert(
                id,
                match dropped {
                    Some(kind) => MessageFate::Dropped(kind),
                    None => MessageFate::InFlight,
                },
            );
        }

        if self.telemetry.enabled() {
            let bytes = msg.encoded_size() as u64;
            self.telemetry.incr("net.messages", 1);
            self.telemetry.incr("net.bytes", bytes);
            self.telemetry.incr(&format!("net.sent.{from}"), 1);
            self.telemetry.incr(&format!("net.recv.{to}"), 1);
            self.telemetry
                .incr(&format!("net.payload.{}", msg.payload.kind()), 1);
            let mut fields = vec![
                Field::str("from", from.to_string()),
                Field::str("to", to.to_string()),
                Field::str("kind", msg.payload.kind()),
                Field::u64("bytes", bytes),
                Field::u64("deliver_at", deliver_at),
                Field::u64("hops", u64::from(hops)),
            ];
            push_trace_fields(&mut fields, trace);
            self.telemetry.event(
                self.now,
                peertrust_telemetry::SpanId::NONE,
                negotiation.0,
                "net.send",
                fields,
            );
        }

        if dropped.is_some() {
            // The sender cannot tell: send still succeeds, the message is
            // just never delivered. Detection is the resilience layer's
            // job (deadline + retry).
            return Ok(id);
        }
        if self.record_trace {
            self.trace.push(TraceEvent {
                at: self.now,
                delivered_at: deliver_at,
                message: msg.clone(),
            });
        }
        if let Some(dup_at) = duplicate_at {
            self.in_flight
                .entry(dup_at)
                .or_default()
                .push_back(msg.clone());
        }
        self.in_flight.entry(deliver_at).or_default().push_back(msg);
        Ok(id)
    }

    /// Are any messages still in flight or queued in inboxes?
    pub fn idle(&self) -> bool {
        self.in_flight.is_empty() && self.inboxes.values().all(VecDeque::is_empty)
    }

    /// Advance time to the next delivery instant, moving due messages into
    /// inboxes. Returns `false` if nothing was in flight.
    pub fn step(&mut self) -> bool {
        let Some((&t, _)) = self.in_flight.iter().next() else {
            return false;
        };
        self.now = t;
        let batch = self.in_flight.remove(&t).expect("bucket exists");
        for msg in batch {
            self.stats.delivered += 1;
            if self.lane.is_some() {
                self.fates.insert(msg.id, MessageFate::Delivered);
            }
            if self.telemetry.enabled() {
                let mut fields = vec![
                    Field::str("to", msg.to.to_string()),
                    Field::str("kind", msg.payload.kind()),
                ];
                push_trace_fields(&mut fields, msg.trace);
                self.telemetry.event(
                    self.now,
                    peertrust_telemetry::SpanId::NONE,
                    msg.negotiation.0,
                    "net.deliver",
                    fields,
                );
            }
            self.inboxes.entry(msg.to).or_default().push_back(msg);
        }
        true
    }

    /// Drain all messages currently deliverable to `peer`.
    pub fn poll(&mut self, peer: PeerId) -> Vec<Message> {
        let msgs: Vec<Message> = self
            .inboxes
            .get_mut(&peer)
            .map(|q| q.drain(..).collect())
            .unwrap_or_default();
        if self.telemetry.enabled() && !msgs.is_empty() {
            self.telemetry.observe("net.inbox_depth", msgs.len() as u64);
        }
        msgs
    }

    /// Peek at inbox depth without draining (diagnostics).
    pub fn inbox_len(&self, peer: PeerId) -> usize {
        self.inboxes.get(&peer).map_or(0, VecDeque::len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{NegotiationId, QueryId};
    use peertrust_core::Literal;

    fn p(n: &str) -> PeerId {
        PeerId::new(n)
    }

    fn query_payload() -> Payload {
        Payload::Query {
            id: QueryId(1),
            goal: Literal::truth(),
        }
    }

    #[test]
    fn for_job_seeds_are_deterministic_and_distinct() {
        // Same (base, index) twice must behave identically; different
        // indices must not share a stream (checked via the RNG-driven
        // jittered latency model).
        let deliveries = |base: u64, idx: usize| {
            let mut net = SimNetwork::for_job(base, idx);
            net.latency = LatencyModel::Uniform { min: 1, max: 9 };
            let mut ticks = Vec::new();
            for i in 0..8 {
                net.send(NegotiationId(1), p("a"), p("b"), query_payload(), i)
                    .unwrap();
                while net.poll(p("b")).is_empty() {
                    net.step();
                }
                ticks.push(net.now());
            }
            ticks
        };
        assert_eq!(deliveries(7, 0), deliveries(7, 0));
        assert_eq!(deliveries(7, 3), deliveries(7, 3));
        assert_ne!(deliveries(7, 0), deliveries(7, 1));
    }

    #[test]
    fn send_step_poll_roundtrip() {
        let mut net = SimNetwork::new(0);
        net.send(NegotiationId(1), p("a"), p("b"), query_payload(), 0)
            .unwrap();
        assert_eq!(net.poll(p("b")).len(), 0, "not delivered before step");
        assert!(net.step());
        let msgs = net.poll(p("b"));
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].from, p("a"));
        assert!(net.idle());
    }

    #[test]
    fn constant_latency_orders_deliveries() {
        let mut net = SimNetwork::with(Topology::FullMesh, LatencyModel::Constant(5), 0);
        net.send(NegotiationId(1), p("a"), p("b"), query_payload(), 0)
            .unwrap();
        net.step();
        assert_eq!(net.now(), 5);
        net.send(NegotiationId(1), p("b"), p("a"), query_payload(), 0)
            .unwrap();
        net.step();
        assert_eq!(net.now(), 10);
    }

    #[test]
    fn fifo_within_same_tick() {
        let mut net = SimNetwork::new(0);
        for i in 0..3 {
            net.send(NegotiationId(i), p("a"), p("b"), query_payload(), 0)
                .unwrap();
        }
        net.step();
        let msgs = net.poll(p("b"));
        let ids: Vec<u64> = msgs.iter().map(|m| m.id.0).collect();
        assert_eq!(ids, [0, 1, 2]);
    }

    #[test]
    fn topology_enforced() {
        let mut net = SimNetwork::with(
            Topology::Star { hub: p("broker") },
            LatencyModel::Constant(1),
            0,
        );
        assert!(net
            .send(NegotiationId(1), p("a"), p("b"), query_payload(), 0)
            .is_err());
        assert!(net
            .send(NegotiationId(1), p("a"), p("broker"), query_payload(), 0)
            .is_ok());
    }

    #[test]
    fn hop_limit_enforced() {
        let mut net = SimNetwork::new(0).with_max_hops(3);
        assert!(net
            .send(NegotiationId(1), p("a"), p("b"), query_payload(), 4)
            .is_err());
        assert!(net
            .send(NegotiationId(1), p("a"), p("b"), query_payload(), 3)
            .is_ok());
    }

    #[test]
    fn stats_accumulate_by_kind() {
        let mut net = SimNetwork::new(0);
        net.send(NegotiationId(1), p("a"), p("b"), query_payload(), 0)
            .unwrap();
        net.send(
            NegotiationId(1),
            p("b"),
            p("a"),
            Payload::Answers {
                id: QueryId(1),
                goal: Literal::truth(),
                answers: vec![],
            },
            0,
        )
        .unwrap();
        let s = net.stats();
        assert_eq!(s.messages_sent, 2);
        assert_eq!(s.queries, 1);
        assert_eq!(s.answers, 1);
        assert!(s.bytes_sent > 0);
        assert_eq!(s.per_peer_sent[&p("a")], 1);
    }

    #[test]
    fn uniform_latency_is_deterministic_per_seed() {
        let run = |seed| {
            let mut net = SimNetwork::with(
                Topology::FullMesh,
                LatencyModel::Uniform { min: 1, max: 10 },
                seed,
            );
            let mut ticks = Vec::new();
            for i in 0..5 {
                net.send(NegotiationId(i), p("a"), p("b"), query_payload(), 0)
                    .unwrap();
                net.step();
                ticks.push(net.now());
            }
            ticks
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn trace_records_deliveries() {
        let mut net = SimNetwork::new(0).with_trace();
        net.send(NegotiationId(1), p("a"), p("b"), query_payload(), 0)
            .unwrap();
        assert_eq!(net.trace().len(), 1);
        assert_eq!(net.trace()[0].delivered_at, 1);
    }

    #[test]
    fn none_plan_lane_is_byte_identical_to_unwrapped() {
        // Identical seeds, jittered latency; one network wrapped with the
        // identity plan. Traces, stats, clocks and delivered payloads must
        // match byte for byte.
        let run = |wrap: bool| {
            let mut net = SimNetwork::with(
                Topology::FullMesh,
                LatencyModel::Uniform { min: 1, max: 6 },
                99,
            )
            .with_trace();
            if wrap {
                net = net.with_faults(crate::faults::FaultPlan::none());
            }
            let mut log = Vec::new();
            for i in 0..24 {
                let (a, b) = if i % 2 == 0 { ("a", "b") } else { ("b", "a") };
                net.send(NegotiationId(i), p(a), p(b), query_payload(), 0)
                    .unwrap();
                net.step();
                for m in net.poll(p(b)).into_iter().chain(net.poll(p(a))) {
                    log.push(format!("{}:{}:{}", net.now(), m.id.0, m.to));
                }
            }
            let s = net.stats().clone();
            let mut per_peer: Vec<(String, u64)> = s
                .per_peer_sent
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect();
            per_peer.sort();
            (
                log,
                format!(
                    "{} {} {} {} {} {} {} {} {:?}",
                    s.messages_sent,
                    s.bytes_sent,
                    s.queries,
                    s.delivered,
                    s.dropped,
                    s.duplicated,
                    s.delayed,
                    s.reordered,
                    per_peer
                ),
                net.trace().len(),
                net.now(),
            )
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn lane_drops_count_and_track_fates() {
        let plan = crate::faults::FaultPlan::uniform(5, crate::faults::LinkFaults::drops(1.0));
        let mut net = SimNetwork::new(0).with_faults(plan);
        let id = net
            .send(NegotiationId(1), p("a"), p("b"), query_payload(), 0)
            .unwrap();
        assert_eq!(
            net.fate(id),
            Some(crate::faults::MessageFate::Dropped(
                crate::faults::FaultKind::Drop
            ))
        );
        assert_eq!(net.stats().dropped, 1);
        assert!(!net.step(), "nothing in flight after a drop");
        assert!(net.poll(p("b")).is_empty());
    }

    #[test]
    fn lane_duplicates_deliver_twice_with_same_id() {
        let plan = crate::faults::FaultPlan::uniform(
            3,
            crate::faults::LinkFaults {
                dup_ppm: 1_000_000,
                ..crate::faults::LinkFaults::NONE
            },
        );
        let mut net = SimNetwork::new(0).with_faults(plan);
        let id = net
            .send(NegotiationId(1), p("a"), p("b"), query_payload(), 0)
            .unwrap();
        net.advance_to(64);
        let msgs = net.poll(p("b"));
        assert_eq!(msgs.len(), 2);
        assert!(msgs.iter().all(|m| m.id == id));
        assert_eq!(net.stats().duplicated, 1);
        assert_eq!(net.stats().delivered, 2);
        assert_eq!(net.fate(id), Some(crate::faults::MessageFate::Delivered));
    }

    #[test]
    fn crash_window_loses_deliveries_and_advance_to_skips_it() {
        let plan = crate::faults::FaultPlan::none().with_crash(p("b"), 0, 10);
        let mut net = SimNetwork::new(0).with_faults(plan);
        let lost = net
            .send(NegotiationId(1), p("a"), p("b"), query_payload(), 0)
            .unwrap();
        assert_eq!(
            net.fate(lost),
            Some(crate::faults::MessageFate::Dropped(
                crate::faults::FaultKind::Crash
            ))
        );
        assert_eq!(net.stats().crash_dropped, 1);
        // After the window the link works again.
        net.advance_to(10);
        let ok = net
            .send(NegotiationId(1), p("a"), p("b"), query_payload(), 0)
            .unwrap();
        net.step();
        assert_eq!(net.poll(p("b")).len(), 1);
        assert_eq!(net.fate(ok), Some(crate::faults::MessageFate::Delivered));
    }

    #[test]
    fn conservation_holds_under_heavy_faults() {
        // sent + duplicated == delivered + dropped + in_flight, checked
        // after every send and every step.
        let plan = crate::faults::FaultPlan::uniform(17, crate::faults::LinkFaults::lossy(0.35));
        let mut net = SimNetwork::new(4).with_faults(plan);
        let check = |net: &SimNetwork| {
            let s = net.stats();
            assert_eq!(
                s.messages_sent + s.duplicated,
                s.delivered + s.dropped + net.in_flight_len() as u64,
                "conservation violated"
            );
        };
        for i in 0..200 {
            net.send(NegotiationId(i), p("a"), p("b"), query_payload(), 0)
                .unwrap();
            check(&net);
            if i % 3 == 0 {
                net.step();
                check(&net);
            }
        }
        while net.step() {
            check(&net);
        }
        assert!(net.stats().dropped > 0, "plan was supposed to be lossy");
    }

    #[test]
    fn per_link_latency() {
        let mut links = HashMap::new();
        links.insert((p("a"), p("b")), 7);
        let mut net = SimNetwork::with(
            Topology::FullMesh,
            LatencyModel::PerLink { links, default: 2 },
            0,
        );
        net.send(NegotiationId(1), p("a"), p("b"), query_payload(), 0)
            .unwrap();
        net.step();
        assert_eq!(net.now(), 7);
        net.send(NegotiationId(1), p("b"), p("a"), query_payload(), 0)
            .unwrap();
        net.step();
        assert_eq!(net.now(), 9);
    }
}
