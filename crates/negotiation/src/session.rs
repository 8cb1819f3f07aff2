//! The backward-chaining (parsimonious) negotiation driver.
//!
//! This is the run-time system of paper §4: a negotiation starts when one
//! peer requests a resource of another; the responder evaluates its policy
//! with the SLD engine, and every body literal routed to another peer
//! (`lit @ OtherPeer`, outermost authority first) becomes a network *query*
//! — possibly back to the requester, which is how bilateral, iterative
//! disclosure arises. Answers are accompanied by pushes of the signed
//! rules that certify them, each gated by its release policy.
//!
//! Release enforcement: a solution for a queried goal is sent to requester
//! `R` only if the *root* rule of its proof has a head context (`$ ctx`)
//! that is either public or derivable with `Requester = R` — context goals
//! are themselves evaluated with the same distributed machinery, so
//! proving a release policy can trigger counter-queries (E-Learn proving
//! its BBB membership to Alice before Alice's student ID is released).
//! The paper's default applies: no context means `Requester = Self`,
//! i.e. never released.
//!
//! The driver records the full disclosure sequence with evidence, so
//! [`crate::outcome::verify_safe_sequence`] can replay and check the
//! safety invariant, and it enforces the termination guards of experiment
//! E11: hop-depth budget, per-peer query budgets, and cycle detection on
//! in-flight query variants.

use crate::answer_cache::{CacheKey, SharedRemoteAnswerCache};
use crate::gem::{GemEdge, GemState};
use crate::outcome::{
    DisclosedItem, Disclosure, Evidence, NegotiationOutcome, Refusal, RefusalReason,
};
use crate::peer::NegotiationPeer;
use crate::resilience::{ResilienceConfig, ResilienceFailure, ResilienceReport, ResilienceState};
use peertrust_core::{
    Context, FxHashMap, KnowledgeBase, Literal, PeerId, Rule, RuleId, Subst, Term, Var,
};
use peertrust_crypto::SignedRule;
use peertrust_engine::{canonicalize, Proof, ProofStep, RemoteHook, Solver};
use peertrust_net::{
    MessageFate, MessageId, NegotiationId, Payload, QueryId, SimNetwork, TraceContext,
};
use peertrust_telemetry::{Field, SpanId, Telemetry};
use std::collections::hash_map::Entry;
use std::sync::Arc;

/// The collection of peers participating in negotiations.
///
/// Copy-on-write, one level above [`KnowledgeBase`]: an `Arc`-shared
/// *base* table of frozen peers plus an *overlay* of the peers inserted or
/// written since the last [`PeerMap::freeze`], whose entries shadow the
/// base. Cloning a frozen map is one `Arc` bump; a clone copies a base
/// peer into its own overlay on the first [`PeerMap::get_mut`] (a few
/// `Arc` bumps for a frozen peer), so a negotiation pays only for the
/// peers it writes, and dropping it frees only those copies.
#[derive(Clone, Default)]
pub struct PeerMap {
    /// Frozen peers, shared by every clone. Only `freeze` writes it.
    base: Arc<FxHashMap<PeerId, NegotiationPeer>>,
    /// Peers inserted or written since the last freeze.
    overlay: FxHashMap<PeerId, NegotiationPeer>,
}

impl PeerMap {
    pub fn new() -> PeerMap {
        PeerMap::default()
    }

    pub fn insert(&mut self, peer: NegotiationPeer) {
        self.overlay.insert(peer.id, peer);
    }

    pub fn get(&self, id: PeerId) -> Option<&NegotiationPeer> {
        self.overlay.get(&id).or_else(|| self.base.get(&id))
    }

    /// The peer `id`, copied from the shared base into this map's overlay
    /// on its first write.
    pub fn get_mut(&mut self, id: PeerId) -> Option<&mut NegotiationPeer> {
        match self.overlay.entry(id) {
            Entry::Occupied(e) => Some(e.into_mut()),
            Entry::Vacant(e) => Some(e.insert(self.base.get(&id)?.clone())),
        }
    }

    pub fn contains(&self, id: PeerId) -> bool {
        self.overlay.contains_key(&id) || self.base.contains_key(&id)
    }

    pub fn ids(&self) -> Vec<PeerId> {
        let mut v: Vec<PeerId> = self.peers().map(|(id, _)| *id).collect();
        v.sort();
        v
    }

    /// Every visible peer: the overlay, then the base peers it does not
    /// shadow.
    fn peers(&self) -> impl Iterator<Item = (&PeerId, &NegotiationPeer)> {
        let base = self.base.iter();
        self.overlay
            .iter()
            .chain(base.filter(move |(id, _)| !self.overlay.contains_key(*id)))
    }

    /// Freeze every peer written since the last freeze (see
    /// [`NegotiationPeer::freeze`]) and fold it into the shared base.
    /// Afterwards `clone` is one `Arc` bump instead of O(total KB) — the
    /// batch scheduler and the serving driver call this once at setup,
    /// and [`negotiate`] on entry. O(1) when nothing was written, else
    /// O(peers written). Rule ids, candidate order and outcomes are
    /// unchanged. Idempotent.
    pub fn freeze(&mut self) {
        if self.overlay.is_empty() {
            return;
        }
        let mut overlay = std::mem::take(&mut self.overlay);
        if self.base.is_empty() {
            // The set-up freeze: move the table whole, so building a map
            // costs what it did before the map had a base.
            for peer in overlay.values_mut() {
                peer.freeze();
            }
            self.base = Arc::new(overlay);
            return;
        }
        // Drop each stale base copy before freezing its successor, so the
        // peer's KB and signed bases have one owner and fold in place
        // rather than being copied whole.
        let base = Arc::make_mut(&mut self.base);
        for (id, mut peer) in overlay {
            base.remove(&id);
            peer.freeze();
            base.insert(id, peer);
        }
    }

    /// Has nothing been inserted or written since the last freeze? Every
    /// base peer is frozen (see [`NegotiationPeer::is_frozen`]).
    pub fn is_frozen(&self) -> bool {
        self.overlay.is_empty()
    }

    /// Do every one of `self`'s peers share their frozen KB and
    /// certified-view bases with the corresponding peer in `other`? A
    /// deterministic structural check that a clone of a frozen map was
    /// copy-on-write (no deep KB copy); the serving driver counts
    /// violations into `negotiation.serve.base_clones`.
    pub fn shares_frozen_bases_with(&self, other: &PeerMap) -> bool {
        self.peers().all(|(id, peer)| {
            other
                .get(*id)
                .is_some_and(|o| peer.shares_frozen_bases_with(o))
        })
    }
}

/// Maximum nesting of inter-peer queries within one negotiation (the
/// hop-depth termination guard of experiment E11). A chain of k
/// interlocked release policies nests ~2k queries (each link: one
/// delegated goal + one counter-query for its release context); 128
/// accommodates the deepest experiment sweeps (E3 goes to depth 48).
pub const MAX_HOP_DEPTH: u32 = 128;

/// Session-level guard configuration.
#[derive(Clone, Debug)]
pub struct SessionConfig {
    /// Counterfactual overrides used by the failure analysis (paper §6):
    /// `(peer, literal)` pairs for which the peer's release check is
    /// forced to grant. Empty in normal operation.
    pub release_overrides: Vec<(PeerId, Literal)>,
    /// Sticky policies (paper §3.1 sketch): keep release contexts attached
    /// to pushed rules, and make relays re-check the originator's context
    /// against each new recipient. Off by default (contexts stripped on
    /// the wire, per the paper's main line).
    pub sticky_policies: bool,
    /// Answer repeated `(requester, responder, canonical goal)` queries
    /// from a per-session memo instead of re-sending them over the
    /// network. Only non-empty answer sets are memoized (disclosure sets
    /// grow monotonically, so a failed query may succeed later).
    pub cache_remote_answers: bool,
    /// GEM-style distributed tabling (see [`crate::gem`]): cross-peer
    /// delegation loops are resolved by iterated answer propagation over
    /// per-peer goal tables instead of refused with
    /// [`RefusalReason::CycleDetected`]. Off by default — the classical
    /// refusal semantics (experiment E11) are preserved, and the enabled
    /// path is bit-identical on acyclic workloads (the GEM branch only
    /// fires when a query variant is already in flight).
    pub gem: bool,
    /// Bound on GEM fixpoint rounds per strongly connected component.
    /// Hitting it records a [`RefusalReason::GemRoundLimit`] refusal and
    /// proceeds with the (sound but possibly incomplete) tables. Each
    /// round can only add finitely many released instances, so meshes of
    /// chain length `k` converge within `k + 1` rounds.
    pub gem_max_rounds: u32,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            release_overrides: Vec::new(),
            sticky_policies: false,
            cache_remote_answers: true,
            gem: false,
            gem_max_rounds: 16,
        }
    }
}

/// Everything [`negotiate`] can do beyond the plain run. The default is
/// the plain run: default session guards, no cross-negotiation cache, no
/// delivery supervision, telemetry off.
#[derive(Clone, Default)]
pub struct NegotiateOptions {
    /// Session guards and feature switches.
    pub session: SessionConfig,
    /// Cross-negotiation answer cache (see [`crate::answer_cache`]):
    /// delegated queries whose public, verified answers an earlier
    /// negotiation cached are answered without crossing the network.
    pub cache: Option<SharedRemoteAnswerCache>,
    /// Delivery supervision over a faulty transport (see
    /// [`crate::resilience`]): deadlines, retries, duplicate suppression
    /// and crash-resume. When set, [`negotiate`] also returns a
    /// [`ResilienceReport`].
    pub resilience: Option<ResilienceConfig>,
    /// Telemetry pipeline: the negotiation becomes a `negotiation` span,
    /// every query/disclosure/refusal an event linked to it by negotiation
    /// id, and per-peer counters accumulate in the metrics registry.
    pub telemetry: Telemetry,
}

/// Run one parsimonious negotiation: `requester` asks `responder` to
/// establish `goal` (the resource request). Returns the outcome, plus a
/// [`ResilienceReport`] iff `opts.resilience` was set. `peers` is frozen
/// on entry ([`PeerMap::freeze`]); the session's own writes land in its
/// overlay.
pub fn negotiate(
    peers: &mut PeerMap,
    net: &mut SimNetwork,
    opts: &NegotiateOptions,
    nid: NegotiationId,
    requester: PeerId,
    responder: PeerId,
    goal: Literal,
) -> (NegotiationOutcome, Option<ResilienceReport>) {
    let telemetry = &opts.telemetry;
    // O(1) on a snapshot; on a reused map it makes `respond`'s per-query
    // KB clone and the pristine snapshot below O(this session's writes).
    peers.freeze();
    // The pristine snapshot crash-resume restores from must predate any
    // disclosure of this session.
    let resilience = opts
        .resilience
        .clone()
        .map(|rc| ResilienceState::new(rc, peers.clone()));
    let msgs0 = net.stats().messages_sent;
    let bytes0 = net.stats().bytes_sent;
    let queries0 = net.stats().queries;
    let tick0 = net.now();

    let span = if telemetry.enabled() {
        telemetry.span_start(
            tick0,
            nid.0,
            "negotiation",
            vec![
                Field::str("requester", requester.to_string()),
                Field::str("responder", responder.to_string()),
                Field::str("goal", goal.to_string()),
            ],
        )
    } else {
        SpanId::NONE
    };

    let mut session = Session {
        peers,
        net,
        cfg: &opts.session,
        nid,
        next_query: 0,
        in_flight: Vec::new(),
        disclosures: Vec::new(),
        refusals: Vec::new(),
        answered: FxHashMap::default(),
        max_depth_seen: 0,
        rename_seq: 0,
        received_rules: FxHashMap::default(),
        session_answers: FxHashMap::default(),
        answer_cache: opts.cache.as_ref(),
        resilience,
        telemetry,
        span,
        trace_next: 1,
        trace_stack: Vec::new(),
        net_wait_ticks: 0,
        backoff_ticks: 0,
        gem: GemState::default(),
    };

    let root_span = session.trace_push("negotiation", requester, "root");
    let granted = session.request(requester, responder, goal.clone(), 0);
    let success = !granted.is_empty();
    if success {
        let seq = session.disclosures.len();
        session.record_disclosure(Disclosure {
            seq,
            from: responder,
            to: requester,
            item: DisclosedItem::Resource(granted[0].clone()),
            context: Context::public(),
            evidence: Vec::new(),
        });
    }
    session.trace_pop(root_span);

    let Session {
        disclosures,
        refusals,
        max_depth_seen,
        resilience,
        net_wait_ticks,
        backoff_ticks,
        ..
    } = session;
    let outcome = NegotiationOutcome {
        success,
        requester,
        responder,
        goal,
        granted,
        disclosures,
        refusals,
        messages: net.stats().messages_sent - msgs0,
        bytes: net.stats().bytes_sent - bytes0,
        queries: net.stats().queries - queries0,
        rounds: u64::from(max_depth_seen),
        elapsed_ticks: net.now() - tick0,
    };

    if telemetry.enabled() {
        record_outcome(telemetry, &outcome);
        // Per-phase latency breakdown: where the wall-clock ticks went.
        // Solve time is whatever is left once network waiting and retry
        // backoff are subtracted — the three observations sum to the
        // end-to-end duration.
        let solve = outcome
            .elapsed_ticks
            .saturating_sub(net_wait_ticks)
            .saturating_sub(backoff_ticks);
        telemetry.observe("negotiation.phase.net_wait_ticks", net_wait_ticks);
        telemetry.observe("negotiation.phase.backoff_ticks", backoff_ticks);
        telemetry.observe("negotiation.phase.solve_ticks", solve);
        telemetry.span_end(
            net.now(),
            span,
            nid.0,
            vec![
                Field::bool("success", outcome.success),
                Field::u64("disclosures", outcome.disclosures.len() as u64),
                Field::u64("refusals", outcome.refusals.len() as u64),
            ],
        );
    }
    (outcome, resilience.map(ResilienceState::into_report))
}

/// Flush outcome-level counters and histograms shared by both strategy
/// drivers.
pub(crate) fn record_outcome(telemetry: &Telemetry, outcome: &NegotiationOutcome) {
    telemetry.incr("negotiation.completed", 1);
    telemetry.incr(
        if outcome.success {
            "negotiation.success"
        } else {
            "negotiation.failure"
        },
        1,
    );
    telemetry.observe("negotiation.rounds", outcome.rounds);
    telemetry.observe("negotiation.wall_ticks", outcome.elapsed_ticks);
    telemetry.observe("negotiation.messages", outcome.messages);
}

/// The outcome of a release check.
enum Release {
    Granted {
        /// Licensing context instantiated for this requester (recorded in
        /// the disclosure sequence).
        context: Context,
        /// The licensing context with `Requester`/`Self` still symbolic —
        /// what travels with the rule under sticky policies.
        raw_context: Context,
        evidence: Vec<Evidence>,
    },
    Denied,
}

pub(crate) struct Session<'a> {
    pub(crate) peers: &'a mut PeerMap,
    pub(crate) net: &'a mut SimNetwork,
    cfg: &'a SessionConfig,
    nid: NegotiationId,
    next_query: u64,
    /// (responder, canonical goal) pairs currently being requested.
    in_flight: Vec<(PeerId, Literal)>,
    pub(crate) disclosures: Vec<Disclosure>,
    pub(crate) refusals: Vec<Refusal>,
    answered: FxHashMap<PeerId, u64>,
    max_depth_seen: u32,
    /// Fresh-variable counter for standardize-apart in licensing scans.
    rename_seq: u32,
    /// Rules each peer received during this session, in arrival order:
    /// (the receiver's rule id, sender). A credential's sender-extended
    /// fact is listed right after it.
    received_rules: FxHashMap<PeerId, Vec<(RuleId, PeerId)>>,
    /// Per-session remote-answer memo: accepted answers keyed by
    /// (requester, responder, canonical goal). See `crate::answer_cache`.
    session_answers: FxHashMap<CacheKey, Vec<Literal>>,
    /// Optional shared cross-negotiation cache (public answers only).
    answer_cache: Option<&'a SharedRemoteAnswerCache>,
    /// When attached, deliveries are supervised: deadlines, retries with
    /// backoff, duplicate suppression, crash-resume (see
    /// [`crate::resilience`]). `None` leaves the driver byte-identical to
    /// the historical synchronous behavior.
    resilience: Option<ResilienceState>,
    telemetry: &'a Telemetry,
    /// The enclosing `negotiation` span (NONE when telemetry is off).
    span: SpanId,
    /// Next causal span id, local to this negotiation (the trace id is
    /// the negotiation id, so ids are deterministic across runs and
    /// worker counts). The root span is always 1.
    trace_next: u64,
    /// Open causal spans, innermost last; message sends parent on the top.
    trace_stack: Vec<u64>,
    /// Ticks spent waiting on the network (delivery pumping minus any
    /// backoff sleeps inside it), for the per-phase latency histograms.
    net_wait_ticks: u64,
    /// Ticks spent in deliberate retry backoff sleeps.
    backoff_ticks: u64,
    /// GEM distributed-tabling state: partial-answer tables and active
    /// cross-peer SCCs. Untouched unless [`SessionConfig::gem`] is on and
    /// a delegation loop actually closes.
    gem: GemState,
}

/// A released answer with its licensing context and evidence.
type Reply = (Literal, Context, Vec<Evidence>);

/// A signed rule to push, with the licensing context and evidence its
/// disclosure records and, under sticky policies only, the licensing
/// context (`Requester` still symbolic) that travels with it.
type Push = (SignedRule, Context, Vec<Evidence>, Option<Context>);

/// A message the transport accepted, awaiting [`Session::deliver`].
struct Sent {
    id: MessageId,
    trace: TraceContext,
    /// The payload again, kept only under supervision — the one delivery
    /// mode that may have to send it again.
    resend: Option<Payload>,
}

struct SessionHook<'s, 'a> {
    session: &'s mut Session<'a>,
    peer: PeerId,
    depth: u32,
}

impl RemoteHook for SessionHook<'_, '_> {
    fn resolve_remote(&mut self, peer: PeerId, inner: &Literal) -> Vec<Literal> {
        self.session
            .request(self.peer, peer, inner.clone(), self.depth + 1)
    }
}

impl<'a> Session<'a> {
    /// Append to the disclosure sequence, mirroring the entry into the
    /// telemetry pipeline (counter per item kind + a timeline event).
    fn record_disclosure(&mut self, d: Disclosure) {
        if self.telemetry.enabled() {
            let kind = match &d.item {
                DisclosedItem::Resource(_) => "resource",
                DisclosedItem::SignedRule(_) => "rule",
                DisclosedItem::Answer(_) => "answer",
                DisclosedItem::Policy(_) => "policy",
            };
            self.telemetry.incr("negotiation.disclosures", 1);
            self.telemetry
                .incr(&format!("negotiation.disclosures.{kind}"), 1);
            self.telemetry.event(
                self.net.now(),
                self.span,
                self.nid.0,
                "negotiation.disclosure",
                vec![
                    Field::u64("seq", d.seq as u64),
                    Field::str("from", d.from.to_string()),
                    Field::str("to", d.to.to_string()),
                    Field::str("kind", kind),
                ],
            );
        }
        self.disclosures.push(d);
    }

    /// Append to the refusal list, mirroring the entry into the telemetry
    /// pipeline (counter per [`RefusalReason`] + a timeline event).
    fn record_refusal(&mut self, r: Refusal) {
        if self.telemetry.enabled() {
            self.telemetry.incr("negotiation.refusals", 1);
            // Stable snake_case per-reason counter for dashboards and the
            // experiment gates. (The legacy Debug-named
            // `negotiation.refusals.{Reason}` series was retired in PR 10;
            // only the total above and the per-reason counters below are
            // emitted.)
            self.telemetry.incr(
                &format!("negotiation.refusal.{}", r.reason.metric_suffix()),
                1,
            );
            self.telemetry.event(
                self.net.now(),
                self.span,
                self.nid.0,
                "negotiation.refusal",
                vec![
                    Field::str("peer", r.peer.to_string()),
                    Field::str("requester", r.requester.to_string()),
                    Field::str("goal", r.goal.to_string()),
                    Field::str("reason", format!("{:?}", r.reason)),
                ],
            );
        }
        self.refusals.push(r);
    }

    /// Allocate the next causal span id (0 with telemetry off — no trace
    /// coordinates are emitted then, keeping the disabled path free).
    fn trace_alloc(&mut self) -> u64 {
        if !self.telemetry.enabled() {
            return 0;
        }
        let id = self.trace_next;
        self.trace_next += 1;
        id
    }

    /// The span new work should parent on: the innermost open span.
    fn trace_parent(&self) -> u64 {
        self.trace_stack.last().copied().unwrap_or(0)
    }

    /// Open a causal span: emit `trace.start` and make it the parent for
    /// nested spans and message sends until the matching [`Session::trace_pop`].
    /// The name is only formatted when telemetry is on.
    fn trace_push(&mut self, name: impl std::fmt::Display, peer: PeerId, kind: &str) -> u64 {
        if !self.telemetry.enabled() {
            return 0;
        }
        let id = self.trace_alloc();
        let parent = self.trace_parent();
        self.telemetry.event(
            self.net.now(),
            SpanId::NONE,
            self.nid.0,
            "trace.start",
            vec![
                Field::u64("trace", self.nid.0),
                Field::u64("span", id),
                Field::u64("parent", parent),
                Field::str("name", name.to_string()),
                Field::str("peer", peer.to_string()),
                Field::str("kind", kind),
            ],
        );
        self.trace_stack.push(id);
        id
    }

    /// Close a causal span opened by [`Session::trace_push`].
    fn trace_pop(&mut self, id: u64) {
        if !self.telemetry.enabled() {
            return;
        }
        self.telemetry.event(
            self.net.now(),
            SpanId::NONE,
            self.nid.0,
            "trace.end",
            vec![Field::u64("trace", self.nid.0), Field::u64("span", id)],
        );
        self.trace_stack.pop();
    }

    /// Trace coordinates for a message about to ship: a fresh span id
    /// parented on the innermost open span. Each physical send gets its
    /// own id (retries re-stamp via [`Session::trace_retry`]), so
    /// fault-lane duplicates and re-sends stay causally attributable.
    fn trace_msg(&mut self) -> TraceContext {
        if !self.telemetry.enabled() {
            return TraceContext::NONE;
        }
        TraceContext {
            trace_id: self.nid.0,
            span_id: self.trace_alloc(),
            parent_span_id: self.trace_parent(),
        }
    }

    /// Fresh coordinates for a retry of `original`: new span id, same
    /// parent — the retransmission is a sibling attempt, not a child of
    /// the lost one.
    fn trace_retry(&mut self, original: TraceContext) -> TraceContext {
        if original.is_none() {
            return TraceContext::NONE;
        }
        TraceContext {
            trace_id: original.trace_id,
            span_id: self.trace_alloc(),
            parent_span_id: original.parent_span_id,
        }
    }

    /// Drain `peer`'s inbox. In the baseline this is the single
    /// accounting poll the synchronous driver performs after a step; the
    /// resilient driver additionally filters already-seen message ids
    /// (fault-lane duplicates or retry races) and counts suppressions.
    fn drain_dedup(&mut self, peer: PeerId) {
        let msgs = self.net.poll(peer);
        if let Some(state) = self.resilience.as_mut() {
            for m in msgs {
                if !state.seen.insert(m.id) {
                    state.stats.duplicates_suppressed += 1;
                    self.telemetry
                        .incr("negotiation.resilience.duplicates_suppressed", 1);
                }
            }
        }
    }

    /// Resume peers whose crash window has closed: restore the pristine
    /// pre-negotiation snapshot and replay the disclosure log — every
    /// signed rule disclosed *to* the peer is received again, in original
    /// order — so the peer regains exactly the credentials it had
    /// acquired before the outage. Session answer memos are kept (the
    /// model's durable answer store).
    fn maybe_crash_resume(&mut self) {
        let Some(state) = self.resilience.as_ref() else {
            return;
        };
        let Some(plan) = self.net.fault_plan() else {
            return;
        };
        let now = self.net.now();
        let due: Vec<(usize, PeerId)> = plan
            .crashes
            .iter()
            .enumerate()
            .filter(|(i, w)| w.until <= now && !state.resumed.contains(i))
            .map(|(i, w)| (i, w.peer))
            .collect();
        let sticky = self.cfg.sticky_policies;
        for (idx, peer) in due {
            let pristine = self
                .resilience
                .as_ref()
                .and_then(|s| s.pristine.get(peer))
                .cloned();
            if let Some(snapshot) = pristine {
                if let Some(slot) = self.peers.get_mut(peer) {
                    *slot = snapshot;
                    let replay: Vec<(SignedRule, PeerId)> = self
                        .disclosures
                        .iter()
                        .filter(|d| d.to == peer)
                        .filter_map(|d| match &d.item {
                            DisclosedItem::SignedRule(sr) => Some((sr.clone(), d.from)),
                            _ => None,
                        })
                        .collect();
                    for (sr, sender) in replay {
                        let _ = self
                            .peers
                            .get_mut(peer)
                            .expect("peer exists")
                            .receive_signed_mode(&sr, sender, sticky);
                    }
                }
            }
            let state = self.resilience.as_mut().expect("resilient");
            state.resumed.insert(idx);
            state.stats.crash_resumes += 1;
            self.telemetry
                .incr("negotiation.resilience.crash_resumes", 1);
            if self.telemetry.enabled() {
                self.telemetry.event(
                    now,
                    self.span,
                    self.nid.0,
                    "negotiation.crash_resume",
                    vec![Field::str("peer", peer.to_string())],
                );
            }
        }
    }

    /// Is delivery supervised? Supervision needs per-message fates,
    /// which only a fault lane tracks; without one (or without a
    /// resilience config) delivery is the unsupervised one-step contract.
    fn supervised(&self) -> bool {
        self.resilience.is_some() && self.net.fault_plan().is_some()
    }

    /// Hand `payload` to the transport under fresh trace coordinates.
    /// `None` when the transport rejects it (partition, hop budget).
    fn send(
        &mut self,
        sender: PeerId,
        recipient: PeerId,
        payload: Payload,
        depth: u32,
    ) -> Option<Sent> {
        let trace = self.trace_msg();
        let resend = self.supervised().then(|| payload.clone());
        let id = self
            .net
            .send_traced(self.nid, sender, recipient, payload, depth, trace)
            .ok()?;
        Some(Sent { id, trace, resend })
    }

    /// [`Session::send`] then [`Session::deliver`]: `false` when the
    /// transport rejected the message or it never arrived.
    fn ship(
        &mut self,
        sender: PeerId,
        recipient: PeerId,
        payload: Payload,
        depth: u32,
        kind: &'static str,
    ) -> bool {
        match self.send(sender, recipient, payload, depth) {
            Some(sent) => self.deliver(sent, sender, recipient, depth, kind),
            None => false,
        }
    }

    /// Complete delivery of a just-sent message: pump the simulated
    /// network and hand the message to `recipient`'s inbox. In the
    /// baseline this is exactly one `step` + one accounting `poll` (the
    /// synchronous driver's contract, kept bit-identical). Supervised
    /// delivery waits for the message's fate up to the deadline, re-sends
    /// with exponential backoff on loss or timeout, suppresses duplicates,
    /// and resumes crashed peers. Returns `false` only after recording a
    /// [`ResilienceFailure`] — there is no non-terminating path.
    fn deliver(
        &mut self,
        sent: Sent,
        sender: PeerId,
        recipient: PeerId,
        depth: u32,
        kind: &'static str,
    ) -> bool {
        // Everything spent in here is network time — except deliberate
        // backoff sleeps, which the inner loop books separately.
        let t0 = self.net.now();
        let b0 = self.backoff_ticks;
        let ok = self.deliver_inner(sent, sender, recipient, depth, kind);
        let waited = (self.net.now() - t0).saturating_sub(self.backoff_ticks - b0);
        self.net_wait_ticks += waited;
        ok
    }

    fn deliver_inner(
        &mut self,
        sent: Sent,
        sender: PeerId,
        recipient: PeerId,
        depth: u32,
        kind: &'static str,
    ) -> bool {
        // Only supervised sends keep their payload (see `Session::send`).
        let Some(payload) = sent.resend else {
            self.net.step();
            let _ = self.net.poll(recipient);
            return true;
        };
        let cfg = self.resilience.as_ref().expect("resilient").cfg.clone();
        let deadline = self.net.now() + cfg.query_deadline_ticks;
        let mut current = sent.id;
        let mut attempts: u32 = 0;
        loop {
            // Pump until the attempt's fate is known or the deadline bars
            // further progress.
            let arrived = loop {
                match self.net.fate(current) {
                    Some(MessageFate::Delivered) | None => break true,
                    Some(MessageFate::Dropped(_)) => break false,
                    Some(MessageFate::InFlight) => match self.net.next_tick() {
                        Some(t) if t <= deadline => {
                            self.net.step();
                        }
                        _ => break false,
                    },
                }
            };
            if arrived {
                self.drain_dedup(recipient);
                self.maybe_crash_resume();
                return true;
            }
            // Lost, corrupted, crashed into, or too slow for the deadline.
            self.resilience.as_mut().expect("resilient").stats.timeouts += 1;
            self.telemetry.incr("negotiation.resilience.timeouts", 1);
            let now = self.net.now();
            if now >= deadline {
                return self.give_up(ResilienceFailure::DeadlineExceeded {
                    peer: recipient,
                    kind: kind.to_string(),
                    at: now,
                });
            }
            if attempts >= cfg.max_retries {
                return self.give_up(ResilienceFailure::RetryBudgetExhausted {
                    peer: recipient,
                    kind: kind.to_string(),
                    attempts,
                });
            }
            attempts += 1;
            self.resilience.as_mut().expect("resilient").stats.retries += 1;
            self.telemetry.incr("negotiation.resilience.retries", 1);
            if self.telemetry.enabled() {
                self.telemetry.event(
                    now,
                    self.span,
                    self.nid.0,
                    "negotiation.retry",
                    vec![
                        Field::str("kind", kind),
                        Field::str("to", recipient.to_string()),
                        Field::u64("attempt", u64::from(attempts)),
                    ],
                );
            }
            // Deterministic exponential backoff, never past the deadline
            // (the shift is clamped: the cap takes over long before it
            // could overflow).
            let backoff = (cfg.backoff_base << (attempts - 1).min(16)).min(cfg.backoff_cap);
            let bspan = self.trace_push(format_args!("backoff {kind}"), sender, "backoff");
            let b0 = self.net.now();
            self.net.advance_to((now + backoff).min(deadline));
            self.backoff_ticks += self.net.now().saturating_sub(b0);
            self.trace_pop(bspan);
            self.drain_dedup(sender);
            self.drain_dedup(recipient);
            self.maybe_crash_resume();
            let retry_trace = self.trace_retry(sent.trace);
            match self.net.send_traced(
                self.nid,
                sender,
                recipient,
                payload.clone(),
                depth,
                retry_trace,
            ) {
                Ok(id) => current = id,
                Err(_) => {
                    return self.give_up(ResilienceFailure::SendRejected {
                        peer: recipient,
                        kind: kind.to_string(),
                    });
                }
            }
        }
    }

    /// Record one abandoned delivery and its telemetry; always `false`.
    fn give_up(&mut self, failure: ResilienceFailure) -> bool {
        let state = self.resilience.as_mut().expect("resilient");
        state.stats.gave_up += 1;
        state.failures.push(failure.clone());
        self.telemetry.incr("negotiation.resilience.gave_up", 1);
        if self.telemetry.enabled() {
            self.telemetry.event(
                self.net.now(),
                self.span,
                self.nid.0,
                "negotiation.gave_up",
                vec![
                    Field::str("peer", failure.peer().to_string()),
                    Field::str("reason", format!("{failure:?}")),
                ],
            );
        }
        false
    }

    /// `from` asks `to` to establish `goal`. Returns the answer instances
    /// `from` accepts (after verification).
    pub(crate) fn request(
        &mut self,
        from: PeerId,
        to: PeerId,
        goal: Literal,
        depth: u32,
    ) -> Vec<Literal> {
        self.max_depth_seen = self.max_depth_seen.max(depth);
        if depth > MAX_HOP_DEPTH {
            self.record_refusal(Refusal {
                peer: to,
                requester: from,
                goal,
                reason: RefusalReason::DepthExceeded,
            });
            return Vec::new();
        }
        let key = (to, canonicalize(&goal));
        if self.in_flight.contains(&key) {
            // Classical semantics: a repeated in-flight query variant is a
            // cycle and the branch is refused. Under GEM the closure is
            // recorded into a cross-peer SCC and answered from the goal
            // tables instead (partial answers flow back along the loop).
            if self.cfg.gem {
                return self.gem_close_loop(from, to, goal, depth, key);
            }
            self.record_refusal(Refusal {
                peer: to,
                requester: from,
                goal,
                reason: RefusalReason::CycleDetected,
            });
            return Vec::new();
        }
        if !self.peers.contains(to) {
            return Vec::new();
        }

        // Remote-answer caches: a repeat of an already answered query is
        // served without a network round-trip (and without re-pushing
        // credentials — the requester holds them from the first exchange).
        let cache_key: CacheKey = (from, to, key.1.clone());
        if self.cfg.cache_remote_answers {
            if let Some(hit) = self.session_answers.get(&cache_key) {
                if self.telemetry.enabled() {
                    self.telemetry.incr("negotiation.cache.session_hits", 1);
                }
                return hit.clone();
            }
        }
        if let Some(cache) = self.answer_cache {
            let kb_len = self.peers.get(to).map(|p| p.kb.len()).unwrap_or(0);
            let now = self.net.now();
            if let Some(hit) = cache.lookup(from, to, &cache_key.2, now, kb_len) {
                if self.telemetry.enabled() {
                    self.telemetry.incr("negotiation.cache.cross_hits", 1);
                }
                return hit;
            }
        }
        if self.telemetry.enabled()
            && (self.cfg.cache_remote_answers || self.answer_cache.is_some())
        {
            self.telemetry.incr("negotiation.cache.misses", 1);
        }

        // A cache miss means real work: open a causal span covering the
        // query round-trip (and everything nested under it — the
        // responder's solve, counter-queries, pushes, answers).
        let tspan = self.trace_push(format_args!("request {goal}"), to, "request");
        let out = self.request_inner(from, to, goal, depth, key, cache_key);
        self.trace_pop(tspan);
        out
    }

    /// The post-guard body of [`Session::request`]: ship the query, let
    /// the responder solve (recursing through [`SessionHook`]), ship
    /// credential pushes and answers back, verify, and fill the caches.
    fn request_inner(
        &mut self,
        from: PeerId,
        to: PeerId,
        goal: Literal,
        depth: u32,
        key: (PeerId, Literal),
        cache_key: CacheKey,
    ) -> Vec<Literal> {
        // Ship the query.
        let qid = QueryId(self.next_query);
        self.next_query += 1;
        let query = Payload::Query {
            id: qid,
            goal: goal.clone(),
        };
        let Some(sent) = self.send(from, to, query, depth) else {
            return Vec::new(); // topology/hop failure
        };
        if self.telemetry.enabled() {
            self.telemetry
                .incr(&format!("negotiation.queries_issued.{from}"), 1);
            self.telemetry
                .incr(&format!("negotiation.queries_received.{to}"), 1);
            self.telemetry.event(
                self.net.now(),
                self.span,
                self.nid.0,
                "negotiation.query",
                vec![
                    Field::u64("qid", qid.0),
                    Field::str("from", from.to_string()),
                    Field::str("to", to.to_string()),
                    Field::str("goal", goal.to_string()),
                    Field::u64("depth", u64::from(depth)),
                ],
            );
        }
        if !self.deliver(sent, from, to, depth, "query") {
            self.record_refusal(Refusal {
                peer: to,
                requester: from,
                goal,
                reason: RefusalReason::Unreachable,
            });
            return Vec::new();
        }

        self.in_flight.push(key.clone());
        let (mut answers, mut pushes) = self.respond(to, from, &goal, depth);
        self.in_flight.pop();

        // If this frame is the generator of a GEM component (a loop closed
        // back to it during the descent), iterate answer propagation to
        // fixpoint and re-evaluate against the converged tables.
        if self.cfg.gem {
            if let Some((fx_answers, fx_pushes)) = self.gem_fixpoint(from, to, &goal, depth, &key) {
                answers = fx_answers;
                pushes = fx_pushes;
            }
        }

        // Ship credential pushes (before the answers that depend on them).
        if !pushes.is_empty() {
            // Contexts stripped on the wire (paper §3.1) — unless sticky
            // policies are on, in which case the *licensing* context (the
            // release policy under which this disclosure was granted, with
            // Requester still symbolic) travels with the rule. Signatures
            // are unaffected: they cover the context-free canonical form.
            let sticky = self.cfg.sticky_policies;
            let wire: Vec<(SignedRule, Context, Vec<Evidence>)> = pushes
                .into_iter()
                .map(|(mut sr, ctx, ev, raw)| {
                    if !sticky {
                        sr.rule.head_context = None;
                        sr.rule.rule_context = None;
                    } else if sr.rule.head_context.is_none() {
                        sr.rule.head_context = raw;
                    }
                    (sr, ctx, ev)
                })
                .collect();
            let push = Payload::CredentialPush {
                rules: wire.iter().map(|(sr, _, _)| sr.clone()).collect(),
            };
            // The transport is authoritative: a rejected push (partition,
            // hop budget) means the recipient learns nothing.
            let delivered = self.ship(to, from, push, depth, "push");
            for (sr, ctx, ev) in wire.into_iter().filter(|_| delivered) {
                // A rule the recipient already held still crossed the
                // wire, and the ledger must record it so the recipient
                // can later relay it (delegation chains). On a bad
                // signature the recipient simply drops the rule.
                let Ok(receipt) = self
                    .peers
                    .get_mut(from)
                    .expect("requester exists")
                    .receive_signed_mode(&sr, to, sticky)
                else {
                    continue;
                };
                let ledger = self.received_rules.entry(from).or_default();
                if !ledger.contains(&(receipt.id, to)) {
                    ledger.push((receipt.id, to));
                    if let Some(ext) = receipt.sender_extended {
                        ledger.push((ext, to));
                    }
                    let seq = self.disclosures.len();
                    self.record_disclosure(Disclosure {
                        seq,
                        from: to,
                        to: from,
                        item: DisclosedItem::SignedRule(sr),
                        context: ctx,
                        evidence: ev,
                    });
                }
            }
        }

        // Ship the answers.
        let reply = Payload::Answers {
            id: qid,
            goal: goal.clone(),
            answers: answers.iter().map(|(a, _, _)| a.clone()).collect(),
        };
        let Some(sent) = self.send(to, from, reply, depth) else {
            return Vec::new();
        };
        if self.telemetry.enabled() {
            self.telemetry
                .incr(&format!("negotiation.queries_answered.{to}"), 1);
        }
        if !self.deliver(sent, to, from, depth, "answers") {
            self.record_refusal(Refusal {
                peer: from,
                requester: to,
                goal: goal.clone(),
                reason: RefusalReason::Unreachable,
            });
            return Vec::new();
        }

        let mut accepted_answers = Vec::new();
        let all_public = answers.iter().all(|(_, ctx, _)| ctx.is_public());
        for (answer, ctx, ev) in answers {
            let seq = self.disclosures.len();
            self.record_disclosure(Disclosure {
                seq,
                from: to,
                to: from,
                item: DisclosedItem::Answer(answer.clone()),
                context: ctx,
                evidence: ev,
            });
            accepted_answers.push(answer);
        }

        // Requester-side verification: third-party statements must be
        // re-derivable from signed material. An answer from the authority
        // itself is accepted on message authentication alone.
        let self_certified = goal.authority.is_empty() || goal.eval_peer() == Some(to);
        let mut any_dropped = false;
        if let Some(requester_peer) = self.peers.get(from).filter(|_| !self_certified) {
            let signed_kb = requester_peer.signed_only_kb();
            let engine = requester_peer.config.engine;
            let mut dropped = Vec::new();
            accepted_answers.retain(|a| {
                let mut solver = Solver::new(signed_kb, from).with_config(engine);
                let ok = solver.provable(std::slice::from_ref(a));
                if !ok {
                    dropped.push(a.clone());
                }
                ok
            });
            any_dropped = !dropped.is_empty();
            for a in dropped {
                self.record_refusal(Refusal {
                    peer: from,
                    requester: to,
                    goal: a,
                    reason: RefusalReason::VerificationFailed,
                });
            }
        }

        // While a GEM component is still iterating, any answers flowing
        // through this frame may be partial (read from a not-yet-converged
        // table) — they must never be written into the per-session memo or
        // the cross-negotiation cache, or later rounds and later
        // negotiations would be fed stale partial sets. (Empty answer sets
        // are never cached on any path — see the `is_empty` gate below.)
        let gem_pending = self.cfg.gem && self.gem.active();
        if gem_pending && !accepted_answers.is_empty() && self.telemetry.enabled() {
            self.telemetry.incr("negotiation.gem.cache_suppressed", 1);
        }
        if !accepted_answers.is_empty() && !gem_pending {
            // Cross-negotiation entries must be replayable outside this
            // exchange: every answer publicly released and none dropped by
            // verification. Context-guarded answers never cross sessions.
            if let Some(cache) = self.answer_cache.filter(|_| all_public && !any_dropped) {
                let kb_len = self.peers.get(to).map(|p| p.kb.len()).unwrap_or(0);
                let now = self.net.now();
                let goal = cache_key.2.clone();
                cache.insert(from, to, goal, accepted_answers.clone(), now, kb_len);
                if self.telemetry.enabled() {
                    self.telemetry.incr("negotiation.cache.inserts", 1);
                }
            }
            if self.cfg.cache_remote_answers {
                self.session_answers
                    .insert(cache_key, accepted_answers.clone());
            }
        }
        accepted_answers
    }

    /// GEM closure branch of [`Session::request`]: `from`'s evaluation
    /// re-requested `goal` while the frame `key` was already open further
    /// up the stack. Record the loop edge into a (possibly merged) SCC,
    /// ship a `GemQuery` carrying the evaluation context — so the frame
    /// owner recognizes the closure on the wire instead of re-descending —
    /// and serve the current tabled partial answers back along the loop.
    fn gem_close_loop(
        &mut self,
        from: PeerId,
        to: PeerId,
        goal: Literal,
        depth: u32,
        key: (PeerId, Literal),
    ) -> Vec<Literal> {
        let pos = self
            .in_flight
            .iter()
            .position(|k| *k == key)
            .expect("closure key is in flight");
        let seq = self.gem.next_seq();
        let edge = GemEdge {
            consumer: from,
            responder: to,
            goal: goal.clone(),
            canonical: key.1.clone(),
            depth,
            seq,
        };
        let stack = self.in_flight.clone();
        let is_new = self.gem.close_loop(pos, &stack, edge);
        if is_new && self.telemetry.enabled() {
            self.telemetry.incr("negotiation.gem.loops", 1);
        }
        let span = self.trace_push(format_args!("gem loop {goal}"), to, "gem");

        let qid = QueryId(self.next_query);
        self.next_query += 1;
        let query = Payload::GemQuery {
            id: qid,
            goal: goal.clone(),
            context: stack,
        };
        if !self.ship(from, to, query, depth, "gem-query") {
            self.record_refusal(Refusal {
                peer: to,
                requester: from,
                goal,
                reason: RefusalReason::Unreachable,
            });
            self.trace_pop(span);
            return Vec::new();
        }
        let answers = self.gem.table(from, to, &key.1);
        let round = self.gem.scc_containing(&key).map(|s| s.rounds).unwrap_or(0);
        let reply = Payload::GemAnswers {
            id: qid,
            goal,
            round,
            answers: answers.clone(),
        };
        let delivered = self.ship(to, from, reply, depth, "gem-answers");
        self.trace_pop(span);
        // The transport is authoritative: if the tabled answers never
        // reached the consumer, its evaluation proceeds without them.
        if delivered {
            answers
        } else {
            Vec::new()
        }
    }

    /// Run the GEM answer-propagation fixpoint for the component anchored
    /// at `key`, then re-evaluate the anchor goal against the converged
    /// tables. Returns `None` when `key` anchors no active component —
    /// either no loop closed under this frame, or a merge moved the
    /// anchor to an enclosing frame (which runs the fixpoint when *it*
    /// pops).
    ///
    /// Round order is derived from peer names and edge discovery sequence
    /// numbers — never from hash or symbol-intern order — so batch runs
    /// stay bit-identical across worker counts.
    fn gem_fixpoint(
        &mut self,
        from: PeerId,
        to: PeerId,
        goal: &Literal,
        depth: u32,
        key: &(PeerId, Literal),
    ) -> Option<(Vec<Reply>, Vec<Push>)> {
        self.gem.scc_index_by_anchor(key)?;
        let span = self.trace_push(format_args!("gem fixpoint {goal}"), to, "gem");
        loop {
            // Re-locate each round: a re-evaluation can close an outer
            // loop and merge the component outward, moving the anchor.
            let Some(idx) = self.gem.scc_index_by_anchor(key) else {
                self.trace_pop(span);
                return None;
            };
            if self.gem.scc_at(idx).rounds >= self.cfg.gem_max_rounds {
                self.record_refusal(Refusal {
                    peer: to,
                    requester: from,
                    goal: goal.clone(),
                    reason: RefusalReason::GemRoundLimit,
                });
                break;
            }
            let round = self.gem.bump_rounds(idx);
            self.telemetry.incr("negotiation.gem.rounds", 1);
            let edges = self.gem.scc_at(idx).round_order();
            let edges_before = self.gem.scc_at(idx).edges.len();
            let rspan = self.trace_push(format_args!("gem round {round}"), to, "gem");
            let mut changed = false;
            for e in &edges {
                // The anchor frame stays pinned on the stack so
                // re-closures during the re-evaluation fold into this
                // component instead of spawning a fresh one. Release
                // checks run for the true consumer, so the tables never
                // hold answers a peer was not licensed to see.
                self.in_flight.push(key.clone());
                let (released, _pushes) = self.respond(e.responder, e.consumer, &e.goal, e.depth);
                self.in_flight.pop();
                let lits: Vec<Literal> = released.iter().map(|(a, _, _)| a.clone()).collect();
                if self
                    .gem
                    .update_table(e.consumer, e.responder, e.canonical.clone(), &lits)
                {
                    changed = true;
                    let qid = QueryId(self.next_query);
                    self.next_query += 1;
                    let payload = Payload::GemAnswers {
                        id: qid,
                        goal: e.goal.clone(),
                        round,
                        answers: lits,
                    };
                    let _ = self.ship(e.responder, e.consumer, payload, e.depth, "gem-answers");
                }
            }
            self.trace_pop(rspan);
            // Edges discovered during the round mean new table entries
            // that still need a propagation pass.
            if let Some(idx2) = self.gem.scc_index_by_anchor(key) {
                if self.gem.scc_at(idx2).edges.len() > edges_before {
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        // Converged (or round-limited): re-evaluate the anchor goal
        // against the final tables. The component stays active during this
        // descent so re-closures keep reading its tables rather than
        // opening a phantom component that would never complete.
        self.in_flight.push(key.clone());
        let result = self.respond(to, from, goal, depth);
        self.in_flight.pop();

        let Some(idx) = self.gem.scc_index_by_anchor(key) else {
            self.trace_pop(span);
            return None; // merged outward during the final descent
        };
        let scc = self.gem.take_scc(idx);
        if self.telemetry.enabled() {
            self.telemetry.incr("negotiation.gem.sccs", 1);
            self.telemetry
                .incr("negotiation.gem.answers", self.gem.scc_answer_count(&scc));
        }
        // Completion notifications: the leader (lowest peer name on the
        // component) tells every other member the tabled entries are
        // final and may be released for reuse.
        let leader = scc.leader();
        for peer in scc.member_peers() {
            if peer == leader {
                continue;
            }
            let payload = Payload::GemComplete {
                goal: key.1.clone(),
                rounds: scc.rounds,
            };
            let _ = self.ship(leader, peer, payload, depth, "gem-complete");
        }
        self.trace_pop(span);
        Some(result)
    }

    /// Evaluate `goal` at `responder` on behalf of `requester`, applying
    /// effort policy and release policies. Returns released answers and the
    /// signed rules to push, each with the licensing context and evidence.
    fn respond(
        &mut self,
        responder: PeerId,
        requester: PeerId,
        goal: &Literal,
        depth: u32,
    ) -> (Vec<Reply>, Vec<Push>) {
        let Some(peer) = self.peers.get(responder) else {
            return (Vec::new(), Vec::new());
        };
        if !peer.accepts_query(requester, goal) {
            self.record_refusal(Refusal {
                peer: responder,
                requester,
                goal: goal.clone(),
                reason: RefusalReason::EffortPolicy,
            });
            return (Vec::new(), Vec::new());
        }
        let budget = peer.config.max_queries_per_negotiation;
        let counter = self.answered.entry(responder).or_insert(0);
        *counter += 1;
        if *counter > budget {
            self.record_refusal(Refusal {
                peer: responder,
                requester,
                goal: goal.clone(),
                reason: RefusalReason::QueryBudget,
            });
            return (Vec::new(), Vec::new());
        }

        let kb = peer.kb.clone();
        let engine_cfg = peer.config.engine;

        let solutions = {
            let telemetry = self.telemetry.clone();
            let mut hook = SessionHook {
                session: self,
                peer: responder,
                depth,
            };
            let mut solver = Solver::new(&kb, responder)
                .with_config(engine_cfg)
                .with_hook(&mut hook)
                .with_telemetry(telemetry);
            solver.solve(std::slice::from_ref(goal))
        };

        let mut answers: Vec<Reply> = Vec::new();
        let mut pushes: Vec<Push> = Vec::new();

        for sol in solutions {
            let proof = &sol.proofs[0];
            // The answer is the goal instance under the solution bindings
            // (NOT the proof node's goal, which for remote-rooted proofs
            // records the stripped inner literal).
            let answer = sol.subst.apply_literal(goal);
            if answers.iter().any(|(a, _, _)| *a == answer) {
                continue;
            }
            match self.release_check(responder, requester, proof, &kb, depth) {
                Release::Granted {
                    context,
                    raw_context,
                    evidence,
                } => {
                    // The certified proof: push every signed rule it uses.
                    let sticky = self.cfg.sticky_policies;
                    let peer = self.peers.get(responder).expect("responder exists");
                    for rid in proof.used_rules() {
                        if let Some(sr) = peer.signed_rule(rid) {
                            if pushes.iter().any(|(p, _, _, _)| p.rule == sr.rule) {
                                continue;
                            }
                            // Never echo back what the requester itself
                            // provided (now or in an earlier negotiation).
                            if peer.kb.get(rid).is_some_and(|st| {
                                st.origin == peertrust_core::kb::RuleOrigin::Received(requester)
                            }) {
                                continue;
                            }
                            pushes.push((
                                sr.clone(),
                                context.clone(),
                                evidence.clone(),
                                sticky.then(|| raw_context.clone()),
                            ));
                        }
                    }
                    // Relay the signed rules backing remote answers so the
                    // requester can verify multi-hop delegation chains.
                    let ledger = self
                        .received_rules
                        .get(&responder)
                        .map_or(&[][..], Vec::as_slice);
                    for (p, _a) in proof.remote_dependencies() {
                        // No point relaying a peer's own statements back
                        // to it.
                        if p == requester {
                            continue;
                        }
                        for &(id, _) in ledger.iter().filter(|(_, sender)| *sender == p) {
                            let (Some(stored), Some(sr)) = (peer.kb.get(id), peer.signed_rule(id))
                            else {
                                continue;
                            };
                            let rule = stored.rule.as_ref();
                            if !rule.is_signed()
                                || pushes.iter().any(|(pr, _, _, _)| pr.rule == *rule)
                            {
                                continue;
                            }
                            // Sticky policies: the originator's retained
                            // head context must hold for the NEW recipient
                            // before this peer may relay.
                            if sticky {
                                if let Some(ctx) = &rule.head_context {
                                    if ctx.is_default_private() {
                                        continue;
                                    }
                                    if !ctx.is_public() {
                                        let goals = ctx.instantiate(requester, responder);
                                        let mut cfg = peer.config.engine;
                                        cfg.remote_fallback =
                                            peertrust_engine::RemoteFallback::Never;
                                        let mut solver =
                                            Solver::new(&peer.kb, responder).with_config(cfg);
                                        if !solver.provable(&goals) {
                                            continue;
                                        }
                                    }
                                }
                            }
                            // Relays keep whatever context the rule arrived
                            // with (retained in sticky mode).
                            let raw = sticky
                                .then(|| rule.head_context.clone().unwrap_or_else(Context::public));
                            pushes.push((
                                sr.clone(),
                                Context::public(),
                                vec![Evidence::ReceivedRule {
                                    from: p,
                                    rule: rule.clone(),
                                }],
                                raw,
                            ));
                        }
                    }
                    answers.push((answer, context, evidence));
                }
                Release::Denied => {
                    self.record_refusal(Refusal {
                        peer: responder,
                        requester,
                        goal: answer,
                        reason: RefusalReason::ReleaseDenied,
                    });
                }
            }
        }
        (answers, pushes)
    }

    /// Decide whether the solution rooted at `proof` may be released to
    /// `requester`.
    ///
    /// Builtin results and relayed third-party answers are always
    /// releasable; locally derived answers go through the *licensing scan*
    /// of [`Session::license_scan`].
    fn release_check(
        &mut self,
        responder: PeerId,
        requester: PeerId,
        proof: &Proof,
        kb: &KnowledgeBase,
        depth: u32,
    ) -> Release {
        match &proof.step {
            ProofStep::Builtin | ProofStep::Negation => Release::Granted {
                context: Context::public(),
                raw_context: Context::public(),
                evidence: Vec::new(),
            },
            ProofStep::SelfAuthority => {
                // The licensing rules are those for the inner literal.
                match proof.children.first() {
                    Some(child) => self.release_check(responder, requester, child, kb, depth),
                    None => Release::Denied,
                }
            }
            ProofStep::Remote(peer) => {
                // A relayed third-party statement: the origin enforced its
                // own release policy; the relay is free to forward.
                Release::Granted {
                    context: Context::public(),
                    raw_context: Context::public(),
                    evidence: vec![Evidence::ReceivedAnswer {
                        from: *peer,
                        answer: proof.goal.clone(),
                    }],
                }
            }
            ProofStep::Rule(root_id) => {
                self.license_scan(responder, requester, &proof.goal, Some(*root_id), kb, depth)
            }
        }
    }

    /// The disclosure decision of §3.1's release-policy pattern
    /// (`p(X...) $ ctx_p(...) <- p(X...)`): `answer` may be sent to
    /// `requester` iff some rule whose head unifies with it has a
    /// non-default head context that is derivable with `Requester` bound
    /// to the requester, *and* whose body is derivable. The body check is
    /// skipped when the licensing rule is the rule that already proved the
    /// answer (`root_id`).
    ///
    /// This is a single release-rule unfolding: the derivation engine's
    /// ancestor check deliberately prunes `p <- p` self-rules, so release
    /// rules never participate in derivations — they are applied exactly
    /// here, at disclosure time, matching the paper's separation between
    /// deriving a literal and deriving its releasability.
    #[allow(clippy::too_many_arguments)]
    fn license_scan(
        &mut self,
        responder: PeerId,
        requester: PeerId,
        answer: &Literal,
        root_id: Option<peertrust_core::RuleId>,
        kb: &KnowledgeBase,
        depth: u32,
    ) -> Release {
        if requester == responder {
            return Release::Granted {
                context: Context::public(),
                raw_context: Context::public(),
                evidence: Vec::new(),
            };
        }
        // Counterfactual override (failure analysis, paper §6).
        if self
            .cfg
            .release_overrides
            .iter()
            .any(|(p, g)| *p == responder && canonicalize(g) == canonicalize(answer))
        {
            return Release::Granted {
                context: Context::public(),
                raw_context: Context::public(),
                evidence: Vec::new(),
            };
        }
        let engine_cfg = self
            .peers
            .get(responder)
            .expect("responder exists")
            .config
            .engine;
        let closure = self_closure(answer, responder);
        for candidate in kb.candidates(answer) {
            let Some(LicensingRule { context: ctx, body }) = licensing_rule(
                &candidate.rule,
                answer,
                closure.as_ref(),
                &mut self.rename_seq,
            ) else {
                continue;
            };

            let mut evidence = Vec::new();
            let mut ctx_goals = Vec::new();
            if !ctx.is_public() {
                ctx_goals = ctx.instantiate(requester, responder);
                let solutions = {
                    let telemetry = self.telemetry.clone();
                    let mut hook = SessionHook {
                        session: self,
                        peer: responder,
                        depth: depth + 1,
                    };
                    let mut solver = Solver::new(kb, responder)
                        .with_config(engine_cfg)
                        .with_hook(&mut hook)
                        .with_telemetry(telemetry);
                    solver.solve(&ctx_goals)
                };
                match solutions.into_iter().next() {
                    Some(sol) => evidence = self.collect_evidence(responder, &sol.proofs),
                    None => continue,
                }
            }

            // Body derivability. Skipped when this rule already proved the
            // answer, or when the body is exactly the answer itself (the
            // release pattern `p $ ctx <- p` — the answer's own derivation
            // already witnessed it).
            let body_is_answer = body.len() == 1 && body[0] == *answer;
            if Some(candidate.id) != root_id && !body.is_empty() && !body_is_answer {
                let ok = {
                    let telemetry = self.telemetry.clone();
                    let mut hook = SessionHook {
                        session: self,
                        peer: responder,
                        depth: depth + 1,
                    };
                    let mut solver = Solver::new(kb, responder)
                        .with_config(engine_cfg)
                        .with_hook(&mut hook)
                        .with_telemetry(telemetry);
                    solver.provable(&body)
                };
                if !ok {
                    continue;
                }
            }

            return Release::Granted {
                context: Context::goals(ctx_goals),
                raw_context: ctx,
                evidence,
            };
        }
        Release::Denied
    }

    /// Classify the rules and remote answers used in a context proof as
    /// evidence entries.
    fn collect_evidence(&self, owner: PeerId, proofs: &[Proof]) -> Vec<Evidence> {
        let peer = self.peers.get(owner).expect("owner exists");
        classify_evidence(
            peer,
            self.received_rules.get(&owner).map(Vec::as_slice),
            proofs,
        )
    }
}

/// A licensing reading of one candidate rule (see [`licensing_rule`]).
pub(crate) struct LicensingRule {
    /// Its head context, renamed apart and instantiated by the head's
    /// unifier: the release condition to prove.
    pub(crate) context: Context,
    /// Its body, renamed apart and instantiated the same way.
    pub(crate) body: Vec<Literal>,
}

/// The §3.2 self-closure of a chainless `answer` at `owner`: the same
/// statement as `answer @ owner`, so licensing rules written with the
/// owner's explicit authority also apply. `None` when the answer already
/// ends in `@ owner`.
pub(crate) fn self_closure(answer: &Literal, owner: PeerId) -> Option<Literal> {
    (answer.eval_peer() != Some(owner)).then(|| answer.clone().at(Term::peer(owner)))
}

/// Read `rule` as a licensing rule for `answer` — §3.1's release-policy
/// pattern `p(X...) $ ctx <- ...`: its head must unify with `answer` or
/// with `closure` (from [`self_closure`]), and its head context under
/// that unifier must not be the private default. Each call draws one
/// standardize-apart version from `rename_seq`, matched or not, so the
/// versions in recorded contexts do not depend on which candidates were
/// skipped; only the parts licensing reads (head, head context, body) are
/// renamed, and only once the rule is known to carry a head context.
/// Shared by the session's and the eager driver's licensing scans.
pub(crate) fn licensing_rule(
    rule: &Rule,
    answer: &Literal,
    closure: Option<&Literal>,
    rename_seq: &mut u32,
) -> Option<LicensingRule> {
    *rename_seq += 1;
    // No head context is the private default: not a licensing rule for
    // outsiders.
    let head_context = rule.head_context.as_ref()?;
    let version = *rename_seq;
    let mut rename = |v: Var| Term::Var(Var::versioned(v.name, version));
    let head = rule.head.map_vars(&mut rename);
    let mut subst = Subst::new();
    if !peertrust_core::unify_literals(&head, answer, &mut subst) {
        let closure = closure?;
        subst = Subst::new();
        if !peertrust_core::unify_literals(&head, closure, &mut subst) {
            return None;
        }
    }
    let context = head_context.map_vars(&mut rename).apply(&subst);
    if context.is_default_private() {
        return None;
    }
    let body = rule
        .body
        .iter()
        .map(|b| subst.apply_literal(&b.map_vars(&mut rename)))
        .collect();
    Some(LicensingRule { context, body })
}

/// Classify the rules and remote answers used in proofs as disclosure
/// evidence: rules received during this negotiation (per `ledger`) become
/// [`Evidence::ReceivedRule`], everything else [`Evidence::Initial`];
/// remote answers become [`Evidence::ReceivedAnswer`]. Shared by the
/// parsimonious and eager drivers.
pub(crate) fn classify_evidence(
    peer: &NegotiationPeer,
    ledger: Option<&[(RuleId, PeerId)]>,
    proofs: &[Proof],
) -> Vec<Evidence> {
    let mut evidence = Vec::new();
    for proof in proofs {
        for rid in proof.used_rules() {
            if let Some(sr) = peer.kb.get(rid) {
                let rule = sr.rule.as_ref().clone();
                let session_received = ledger.and_then(|l| l.iter().find(|(id, _)| *id == rid));
                let ev = match session_received {
                    Some((_, from)) => Evidence::ReceivedRule { from: *from, rule },
                    None => Evidence::Initial(rule),
                };
                if !evidence.contains(&ev) {
                    evidence.push(ev);
                }
            }
        }
        for (peer_id, answer) in proof.remote_dependencies() {
            let ev = Evidence::ReceivedAnswer {
                from: peer_id,
                answer,
            };
            if !evidence.contains(&ev) {
                evidence.push(ev);
            }
        }
    }
    evidence
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::verify_safe_sequence;
    use crate::strategy::Strategy;
    use peertrust_crypto::KeyRegistry;
    use peertrust_parser::parse_literal;

    fn registry() -> KeyRegistry {
        let r = KeyRegistry::new();
        for (i, name) in [
            "UIUC",
            "UIUC Registrar",
            "BBB",
            "ELENA",
            "VISA",
            "IBM",
            "CSP",
        ]
        .iter()
        .enumerate()
        {
            r.register_derived(PeerId::new(name), i as u64 + 1);
        }
        r
    }

    fn run(
        peers: &mut PeerMap,
        requester: &str,
        responder: &str,
        goal: &str,
    ) -> NegotiationOutcome {
        let mut net = SimNetwork::new(7);
        Strategy::Parsimonious.run(
            peers,
            &mut net,
            NegotiationId(1),
            PeerId::new(requester),
            PeerId::new(responder),
            parse_literal(goal).unwrap(),
        )
    }

    /// Minimal bilateral scenario: E-Learn grants `resource` to holders of
    /// a UIUC student credential; Alice releases her credential only to
    /// BBB members; E-Learn's BBB membership is public.
    fn bilateral_peers() -> PeerMap {
        let reg = registry();
        let mut peers = PeerMap::new();

        let mut elearn = NegotiationPeer::new("E-Learn", reg.clone());
        elearn
            .load_program(
                r#"
                resource(X) $ true <- student(X) @ "UIUC" @ X.
                member("E-Learn") @ "BBB" $ true signedBy ["BBB"].
                "#,
            )
            .unwrap();
        peers.insert(elearn);

        let mut alice = NegotiationPeer::new("Alice", reg);
        alice
            .load_program(
                r#"
                student("Alice") @ "UIUC" signedBy ["UIUC"].
                student(X) @ Y $ member(Requester) @ "BBB" @ Requester <-_true student(X) @ Y.
                "#,
            )
            .unwrap();
        peers.insert(alice);

        peers
    }

    /// Evidence cites what its owner received during this negotiation,
    /// looked up by the rule id the receipt reported. Here S proves a
    /// release context from the sender-extended fact of a credential C
    /// pushed earlier in the same negotiation, so the evidence names C as
    /// its source rather than calling it initial knowledge.
    #[test]
    fn context_evidence_cites_a_received_sender_extended_fact() {
        let reg = registry();
        let mut peers = PeerMap::new();
        let mut s = NegotiationPeer::new("S", reg.clone());
        s.load_program(
            r#"
            resource(X) $ true <- student(X) @ "UIUC" @ X, check(X) @ X.
            ok(Y) $ student(Requester) @ "UIUC" @ Requester.
            "#,
        )
        .unwrap();
        peers.insert(s);
        let mut c = NegotiationPeer::new("C", reg);
        c.load_program(
            r#"
            student("C") @ "UIUC" $ true signedBy ["UIUC"].
            check(Y) $ true <- ok(Y) @ "S".
            "#,
        )
        .unwrap();
        peers.insert(c);

        let out = run(&mut peers, "C", "S", r#"resource("C")"#);
        assert!(out.success, "refusals: {:#?}", out.refusals);
        verify_safe_sequence(&out).unwrap();
        let ok = out
            .disclosures
            .iter()
            .find(|d| matches!(&d.item, DisclosedItem::Answer(a) if a.pred.as_str() == "ok"))
            .expect("S released ok(C)");
        let extended = Rule::fact(parse_literal(r#"student("C") @ "UIUC" @ "C""#).unwrap());
        assert_eq!(
            ok.evidence,
            vec![Evidence::ReceivedRule {
                from: PeerId::new("C"),
                rule: extended,
            }]
        );
    }

    /// Every candidate draws one standardize-apart version, whether or
    /// not it licenses, and a licensing rule's variables carry exactly
    /// that version into the recorded context and the body.
    #[test]
    fn licensing_rule_draws_one_version_per_candidate() {
        let rules = peertrust_parser::parse_program(
            r#"
            p(1).
            p(X) $ q(X, Z) <- r(X, Z).
            p(X) @ "S" $ true.
            "#,
        )
        .unwrap();
        let answer = parse_literal("p(1)").unwrap();
        let closure = self_closure(&answer, PeerId::new("S"));
        let mut seq = 6;
        assert!(licensing_rule(&rules[0], &answer, closure.as_ref(), &mut seq).is_none());
        assert_eq!(seq, 7, "skipped without a head context, still counted");
        let lic = licensing_rule(&rules[1], &answer, closure.as_ref(), &mut seq).unwrap();
        assert_eq!(seq, 8);
        let z = Term::Var(Var::versioned("Z", 8));
        let q = Literal::new("q", vec![Term::int(1), z.clone()]);
        assert_eq!(lic.context, Context { goals: vec![q] });
        assert_eq!(lic.body, vec![Literal::new("r", vec![Term::int(1), z])]);
        // The third rule licenses `p(1)` through its self-closure `p(1) @ "S"`.
        let lic = licensing_rule(&rules[2], &answer, closure.as_ref(), &mut seq).unwrap();
        assert_eq!((seq, lic.context.is_public(), lic.body.len()), (9, true, 0));
        assert!(licensing_rule(&rules[2], &answer, None, &mut seq).is_none());
    }

    #[test]
    fn bilateral_negotiation_succeeds() {
        let mut peers = bilateral_peers();
        let out = run(&mut peers, "Alice", "E-Learn", r#"resource("Alice")"#);
        assert!(out.success, "refusals: {:?}", out.refusals);
        assert_eq!(out.granted[0].to_string(), "resource(\"Alice\")");
        // Disclosure sequence includes Alice's credential and E-Learn's
        // membership answer or credential.
        assert!(
            out.credential_count() >= 2,
            "sequence: {:#?}",
            out.disclosures
        );
        verify_safe_sequence(&out).unwrap();
        assert!(out.messages >= 4);
    }

    #[test]
    fn negotiation_fails_without_counter_credential() {
        // E-Learn cannot prove BBB membership -> Alice refuses -> failure.
        let reg = registry();
        let mut peers = PeerMap::new();
        let mut elearn = NegotiationPeer::new("E-Learn", reg.clone());
        elearn
            .load_program(r#"resource(X) $ true <- student(X) @ "UIUC" @ X."#)
            .unwrap();
        peers.insert(elearn);
        let mut alice = NegotiationPeer::new("Alice", reg);
        alice
            .load_program(
                r#"
                student("Alice") @ "UIUC" signedBy ["UIUC"].
                student(X) @ Y $ member(Requester) @ "BBB" @ Requester <-_true student(X) @ Y.
                "#,
            )
            .unwrap();
        peers.insert(alice);

        let out = run(&mut peers, "Alice", "E-Learn", r#"resource("Alice")"#);
        assert!(!out.success);
        assert!(out
            .refusals
            .iter()
            .any(|r| r.reason == RefusalReason::ReleaseDenied));
    }

    #[test]
    fn default_private_context_blocks_release() {
        // Alice's credential has NO release rule: default Requester = Self.
        let reg = registry();
        let mut peers = PeerMap::new();
        let mut elearn = NegotiationPeer::new("E-Learn", reg.clone());
        elearn
            .load_program(r#"resource(X) $ true <- student(X) @ "UIUC" @ X."#)
            .unwrap();
        peers.insert(elearn);
        let mut alice = NegotiationPeer::new("Alice", reg);
        alice
            .load_program(r#"student("Alice") @ "UIUC" signedBy ["UIUC"]."#)
            .unwrap();
        peers.insert(alice);

        let out = run(&mut peers, "Alice", "E-Learn", r#"resource("Alice")"#);
        assert!(!out.success);
    }

    #[test]
    fn public_resource_needs_no_credentials() {
        let reg = registry();
        let mut peers = PeerMap::new();
        let mut srv = NegotiationPeer::new("Server", reg.clone());
        srv.load_program("open(X) $ true <- base(X). base(1).")
            .unwrap();
        peers.insert(srv);
        peers.insert(NegotiationPeer::new("Client", reg));

        let out = run(&mut peers, "Client", "Server", "open(X)");
        assert!(out.success);
        assert_eq!(out.granted[0].to_string(), "open(1)");
        assert_eq!(out.credential_count(), 0);
    }

    #[test]
    fn delegation_chain_is_pushed_and_verified() {
        // Alice holds a registrar-signed ID plus UIUC's delegation rule;
        // E-Learn verifies the answer against the pushed signed chain.
        let reg = registry();
        let mut peers = PeerMap::new();
        let mut elearn = NegotiationPeer::new("E-Learn", reg.clone());
        elearn
            .load_program(r#"resource(X) $ true <- student(X) @ "UIUC" @ X."#)
            .unwrap();
        peers.insert(elearn);
        let mut alice = NegotiationPeer::new("Alice", reg);
        alice
            .load_program(
                r#"
                student("Alice") @ "UIUC Registrar" signedBy ["UIUC Registrar"].
                student(X) @ "UIUC" <- signedBy ["UIUC"] student(X) @ "UIUC Registrar".
                student(X) @ Y $ true <-_true student(X) @ Y.
                "#,
            )
            .unwrap();
        peers.insert(alice);

        let out = run(&mut peers, "Alice", "E-Learn", r#"resource("Alice")"#);
        assert!(out.success, "refusals: {:?}", out.refusals);
        // Both links of the chain were pushed.
        assert!(out.credential_count() >= 2);
        verify_safe_sequence(&out).unwrap();
    }

    #[test]
    fn unverifiable_answer_is_rejected() {
        // Alice claims UIUC student status but holds no signed credential;
        // E-Learn's verification drops the unsupported answer.
        let reg = registry();
        let mut peers = PeerMap::new();
        let mut elearn = NegotiationPeer::new("E-Learn", reg.clone());
        elearn
            .load_program(r#"resource(X) $ true <- student(X) @ "UIUC" @ X."#)
            .unwrap();
        peers.insert(elearn);
        let mut alice = NegotiationPeer::new("Alice", reg);
        alice
            .load_program(
                r#"
                % Unsigned local assertion, released publicly — but nothing
                % signed backs it up.
                student("Alice") @ "UIUC" $ true <-_true claimed.
                claimed.
                "#,
            )
            .unwrap();
        peers.insert(alice);

        let out = run(&mut peers, "Alice", "E-Learn", r#"resource("Alice")"#);
        assert!(!out.success, "unsigned claim must not grant access");
        assert_eq!(
            unverified(&out, "E-Learn"),
            [r#"student("Alice") @ "UIUC""#]
        );
    }

    /// The answers `peer` dropped because no signed rule re-derives them.
    fn unverified(out: &NegotiationOutcome, peer: &str) -> Vec<String> {
        out.refusals
            .iter()
            .filter(|r| r.reason == RefusalReason::VerificationFailed)
            .filter(|r| r.peer == PeerId::new(peer))
            .map(|r| r.goal.to_string())
            .collect()
    }

    #[test]
    fn verifier_unsigned_copy_does_not_certify_an_answer() {
        // E-Learn holds the claimed fact itself, but unsigned: it is not
        // certified material, so Alice's unbacked answer still fails.
        let reg = registry();
        let mut peers = PeerMap::new();
        let mut elearn = NegotiationPeer::new("E-Learn", reg.clone());
        elearn
            .load_program(
                r#"
                resource(X) $ true <- student(X) @ "UIUC" @ X.
                student("Alice") @ "UIUC".
                "#,
            )
            .unwrap();
        peers.insert(elearn);
        let mut alice = NegotiationPeer::new("Alice", reg);
        alice
            .load_program(r#"student("Alice") @ "UIUC" $ true <-_true claimed. claimed."#)
            .unwrap();
        peers.insert(alice);

        let out = run(&mut peers, "Alice", "E-Learn", r#"resource("Alice")"#);
        assert!(!out.success, "an unsigned copy must not certify the claim");
        assert_eq!(
            unverified(&out, "E-Learn"),
            [r#"student("Alice") @ "UIUC""#]
        );
    }

    #[test]
    fn credential_pushed_into_a_frozen_clone_verifies() {
        // E-Learn's frozen certified view already holds UIUC's delegation
        // rule. The registrar credential Alice pushes mid-negotiation lands
        // in the clone's overlay, and the answer verifies against both.
        let reg = registry();
        let mut pristine = PeerMap::new();
        let mut elearn = NegotiationPeer::new("E-Learn", reg.clone());
        elearn
            .load_program(
                r#"
                resource(X) $ true <- student(X) @ "UIUC" @ X.
                student(X) @ "UIUC" <- signedBy ["UIUC"] student(X) @ "UIUC Registrar".
                "#,
            )
            .unwrap();
        pristine.insert(elearn);
        let mut alice = NegotiationPeer::new("Alice", reg);
        alice
            .load_program(
                r#"
                student("Alice") @ "UIUC Registrar" signedBy ["UIUC Registrar"].
                student(X) @ "UIUC" <- signedBy ["UIUC"] student(X) @ "UIUC Registrar".
                student(X) @ Y $ true <-_true student(X) @ Y.
                "#,
            )
            .unwrap();
        pristine.insert(alice);
        pristine.freeze();
        let elearn = PeerId::new("E-Learn");
        let base_view = pristine.get(elearn).unwrap().signed_only_kb().len();

        let mut peers = pristine.clone();
        let out = run(&mut peers, "Alice", "E-Learn", r#"resource("Alice")"#);
        assert!(out.success, "refusals: {:?}", out.refusals);
        assert!(unverified(&out, "E-Learn").is_empty());
        verify_safe_sequence(&out).unwrap();
        let view = peers.get(elearn).unwrap().signed_only_kb();
        assert!(
            view.len() > base_view,
            "the pushed credential joined the view"
        );
        assert!(peers.shares_frozen_bases_with(&pristine));
        assert_eq!(
            pristine.get(elearn).unwrap().signed_only_kb().len(),
            base_view,
            "the frozen map is untouched"
        );
    }

    #[test]
    fn effort_policy_refusal_recorded() {
        let reg = registry();
        let mut peers = PeerMap::new();
        let mut server = NegotiationPeer::new("Server", reg.clone());
        server.load_program("open(1) $ true.").unwrap();
        server.config.deny_peers.insert(PeerId::new("Mallory"));
        peers.insert(server);
        peers.insert(NegotiationPeer::new("Mallory", reg));

        let out = run(&mut peers, "Mallory", "Server", "open(X)");
        assert!(!out.success);
        assert_eq!(out.refusals[0].reason, RefusalReason::EffortPolicy);
    }

    #[test]
    fn cyclic_release_policies_terminate() {
        // A requires B's credential to release; B requires A's. Deadlock —
        // the negotiation must fail finitely, not hang.
        let reg = registry();
        reg.register_derived(PeerId::new("CA"), 99);
        let mut peers = PeerMap::new();
        let mut a = NegotiationPeer::new("A", reg.clone());
        a.load_program(
            r#"
            resource(X) $ true <- credB(X) @ "CA" @ X.
            credA("A") @ "CA" signedBy ["CA"].
            credA(X) @ Y $ credB(Requester) @ "CA" @ Requester <-_true credA(X) @ Y.
            "#,
        )
        .unwrap();
        peers.insert(a);
        let mut b = NegotiationPeer::new("B", reg);
        b.load_program(
            r#"
            credB("B") @ "CA" signedBy ["CA"].
            credB(X) @ Y $ credA(Requester) @ "CA" @ Requester <-_true credB(X) @ Y.
            "#,
        )
        .unwrap();
        peers.insert(b);

        let out = run(&mut peers, "B", "A", r#"resource("B")"#);
        assert!(!out.success);
        assert!(out
            .refusals
            .iter()
            .any(|r| r.reason == RefusalReason::CycleDetected
                || r.reason == RefusalReason::DepthExceeded
                || r.reason == RefusalReason::ReleaseDenied));
    }

    #[test]
    fn missing_responder_fails_cleanly() {
        let mut peers = PeerMap::new();
        peers.insert(NegotiationPeer::new("Alice", registry()));
        let out = run(&mut peers, "Alice", "Ghost", "anything(1)");
        assert!(!out.success);
        assert_eq!(out.messages, 0);
    }

    #[test]
    fn outcome_metrics_are_populated() {
        let mut peers = bilateral_peers();
        let out = run(&mut peers, "Alice", "E-Learn", r#"resource("Alice")"#);
        assert!(out.messages > 0);
        assert!(out.bytes > 0);
        assert!(out.queries >= 1);
        assert!(out.elapsed_ticks > 0);
    }

    /// Two peers whose `r/1` definitions are mutually recursive through
    /// delegation: `r(Y) @ "A"` needs `r(X) @ "B"` needs `r(X) @ "A"`.
    /// The seed fact `r(0)` lives at A and the `next` steps alternate
    /// between the peers, so `r(4) @ "A"` needs two full laps around the
    /// loop: one unrolling (which the classical driver's variant check
    /// still permits before refusing) only reaches `r(2)` — reaching
    /// `r(4)` requires the GEM fixpoint to pump instances around the
    /// cycle.
    fn mutual_recursion_peers() -> PeerMap {
        let reg = registry();
        let mut peers = PeerMap::new();
        let mut a = NegotiationPeer::new("A", reg.clone());
        a.load_program(
            r#"
            r(0) @ "A".
            r(Y) @ "A" <- r(X) @ "B" @ "B", next(X, Y).
            next(1, 2).
            next(3, 4).
            r(X) @ Y $ true <-_true r(X) @ Y.
            "#,
        )
        .unwrap();
        peers.insert(a);
        let mut b = NegotiationPeer::new("B", reg);
        b.load_program(
            r#"
            r(Y) @ "B" <- r(X) @ "A" @ "A", next(X, Y).
            next(0, 1).
            next(2, 3).
            r(X) @ Y $ true <-_true r(X) @ Y.
            "#,
        )
        .unwrap();
        peers.insert(b);
        peers
    }

    #[test]
    fn mutual_recursion_refused_without_gem() {
        let mut peers = mutual_recursion_peers();
        let out = run(&mut peers, "B", "A", r#"r(4) @ "A""#);
        assert!(!out.success, "classical driver must refuse the loop");
        assert!(
            out.refusals
                .iter()
                .any(|r| r.reason == RefusalReason::CycleDetected),
            "refusals: {:?}",
            out.refusals
        );
    }

    #[test]
    fn mutual_recursion_converges_with_gem() {
        let mut peers = mutual_recursion_peers();
        let mut net = SimNetwork::new(7);
        let (telemetry, _ring) = Telemetry::ring(4096);
        let opts = NegotiateOptions {
            session: SessionConfig {
                gem: true,
                ..SessionConfig::default()
            },
            telemetry: telemetry.clone(),
            ..NegotiateOptions::default()
        };
        let (out, _) = negotiate(
            &mut peers,
            &mut net,
            &opts,
            NegotiationId(1),
            PeerId::new("B"),
            PeerId::new("A"),
            parse_literal(r#"r(4) @ "A""#).unwrap(),
        );
        assert!(out.success, "refusals: {:?}", out.refusals);
        assert_eq!(
            out.granted[0],
            parse_literal(r#"r(4) @ "A""#).unwrap(),
            "the answer only derivable through the loop must be granted"
        );
        assert!(
            !out.refusals
                .iter()
                .any(|r| r.reason == RefusalReason::CycleDetected),
            "GEM must resolve the loop, not refuse it: {:?}",
            out.refusals
        );
        let m = telemetry.metrics().expect("telemetry enabled");
        assert!(m.counter("negotiation.gem.loops") >= 1);
        assert!(m.counter("negotiation.gem.sccs") >= 1);
        assert!(m.counter("negotiation.gem.rounds") >= 3);
        assert_eq!(m.counter("negotiation.refusal.cycle_detected"), 0);
    }

    #[test]
    fn refusal_reason_counters_use_snake_case() {
        let mut peers = mutual_recursion_peers();
        let mut net = SimNetwork::new(7);
        let (telemetry, _ring) = Telemetry::ring(4096);
        let opts = NegotiateOptions {
            telemetry: telemetry.clone(),
            ..NegotiateOptions::default()
        };
        let (out, _) = negotiate(
            &mut peers,
            &mut net,
            &opts,
            NegotiationId(1),
            PeerId::new("B"),
            PeerId::new("A"),
            parse_literal(r#"r(4) @ "A""#).unwrap(),
        );
        assert!(!out.success);
        let m = telemetry.metrics().expect("telemetry enabled");
        assert!(m.counter("negotiation.refusal.cycle_detected") >= 1);
        // The legacy Debug-cased series is retired: only the snake_case
        // per-reason counters and the total are emitted.
        assert_eq!(m.counter("negotiation.refusals.CycleDetected"), 0);
        assert_eq!(
            m.counter("negotiation.refusals"),
            m.counter("negotiation.refusal.cycle_detected")
        );
    }

    #[test]
    fn cycle_refusal_answers_never_reach_caches() {
        // Satellite regression: an empty (CycleDetected) answer set must
        // not be written into the per-session memo or the cross-
        // negotiation cache — a later negotiation that could succeed
        // (e.g. with GEM on) must not be fed the cached refusal.
        let mut peers = mutual_recursion_peers();
        let cache = SharedRemoteAnswerCache::new();
        let mut net = SimNetwork::new(7);
        let opts = NegotiateOptions {
            cache: Some(cache.clone()),
            ..NegotiateOptions::default()
        };
        let (out, _) = negotiate(
            &mut peers,
            &mut net,
            &opts,
            NegotiationId(1),
            PeerId::new("B"),
            PeerId::new("A"),
            parse_literal(r#"r(4) @ "A""#).unwrap(),
        );
        assert!(!out.success);
        let kb_len = peers.get(PeerId::new("A")).unwrap().kb.len();
        let canonical = canonicalize(&parse_literal(r#"r(4) @ "A""#).unwrap());
        assert_eq!(
            cache.lookup(
                PeerId::new("B"),
                PeerId::new("A"),
                &canonical,
                net.now(),
                kb_len
            ),
            None,
            "empty refusal answers must never be cached"
        );
    }

    #[test]
    fn gem_partial_answers_never_poison_cross_cache() {
        // Run the cyclic scenario twice against one shared cache with GEM
        // on: the second negotiation must still converge to the full
        // answer — i.e. no partial (mid-fixpoint) set was cached by the
        // first.
        let mut peers = mutual_recursion_peers();
        let opts = NegotiateOptions {
            session: SessionConfig {
                gem: true,
                ..SessionConfig::default()
            },
            cache: Some(SharedRemoteAnswerCache::new()),
            ..NegotiateOptions::default()
        };
        for nid in 1..=2u64 {
            let mut net = SimNetwork::new(7);
            let (out, _) = negotiate(
                &mut peers,
                &mut net,
                &opts,
                NegotiationId(nid),
                PeerId::new("B"),
                PeerId::new("A"),
                parse_literal(r#"r(4) @ "A""#).unwrap(),
            );
            assert!(out.success, "negotiation {nid} failed: {:?}", out.refusals);
            assert_eq!(out.granted[0], parse_literal(r#"r(4) @ "A""#).unwrap());
        }
    }

    #[test]
    fn gem_leaves_acyclic_negotiations_bit_identical() {
        // The GEM branch only fires on in-flight variant hits, so an
        // acyclic workload must produce exactly the same outcome with the
        // flag on.
        let run_with = |gem: bool| {
            let mut peers = bilateral_peers();
            let mut net = SimNetwork::new(7);
            let opts = NegotiateOptions {
                session: SessionConfig {
                    gem,
                    ..SessionConfig::default()
                },
                ..NegotiateOptions::default()
            };
            negotiate(
                &mut peers,
                &mut net,
                &opts,
                NegotiationId(1),
                PeerId::new("Alice"),
                PeerId::new("E-Learn"),
                parse_literal(r#"resource("Alice")"#).unwrap(),
            )
            .0
        };
        let off = run_with(false);
        let on = run_with(true);
        assert_eq!(
            serde_json::to_string(&off).unwrap(),
            serde_json::to_string(&on).unwrap()
        );
    }
}
