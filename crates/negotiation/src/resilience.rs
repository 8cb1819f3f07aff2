//! Resilient negotiation: deadlines, retries, backoff, crash-resume.
//!
//! The paper's driver assumes every query, credential push, and answer
//! arrives; its §6 outlook asks for negotiations that "always terminate
//! and succeed when possible". On a faulty substrate (see
//! `peertrust_net::faults`) that requires an explicit robustness layer,
//! which this module provides on top of the session driver:
//!
//! * **Per-query deadlines.** Every shipped message gets a delivery
//!   deadline in simulated ticks; a message still undelivered (lost,
//!   corrupted, or delayed past the deadline) counts as a timeout.
//! * **Bounded retries with deterministic exponential backoff.** A timed
//!   out message is re-sent after `backoff_base * 2^(attempt-1)` ticks
//!   (capped), up to `max_retries` times. Backoff waits advance the
//!   simulated clock, so retry schedules are fully deterministic.
//! * **Duplicate suppression.** The fault lane can deliver the same
//!   message twice (and retries can race a delayed original); receivers
//!   drop message ids they have already seen.
//! * **Crash-resume.** When a peer's scheduled crash window closes, its
//!   session state is rebuilt from scratch: the pristine pre-negotiation
//!   peer snapshot is restored and the disclosure log is replayed —
//!   every signed rule recorded as disclosed *to* that peer is received
//!   again, in original order. Session answer caches are durable (the
//!   model's stand-in for a persisted answer store). Because the log
//!   replay reconstructs exactly the credentials the peer had acquired,
//!   a negotiation that survives the outage converges to the fault-free
//!   outcome.
//!
//! Termination is unconditional: every delivery attempt ends in success,
//! a [`ResilienceFailure::DeadlineExceeded`], a
//! [`ResilienceFailure::RetryBudgetExhausted`], or a
//! [`ResilienceFailure::SendRejected`] — there is no path that waits
//! forever. Failed deliveries surface in the outcome as
//! `RefusalReason::Unreachable` refusals.
//!
//! To use it, attach a fault lane to the network
//! ([`peertrust_net::SimNetwork::with_faults`]) and set
//! [`crate::NegotiateOptions::resilience`]: [`crate::negotiate`] then
//! supervises every delivery and returns a [`ResilienceReport`].
//!
//! With [`peertrust_net::FaultPlan::none`] the resilient driver is bit-identical to the
//! plain one — outcomes, metrics, and timeline events — because no
//! retry, suppression, or resume code path is reachable and all
//! `negotiation.resilience.*` telemetry is emitted only on occurrence
//! (property-tested in `tests/prop_resilience.rs`).
//!
//! One sizing rule: `query_deadline_ticks` must exceed the worst-case
//! link latency, or fault-free deliveries would be misread as timeouts
//! (the default of 64 covers every latency model in the experiments).

use crate::session::PeerMap;
use peertrust_core::PeerId;
use peertrust_net::{MessageId, Tick};
use std::collections::HashSet;

/// Retry/timeout policy for one negotiation session.
#[derive(Clone, Debug)]
pub struct ResilienceConfig {
    /// Delivery deadline per shipped message, in ticks from the send.
    /// Retries of the same message share the deadline, so a delivery
    /// attempt occupies at most this many ticks in total.
    pub query_deadline_ticks: Tick,
    /// Maximum re-sends of one message after the original.
    pub max_retries: u32,
    /// Backoff before retry `n` is `backoff_base * 2^(n-1)` ticks…
    pub backoff_base: Tick,
    /// …capped at this many ticks.
    pub backoff_cap: Tick,
}

impl Default for ResilienceConfig {
    fn default() -> ResilienceConfig {
        ResilienceConfig {
            // Worst-case retry span with the defaults: backoffs
            // 2+4+8+16 = 30 ticks plus per-attempt latency, comfortably
            // inside the 64-tick deadline for latency models up to ~6.
            query_deadline_ticks: 64,
            max_retries: 4,
            backoff_base: 2,
            backoff_cap: 16,
        }
    }
}

/// Why a delivery was abandoned. Every non-converging run terminates with
/// at least one of these — never a hang.
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum ResilienceFailure {
    /// The per-message deadline elapsed with retries still failing.
    DeadlineExceeded {
        peer: PeerId,
        kind: String,
        at: Tick,
    },
    /// The retry budget ran out before the deadline.
    RetryBudgetExhausted {
        peer: PeerId,
        kind: String,
        attempts: u32,
    },
    /// A retry send was rejected outright by the transport (topology or
    /// hop budget).
    SendRejected { peer: PeerId, kind: String },
    /// Admission control refused the whole negotiation before any message
    /// was sent: the serving layer's bounded queue was full, or the job
    /// could not start within its admission deadline (see `crate::serve`).
    /// `kind` records which guard fired (`"queue_full"` or `"deadline"`),
    /// `at` the arrival tick of the shed job.
    Overload {
        peer: PeerId,
        kind: String,
        at: Tick,
    },
}

impl ResilienceFailure {
    /// The peer the work could not be delivered to (for [`Overload`]
    /// sheds, the responder that never saw the request).
    ///
    /// [`Overload`]: ResilienceFailure::Overload
    pub fn peer(&self) -> PeerId {
        match self {
            ResilienceFailure::DeadlineExceeded { peer, .. }
            | ResilienceFailure::RetryBudgetExhausted { peer, .. }
            | ResilienceFailure::SendRejected { peer, .. }
            | ResilienceFailure::Overload { peer, .. } => *peer,
        }
    }
}

/// Counters for one resilient session (also emitted as
/// `negotiation.resilience.*` telemetry, on occurrence only).
#[derive(Clone, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ResilienceStats {
    /// Messages re-sent after a timeout.
    pub retries: u64,
    /// Delivery waits that expired (lost or too-slow message).
    pub timeouts: u64,
    /// Received messages discarded as already-seen ids.
    pub duplicates_suppressed: u64,
    /// Crash windows recovered by pristine-restore + log replay.
    pub crash_resumes: u64,
    /// Deliveries abandoned (one per [`ResilienceFailure`]).
    pub gave_up: u64,
}

/// What the resilience layer did during one negotiation.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct ResilienceReport {
    pub stats: ResilienceStats,
    pub failures: Vec<ResilienceFailure>,
    /// True iff no delivery was abandoned — the session ran to the same
    /// conclusion a fault-free transport would reach.
    pub converged: bool,
}

/// Per-session working state the driver threads through deliveries.
pub(crate) struct ResilienceState {
    pub(crate) cfg: ResilienceConfig,
    pub(crate) stats: ResilienceStats,
    pub(crate) failures: Vec<ResilienceFailure>,
    /// Pre-negotiation snapshot every crash-resume restores from.
    pub(crate) pristine: PeerMap,
    /// Message ids already delivered to some inbox (duplicate filter).
    pub(crate) seen: HashSet<MessageId>,
    /// Indices into the fault plan's crash list already resumed.
    pub(crate) resumed: HashSet<usize>,
}

impl ResilienceState {
    pub(crate) fn new(cfg: ResilienceConfig, pristine: PeerMap) -> ResilienceState {
        ResilienceState {
            cfg,
            stats: ResilienceStats::default(),
            failures: Vec::new(),
            pristine,
            seen: HashSet::new(),
            resumed: HashSet::new(),
        }
    }

    pub(crate) fn into_report(self) -> ResilienceReport {
        ResilienceReport {
            converged: self.failures.is_empty(),
            stats: self.stats,
            failures: self.failures,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::{NegotiationOutcome, RefusalReason};
    use crate::peer::NegotiationPeer;
    use crate::session::{negotiate, NegotiateOptions};
    use crate::strategy::Strategy;
    use peertrust_crypto::KeyRegistry;
    use peertrust_net::{FaultPlan, LinkFaults, NegotiationId, SimNetwork};
    use peertrust_parser::parse_literal;
    use peertrust_telemetry::Telemetry;

    /// The bilateral scenario from the session tests: E-Learn guards
    /// `resource` behind a UIUC credential Alice releases only to BBB
    /// members.
    fn bilateral_peers() -> PeerMap {
        let reg = KeyRegistry::new();
        for (i, name) in ["UIUC", "BBB"].iter().enumerate() {
            reg.register_derived(PeerId::new(name), i as u64 + 1);
        }
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

    fn alice() -> PeerId {
        PeerId::new("Alice")
    }

    fn elearn() -> PeerId {
        PeerId::new("E-Learn")
    }

    fn goal() -> peertrust_core::Literal {
        parse_literal(r#"resource("Alice")"#).unwrap()
    }

    fn fault_free_outcome() -> NegotiationOutcome {
        let mut peers = bilateral_peers();
        let mut net = SimNetwork::new(7);
        Strategy::Parsimonious.run(
            &mut peers,
            &mut net,
            NegotiationId(1),
            alice(),
            elearn(),
            goal(),
        )
    }

    fn resilient_under(
        plan: FaultPlan,
        resilience: ResilienceConfig,
    ) -> (NegotiationOutcome, ResilienceReport) {
        let mut peers = bilateral_peers();
        let mut net = SimNetwork::new(7).with_faults(plan);
        resilient(&mut peers, &mut net, resilience, Telemetry::disabled())
    }

    fn resilient(
        peers: &mut PeerMap,
        net: &mut SimNetwork,
        resilience: ResilienceConfig,
        telemetry: Telemetry,
    ) -> (NegotiationOutcome, ResilienceReport) {
        let opts = NegotiateOptions {
            resilience: Some(resilience),
            telemetry,
            ..NegotiateOptions::default()
        };
        let (out, report) = negotiate(
            peers,
            net,
            &opts,
            NegotiationId(1),
            alice(),
            elearn(),
            goal(),
        );
        (out, report.expect("resilience requested"))
    }

    #[test]
    fn none_plan_resilient_run_matches_baseline_outcome() {
        let baseline = fault_free_outcome();
        let (out, report) = resilient_under(FaultPlan::none(), ResilienceConfig::default());
        assert_eq!(
            serde_json::to_string(&out).unwrap(),
            serde_json::to_string(&baseline).unwrap()
        );
        assert!(report.converged);
        assert_eq!(report.stats, ResilienceStats::default());
    }

    #[test]
    fn retries_recover_from_drops_to_the_fault_free_outcome() {
        let baseline = fault_free_outcome();
        let mut any_retry = false;
        for seed in 0..12u64 {
            let (out, report) = resilient_under(
                FaultPlan::uniform(seed, LinkFaults::drops(0.3)),
                ResilienceConfig {
                    max_retries: 8,
                    query_deadline_ticks: 128,
                    ..ResilienceConfig::default()
                },
            );
            assert!(report.converged, "seed {seed}: {:?}", report.failures);
            assert_eq!(out.success, baseline.success, "seed {seed}");
            assert_eq!(out.granted, baseline.granted, "seed {seed}");
            assert_eq!(
                out.disclosures.len(),
                baseline.disclosures.len(),
                "seed {seed}"
            );
            any_retry |= report.stats.retries > 0;
        }
        assert!(any_retry, "30% drop over 12 seeds must trigger a retry");
    }

    #[test]
    fn duplicates_are_suppressed_and_outcome_unchanged() {
        let baseline = fault_free_outcome();
        let (out, report) = resilient_under(
            FaultPlan::uniform(
                3,
                LinkFaults {
                    dup_ppm: 1_000_000,
                    ..LinkFaults::NONE
                },
            ),
            ResilienceConfig::default(),
        );
        assert!(report.converged);
        assert!(report.stats.duplicates_suppressed > 0);
        assert_eq!(out.success, baseline.success);
        assert_eq!(out.granted, baseline.granted);
    }

    #[test]
    fn crash_window_is_survived_via_resume() {
        let baseline = fault_free_outcome();
        let plan = FaultPlan::none().with_crash(elearn(), 0, 6);
        let (out, report) = resilient_under(
            plan,
            ResilienceConfig {
                max_retries: 8,
                ..ResilienceConfig::default()
            },
        );
        assert!(report.converged, "failures: {:?}", report.failures);
        assert!(report.stats.retries > 0, "crash must force retries");
        assert!(report.stats.crash_resumes >= 1);
        assert_eq!(out.success, baseline.success);
        assert_eq!(out.granted, baseline.granted);
    }

    #[test]
    fn zero_retry_budget_gives_up_with_budget_reason() {
        let (out, report) = resilient_under(
            FaultPlan::uniform(1, LinkFaults::drops(1.0)),
            ResilienceConfig {
                max_retries: 0,
                ..ResilienceConfig::default()
            },
        );
        assert!(!out.success);
        assert!(!report.converged);
        assert!(matches!(
            report.failures[0],
            ResilienceFailure::RetryBudgetExhausted { attempts: 0, .. }
        ));
        assert!(out
            .refusals
            .iter()
            .any(|r| r.reason == RefusalReason::Unreachable));
        assert_eq!(report.stats.gave_up, report.failures.len() as u64);
    }

    #[test]
    fn tight_deadline_gives_up_with_deadline_reason() {
        let (out, report) = resilient_under(
            FaultPlan::uniform(1, LinkFaults::drops(1.0)),
            ResilienceConfig {
                query_deadline_ticks: 4,
                max_retries: 100,
                backoff_base: 2,
                backoff_cap: 4,
            },
        );
        assert!(!out.success);
        assert!(!report.converged);
        assert!(report
            .failures
            .iter()
            .any(|f| matches!(f, ResilienceFailure::DeadlineExceeded { .. })));
        assert!(report.stats.timeouts > 0);
    }

    #[test]
    fn total_loss_terminates_quickly_not_hangs() {
        // 100% loss on every link, generous budgets: the session must
        // still terminate (bounded by deadline × messages).
        let (out, report) = resilient_under(
            FaultPlan::uniform(9, LinkFaults::drops(1.0)),
            ResilienceConfig::default(),
        );
        assert!(!out.success);
        assert!(!report.converged);
        assert!(report.stats.gave_up > 0);
    }

    #[test]
    fn resilience_telemetry_is_emitted_on_occurrence() {
        let (tele, _ring) = Telemetry::ring(4096);
        let mut peers = bilateral_peers();
        let mut net = SimNetwork::new(7).with_faults(FaultPlan::uniform(2, LinkFaults::drops(0.5)));
        let (_out, report) = resilient(
            &mut peers,
            &mut net,
            ResilienceConfig {
                max_retries: 8,
                query_deadline_ticks: 128,
                ..ResilienceConfig::default()
            },
            tele.clone(),
        );
        let m = tele.metrics().unwrap();
        assert_eq!(
            m.counter("negotiation.resilience.retries"),
            report.stats.retries
        );
        assert_eq!(
            m.counter("negotiation.resilience.timeouts"),
            report.stats.timeouts
        );
    }
}
