//! Failure analysis (paper §6): *"one would like to see an analysis of the
//! autonomy available to each peer (e.g., 'If I refuse to answer this
//! query, could it cause the negotiation to fail?')"*.
//!
//! [`analyze_failure`] answers the converse, actionable question after a
//! failed negotiation: **which refusals were critical** — i.e., for which
//! single refusal would overriding it (releasing the refused item) have
//! let the negotiation succeed? The analysis is counterfactual: each
//! distinct `ReleaseDenied` refusal is overridden in isolation (via
//! [`SessionConfig::release_overrides`]) and the negotiation re-run on a
//! fresh copy of the initial peer state.
//!
//! A refusal can be:
//!
//! * **critical** — overriding it alone flips the outcome to success: the
//!   refusing peer's autonomy on this item is exactly what blocks trust;
//! * **contributory** — overriding it alone does not help (other refusals
//!   or genuinely missing credentials also block the path);
//! * and the analysis also reports when the failure is **unconditional**:
//!   no single release override rescues it (e.g. a credential simply does
//!   not exist).

use crate::outcome::{NegotiationOutcome, Refusal, RefusalReason};
use crate::session::{negotiate, NegotiateOptions, PeerMap, SessionConfig};
use peertrust_core::{Literal, PeerId};
use peertrust_engine::canonicalize;
use peertrust_net::{NegotiationId, SimNetwork};

/// One analyzed refusal.
#[derive(Clone, Debug)]
pub struct AnalyzedRefusal {
    pub refusal: Refusal,
    /// Overriding just this refusal makes the negotiation succeed.
    pub critical: bool,
}

/// The result of a counterfactual failure analysis.
#[derive(Debug)]
pub struct FailureAnalysis {
    /// Distinct release refusals from the failed run, each tagged.
    pub refusals: Vec<AnalyzedRefusal>,
    /// True if no single override rescued the negotiation.
    pub unconditional: bool,
}

impl FailureAnalysis {
    /// The critical refusals only.
    pub fn critical(&self) -> Vec<&Refusal> {
        self.refusals
            .iter()
            .filter(|a| a.critical)
            .map(|a| &a.refusal)
            .collect()
    }
}

/// Counterfactually analyze a failed negotiation.
///
/// `build` must reconstruct the *initial* peer state (negotiations mutate
/// peers by caching pushed credentials, so each counterfactual run needs a
/// fresh copy — the same closure used to set the scenario up).
pub fn analyze_failure(
    build: impl Fn() -> PeerMap,
    cfg: SessionConfig,
    requester: PeerId,
    responder: PeerId,
    goal: &Literal,
    failed: &NegotiationOutcome,
) -> FailureAnalysis {
    assert!(!failed.success, "analyze_failure needs a failed outcome");

    // Distinct release refusals (by refusing peer + canonical goal).
    let mut distinct: Vec<&Refusal> = Vec::new();
    for r in &failed.refusals {
        if r.reason != RefusalReason::ReleaseDenied {
            continue;
        }
        if !distinct
            .iter()
            .any(|d| d.peer == r.peer && canonicalize(&d.goal) == canonicalize(&r.goal))
        {
            distinct.push(r);
        }
    }

    let mut analyzed = Vec::new();
    let mut any_critical = false;
    let mut opts = NegotiateOptions {
        session: cfg,
        ..NegotiateOptions::default()
    };
    for refusal in distinct {
        let mut peers = build();
        let mut net = SimNetwork::new(0xFA11);
        opts.session.release_overrides = vec![(refusal.peer, refusal.goal.clone())];
        let (outcome, _) = negotiate(
            &mut peers,
            &mut net,
            &opts,
            NegotiationId(0xFA11),
            requester,
            responder,
            goal.clone(),
        );
        let critical = outcome.success;
        any_critical |= critical;
        analyzed.push(AnalyzedRefusal {
            refusal: refusal.clone(),
            critical,
        });
    }

    FailureAnalysis {
        refusals: analyzed,
        unconditional: !any_critical,
    }
}

/// Compute a *rescue set*: a set of release overrides under which the
/// negotiation succeeds, built greedily — run, collect the release
/// refusals that surfaced, override them all, repeat. Returns `None` when
/// the failure is not caused by refusals at all (a credential simply does
/// not exist), i.e. when a pass adds no new overrides and still fails.
///
/// The rescue set is a diagnostic upper bound on "whose autonomy blocks
/// this negotiation": every peer/goal pair in it refused at some point on
/// the path to success.
pub fn find_rescue_set(
    build: impl Fn() -> PeerMap,
    cfg: SessionConfig,
    requester: PeerId,
    responder: PeerId,
    goal: &Literal,
    max_passes: usize,
) -> Option<Vec<(PeerId, Literal)>> {
    let mut overrides: Vec<(PeerId, Literal)> = Vec::new();
    let mut opts = NegotiateOptions {
        session: cfg,
        ..NegotiateOptions::default()
    };
    for _ in 0..max_passes {
        let mut peers = build();
        let mut net = SimNetwork::new(0xFA11);
        opts.session.release_overrides = overrides.clone();
        let (outcome, _) = negotiate(
            &mut peers,
            &mut net,
            &opts,
            NegotiationId(0xFA11),
            requester,
            responder,
            goal.clone(),
        );
        if outcome.success {
            return Some(overrides);
        }
        let mut grew = false;
        for r in &outcome.refusals {
            if r.reason != RefusalReason::ReleaseDenied {
                continue;
            }
            if !overrides
                .iter()
                .any(|(p, g)| *p == r.peer && canonicalize(g) == canonicalize(&r.goal))
            {
                overrides.push((r.peer, r.goal.clone()));
                grew = true;
            }
        }
        if !grew {
            return None; // failure not attributable to refusals
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::peer::NegotiationPeer;
    use crate::strategy::Strategy;
    use peertrust_crypto::KeyRegistry;
    use peertrust_parser::parse_literal;

    fn registry() -> KeyRegistry {
        let r = KeyRegistry::new();
        r.register_derived(PeerId::new("UIUC"), 1);
        r.register_derived(PeerId::new("BBB"), 2);
        r
    }

    /// Alice's release policy blocks because E-Learn has no BBB
    /// credential. Overriding Alice's (single) refusal rescues the
    /// negotiation — her refusal is critical.
    #[test]
    fn single_blocking_refusal_is_critical() {
        let reg = registry();
        let build = move || {
            let mut peers = PeerMap::new();
            let mut elearn = NegotiationPeer::new("E-Learn", reg.clone());
            elearn
                .load_program(r#"resource(X) $ true <- student(X) @ "UIUC" @ X."#)
                .unwrap();
            peers.insert(elearn);
            let mut alice = NegotiationPeer::new("Alice", reg.clone());
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
        };

        let goal = parse_literal(r#"resource("Alice")"#).unwrap();
        let mut peers = build();
        let mut net = SimNetwork::new(1);
        let failed = Strategy::Parsimonious.run(
            &mut peers,
            &mut net,
            NegotiationId(1),
            PeerId::new("Alice"),
            PeerId::new("E-Learn"),
            goal.clone(),
        );
        assert!(!failed.success);

        let analysis = analyze_failure(
            build,
            SessionConfig::default(),
            PeerId::new("Alice"),
            PeerId::new("E-Learn"),
            &goal,
            &failed,
        );
        assert!(!analysis.unconditional);
        let critical = analysis.critical();
        assert_eq!(critical.len(), 1);
        assert_eq!(critical[0].peer, PeerId::new("Alice"));
    }

    /// The credential genuinely does not exist: no refusal override can
    /// rescue the negotiation — failure is unconditional.
    #[test]
    fn missing_credential_failure_is_unconditional() {
        let reg = registry();
        let build = move || {
            let mut peers = PeerMap::new();
            let mut elearn = NegotiationPeer::new("E-Learn", reg.clone());
            elearn
                .load_program(r#"resource(X) $ true <- student(X) @ "UIUC" @ X."#)
                .unwrap();
            peers.insert(elearn);
            // Alice has no student credential at all.
            let mut alice = NegotiationPeer::new("Alice", reg.clone());
            alice.load_program(r#"unrelated(1)."#).unwrap();
            peers.insert(alice);
            peers
        };

        let goal = parse_literal(r#"resource("Alice")"#).unwrap();
        let mut peers = build();
        let mut net = SimNetwork::new(1);
        let failed = Strategy::Parsimonious.run(
            &mut peers,
            &mut net,
            NegotiationId(1),
            PeerId::new("Alice"),
            PeerId::new("E-Learn"),
            goal.clone(),
        );
        assert!(!failed.success);

        let analysis = analyze_failure(
            build,
            SessionConfig::default(),
            PeerId::new("Alice"),
            PeerId::new("E-Learn"),
            &goal,
            &failed,
        );
        assert!(analysis.unconditional);
    }

    /// Two independent refusals both block: neither alone is critical.
    #[test]
    fn jointly_blocking_refusals_are_contributory() {
        let reg = registry();
        reg.register_derived(PeerId::new("CA"), 3);
        let build = move || {
            let mut peers = PeerMap::new();
            let mut server = NegotiationPeer::new("Server", reg.clone());
            server
                .load_program(r#"resource(X) $ true <- credA(X) @ "CA" @ X, credB(X) @ "CA" @ X."#)
                .unwrap();
            peers.insert(server);
            // Client holds both credentials, each locked behind an
            // unsatisfiable policy.
            let mut client = NegotiationPeer::new("Client", reg.clone());
            client
                .load_program(
                    r#"
                    credA("Client") @ "CA" signedBy ["CA"].
                    credA(X) @ Y $ never(Requester) <-_true credA(X) @ Y.
                    credB("Client") @ "CA" signedBy ["CA"].
                    credB(X) @ Y $ never(Requester) <-_true credB(X) @ Y.
                    "#,
                )
                .unwrap();
            peers.insert(client);
            peers
        };

        let goal = parse_literal(r#"resource("Client")"#).unwrap();
        let mut peers = build();
        let mut net = SimNetwork::new(1);
        let failed = Strategy::Parsimonious.run(
            &mut peers,
            &mut net,
            NegotiationId(1),
            PeerId::new("Client"),
            PeerId::new("Server"),
            goal.clone(),
        );
        assert!(!failed.success);

        let analysis = analyze_failure(
            &build,
            SessionConfig::default(),
            PeerId::new("Client"),
            PeerId::new("Server"),
            &goal,
            &failed,
        );
        // Overriding credA's refusal still leaves credB locked, so no
        // single override flips the outcome. (Only credA's refusal is
        // visible in the failed run — the DFS stops at the first blocked
        // body goal.)
        assert!(analysis.unconditional);
        assert!(!analysis.refusals.is_empty());
        assert!(analysis.refusals.iter().all(|a| !a.critical));

        // The iterative rescue-set computation digs past the first
        // refusal and finds that overriding BOTH releases succeeds.
        let rescue = find_rescue_set(
            build,
            SessionConfig::default(),
            PeerId::new("Client"),
            PeerId::new("Server"),
            &goal,
            8,
        )
        .expect("a rescue set exists");
        assert_eq!(rescue.len(), 2, "rescue set: {rescue:?}");
    }

    /// No rescue set exists when the credential is genuinely absent.
    #[test]
    fn rescue_set_absent_for_missing_credentials() {
        let reg = registry();
        let build = move || {
            let mut peers = PeerMap::new();
            let mut elearn = NegotiationPeer::new("E-Learn", reg.clone());
            elearn
                .load_program(r#"resource(X) $ true <- student(X) @ "UIUC" @ X."#)
                .unwrap();
            peers.insert(elearn);
            peers.insert(NegotiationPeer::new("Alice", reg.clone()));
            peers
        };
        let goal = parse_literal(r#"resource("Alice")"#).unwrap();
        assert!(find_rescue_set(
            build,
            SessionConfig::default(),
            PeerId::new("Alice"),
            PeerId::new("E-Learn"),
            &goal,
            8,
        )
        .is_none());
    }
}
