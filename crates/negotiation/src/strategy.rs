//! Strategy selection.
//!
//! Yu et al. (paper §5) predefine families of negotiation strategies with
//! interoperability guarantees. PeerTrust's paper notes "Similar concepts
//! will be needed in PeerTrust"; we implement the two canonical endpoints
//! of the family — *eager* (disclose everything unlocked, maximal
//! disclosure, minimal rounds) and *parsimonious* (request exactly what is
//! needed, minimal disclosure) — behind one dispatch point, so experiments
//! can sweep `Strategy::ALL` over identical policy graphs.

use crate::eager::{negotiate_eager, EagerConfig};
use crate::outcome::NegotiationOutcome;
use crate::session::{negotiate, record_outcome, NegotiateOptions, PeerMap};
use peertrust_core::{Literal, PeerId};
use peertrust_net::{NegotiationId, SimNetwork};
use peertrust_telemetry::{Field, SpanId, Telemetry};

/// Which negotiation strategy drives the disclosure process.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Strategy {
    /// Backward-chaining: queries flow to exactly the literals on a path
    /// to the goal; credentials are disclosed only when needed.
    Parsimonious,
    /// Forward-pushing: every unlocked credential is disclosed each round;
    /// no queries or policy information cross the wire.
    Eager,
}

impl Strategy {
    pub const ALL: [Strategy; 2] = [Strategy::Parsimonious, Strategy::Eager];

    pub fn name(self) -> &'static str {
        match self {
            Strategy::Parsimonious => "parsimonious",
            Strategy::Eager => "eager",
        }
    }

    /// Run a negotiation with this strategy under default driver settings.
    pub fn run(
        self,
        peers: &mut PeerMap,
        net: &mut SimNetwork,
        nid: NegotiationId,
        requester: PeerId,
        responder: PeerId,
        goal: Literal,
    ) -> NegotiationOutcome {
        self.run_traced(
            peers,
            net,
            nid,
            requester,
            responder,
            goal,
            &Telemetry::disabled(),
        )
    }

    /// [`Strategy::run`] with a telemetry pipeline. The parsimonious
    /// driver traces every query/disclosure/refusal; the eager driver is
    /// wrapped in a `negotiation` span with outcome-level metrics (its
    /// round loop has no per-item decision points to instrument).
    #[allow(clippy::too_many_arguments)]
    pub fn run_traced(
        self,
        peers: &mut PeerMap,
        net: &mut SimNetwork,
        nid: NegotiationId,
        requester: PeerId,
        responder: PeerId,
        goal: Literal,
        telemetry: &Telemetry,
    ) -> NegotiationOutcome {
        match self {
            Strategy::Parsimonious => {
                let opts = NegotiateOptions {
                    telemetry: telemetry.clone(),
                    ..NegotiateOptions::default()
                };
                negotiate(peers, net, &opts, nid, requester, responder, goal).0
            }
            Strategy::Eager => {
                let span = if telemetry.enabled() {
                    telemetry.span_start(
                        net.now(),
                        nid.0,
                        "negotiation",
                        vec![
                            Field::str("strategy", "eager"),
                            Field::str("requester", requester.to_string()),
                            Field::str("responder", responder.to_string()),
                            Field::str("goal", goal.to_string()),
                        ],
                    )
                } else {
                    SpanId::NONE
                };
                let outcome = negotiate_eager(
                    peers,
                    net,
                    EagerConfig::default(),
                    nid,
                    requester,
                    responder,
                    goal,
                );
                if telemetry.enabled() {
                    record_outcome(telemetry, &outcome);
                    telemetry.span_end(
                        net.now(),
                        span,
                        nid.0,
                        vec![
                            Field::bool("success", outcome.success),
                            Field::u64("disclosures", outcome.disclosures.len() as u64),
                        ],
                    );
                }
                outcome
            }
        }
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::peer::NegotiationPeer;
    use peertrust_crypto::KeyRegistry;
    use peertrust_parser::parse_literal;

    /// Both strategies must agree on success for the bilateral scenario,
    /// with the expected disclosure/messaging trade-off.
    #[test]
    fn strategies_agree_on_bilateral_scenario() {
        let reg = KeyRegistry::new();
        reg.register_derived(PeerId::new("UIUC"), 1);
        reg.register_derived(PeerId::new("BBB"), 2);

        let build = || {
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
        let mut results = Vec::new();
        for strat in Strategy::ALL {
            let mut peers = build();
            let mut net = SimNetwork::new(11);
            let out = strat.run(
                &mut peers,
                &mut net,
                NegotiationId(1),
                PeerId::new("Alice"),
                PeerId::new("E-Learn"),
                goal.clone(),
            );
            assert!(out.success, "{strat} failed");
            crate::outcome::verify_safe_sequence(&out).unwrap();
            results.push((strat, out));
        }
        // Parsimonious uses queries; eager uses none.
        let pars = &results[0].1;
        let eag = &results[1].1;
        assert!(pars.queries > 0);
        assert_eq!(eag.queries, 0);
    }

    #[test]
    fn names_and_display() {
        assert_eq!(Strategy::Parsimonious.name(), "parsimonious");
        assert_eq!(Strategy::Eager.to_string(), "eager");
        assert_eq!(Strategy::ALL.len(), 2);
    }
}
