//! The delegated-negotiation (grid/handheld) scenario (paper §4.2, last
//! paragraph).
//!
//! "Handheld devices may not have enough power to carry out trust
//! negotiation directly. In this case, Bob's device can forward any
//! queries it receives to another peer that Bob trusts, such as his home
//! or office computer. This trusted peer has access to Bob's policies and
//! credentials, performs the negotiation on his behalf, and returns the
//! final results to the handheld device."
//!
//! Realization: the handheld peer ("Bob") holds *forwarding rules* whose
//! bodies route each query to "Bob-Home" (`cred(X) @ Y @ "Bob-Home"`) and
//! whose head contexts carry Bob's outward-facing release policies. The
//! home peer holds the actual credentials, released only to Bob's own
//! devices (`$ Requester = "Bob"`), so the private material never leaves
//! Bob's administrative domain unprotected — the run-time analogue of
//! "Bob's private keys reside only on his handheld".

use peertrust_core::{Literal, PeerId, Term};
use peertrust_crypto::KeyRegistry;
use peertrust_negotiation::{NegotiationOutcome, NegotiationPeer, PeerMap, Strategy};
use peertrust_net::{NegotiationId, SimNetwork};

pub const HANDHELD: &str = "Bob";
pub const HOME: &str = "Bob-Home";
pub const VERIFIER: &str = "GridService";

/// The built grid scenario.
pub struct GridScenario {
    pub peers: PeerMap,
    pub registry: KeyRegistry,
}

impl GridScenario {
    pub fn build() -> GridScenario {
        GridScenario::build_with(true)
    }

    /// `home_reachable = false` simulates the home peer being offline —
    /// the handheld alone cannot satisfy the service's policy.
    pub fn build_with(home_reachable: bool) -> GridScenario {
        let registry = KeyRegistry::new();
        registry.register_derived(PeerId::new("GridCA"), 300);
        let mut peers = PeerMap::new();

        // The grid service: requires a grid-user credential, presented by
        // the requester itself.
        let mut service = NegotiationPeer::new(VERIFIER, registry.clone());
        service
            .load_program(r#"access(X) $ true <- gridUser(X) @ "GridCA" @ X."#)
            .expect("service program parses");
        peers.insert(service);

        // The handheld: no credentials, only forwarding rules carrying
        // Bob's outward release policy (here: public, as the grid service
        // is trusted; any context could be used).
        let mut handheld = NegotiationPeer::new(HANDHELD, registry.clone());
        handheld
            .load_program(
                r#"
                gridUser(X) @ Y $ true <-_true gridUser(X) @ Y @ "Bob-Home".
                "#,
            )
            .expect("handheld program parses");
        peers.insert(handheld);

        // The home peer: holds the credential, releases it only to Bob's
        // own device.
        if home_reachable {
            let mut home = NegotiationPeer::new(HOME, registry.clone());
            home.load_program(
                r#"
                gridUser("Bob") @ "GridCA" signedBy ["GridCA"].
                gridUser(X) @ Y $ Requester = "Bob" <-_true gridUser(X) @ Y.
                "#,
            )
            .expect("home program parses");
            peers.insert(home);
        }

        GridScenario { peers, registry }
    }

    pub fn goal() -> Literal {
        Literal::new("access", vec![Term::str(HANDHELD)])
    }

    pub fn run(&mut self, strategy: Strategy) -> NegotiationOutcome {
        let mut net = SimNetwork::new(0xE9);
        strategy.run(
            &mut self.peers,
            &mut net,
            NegotiationId(9),
            PeerId::new(HANDHELD),
            PeerId::new(VERIFIER),
            GridScenario::goal(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peertrust_negotiation::verify_safe_sequence;

    #[test]
    fn delegated_negotiation_succeeds() {
        let mut s = GridScenario::build();
        let out = s.run(Strategy::Parsimonious);
        assert!(out.success, "refusals: {:#?}", out.refusals);
        verify_safe_sequence(&out).unwrap();
        // The home peer took part and the credential was relayed to the
        // service via the handheld.
        assert!(out
            .disclosures
            .iter()
            .any(|d| d.from == PeerId::new(HOME) && d.to == PeerId::new(HANDHELD)));
        assert!(out
            .disclosures
            .iter()
            .any(|d| d.from == PeerId::new(HANDHELD) && d.to == PeerId::new(VERIFIER)));
    }

    #[test]
    fn offline_home_peer_fails_negotiation() {
        let mut s = GridScenario::build_with(false);
        let out = s.run(Strategy::Parsimonious);
        assert!(!out.success);
    }

    #[test]
    fn home_releases_only_to_bobs_device() {
        // A stranger asking the home peer directly is refused.
        let mut s = GridScenario::build();
        let mut net = SimNetwork::new(1);
        let out = Strategy::Parsimonious.run(
            &mut s.peers,
            &mut net,
            NegotiationId(10),
            PeerId::new(VERIFIER),
            PeerId::new(HOME),
            peertrust_parser::parse_literal(r#"gridUser("Bob") @ "GridCA""#).unwrap(),
        );
        assert!(!out.success, "home peer must refuse strangers");
    }
}
