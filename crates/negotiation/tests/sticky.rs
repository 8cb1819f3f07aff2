//! Sticky-policy tests (paper §3.1 extension): with
//! `SessionConfig::sticky_policies`, release contexts travel with pushed
//! rules and relays re-check the originator's context against each new
//! recipient — "a peer can control further dissemination of its released
//! information in a non-adversarial environment".

use peertrust_core::PeerId;
use peertrust_crypto::KeyRegistry;
use peertrust_negotiation::{
    negotiate, DisclosedItem, NegotiateOptions, NegotiationPeer, PeerMap, SessionConfig,
};
use peertrust_net::{NegotiationId, SimNetwork};
use peertrust_parser::parse_literal;

fn registry() -> KeyRegistry {
    let r = KeyRegistry::new();
    r.register_derived(PeerId::new("CA"), 1);
    r
}

/// Origin -> Middle -> Verifier relay scenario.
///
/// Origin holds a credential whose release policy is `trusted(Requester)`,
/// and Origin trusts only Middle. The verifier's policy asks Middle
/// (`@ "Middle"`), so Middle must relay Origin's credential.
fn relay_peers(origin_release_ctx: &str) -> PeerMap {
    let reg = registry();
    let mut peers = PeerMap::new();

    let mut verifier = NegotiationPeer::new("Verifier", reg.clone());
    verifier
        .load_program(r#"resource(X) $ true <- attr(X) @ "CA" @ "Middle"."#)
        .unwrap();
    peers.insert(verifier);

    let mut middle = NegotiationPeer::new("Middle", reg.clone());
    middle
        .load_program(
            r#"
            % Middle relays whatever it can learn from Origin.
            attr(X) @ "CA" <-_true attr(X) @ "CA" @ "Origin".
            attr(X) @ Y $ true <-_true attr(X) @ Y.
            "#,
        )
        .unwrap();
    peers.insert(middle);

    let mut origin = NegotiationPeer::new("Origin", reg);
    origin
        .load_program(&format!(
            r#"
            attr("Client") @ "CA" signedBy ["CA"].
            attr(X) @ Y $ {origin_release_ctx} <-_true attr(X) @ Y.
            trusted("Middle").
            "#
        ))
        .unwrap();
    peers.insert(origin);

    peers
}

fn run(peers: &mut PeerMap, sticky: bool) -> peertrust_negotiation::NegotiationOutcome {
    let mut net = SimNetwork::new(9);
    let opts = NegotiateOptions {
        session: SessionConfig {
            sticky_policies: sticky,
            ..SessionConfig::default()
        },
        ..NegotiateOptions::default()
    };
    negotiate(
        peers,
        &mut net,
        &opts,
        NegotiationId(1),
        PeerId::new("Client"),
        PeerId::new("Verifier"),
        parse_literal(r#"resource("Client")"#).unwrap(),
    )
    .0
}

#[test]
fn default_mode_relays_freely() {
    // Origin releases to Middle (trusted), contexts are stripped on the
    // wire, and Middle relays onward to the Verifier — the paper's default
    // (no post-release control).
    let mut peers = relay_peers("trusted(Requester)");
    // The requester "Client" is a bystander here; add it so the session
    // has a peer to act for.
    peers.insert(NegotiationPeer::new("Client", registry()));
    let out = run(&mut peers, false);
    assert!(out.success, "refusals: {:#?}", out.refusals);
    // The credential reached the verifier via relay.
    assert!(out.disclosures.iter().any(|d| {
        d.from == PeerId::new("Middle")
            && d.to == PeerId::new("Verifier")
            && matches!(&d.item, DisclosedItem::SignedRule(sr)
                        if sr.rule.head.pred.as_str() == "attr")
    }));
}

#[test]
fn sticky_mode_blocks_relay_beyond_trust() {
    // Same policies, sticky mode: the credential arrives at Middle with
    // `$ trusted(Requester)` attached; Middle cannot derive
    // trusted("Verifier"), so the relay is blocked and the negotiation
    // fails.
    let mut peers = relay_peers("trusted(Requester)");
    peers.insert(NegotiationPeer::new("Client", registry()));
    let out = run(&mut peers, true);
    assert!(!out.success, "sticky context must block the relay");
    // Specifically: no attr credential flowed Middle -> Verifier.
    assert!(out.disclosures.iter().all(|d| {
        !(d.from == PeerId::new("Middle")
            && d.to == PeerId::new("Verifier")
            && matches!(&d.item, DisclosedItem::SignedRule(sr)
                        if sr.rule.head.pred.as_str() == "attr"))
    }));
}

#[test]
fn sticky_mode_allows_relay_within_policy() {
    // If Origin's sticky context also admits the verifier, the relay goes
    // through even in sticky mode.
    let mut peers = relay_peers("trusted(Requester)");
    peers.insert(NegotiationPeer::new("Client", registry()));
    // Middle learns (locally) that the Verifier is trusted too — sticky
    // evaluation happens at the relay against the relayer's knowledge.
    peers
        .get_mut(PeerId::new("Middle"))
        .unwrap()
        .load_program(r#"trusted("Verifier")."#)
        .unwrap();
    let out = run(&mut peers, true);
    assert!(out.success, "refusals: {:#?}", out.refusals);
}

#[test]
fn sticky_public_contexts_still_flow() {
    let mut peers = relay_peers("true");
    peers.insert(NegotiationPeer::new("Client", registry()));
    let out = run(&mut peers, true);
    assert!(out.success, "public sticky context must not block anything");
}
