//! Discovery-then-negotiate: the full Edutella workflow of paper §1.
//! Alice does not know which peer offers Spanish courses; the super-peer
//! routing layer finds providers, and she then negotiates with each until
//! one grants access.

use peertrust::core::{PeerId, Sym};
use peertrust::crypto::KeyRegistry;
use peertrust::negotiation::{NegotiationPeer, PeerMap, Strategy};
use peertrust::net::{NegotiationId, SimNetwork, SuperPeerNetwork};
use peertrust::parser::parse_literal;

fn build() -> (PeerMap, SuperPeerNetwork) {
    let registry = KeyRegistry::new();
    registry.register_derived(PeerId::new("UIUC"), 1);
    registry.register_derived(PeerId::new("BBB"), 2);

    let mut peers = PeerMap::new();

    // Two course providers with different requirements.
    let mut strict = NegotiationPeer::new("StrictCourses", registry.clone());
    strict
        .load_program(
            r#"
            spanishCourse(X) $ true <- veteran(X) @ "Army" @ X.
            "#,
        )
        .unwrap();
    peers.insert(strict);

    let mut elearn = NegotiationPeer::new("E-Learn", registry.clone());
    elearn
        .load_program(
            r#"
            spanishCourse(X) $ true <- student(X) @ "UIUC" @ X.
            member("E-Learn") @ "BBB" $ true signedBy ["BBB"].
            "#,
        )
        .unwrap();
    peers.insert(elearn);

    let mut alice = NegotiationPeer::new("Alice", registry);
    alice
        .load_program(
            r#"
            student("Alice") @ "UIUC" signedBy ["UIUC"].
            student(X) @ Y $ member(Requester) @ "BBB" @ Requester <-_true student(X) @ Y.
            "#,
        )
        .unwrap();
    peers.insert(alice);

    // The super-peer backbone with provider advertisements.
    let mut spn = SuperPeerNetwork::new([PeerId::new("SP1"), PeerId::new("SP2")]);
    spn.attach(PeerId::new("StrictCourses"), PeerId::new("SP1"));
    spn.attach(PeerId::new("E-Learn"), PeerId::new("SP2"));
    spn.attach(PeerId::new("Alice"), PeerId::new("SP1"));
    spn.advertise(PeerId::new("StrictCourses"), Sym::new("spanishCourse"));
    spn.advertise(PeerId::new("E-Learn"), Sym::new("spanishCourse"));

    (peers, spn)
}

#[test]
fn discovery_finds_providers_then_negotiation_selects_one() {
    let (mut peers, spn) = build();

    // 1. Discover providers of spanishCourse across the backbone.
    let lookup = spn.lookup(PeerId::new("Alice"), Sym::new("spanishCourse"), true);
    assert_eq!(lookup.providers.len(), 2, "{lookup:?}");

    // 2. Negotiate with each provider until one grants.
    let mut net = SimNetwork::new(11);
    let goal = parse_literal(r#"spanishCourse("Alice")"#).unwrap();
    let mut granted_by = None;
    let mut attempts = 0;
    for provider in &lookup.providers {
        attempts += 1;
        let out = Strategy::Parsimonious.run(
            &mut peers,
            &mut net,
            NegotiationId(attempts),
            PeerId::new("Alice"),
            *provider,
            goal.clone(),
        );
        if out.success {
            granted_by = Some(*provider);
            break;
        }
    }

    // StrictCourses demands a veteran credential Alice lacks; E-Learn's
    // student policy succeeds.
    assert_eq!(granted_by, Some(PeerId::new("E-Learn")));
    assert_eq!(attempts, 2, "the strict provider was tried and refused");
}

#[test]
fn discovery_miss_means_no_negotiation() {
    let (_peers, spn) = build();
    let lookup = spn.lookup(PeerId::new("Alice"), Sym::new("quantumCourse"), true);
    assert!(lookup.providers.is_empty());
}

#[test]
fn first_hit_routing_prefers_nearby_providers() {
    let (_peers, spn) = build();
    // Alice sits on SP1, where StrictCourses advertises: a non-exhaustive
    // lookup stops there.
    let lookup = spn.lookup(PeerId::new("Alice"), Sym::new("spanishCourse"), false);
    assert_eq!(lookup.providers, vec![PeerId::new("StrictCourses")]);
    assert_eq!(lookup.hops, 0);
}
