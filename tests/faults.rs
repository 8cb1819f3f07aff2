//! Fault-injection tests: negotiations must fail *gracefully* — no
//! panics, clean failure outcomes — when the transport refuses links
//! (partitions, broker-only topologies, hop budgets).

use peertrust::core::PeerId;
use peertrust::crypto::KeyRegistry;
use peertrust::negotiation::{NegotiationPeer, PeerMap, Strategy};
use peertrust::net::{LatencyModel, NegotiationId, SimNetwork, Topology};
use peertrust::parser::parse_literal;

fn peers() -> PeerMap {
    let registry = KeyRegistry::new();
    registry.register_derived(PeerId::new("UIUC"), 1);
    let mut peers = PeerMap::new();
    let mut server = NegotiationPeer::new("Server", registry.clone());
    server
        .load_program(r#"resource(X) $ true <- student(X) @ "UIUC" @ X."#)
        .unwrap();
    peers.insert(server);
    let mut alice = NegotiationPeer::new("Alice", registry);
    alice
        .load_program(
            r#"
            student("Alice") @ "UIUC" signedBy ["UIUC"].
            student(X) @ Y $ true <-_true student(X) @ Y.
            "#,
        )
        .unwrap();
    peers.insert(alice);
    peers
}

#[test]
fn partitioned_topology_fails_cleanly() {
    // A star around an uninvolved hub: Alice cannot reach the server at
    // all. The negotiation returns failure with zero messages.
    let mut ps = peers();
    let mut net = SimNetwork::with(
        Topology::Star {
            hub: PeerId::new("Hub"),
        },
        LatencyModel::Constant(1),
        0,
    );
    let out = Strategy::Parsimonious.run(
        &mut ps,
        &mut net,
        NegotiationId(1),
        PeerId::new("Alice"),
        PeerId::new("Server"),
        parse_literal(r#"resource("Alice")"#).unwrap(),
    );
    assert!(!out.success);
    assert_eq!(out.messages, 0);
}

#[test]
fn half_connected_topology_blocks_the_counterquery() {
    // Alice -> Server link exists, but the Server cannot reach Alice back:
    // the delegated student query cannot be sent, so the negotiation fails
    // without hanging.
    let mut ps = peers();
    // Links are undirected in our topology, so model the break by allowing
    // only Server<->Hub and Alice<->Hub (no Alice<->Server).
    let mut net = SimNetwork::with(
        Topology::links([(PeerId::new("Alice"), PeerId::new("Hub"))]),
        LatencyModel::Constant(1),
        0,
    );
    let out = Strategy::Parsimonious.run(
        &mut ps,
        &mut net,
        NegotiationId(1),
        PeerId::new("Alice"),
        PeerId::new("Server"),
        parse_literal(r#"resource("Alice")"#).unwrap(),
    );
    assert!(!out.success);
    assert_eq!(out.messages, 0, "the very first query is unroutable");
}

#[test]
fn exhausted_hop_budget_fails_cleanly() {
    let mut ps = peers();
    let mut net = SimNetwork::new(0).with_max_hops(0);
    let out = Strategy::Parsimonious.run(
        &mut ps,
        &mut net,
        NegotiationId(1),
        PeerId::new("Alice"),
        PeerId::new("Server"),
        parse_literal(r#"resource("Alice")"#).unwrap(),
    );
    // The top-level query goes out at hop 0; the delegated counter-query
    // at hop 1 is rejected by the transport, so the negotiation fails.
    assert!(!out.success);
    assert!(out.messages >= 1);
}

#[test]
fn eager_strategy_survives_partition() {
    // Eager pushes are simply dropped by the transport; the round loop
    // reaches its fixpoint and reports failure.
    let mut ps = peers();
    let mut net = SimNetwork::with(Topology::links([]), LatencyModel::Constant(1), 0);
    let out = Strategy::Eager.run(
        &mut ps,
        &mut net,
        NegotiationId(1),
        PeerId::new("Alice"),
        PeerId::new("Server"),
        parse_literal(r#"resource("Alice")"#).unwrap(),
    );
    assert!(!out.success);
}

#[test]
fn high_latency_changes_ticks_not_outcome() {
    let mut fast = peers();
    let mut net_fast = SimNetwork::with(Topology::FullMesh, LatencyModel::Constant(1), 0);
    let a = Strategy::Parsimonious.run(
        &mut fast,
        &mut net_fast,
        NegotiationId(1),
        PeerId::new("Alice"),
        PeerId::new("Server"),
        parse_literal(r#"resource("Alice")"#).unwrap(),
    );

    let mut slow = peers();
    let mut net_slow = SimNetwork::with(Topology::FullMesh, LatencyModel::Constant(50), 0);
    let b = Strategy::Parsimonious.run(
        &mut slow,
        &mut net_slow,
        NegotiationId(1),
        PeerId::new("Alice"),
        PeerId::new("Server"),
        parse_literal(r#"resource("Alice")"#).unwrap(),
    );

    assert!(a.success && b.success);
    assert_eq!(a.messages, b.messages);
    assert_eq!(b.elapsed_ticks, a.elapsed_ticks * 50);
}
