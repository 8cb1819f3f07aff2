//! Caching-layer integration tests: the per-session remote-answer cache
//! dedups repeated queries inside one negotiation, the cross-negotiation
//! cache cuts the message count of warm repeats, and scenario 1's warm
//! rerun provably touches the network less than its cold run.

use peertrust_core::{Literal, PeerId, Term};
use peertrust_crypto::KeyRegistry;
use peertrust_negotiation::{
    negotiate, NegotiateOptions, NegotiationPeer, PeerMap, SessionConfig, SharedRemoteAnswerCache,
    Strategy,
};
use peertrust_net::{NegotiationId, SimNetwork};
use peertrust_scenarios::{delegation_chain, Scenario1};
use peertrust_telemetry::{Telemetry, Timeline};

fn net_sends(events: &[peertrust_telemetry::TraceEvent]) -> usize {
    let timelines = Timeline::from_events(events);
    timelines
        .iter()
        .find(|tl| tl.negotiation == 1)
        .map(|tl| tl.events_of_kind("net.send").len())
        .unwrap_or(0)
}

#[test]
fn scenario1_warm_rerun_sends_strictly_fewer_messages() {
    let mut s = Scenario1::build();

    let (t_cold, ring_cold) = Telemetry::ring(65536);
    let cold = s.run_traced(Strategy::Parsimonious, &t_cold);
    assert!(cold.success, "cold run: {:#?}", cold.refusals);

    let (t_warm, ring_warm) = Telemetry::ring(65536);
    let warm = s.run_traced(Strategy::Parsimonious, &t_warm);
    assert!(warm.success, "warm run: {:#?}", warm.refusals);

    let cold_sends = net_sends(&ring_cold.events());
    let warm_sends = net_sends(&ring_warm.events());
    assert_eq!(cold_sends as u64, cold.messages);
    assert_eq!(warm_sends as u64, warm.messages);
    assert!(
        warm_sends < cold_sends,
        "warm rerun must send strictly fewer messages ({warm_sends} vs {cold_sends})"
    );
}

/// Server policy with the same delegated subgoal under two different
/// rules: without the session cache the `cred` query crosses the wire
/// twice; with it, once.
fn repeated_subgoal_setup() -> PeerMap {
    let registry = KeyRegistry::new();
    registry.register_derived(PeerId::new("CA"), 7);

    let mut server = NegotiationPeer::new("Server", registry.clone());
    server
        .load_program(
            r#"
            resource(X) $ true <- sub1(X), sub2(X).
            sub1(X) <- cred(X) @ "CA" @ X.
            sub2(X) <- cred(X) @ "CA" @ X.
            "#,
        )
        .expect("server program parses");

    let mut client = NegotiationPeer::new("Client", registry.clone());
    client
        .load_program(
            r#"
            cred("Client") @ "CA" signedBy ["CA"].
            cred(X) @ Y $ true <-_true cred(X) @ Y.
            "#,
        )
        .expect("client program parses");

    let mut peers = PeerMap::new();
    peers.insert(client);
    peers.insert(server);
    peers
}

fn run_repeated_subgoals(cache_remote_answers: bool) -> (u64, u64) {
    let (telemetry, _ring) = Telemetry::ring(65536);
    let mut peers = repeated_subgoal_setup();
    let mut net = SimNetwork::new(7).with_telemetry(telemetry.clone());
    let opts = NegotiateOptions {
        session: SessionConfig {
            cache_remote_answers,
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
        PeerId::new("Client"),
        PeerId::new("Server"),
        Literal::new("resource", vec![Term::str("Client")]),
    );
    assert!(out.success, "refusals: {:#?}", out.refusals);
    let m = telemetry.metrics().expect("telemetry enabled");
    (
        m.counter("negotiation.queries_issued.Server"),
        m.counter("negotiation.cache.session_hits"),
    )
}

#[test]
fn session_cache_dedups_repeated_queries_in_one_negotiation() {
    let (uncached_queries, uncached_hits) = run_repeated_subgoals(false);
    let (cached_queries, cached_hits) = run_repeated_subgoals(true);

    assert_eq!(uncached_hits, 0);
    assert_eq!(
        uncached_queries, 2,
        "both sub-rules must query the client without the cache"
    );
    assert_eq!(
        cached_queries, 1,
        "the repeated subgoal must be answered from the session cache"
    );
    assert!(cached_hits >= 1, "session-cache hit counter must move");
}

#[test]
fn cross_negotiation_cache_cuts_warm_repeat_messages() {
    let depth = 4;

    // Baseline: warm repeat on the same peers, no cross cache.
    let mut base = delegation_chain(depth);
    let mut net = SimNetwork::new(1);
    let cold = Strategy::Parsimonious.run(
        &mut base.peers,
        &mut net,
        NegotiationId(1),
        base.requester,
        base.responder,
        base.goal.clone(),
    );
    assert!(cold.success);
    let mut net = SimNetwork::new(2);
    let warm_uncached = Strategy::Parsimonious.run(
        &mut base.peers,
        &mut net,
        NegotiationId(2),
        base.requester,
        base.responder,
        base.goal.clone(),
    );
    assert!(warm_uncached.success);

    // Same repeat through a shared remote-answer cache.
    let mut w = delegation_chain(depth);
    let cache = SharedRemoteAnswerCache::new();
    let opts = NegotiateOptions {
        cache: Some(cache.clone()),
        ..NegotiateOptions::default()
    };
    let mut net = SimNetwork::new(1);
    let (cold_cached, _) = negotiate(
        &mut w.peers,
        &mut net,
        &opts,
        NegotiationId(1),
        w.requester,
        w.responder,
        w.goal.clone(),
    );
    assert!(cold_cached.success);
    assert!(cache.stats().inserts >= 1, "public answers must be cached");

    let mut net = SimNetwork::new(2);
    let (warm_cached, _) = negotiate(
        &mut w.peers,
        &mut net,
        &opts,
        NegotiationId(2),
        w.requester,
        w.responder,
        w.goal.clone(),
    );
    assert!(warm_cached.success);
    assert!(cache.stats().hits >= 1, "warm repeat must hit the cache");
    assert!(
        warm_cached.messages < warm_uncached.messages,
        "cross cache must cut warm-repeat traffic ({} vs {})",
        warm_cached.messages,
        warm_uncached.messages
    );
}
