//! Cross-crate integration tests exercising the public facade: full paper
//! scenarios, warm-cache re-negotiation, tampering, threaded transport,
//! and multi-negotiation accounting on a shared network.

use peertrust::core::{Literal, PeerId, Term};
use peertrust::crypto::KeyRegistry;
use peertrust::negotiation::{
    negotiate, negotiate_threaded, verify_safe_sequence, NegotiateOptions, NegotiationPeer,
    PeerMap, RefusalReason, ResilienceConfig, SharedRemoteAnswerCache, Strategy, MAX_HOP_DEPTH,
};
use peertrust::net::{FaultPlan, NegotiationId, SimNetwork};
use peertrust::parser::parse_literal;
use peertrust::scenarios::{chain, Ablation1, Scenario1, Scenario2, Variant2};
use peertrust::telemetry::Telemetry;

#[test]
fn scenario1_succeeds_under_both_strategies_via_facade() {
    for strategy in Strategy::ALL {
        let mut s = Scenario1::build();
        let out = s.run(strategy);
        assert!(out.success, "{strategy}: {:#?}", out.refusals);
        verify_safe_sequence(&out).unwrap();
    }
}

#[test]
fn scenario2_full_matrix() {
    for variant in [
        Variant2::Base,
        Variant2::RevocationCheck,
        Variant2::AuthorityDb,
        Variant2::Broker,
    ] {
        let mut s = Scenario2::build(variant);
        let out = s.run(Strategy::Parsimonious, Scenario2::paid_goal(1000));
        assert!(out.success, "{variant:?}: {:#?}", out.refusals);
        verify_safe_sequence(&out).unwrap();
    }
}

#[test]
fn ablations_fail_iff_ingredient_missing() {
    // The headline claim of §4.1 is an *iff*: present => success,
    // any ingredient absent => failure.
    let mut full = Scenario1::build();
    assert!(full.run(Strategy::Parsimonious).success);
    for ablation in Ablation1::ALL.into_iter().skip(1) {
        let mut s = Scenario1::build_ablated(ablation);
        assert!(!s.run(Strategy::Parsimonious).success, "{ablation:?}");
    }
}

#[test]
fn warm_cache_reduces_negotiation_cost() {
    // After a successful negotiation, the responder has cached the
    // requester's credentials; re-running the same request takes fewer
    // messages (E-Learn no longer queries Alice).
    let mut s = Scenario1::build();
    let cold = s.run(Strategy::Parsimonious);
    assert!(cold.success);
    let warm = s.run(Strategy::Parsimonious);
    assert!(warm.success);
    assert!(
        warm.messages < cold.messages,
        "warm {} !< cold {}",
        warm.messages,
        cold.messages
    );
    // Fewer disclosures too: E-Learn answers the BBB counter-query from
    // cache, so that leg of the negotiation disappears entirely.
    assert!(warm.credential_count() < cold.credential_count());
}

#[test]
fn forged_credential_is_rejected_end_to_end() {
    // Mallory presents a forged student credential: the signature does not
    // verify, the push is dropped, verification fails, access denied.
    let registry = KeyRegistry::new();
    registry.register_derived(PeerId::new("UIUC"), 1);
    // Mallory's "own CA" — distinct key even if she claims UIUC signed it.
    let mallory_reg = KeyRegistry::new();
    mallory_reg.register_derived(PeerId::new("UIUC"), 666);

    let mut peers = PeerMap::new();
    let mut server = NegotiationPeer::new("Server", registry.clone());
    server
        .load_program(r#"resource(X) $ true <- student(X) @ "UIUC" @ X."#)
        .unwrap();
    peers.insert(server);

    // Mallory mints with her wrong key but will be verified against the
    // real registry.
    let mut mallory = NegotiationPeer::new("Mallory", mallory_reg);
    mallory
        .load_program(
            r#"
            student("Mallory") @ "UIUC" signedBy ["UIUC"].
            student(X) @ Y $ true <-_true student(X) @ Y.
            "#,
        )
        .unwrap();
    mallory.registry = registry; // she talks to honest verifiers now
    peers.insert(mallory);

    let mut net = SimNetwork::new(13);
    let out = Strategy::Parsimonious.run(
        &mut peers,
        &mut net,
        NegotiationId(1),
        PeerId::new("Mallory"),
        PeerId::new("Server"),
        parse_literal(r#"resource("Mallory")"#).unwrap(),
    );
    assert!(!out.success, "forged credential must not grant access");
}

#[test]
fn threaded_transport_agrees_with_simulated() {
    let registry = KeyRegistry::new();
    registry.register_derived(PeerId::new("UIUC"), 1);
    registry.register_derived(PeerId::new("BBB"), 2);

    let build = |suffix: &str| {
        let mut server = NegotiationPeer::new(format!("Srv{suffix}").as_str(), registry.clone());
        server
            .load_program(&format!(
                r#"
                resource(X) $ true <- student(X) @ "UIUC" @ X.
                member("Srv{suffix}") @ "BBB" $ true signedBy ["BBB"].
                "#
            ))
            .unwrap();
        let mut alice = NegotiationPeer::new(format!("Ali{suffix}").as_str(), registry.clone());
        alice
            .load_program(&format!(
                r#"
                student("Ali{suffix}") @ "UIUC" signedBy ["UIUC"].
                student(X) @ Y $ member(Requester) @ "BBB" @ Requester <-_true student(X) @ Y.
                "#
            ))
            .unwrap();
        (alice, server)
    };

    // Simulated run.
    let (alice, server) = build("S");
    let mut peers = PeerMap::new();
    let alice_id = alice.id;
    let server_id = server.id;
    peers.insert(alice);
    peers.insert(server);
    let mut net = SimNetwork::new(3);
    let sim = Strategy::Eager.run(
        &mut peers,
        &mut net,
        NegotiationId(1),
        alice_id,
        server_id,
        parse_literal(r#"resource("AliS")"#).unwrap(),
    );
    assert!(sim.success);

    // Threaded run of the identical setup.
    let (alice_t, server_t) = build("T");
    let threaded = negotiate_threaded(
        alice_t,
        server_t,
        parse_literal(r#"resource("AliT")"#).unwrap(),
    );
    assert!(threaded.success);
    // Same disclosure count either way.
    assert_eq!(sim.credential_count(), threaded.disclosures.len());
}

#[test]
fn many_negotiations_share_one_network() {
    let (mut peers, _reg, goals) = peertrust::scenarios::fleet(8);
    let mut net = SimNetwork::new(5);
    let mut total_messages = 0;
    for (i, (client, goal)) in goals.iter().enumerate() {
        let out = Strategy::Parsimonious.run(
            &mut peers,
            &mut net,
            NegotiationId(i as u64),
            *client,
            PeerId::new("Server"),
            goal.clone(),
        );
        assert!(out.success, "client {i}");
        total_messages += out.messages;
    }
    assert_eq!(net.stats().messages_sent, total_messages);
    assert!(net.idle());
}

#[test]
fn deep_chain_negotiation_on_big_stack() {
    // E3's deepest configuration runs on a dedicated big-stack thread
    // (the DFS driver's recursion depth is proportional to chain depth).
    let handle = std::thread::Builder::new()
        .stack_size(64 << 20)
        .spawn(|| {
            let mut w = chain(48);
            let mut net = SimNetwork::new(1);
            let out = Strategy::Parsimonious.run(
                &mut w.peers,
                &mut net,
                NegotiationId(1),
                w.requester,
                w.responder,
                w.goal.clone(),
            );
            (out.success, out.credential_count(), out.messages)
        })
        .unwrap();
    let (success, creds, messages) = handle.join().unwrap();
    assert!(success);
    assert_eq!(creds, 48);
    assert!(messages >= 48 * 3);
}

#[test]
fn hop_depth_guard_refuses_the_first_chain_past_the_budget() {
    // `chain(k)` nests queries 2k - 1 deep, so `chain(64)` peaks at 127,
    // inside the budget, and `chain(65)` needs 129: its one query past
    // the budget is refused and the negotiation fails, finitely and
    // without an unsafe disclosure.
    let handle = std::thread::Builder::new()
        .stack_size(64 << 20)
        .spawn(|| {
            let run = |depth| {
                let mut w = chain(depth);
                let mut net = SimNetwork::new(1);
                Strategy::Parsimonious.run(
                    &mut w.peers,
                    &mut net,
                    NegotiationId(1),
                    w.requester,
                    w.responder,
                    w.goal.clone(),
                )
            };
            (run(64), run(65))
        })
        .unwrap();
    let (inside, past) = handle.join().unwrap();
    assert!(inside.success, "{:#?}", inside.refusals);
    assert_eq!(inside.rounds, 127);
    assert_eq!(inside.messages, 194);

    assert!(!past.success);
    assert_eq!(past.rounds, u64::from(MAX_HOP_DEPTH) + 1);
    assert_eq!(past.messages, 130);
    let depth_refusals = past
        .refusals
        .iter()
        .filter(|r| r.reason == RefusalReason::DepthExceeded)
        .count();
    assert_eq!(depth_refusals, 1, "{:#?}", past.refusals);
    verify_safe_sequence(&past).unwrap();
}

/// Every combination of [`NegotiateOptions`] — answer cache (none | a
/// fresh shared one) × delivery supervision (none | the default over a
/// none-plan fault lane) × telemetry (off | on) — reaches the outcome of
/// the plain run, byte for byte, on scenario 1 and on `chain(4)`.
#[test]
fn every_negotiate_option_combination_matches_the_plain_run() {
    type Case = (PeerMap, PeerId, PeerId, Literal);
    let scenario1 = || -> Case {
        let s = Scenario1::build();
        (
            s.peers,
            PeerId::new("Alice"),
            PeerId::new("E-Learn"),
            Scenario1::goal(),
        )
    };
    let chain4 = || -> Case {
        let w = chain(4);
        (w.peers, w.requester, w.responder, w.goal)
    };
    for build in [&scenario1 as &dyn Fn() -> Case, &chain4] {
        let run = |opts: &NegotiateOptions, fault_lane: bool| {
            let (mut peers, requester, responder, goal) = build();
            let mut net = SimNetwork::new(0xE1);
            if fault_lane {
                net = net.with_faults(FaultPlan::none());
            }
            let (out, report) = negotiate(
                &mut peers,
                &mut net,
                opts,
                NegotiationId(1),
                requester,
                responder,
                goal,
            );
            assert_eq!(report.is_some(), opts.resilience.is_some());
            assert!(report.map_or(true, |r| r.converged));
            serde_json::to_string(&out).unwrap()
        };
        let plain = run(&NegotiateOptions::default(), false);
        assert!(plain.contains(r#""success":true"#));
        for cached in [false, true] {
            for resilient in [false, true] {
                for traced in [false, true] {
                    let opts = NegotiateOptions {
                        cache: cached.then(SharedRemoteAnswerCache::new),
                        resilience: resilient.then(ResilienceConfig::default),
                        telemetry: if traced {
                            Telemetry::ring(1 << 16).0
                        } else {
                            Telemetry::disabled()
                        },
                        ..NegotiateOptions::default()
                    };
                    assert_eq!(
                        run(&opts, resilient),
                        plain,
                        "cached={cached} resilient={resilient} traced={traced}"
                    );
                }
            }
        }
    }
}

#[test]
fn goal_with_variables_returns_bindings() {
    let registry = KeyRegistry::new();
    let mut peers = PeerMap::new();
    let mut server = NegotiationPeer::new("Catalog", registry.clone());
    server
        .load_program(
            r#"
            course(C, P) $ true <- price(C, P).
            price(cs101, 0). price(cs411, 1000). price(ml500, 1500).
            "#,
        )
        .unwrap();
    peers.insert(server);
    peers.insert(NegotiationPeer::new("Shopper", registry));

    let mut net = SimNetwork::new(9);
    let out = Strategy::Parsimonious.run(
        &mut peers,
        &mut net,
        NegotiationId(2),
        PeerId::new("Shopper"),
        PeerId::new("Catalog"),
        parse_literal("course(C, P)").unwrap(),
    );
    assert!(out.success);
    assert_eq!(out.granted.len(), 3);
    assert!(out
        .granted
        .iter()
        .any(|g| { g.args == vec![Term::atom("cs411"), Term::int(1000)] }));
}
