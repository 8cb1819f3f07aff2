//! E11: termination-guard overhead — how quickly cyclic (deadlocked)
//! policy graphs are rejected, and what the ancestor loop check costs on
//! recursive-but-terminating programs.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use peertrust_core::{KnowledgeBase, Literal, PeerId, Rule, Term};
use peertrust_crypto::KeyRegistry;
use peertrust_engine::{EngineConfig, Solver};
use peertrust_negotiation::{NegotiationPeer, PeerMap, Strategy};
use peertrust_net::{NegotiationId, SimNetwork};

/// Two peers whose release policies form one big cycle of length `k` —
/// no safe sequence exists; the run must fail finitely.
fn deadlock_cycle(k: usize) -> (PeerMap, Literal) {
    let registry = KeyRegistry::new();
    registry.register_derived(PeerId::new("CA"), 1);
    let mut a = NegotiationPeer::new("A", registry.clone());
    let mut b = NegotiationPeer::new("B", registry.clone());
    for i in 0..k {
        let next = (i + 1) % k;
        let (peer, owner) = if i % 2 == 0 {
            (&mut a, "A")
        } else {
            (&mut b, "B")
        };
        peer.load_program(&format!(
            r#"
            cred{i}("{owner}") @ "CA" signedBy ["CA"].
            cred{i}(X) @ Y $ cred{next}(Requester) @ "CA" @ Requester <-_true cred{i}(X) @ Y.
            "#
        ))
        .unwrap();
    }
    // The resource needs B's cred1, whose release cycles through the
    // whole ring (k must be even so ownership alternates consistently).
    a.load_program(r#"resource(X) $ true <- cred1(X) @ "CA" @ X."#)
        .unwrap();
    let mut peers = PeerMap::new();
    peers.insert(a);
    peers.insert(b);
    (peers, Literal::new("resource", vec![Term::str("B")]))
}

fn bench_cycle_rejection(c: &mut Criterion) {
    let mut group = c.benchmark_group("e11_guards");
    group.sample_size(10);

    for k in [2usize, 4, 8, 16] {
        group.bench_with_input(BenchmarkId::new("deadlock_reject", k), &k, |b, &k| {
            b.iter_batched(
                || deadlock_cycle(k),
                |(mut peers, goal)| {
                    let mut net = SimNetwork::new(1);
                    let out = Strategy::Parsimonious.run(
                        &mut peers,
                        &mut net,
                        NegotiationId(1),
                        PeerId::new("B"),
                        PeerId::new("A"),
                        goal,
                    );
                    assert!(!out.success);
                    out.messages
                },
                BatchSize::SmallInput,
            )
        });
    }

    // Loop-check overhead ablation on a terminating recursive program.
    for (name, check) in [("ancestor_check_on", true), ("ancestor_check_off", false)] {
        group.bench_function(format!("closure/{name}"), |b| {
            b.iter_batched(
                || {
                    let mut kb = KnowledgeBase::new();
                    kb.add_local(Rule::horn(
                        Literal::new("reach", vec![Term::var("X"), Term::var("Y")]),
                        vec![Literal::new("edge", vec![Term::var("X"), Term::var("Y")])],
                    ));
                    kb.add_local(Rule::horn(
                        Literal::new("reach", vec![Term::var("X"), Term::var("Z")]),
                        vec![
                            Literal::new("edge", vec![Term::var("X"), Term::var("Y")]),
                            Literal::new("reach", vec![Term::var("Y"), Term::var("Z")]),
                        ],
                    ));
                    for i in 0..24i64 {
                        kb.add_local(Rule::fact(Literal::new(
                            "edge",
                            vec![Term::int(i), Term::int(i + 1)],
                        )));
                    }
                    kb
                },
                |kb| {
                    let mut solver =
                        Solver::new(&kb, PeerId::new("self")).with_config(EngineConfig {
                            ancestor_loop_check: check,
                            max_solutions: usize::MAX,
                            max_depth: 512,
                            ..EngineConfig::default()
                        });
                    let goals = [Literal::new("reach", vec![Term::int(0), Term::var("W")])];
                    solver.solve(&goals).len()
                },
                BatchSize::SmallInput,
            )
        });
    }

    group.finish();
}

criterion_group!(benches, bench_cycle_rejection);
criterion_main!(benches);
