//! E13: the caching hierarchy — SLD tabling (cold vs warm answer tables)
//! at the engine layer, and the remote-answer cache (uncached vs
//! session-cached vs warm cross-negotiation) at the negotiation layer, on
//! the paper scenarios and the chain-depth workload.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use peertrust_core::{KnowledgeBase, Literal, PeerId, Rule, Term};
use peertrust_engine::{AnswerTable, EngineConfig, SharedTable, Solver};
use peertrust_negotiation::{negotiate, NegotiateOptions, SessionConfig, SharedRemoteAnswerCache};
use peertrust_net::{NegotiationId, SimNetwork};
use peertrust_scenarios::{chain, delegation_chain, Scenario1, Scenario2, Variant2, Workload};
use std::cell::RefCell;
use std::rc::Rc;

fn closure_kb(n: usize) -> KnowledgeBase {
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
    for i in 0..n {
        kb.add_local(Rule::fact(Literal::new(
            "edge",
            vec![Term::int(i as i64), Term::int(i as i64 + 1)],
        )));
    }
    kb
}

fn engine_config(tabling: bool) -> EngineConfig {
    EngineConfig {
        max_solutions: usize::MAX,
        max_depth: 4096,
        tabling,
        ..EngineConfig::default()
    }
}

fn bench_solver_tabling(c: &mut Criterion) {
    let mut group = c.benchmark_group("e13_solver");
    group.sample_size(20);
    for n in [64usize, 256] {
        let kb = closure_kb(n);
        let goal = [Literal::new("reach", vec![Term::int(0), Term::var("W")])];

        group.bench_with_input(BenchmarkId::new("untabled", n), &kb, |b, kb| {
            b.iter(|| {
                let mut solver =
                    Solver::new(kb, PeerId::new("self")).with_config(engine_config(false));
                let count = solver.solve(&goal).len();
                assert_eq!(count, n);
                count
            })
        });

        // Cold: every iteration builds its table from scratch.
        group.bench_with_input(BenchmarkId::new("tabled_cold", n), &kb, |b, kb| {
            b.iter(|| {
                let mut solver =
                    Solver::new(kb, PeerId::new("self")).with_config(engine_config(true));
                let count = solver.solve(&goal).len();
                assert_eq!(count, n);
                count
            })
        });

        // Warm: one shared answer table, pre-populated once; the measured
        // solves answer the top-level variant straight from the table.
        let table: SharedTable = Rc::new(RefCell::new(AnswerTable::new()));
        {
            let mut warmer = Solver::new(&kb, PeerId::new("self"))
                .with_config(engine_config(true))
                .with_table(table.clone());
            assert_eq!(warmer.solve(&goal).len(), n);
        }
        group.bench_with_input(BenchmarkId::new("tabled_warm", n), &kb, |b, kb| {
            b.iter(|| {
                let mut solver = Solver::new(kb, PeerId::new("self"))
                    .with_config(engine_config(true))
                    .with_table(table.clone());
                let count = solver.solve(&goal).len();
                assert_eq!(count, n);
                count
            })
        });
    }
    group.finish();
}

fn options(cache: bool) -> NegotiateOptions {
    NegotiateOptions {
        session: SessionConfig {
            cache_remote_answers: cache,
            ..SessionConfig::default()
        },
        ..NegotiateOptions::default()
    }
}

fn run_scenario1(opts: &NegotiateOptions) -> u64 {
    let mut s = Scenario1::build();
    let mut net = SimNetwork::new(0xE1);
    let (out, _) = negotiate(
        &mut s.peers,
        &mut net,
        opts,
        NegotiationId(1),
        PeerId::new("Alice"),
        PeerId::new("E-Learn"),
        Scenario1::goal(),
    );
    assert!(out.success);
    out.messages
}

fn run_scenario2(opts: &NegotiateOptions) -> u64 {
    let mut s = Scenario2::build(Variant2::Base);
    let mut net = SimNetwork::new(0xE2);
    let (out, _) = negotiate(
        &mut s.peers,
        &mut net,
        opts,
        NegotiationId(2),
        PeerId::new("Bob"),
        PeerId::new("E-Learn"),
        Scenario2::paid_goal(1000),
    );
    assert!(out.success);
    out.messages
}

fn run_workload(w: &mut Workload, opts: &NegotiateOptions, nid: u64) -> u64 {
    let mut net = SimNetwork::new(nid);
    let (out, _) = negotiate(
        &mut w.peers,
        &mut net,
        opts,
        NegotiationId(nid),
        w.requester,
        w.responder,
        w.goal.clone(),
    );
    assert!(out.success);
    out.messages
}

fn bench_negotiation_caching(c: &mut Criterion) {
    let mut group = c.benchmark_group("e13_negotiation");
    group.sample_size(20);

    for (scenario, runner) in [
        ("scenario1", run_scenario1 as fn(&NegotiateOptions) -> u64),
        ("scenario2", run_scenario2 as fn(&NegotiateOptions) -> u64),
    ] {
        group.bench_function(format!("{scenario}/uncached"), |b| {
            b.iter(|| runner(&options(false)))
        });
        group.bench_function(format!("{scenario}/session_cache"), |b| {
            b.iter(|| runner(&options(true)))
        });
    }

    for depth in [4usize, 12] {
        for (name, cached) in [("uncached", false), ("session_cache", true)] {
            group.bench_with_input(BenchmarkId::new(format!("chain/{name}"), depth), &depth, {
                move |b, &depth| {
                    b.iter_batched(
                        move || chain(depth),
                        |mut w| run_workload(&mut w, &options(cached), 1),
                        BatchSize::SmallInput,
                    )
                }
            });
        }
    }

    // Cross-negotiation cache on the delegation chain (E6's warm repeat):
    // all release policies there are public, so the authorities' answers
    // are eligible for the shared cache and the repeat negotiation skips
    // the chain-discovery round-trips entirely.
    let depth = 8usize;
    group.bench_function("delegation_warm/no_cross_cache", |b| {
        b.iter_batched(
            || {
                let mut w = delegation_chain(depth);
                run_workload(&mut w, &options(true), 1);
                w
            },
            |mut w| run_workload(&mut w, &options(true), 2),
            BatchSize::SmallInput,
        )
    });
    group.bench_function("delegation_warm/cross_cache", |b| {
        b.iter_batched(
            || {
                let mut w = delegation_chain(depth);
                let opts = NegotiateOptions {
                    cache: Some(SharedRemoteAnswerCache::new()),
                    ..options(true)
                };
                run_workload(&mut w, &opts, 1);
                (w, opts)
            },
            |(mut w, opts)| run_workload(&mut w, &opts, 2),
            BatchSize::SmallInput,
        )
    });

    group.finish();
}

criterion_group!(benches, bench_solver_tabling, bench_negotiation_caching);
criterion_main!(benches);
