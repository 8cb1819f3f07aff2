//! E10: scalability in peer count — one server, n clients, each running an
//! independent bilateral negotiation on a shared network; plus the broker
//! (star) topology variant where every authority lookup goes through a
//! hub.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use peertrust_core::PeerId;
use peertrust_negotiation::Strategy;
use peertrust_net::{NegotiationId, SimNetwork};
use peertrust_scenarios::fleet;

fn bench_fleet(c: &mut Criterion) {
    let mut group = c.benchmark_group("e10_peers");
    group.sample_size(10);

    for n in [4usize, 16, 64, 128, 256] {
        group.bench_with_input(BenchmarkId::new("mesh_fleet", n), &n, |b, &n| {
            b.iter_batched(
                || fleet(n),
                |(mut peers, _reg, goals)| {
                    let mut net = SimNetwork::new(1);
                    let mut ok = 0;
                    for (i, (client, goal)) in goals.iter().enumerate() {
                        let out = Strategy::Parsimonious.run(
                            &mut peers,
                            &mut net,
                            NegotiationId(i as u64),
                            *client,
                            PeerId::new("Server"),
                            goal.clone(),
                        );
                        assert!(out.success);
                        ok += 1;
                    }
                    ok
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fleet);
criterion_main!(benches);
