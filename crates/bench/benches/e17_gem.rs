//! E17: GEM distributed tabling on cyclic delegation meshes.
//!
//! The classical driver refuses every workload here with CycleDetected,
//! so there is no classical lane to compare against — instead the bench
//! tracks the GEM fixpoint's cost along two axes:
//!
//! - **ring size**: more peers in the strongly connected component means
//!   more edges to re-evaluate per round;
//! - **laps**: more laps means more fixpoint rounds before the tables
//!   stabilise.
//!
//! The single-chord variant adds an SCC-merge on top of the ring. A
//! batched group runs the mesh through the scheduler, matching the
//! `e17_gem_mesh` quickbench scenario.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use peertrust_negotiation::{
    negotiate, negotiate_batch, BatchConfig, BatchJob, NegotiateOptions, SessionConfig,
};
use peertrust_net::{NegotiationId, SimNetwork};
use peertrust_scenarios::delegation_mesh;
use peertrust_telemetry::Telemetry;

fn gem_options() -> NegotiateOptions {
    NegotiateOptions {
        session: SessionConfig {
            gem: true,
            gem_max_rounds: 32,
            ..SessionConfig::default()
        },
        ..NegotiateOptions::default()
    }
}

/// One GEM negotiation over a freshly built mesh; returns success.
fn run_mesh(n: usize, laps: usize, chords: bool) -> bool {
    let mut w = delegation_mesh(n, laps, chords);
    let mut net = SimNetwork::new(17);
    let requester = w.peer_ids[1];
    let (out, _) = negotiate(
        &mut w.peers,
        &mut net,
        &gem_options(),
        NegotiationId(1),
        requester,
        w.responder,
        w.goal.clone(),
    );
    out.success
}

/// Fixpoint cost vs ring size at a fixed two laps.
fn bench_ring_size(c: &mut Criterion) {
    let mut group = c.benchmark_group("e17_ring");
    group.sample_size(10);
    for n in [2usize, 3, 4, 5] {
        group.bench_with_input(BenchmarkId::new("peers", n), &n, |b, &n| {
            b.iter(|| assert!(run_mesh(n, 2, false)))
        });
    }
    // The chord forces two overlapping loops to merge into one SCC.
    group.bench_function(BenchmarkId::new("peers_chord", 4), |b| {
        b.iter(|| assert!(run_mesh(4, 2, true)))
    });
    group.finish();
}

/// Fixpoint cost vs lap count at a fixed three-peer ring.
fn bench_laps(c: &mut Criterion) {
    let mut group = c.benchmark_group("e17_laps");
    group.sample_size(10);
    for laps in [1usize, 2, 3, 4] {
        group.bench_with_input(BenchmarkId::new("laps", laps), &laps, |b, &laps| {
            b.iter(|| assert!(run_mesh(3, laps, false)))
        });
    }
    group.finish();
}

/// The quickbench `e17_gem_mesh` workload through the batch scheduler.
fn bench_batched(c: &mut Criterion) {
    let mut group = c.benchmark_group("e17_batch");
    group.sample_size(10);
    let mesh = delegation_mesh(3, 2, false);
    let jobs: Vec<BatchJob> = (0..4)
        .map(|_| BatchJob::new(mesh.peer_ids[1], mesh.responder, mesh.goal.clone()))
        .collect();
    group.throughput(Throughput::Elements(jobs.len() as u64));
    for workers in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("workers", workers),
            &workers,
            |b, &workers| {
                b.iter(|| {
                    let cfg = BatchConfig {
                        workers,
                        session: gem_options().session,
                        ..BatchConfig::default()
                    };
                    let rep = negotiate_batch(&mesh.peers, &jobs, &cfg, &Telemetry::disabled());
                    assert_eq!(rep.stats.successes, jobs.len());
                    rep.stats.negotiations_per_sec
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_ring_size, bench_laps, bench_batched);
criterion_main!(benches);
