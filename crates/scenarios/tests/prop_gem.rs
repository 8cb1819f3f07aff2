//! Property tests for GEM distributed tabling (DESIGN.md §4h).
//!
//! 1. **Differential baseline** — on acyclic workloads the GEM flag is
//!    provably free: a run with `gem: true` is *bit-identical* to the
//!    classical path on every observable surface (serialized outcome,
//!    metrics registry JSON, timeline JSONL, final network clock). The
//!    GEM branch only fires when a query variant is already in flight,
//!    which never happens without a cross-peer loop.
//! 2. **Initiator independence** — on cyclic delegation meshes the GEM
//!    fixpoint converges to the same granted answer and the same success
//!    verdict no matter which ring member initiates the negotiation.
//! 3. **Fault tolerance** — the convergence survives a bounded fault
//!    lane (drops, duplicates, delays, reorders, corruption) when driven
//!    through the resilience layer: same outcome as the clean run.

use peertrust_core::PeerId;
use peertrust_negotiation::{
    negotiate, NegotiateOptions, NegotiationOutcome, PeerMap, RefusalReason, ResilienceConfig,
    SessionConfig,
};
use peertrust_net::{FaultPlan, LatencyModel, LinkFaults, NegotiationId, SimNetwork, Topology};
use peertrust_scenarios::{chain, delegation_mesh, random_policies, RandomPolicyConfig};
use peertrust_telemetry::{Telemetry, Timeline};
use proptest::prelude::*;

fn gem_options(gem: bool) -> NegotiateOptions {
    NegotiateOptions {
        session: SessionConfig {
            gem,
            gem_max_rounds: 32,
            ..SessionConfig::default()
        },
        ..NegotiateOptions::default()
    }
}

fn network(seed: u64) -> SimNetwork {
    SimNetwork::with(
        Topology::FullMesh,
        LatencyModel::Uniform { min: 1, max: 4 },
        seed,
    )
}

/// One full run over an acyclic workload; returns every observable
/// surface as strings.
fn observe_acyclic(
    peers: &mut PeerMap,
    requester: PeerId,
    responder: PeerId,
    goal: peertrust_core::Literal,
    seed: u64,
    gem: bool,
) -> (String, String, String, u64) {
    let mut net = network(seed);
    let (tele, ring) = Telemetry::ring(8192);
    let opts = NegotiateOptions {
        telemetry: tele.clone(),
        ..gem_options(gem)
    };
    let (outcome, _) = negotiate(
        peers,
        &mut net,
        &opts,
        NegotiationId(1),
        requester,
        responder,
        goal,
    );
    let metrics = tele
        .metrics()
        .expect("ring telemetry has metrics")
        .to_json();
    let jsonl: String = Timeline::from_events(&ring.events())
        .iter()
        .map(Timeline::to_jsonl)
        .collect();
    (
        serde_json::to_string(&outcome).unwrap(),
        metrics,
        jsonl,
        net.now(),
    )
}

fn run_mesh(
    n: usize,
    laps: usize,
    chords: bool,
    initiator: usize,
    gem: bool,
) -> NegotiationOutcome {
    let mut w = delegation_mesh(n, laps, chords);
    let mut net = network(7);
    let requester = w.peer_ids[initiator % w.peer_ids.len()];
    negotiate(
        &mut w.peers,
        &mut net,
        &gem_options(gem),
        NegotiationId(1),
        requester,
        w.responder,
        w.goal.clone(),
    )
    .0
}

/// Faults bounded by the E15 convergence bar: drop ≤ 10% for the mesh
/// workloads (they move an order of magnitude more messages than the
/// bilateral scenario), plus proportionate duplication/delay/reorder.
fn arb_bounded_faults() -> impl Strategy<Value = LinkFaults> {
    (
        0u32..100_000,
        0u32..100_000,
        0u32..100_000,
        1u64..4,
        0u32..100_000,
    )
        .prop_map(
            |(drop_ppm, dup_ppm, delay_ppm, max_extra_delay, reorder_ppm)| LinkFaults {
                drop_ppm,
                dup_ppm,
                delay_ppm,
                max_extra_delay,
                reorder_ppm,
                corrupt_ppm: 0,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The GEM flag is bit-identical on acyclic chain workloads.
    #[test]
    fn gem_is_bit_identical_on_acyclic_chains(
        seed in any::<u64>(),
        depth in 1usize..6,
    ) {
        let mut off_peers = chain(depth);
        let mut on_peers = chain(depth);
        let off = observe_acyclic(
            &mut off_peers.peers,
            off_peers.requester,
            off_peers.responder,
            off_peers.goal.clone(),
            seed,
            false,
        );
        let on = observe_acyclic(
            &mut on_peers.peers,
            on_peers.requester,
            on_peers.responder,
            on_peers.goal.clone(),
            seed,
            true,
        );
        prop_assert_eq!(&off, &on, "gem flag changed an acyclic chain run");
    }

    /// ... and on random acyclic policy graphs.
    #[test]
    fn gem_is_bit_identical_on_random_acyclic_graphs(
        seed in any::<u64>(),
        graph_seed in 0u64..1000,
    ) {
        let cfg = RandomPolicyConfig {
            allow_cycles: false,
            seed: graph_seed,
            ..RandomPolicyConfig::default()
        };
        let mut off_w = random_policies(cfg);
        let mut on_w = random_policies(cfg);
        let off = observe_acyclic(
            &mut off_w.peers,
            off_w.requester,
            off_w.responder,
            off_w.goal.clone(),
            seed,
            false,
        );
        let on = observe_acyclic(
            &mut on_w.peers,
            on_w.requester,
            on_w.responder,
            on_w.goal.clone(),
            seed,
            true,
        );
        prop_assert_eq!(&off, &on, "gem flag changed an acyclic graph run");
    }

    /// Every ring member initiating the same cyclic-mesh negotiation
    /// reaches the same granted answer with zero cycle refusals, where
    /// the classical driver refuses.
    #[test]
    fn mesh_outcome_is_initiator_independent(
        n in 2usize..5,
        chords in any::<bool>(),
    ) {
        let baseline = run_mesh(n, 2, chords, 0, true);
        prop_assert!(baseline.success, "refusals: {:?}", baseline.refusals);
        prop_assert!(!baseline
            .refusals
            .iter()
            .any(|r| r.reason == RefusalReason::CycleDetected));
        for initiator in 1..n {
            let out = run_mesh(n, 2, chords, initiator, true);
            prop_assert_eq!(out.success, baseline.success, "initiator {}", initiator);
            prop_assert_eq!(&out.granted, &baseline.granted, "initiator {}", initiator);
            prop_assert!(!out
                .refusals
                .iter()
                .any(|r| r.reason == RefusalReason::CycleDetected));
        }
        // The classical driver refuses the same workload.
        let classical = run_mesh(n, 2, chords, 0, false);
        prop_assert!(!classical.success);
        prop_assert!(classical
            .refusals
            .iter()
            .any(|r| r.reason == RefusalReason::CycleDetected));
    }
}

proptest! {
    // Fault-lane convergence moves thousands of supervised messages per
    // case; a handful of cases keeps the suite under the CI budget.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The mesh fixpoint survives a bounded fault lane: the resilient
    /// driver converges to the clean GEM outcome.
    #[test]
    fn mesh_converges_under_bounded_faults(
        fault_seed in any::<u64>(),
        link in arb_bounded_faults(),
        initiator in 0usize..2,
    ) {
        let clean = run_mesh(2, 2, false, initiator, true);
        prop_assert!(clean.success);

        let mut w = delegation_mesh(2, 2, false);
        let mut net = network(7).with_faults(FaultPlan::uniform(fault_seed, link));
        let requester = w.peer_ids[initiator];
        let opts = NegotiateOptions {
            resilience: Some(ResilienceConfig {
                max_retries: 8,
                query_deadline_ticks: 256,
                ..ResilienceConfig::default()
            }),
            ..gem_options(true)
        };
        let (out, report) = negotiate(
            &mut w.peers,
            &mut net,
            &opts,
            NegotiationId(1),
            requester,
            w.responder,
            w.goal.clone(),
        );
        let report = report.expect("resilience requested");
        prop_assert!(report.converged, "failures: {:?}", report.failures);
        prop_assert_eq!(out.success, clean.success);
        prop_assert_eq!(&out.granted, &clean.granted);
    }
}
