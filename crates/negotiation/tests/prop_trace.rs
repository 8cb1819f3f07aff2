//! Property tests for cross-peer causal tracing (DESIGN.md, "Causal
//! tracing & critical path").
//!
//! 1. **Well-formedness** — every trace reconstructed from a real
//!    negotiation validates: exactly one root span, unique span ids,
//!    every deliver matched by a send, every span's interval nested
//!    inside its parent's. This holds fault-free and under bounded
//!    random faults with retries.
//! 2. **Critical-path accounting** — the per-phase breakdown (solve /
//!    net wait / backoff) sums exactly to the end-to-end duration, and
//!    that duration never exceeds the outcome's `elapsed_ticks`.
//! 3. **Determinism** — the Chrome trace-event export is byte-identical
//!    across repeated runs, and across scheduler worker counts for a
//!    batch workload.

use peertrust_core::PeerId;
use peertrust_crypto::KeyRegistry;
use peertrust_negotiation::{
    negotiate, negotiate_batch, BatchConfig, BatchFaults, BatchJob, NegotiateOptions,
    NegotiationOutcome, NegotiationPeer, PeerMap, ResilienceConfig,
};
use peertrust_net::{FaultPlan, LatencyModel, LinkFaults, NegotiationId, SimNetwork, Topology};
use peertrust_parser::parse_literal;
use peertrust_telemetry::{to_chrome_json, Telemetry, Trace, TraceEvent};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// The bilateral paper scenario: E-Learn guards `resource` behind a UIUC
/// student credential that Alice releases only to BBB members.
fn bilateral_peers() -> PeerMap {
    let reg = KeyRegistry::new();
    for (i, name) in ["UIUC", "BBB"].iter().enumerate() {
        reg.register_derived(PeerId::new(name), i as u64 + 1);
    }
    let mut peers = PeerMap::new();
    let mut elearn = NegotiationPeer::new("E-Learn", reg.clone());
    elearn
        .load_program(
            r#"
            resource(X) $ true <- student(X) @ "UIUC" @ X.
            member("E-Learn") @ "BBB" $ true signedBy ["BBB"].
            "#,
        )
        .unwrap();
    peers.insert(elearn);
    let mut alice = NegotiationPeer::new("Alice", reg);
    alice
        .load_program(
            r#"
            student("Alice") @ "UIUC" signedBy ["UIUC"].
            student(X) @ Y $ member(Requester) @ "BBB" @ Requester <-_true student(X) @ Y.
            "#,
        )
        .unwrap();
    peers.insert(alice);
    peers
}

fn network(seed: u64) -> SimNetwork {
    SimNetwork::with(
        Topology::FullMesh,
        LatencyModel::Uniform { min: 1, max: 4 },
        seed,
    )
}

/// One instrumented run; returns the recorded event stream and outcome.
fn observe(seed: u64, plan: Option<FaultPlan>) -> (Vec<TraceEvent>, NegotiationOutcome) {
    let mut net = network(seed);
    let (tele, ring) = Telemetry::ring(65536);
    let opts = NegotiateOptions {
        resilience: plan.is_some().then(|| ResilienceConfig {
            max_retries: 8,
            query_deadline_ticks: 256,
            ..ResilienceConfig::default()
        }),
        telemetry: tele,
        ..NegotiateOptions::default()
    };
    if let Some(plan) = plan {
        net = net.with_faults(plan);
    }
    let (outcome, _) = negotiate(
        &mut bilateral_peers(),
        &mut net,
        &opts,
        NegotiationId(1),
        PeerId::new("Alice"),
        PeerId::new("E-Learn"),
        parse_literal(r#"resource("Alice")"#).unwrap(),
    );
    (ring.events(), outcome)
}

/// Faults bounded by the E15 convergence bar: drop ≤ 20%, plus
/// proportionate duplication/delay/reorder/corruption.
fn arb_bounded_faults() -> impl Strategy<Value = LinkFaults> {
    (
        0u32..200_000,
        0u32..200_000,
        0u32..200_000,
        1u64..6,
        0u32..200_000,
        0u32..100_000,
    )
        .prop_map(
            |(drop_ppm, dup_ppm, delay_ppm, max_extra_delay, reorder_ppm, corrupt_ppm)| {
                LinkFaults {
                    drop_ppm,
                    dup_ppm,
                    delay_ppm,
                    max_extra_delay,
                    reorder_ppm,
                    corrupt_ppm,
                }
            },
        )
}

/// Validate every trace in `events` and check critical-path accounting
/// against the outcome's end-to-end duration.
fn check_traces(events: &[TraceEvent], outcome: &NegotiationOutcome) -> Result<(), TestCaseError> {
    let traces = Trace::from_events(events);
    prop_assert_eq!(traces.len(), 1, "one negotiation, one trace");
    for trace in &traces {
        if let Err(e) = trace.validate() {
            return Err(TestCaseError::fail(format!("malformed trace: {e}")));
        }
        let cp = trace.critical_path();
        prop_assert_eq!(
            cp.solve_ticks + cp.net_wait_ticks + cp.backoff_ticks,
            cp.total_ticks,
            "phase breakdown must sum to the end-to-end duration"
        );
        prop_assert!(
            cp.total_ticks <= outcome.elapsed_ticks,
            "critical path ({}) exceeds end-to-end duration ({})",
            cp.total_ticks,
            outcome.elapsed_ticks
        );
    }
    Ok(())
}

proptest! {
    /// Fault-free negotiations yield exactly one well-formed trace whose
    /// critical path accounts for the whole duration.
    #[test]
    fn fault_free_traces_are_well_formed(seed in any::<u64>()) {
        let (events, outcome) = observe(seed, None);
        check_traces(&events, &outcome)?;
    }

    /// Under bounded random faults — retries, duplicates, drops, crash
    /// of nothing in particular — the trace stays well-formed: retried
    /// sends are sibling transit spans, duplicates collapse onto their
    /// send, and backoff spans nest in the owning request.
    #[test]
    fn faulty_traces_are_well_formed(
        fault_seed in any::<u64>(),
        net_seed in any::<u64>(),
        link in arb_bounded_faults(),
    ) {
        let plan = FaultPlan::uniform(fault_seed, link);
        let (events, outcome) = observe(net_seed, Some(plan));
        check_traces(&events, &outcome)?;
    }

    /// The Chrome export is byte-identical across repeated runs.
    #[test]
    fn chrome_export_is_deterministic_across_runs(seed in any::<u64>()) {
        let (a, _) = observe(seed, None);
        let (b, _) = observe(seed, None);
        prop_assert_eq!(
            to_chrome_json(&Trace::from_events(&a)),
            to_chrome_json(&Trace::from_events(&b))
        );
    }
}

/// A batch's merged trace stream — and therefore its Chrome export — is
/// byte-identical across worker counts, fault-free and faulty.
#[test]
fn batch_traces_are_identical_across_worker_counts() {
    let peers = bilateral_peers();
    let goal = parse_literal(r#"resource("Alice")"#).unwrap();
    let jobs: Vec<BatchJob> = (0..8)
        .map(|_| BatchJob::new(PeerId::new("Alice"), PeerId::new("E-Learn"), goal.clone()))
        .collect();
    let chrome = |workers: usize, faults: Option<BatchFaults>| -> String {
        let (tele, ring) = Telemetry::ring(1 << 20);
        let cfg = BatchConfig {
            workers,
            faults,
            ..BatchConfig::default()
        };
        let report = negotiate_batch(&peers, &jobs, &cfg, &tele);
        assert_eq!(report.outcomes.len(), jobs.len());
        to_chrome_json(&Trace::from_events(&ring.events()))
    };
    let faulty = || {
        Some(BatchFaults {
            plan: FaultPlan::uniform(11, LinkFaults::lossy(0.2)),
            resilience: ResilienceConfig {
                max_retries: 8,
                query_deadline_ticks: 256,
                ..ResilienceConfig::default()
            },
        })
    };
    let clean_baseline = chrome(1, None);
    let faulty_baseline = chrome(1, faulty());
    assert_ne!(clean_baseline, faulty_baseline);
    for workers in [2, 4, 8] {
        assert_eq!(
            chrome(workers, None),
            clean_baseline,
            "clean divergence at {workers} workers"
        );
        assert_eq!(
            chrome(workers, faulty()),
            faulty_baseline,
            "faulty divergence at {workers} workers"
        );
    }
}

/// Every trace in a batch validates individually.
#[test]
fn batch_traces_are_well_formed() {
    let peers = bilateral_peers();
    let goal = parse_literal(r#"resource("Alice")"#).unwrap();
    let jobs: Vec<BatchJob> = (0..6)
        .map(|_| BatchJob::new(PeerId::new("Alice"), PeerId::new("E-Learn"), goal.clone()))
        .collect();
    let (tele, ring) = Telemetry::ring(1 << 20);
    let report = negotiate_batch(&peers, &jobs, &BatchConfig::default(), &tele);
    assert_eq!(report.stats.successes, jobs.len());
    let traces = Trace::from_events(&ring.events());
    assert_eq!(traces.len(), jobs.len(), "one trace per job");
    for trace in &traces {
        trace.validate().unwrap_or_else(|e| panic!("{e}"));
    }
}
