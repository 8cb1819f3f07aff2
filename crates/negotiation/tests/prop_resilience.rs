//! Property tests for the resilience layer (DESIGN.md §4e).
//!
//! 1. **Differential baseline** — a negotiation run over a network
//!    wrapped in a [`FaultPlan::none`] lane, with or without the
//!    resilience layer attached, is *bit-identical* to the plain
//!    `SimNetwork` path: serialized outcome, metrics registry JSON, and
//!    timeline JSONL all match byte for byte. The fault subsystem is
//!    provably free when unused.
//! 2. **Convergence** — under random loss up to the 20% drop-rate bar
//!    (plus duplicates, delays, reorders, corruption), a session with a
//!    retry budget reaches exactly the fault-free outcome, and its
//!    report says `converged`.
//! 3. **Crash-resume** — a scheduled peer outage early in the session is
//!    survived: the peer is rebuilt from the disclosure log and the
//!    negotiation still converges to the fault-free result.
//!
//! Non-convergence is exercised too: with loss beyond what the budget
//! can absorb the session must *terminate* with explicit
//! [`ResilienceFailure`] reasons, never hang.

use peertrust_core::PeerId;
use peertrust_crypto::KeyRegistry;
use peertrust_negotiation::{
    negotiate, NegotiateOptions, NegotiationOutcome, NegotiationPeer, PeerMap, ResilienceConfig,
    ResilienceReport,
};
use peertrust_net::{FaultPlan, LatencyModel, LinkFaults, NegotiationId, SimNetwork, Topology};
use peertrust_parser::parse_literal;
use peertrust_telemetry::{Telemetry, Timeline};
use proptest::prelude::*;

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

/// Alice asks E-Learn for `resource("Alice")` on fresh bilateral peers.
fn run(
    net: &mut SimNetwork,
    opts: &NegotiateOptions,
) -> (NegotiationOutcome, Option<ResilienceReport>) {
    negotiate(
        &mut bilateral_peers(),
        net,
        opts,
        NegotiationId(1),
        PeerId::new("Alice"),
        PeerId::new("E-Learn"),
        parse_literal(r#"resource("Alice")"#).unwrap(),
    )
}

/// [`run`] supervised by the resilience layer under `budget`.
fn resilient(
    net: &mut SimNetwork,
    budget: ResilienceConfig,
) -> (NegotiationOutcome, ResilienceReport) {
    let opts = NegotiateOptions {
        resilience: Some(budget),
        ..NegotiateOptions::default()
    };
    let (out, report) = run(net, &opts);
    (out, report.expect("resilience requested"))
}

/// One full run; returns every observable surface as strings.
/// `lane`: attach a fault lane with this plan. `resilient`: drive through
/// the resilience layer instead of the plain driver.
fn observe(seed: u64, lane: Option<FaultPlan>, resilient: bool) -> (String, String, String, u64) {
    let mut net = network(seed);
    if let Some(plan) = lane {
        net = net.with_faults(plan);
    }
    let (tele, ring) = Telemetry::ring(8192);
    let opts = NegotiateOptions {
        resilience: resilient.then(ResilienceConfig::default),
        telemetry: tele.clone(),
        ..NegotiateOptions::default()
    };
    let (outcome, _) = run(&mut net, &opts);
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

fn fault_free(seed: u64) -> NegotiationOutcome {
    run(&mut network(seed), &NegotiateOptions::default()).0
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

fn generous_budget() -> ResilienceConfig {
    ResilienceConfig {
        max_retries: 8,
        query_deadline_ticks: 256,
        ..ResilienceConfig::default()
    }
}

proptest! {
    /// Satellite: a none-plan lane — resilient or not — is bit-identical
    /// to the plain network path on every observable surface.
    #[test]
    fn none_plan_paths_are_bit_identical(seed in any::<u64>()) {
        let plain = observe(seed, None, false);
        let laned = observe(seed, Some(FaultPlan::none()), false);
        let resilient = observe(seed, Some(FaultPlan::none()), true);
        prop_assert_eq!(&plain, &laned, "lane with none-plan diverged");
        prop_assert_eq!(&plain, &resilient, "resilient none-plan diverged");
    }

    /// Retries recover every bounded-fault run to the fault-free outcome.
    #[test]
    fn bounded_faults_converge_to_fault_free_outcome(
        fault_seed in any::<u64>(),
        net_seed in any::<u64>(),
        link in arb_bounded_faults(),
    ) {
        let clean = fault_free(net_seed);
        let mut net = network(net_seed).with_faults(FaultPlan::uniform(fault_seed, link));
        let (out, report) = resilient(&mut net, generous_budget());
        prop_assert!(report.converged, "failures: {:?}", report.failures);
        prop_assert_eq!(out.success, clean.success);
        prop_assert_eq!(out.granted, clean.granted);
        prop_assert_eq!(out.disclosures.len(), clean.disclosures.len());
        prop_assert_eq!(out.refusals.len(), clean.refusals.len());
    }

    /// A crash window that still leaves a connected window before the
    /// deadline is survived via log replay.
    #[test]
    fn crash_windows_are_survived(
        net_seed in any::<u64>(),
        from in 0u64..10,
        len in 1u64..20,
        crash_responder in any::<bool>(),
    ) {
        let clean = fault_free(net_seed);
        let victim = if crash_responder { "E-Learn" } else { "Alice" };
        let plan = FaultPlan::none().with_crash(PeerId::new(victim), from, from + len);
        let mut net = network(net_seed).with_faults(plan);
        let (out, report) = resilient(&mut net, generous_budget());
        prop_assert!(report.converged, "failures: {:?}", report.failures);
        prop_assert_eq!(out.success, clean.success);
        prop_assert_eq!(out.granted, clean.granted);
    }

    /// Beyond the budget the session must still terminate, with explicit
    /// failure reasons and an unsuccessful outcome — never a hang.
    #[test]
    fn unrecoverable_loss_terminates_with_reasons(seed in any::<u64>()) {
        let mut net = network(seed).with_faults(FaultPlan::uniform(seed, LinkFaults::drops(1.0)));
        let (out, report) = resilient(&mut net, ResilienceConfig::default());
        prop_assert!(!out.success);
        prop_assert!(!report.converged);
        prop_assert!(!report.failures.is_empty());
        prop_assert_eq!(report.stats.gave_up, report.failures.len() as u64);
    }
}
