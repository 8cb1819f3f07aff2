//! Regenerates every experiment table in EXPERIMENTS.md.
//!
//! Unlike the Criterion benches (wall time), this binary reports the
//! *deterministic* metrics — messages, bytes, queries, disclosures,
//! rounds, simulated ticks — that the experiment write-ups quote. Run:
//!
//! ```text
//! cargo run --release -p peertrust-bench --bin experiments
//! ```
//!
//! Pass `--json` to also dump machine-readable rows. Every run also
//! re-executes the two paper scenarios under an instrumented telemetry
//! pipeline and writes the metrics registry to `target/metrics.json`
//! alongside a per-negotiation `target/timeline.jsonl` (override the
//! directory with `--out-dir <dir>`).

use peertrust_bench::{run_negotiation, run_workload, with_big_stack, Row};
use peertrust_core::{KnowledgeBase, Literal, PeerId, Rule, Sym, Term};
use peertrust_negotiation::{
    negotiate, request_policy, verify_safe_sequence, NegotiateOptions, NegotiationPeer, PeerMap,
    SessionConfig, Strategy,
};
use peertrust_net::{NegotiationId, SimNetwork};
use peertrust_scenarios::{
    chain, delegation_chain, delegation_mesh, fleet, random_policies, Ablation1, Ablation2,
    RandomPolicyConfig, Scenario1, Scenario2, Variant2,
};

fn main() {
    let json = std::env::args().any(|a| a == "--json");
    let args: Vec<String> = std::env::args().collect();
    let out_dir = args
        .iter()
        .position(|a| a == "--out-dir")
        .and_then(|i| args.get(i + 1))
        .map(std::path::PathBuf::from)
        // Generated artifacts live under target/ so a default run never
        // dirties the repository root.
        .unwrap_or_else(|| std::path::PathBuf::from("target"));
    let mut rows: Vec<Row> = Vec::new();

    e1(&mut rows);
    e2(&mut rows);
    e3(&mut rows);
    e4_e5(&mut rows);
    e6(&mut rows);
    e7(&mut rows);
    e10(&mut rows);
    e11(&mut rows);
    e17(&mut rows);
    e18();

    println!("\n{}", Row::header());
    println!("{}", "-".repeat(120));
    for row in &rows {
        println!("{row}");
    }

    if json {
        println!("\n{}", serde_json::to_string_pretty(&rows).unwrap());
    }

    telemetry_export(&out_dir);
}

/// Re-run the instrumented paper scenarios and export the metrics registry
/// (`metrics.json`) plus the chronological event stream (`timeline.jsonl`)
/// into `out_dir`.
fn telemetry_export(out_dir: &std::path::Path) {
    use peertrust_telemetry::{Telemetry, Timeline, Trace};

    println!("\n== Telemetry export (instrumented E1/E2) ==");
    // Large enough that nothing is evicted: trace reconstruction needs
    // the complete event stream, and a ring that drops the oldest events
    // would silently truncate the earliest spans.
    let (telemetry, ring) = Telemetry::ring(1 << 20);

    let mut s1 = Scenario1::build();
    let out1 = s1.run_traced(Strategy::Parsimonious, &telemetry);
    assert!(out1.success);
    let mut s2 = Scenario2::build(Variant2::Base);
    let out2 = s2.run_traced(
        Strategy::Parsimonious,
        Scenario2::paid_goal(1000),
        &telemetry,
    );
    assert!(out2.success);

    // E13: exercise both caching layers so their counters are in the
    // export — a tabled transitive-closure solve (engine.table.*) and a
    // warm repeat of the E6 delegation chain through the shared
    // remote-answer cache (negotiation.cache.*).
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
    for i in 0..32i64 {
        kb.add_local(Rule::fact(Literal::new(
            "edge",
            vec![Term::int(i), Term::int(i + 1)],
        )));
    }
    let mut solver = peertrust_engine::Solver::new(&kb, PeerId::new("exporter"))
        .with_config(peertrust_engine::EngineConfig {
            tabling: true,
            max_solutions: usize::MAX,
            max_depth: 4096,
            ..Default::default()
        })
        .with_telemetry(telemetry.clone());
    let reach = solver.solve(&[Literal::new("reach", vec![Term::int(0), Term::var("W")])]);
    assert_eq!(reach.len(), 32);

    let mut w = delegation_chain(4);
    let traced = NegotiateOptions {
        telemetry: telemetry.clone(),
        ..NegotiateOptions::default()
    };
    let cached = NegotiateOptions {
        cache: Some(peertrust_negotiation::SharedRemoteAnswerCache::new()),
        ..traced.clone()
    };
    for nid in [3u64, 4] {
        let mut net = SimNetwork::new(nid).with_telemetry(telemetry.clone());
        let (out, _) = negotiate(
            &mut w.peers,
            &mut net,
            &cached,
            NegotiationId(nid),
            w.requester,
            w.responder,
            w.goal.clone(),
        );
        assert!(out.success, "delegation repeat {nid}");
    }
    let cache_stats = cached.cache.as_ref().expect("cache attached").stats();
    println!(
        "  remote-answer cache: {} hits / {} misses / {} inserts",
        cache_stats.hits, cache_stats.misses, cache_stats.inserts
    );

    // E17: one cyclic mesh through the GEM fixpoint plus the same mesh
    // under the classical driver, so the negotiation.gem.* counters and
    // the per-reason negotiation.refusal.* counters (cycle_detected
    // among them) are live in the export.
    {
        let mut w = delegation_mesh(3, 2, false);
        let requester = w.peer_ids[1];
        let mut net = SimNetwork::new(17).with_telemetry(telemetry.clone());
        let (out, _) = negotiate(
            &mut w.peers,
            &mut net,
            &NegotiateOptions {
                session: SessionConfig {
                    gem: true,
                    gem_max_rounds: 32,
                    ..Default::default()
                },
                ..traced.clone()
            },
            NegotiationId(17),
            requester,
            w.responder,
            w.goal.clone(),
        );
        assert!(out.success, "gem mesh export");

        let mut w = delegation_mesh(3, 2, false);
        let requester = w.peer_ids[1];
        let mut net = SimNetwork::new(18).with_telemetry(telemetry.clone());
        let refused = Strategy::Parsimonious.run_traced(
            &mut w.peers,
            &mut net,
            NegotiationId(18),
            requester,
            w.responder,
            w.goal.clone(),
            &telemetry,
        );
        assert!(!refused.success, "classical mesh export");
    }

    // E15 (part 1): one resilient negotiation over a lossy,
    // telemetry-attached network, so the export carries a trace with
    // retries, backoff spans and `net.fault` annotations. Run *before*
    // the batches: batch jobs reuse negotiation ids starting at 1, and
    // the causal-trace snapshot below keys traces by negotiation id.
    let rep = {
        use peertrust_net::{FaultPlan, LinkFaults};
        let budget = peertrust_negotiation::ResilienceConfig {
            max_retries: 8,
            query_deadline_ticks: 256,
            ..peertrust_negotiation::ResilienceConfig::default()
        };
        let mut w15 = chain(2);
        let mut net = SimNetwork::new(15)
            .with_telemetry(telemetry.clone())
            .with_faults(FaultPlan::uniform(15, LinkFaults::lossy(0.2)));
        let (out, rep) = negotiate(
            &mut w15.peers,
            &mut net,
            &NegotiateOptions {
                resilience: Some(budget),
                ..traced
            },
            NegotiationId(15),
            w15.requester,
            w15.responder,
            w15.goal.clone(),
        );
        let rep = rep.expect("resilience requested");
        assert!(out.success && rep.converged, "resilient chain export");
        rep
    };

    // Snapshot the stream for causal-trace reconstruction while every
    // negotiation id recorded so far (1, 2, 3, 4, 15, 17, 18) is still
    // unique.
    let trace_events = ring.events();

    // E14: one batch over the throughput grid through the scheduler so the
    // negotiation.throughput.* series (sessions, sessions_per_sec, worker
    // busy/utilization, shared-cache deltas) land in the export.
    let grid = peertrust_scenarios::throughput_grid(4, 2, 2);
    let batch_cfg = peertrust_negotiation::BatchConfig {
        workers: 2,
        shared_cache: Some(peertrust_negotiation::SharedRemoteAnswerCache::new()),
        ..peertrust_negotiation::BatchConfig::default()
    };
    let report =
        peertrust_negotiation::negotiate_batch(&grid.peers, &grid.jobs, &batch_cfg, &telemetry);
    assert_eq!(report.stats.successes, grid.jobs.len(), "batch export");
    println!(
        "  batch throughput: {} sessions, {} workers, {:.0} negotiations/sec, {:.0}% utilization",
        report.stats.jobs,
        report.stats.workers,
        report.stats.negotiations_per_sec,
        report.stats.utilization_pct
    );

    // E15 (part 2): a faulty batch through the scheduler adds the
    // `negotiation.resilience.*` series to the export.
    {
        let (grid15, points) = peertrust_scenarios::resilience_grid(2, 2, 2, 15, &[0.2], &[4]);
        let point = &points[0];
        let faulty_cfg = peertrust_negotiation::BatchConfig {
            workers: 2,
            faults: Some(point.faults.clone()),
            ..peertrust_negotiation::BatchConfig::default()
        };
        let report = peertrust_negotiation::negotiate_batch(
            &grid15.peers,
            &grid15.jobs,
            &faulty_cfg,
            &telemetry,
        );
        assert_eq!(
            report.stats.converged, report.stats.jobs,
            "resilience export"
        );
        println!(
            "  resilience ({}): {}/{} sessions converged, {} retries, {} timeouts, {} duplicates suppressed",
            point.label,
            report.stats.converged,
            report.stats.jobs,
            report.stats.resilience.retries + rep.stats.retries,
            report.stats.resilience.timeouts + rep.stats.timeouts,
            report.stats.resilience.duplicates_suppressed + rep.stats.duplicates_suppressed,
        );
    }

    // E18: an open-loop serving run over the Zipf workload, overloaded
    // enough to shed, so the negotiation.serve.* counters and the
    // wait/service/latency quantile sketches are live in the export.
    {
        let w = peertrust_scenarios::serving_workload(4, 2, 64, 1.1, 18);
        let serve_cfg = peertrust_negotiation::ServeConfig {
            mean_interarrival_ticks: 4.0,
            servers: 2,
            queue_cap: 4,
            deadline_ticks: 128,
            workers: 2,
            ..peertrust_negotiation::ServeConfig::default()
        };
        let report =
            peertrust_negotiation::serve_open_loop(&w.peers, &w.jobs, &serve_cfg, &telemetry);
        assert_eq!(
            report.stats.base_clones, 0,
            "serving export must be clone-free"
        );
        println!(
            "  serving: {} offered, {} admitted, {} shed, p99 latency {} ticks",
            report.stats.offered,
            report.stats.admitted,
            report.stats.shed_queue_full + report.stats.shed_deadline,
            report.stats.latency.p99,
        );
    }

    std::fs::create_dir_all(out_dir).expect("create output dir");
    let metrics = telemetry.metrics().expect("telemetry enabled").to_json();
    let metrics_path = out_dir.join("metrics.json");
    std::fs::write(&metrics_path, &metrics).expect("write metrics.json");

    let events = ring.events();
    let timelines = Timeline::from_events(&events);
    let dump: String = timelines.iter().map(Timeline::to_jsonl).collect();
    let timeline_path = out_dir.join("timeline.jsonl");
    std::fs::write(&timeline_path, &dump).expect("write timeline.jsonl");

    for tl in &timelines {
        println!(
            "  negotiation {}: {} spans, {} events",
            tl.negotiation,
            tl.spans.len(),
            tl.events.len()
        );
    }

    // Cross-peer causal traces: reconstruct the span DAG from the
    // pre-batch snapshot, print each trace's critical path, and export
    // the whole set as Chrome trace-event JSON (load `trace.json` in
    // Perfetto / chrome://tracing to see per-peer lanes).
    let traces = Trace::from_events(&trace_events);
    for trace in &traces {
        if let Err(e) = trace.validate() {
            panic!("trace {} is malformed: {e}", trace.id);
        }
        let cp = trace.critical_path();
        for line in peertrust_telemetry::critical_path_summary(&cp).lines() {
            println!("  {line}");
        }
    }
    let chrome = peertrust_telemetry::to_chrome_json(&traces);
    let trace_path = out_dir.join("trace.json");
    std::fs::write(&trace_path, &chrome).expect("write trace.json");

    println!(
        "  artifacts: {} ({} bytes), {} ({} bytes), {} ({} bytes, {} traces)",
        metrics_path.display(),
        metrics.len(),
        timeline_path.display(),
        dump.len(),
        trace_path.display(),
        chrome.len(),
        traces.len(),
    );
}

fn e1(rows: &mut Vec<Row>) {
    println!("== E1: Scenario 1 (Alice & E-Learn) ==");
    for strategy in Strategy::ALL {
        let mut s = Scenario1::build();
        let out = s.run(strategy);
        assert!(out.success);
        verify_safe_sequence(&out).unwrap();
        rows.push(Row::from_outcome("E1", "full", strategy.name(), &out));
    }
    // Warm cache.
    let mut s = Scenario1::build();
    let _ = s.run(Strategy::Parsimonious);
    let warm = s.run(Strategy::Parsimonious);
    rows.push(Row::from_outcome("E1", "warm-cache", "parsimonious", &warm));
    // Ablations.
    for ablation in Ablation1::ALL.into_iter().skip(1) {
        let mut s = Scenario1::build_ablated(ablation);
        let out = s.run(Strategy::Parsimonious);
        assert!(!out.success);
        rows.push(Row::from_outcome(
            "E1",
            format!("{ablation:?}"),
            "parsimonious",
            &out,
        ));
    }
}

fn e2(rows: &mut Vec<Row>) {
    println!("== E2: Scenario 2 (Bob & learning services) ==");
    let mut s = Scenario2::build(Variant2::Base);
    let free = s.run(Strategy::Parsimonious, Scenario2::free_goal());
    assert!(free.success);
    rows.push(Row::from_outcome(
        "E2",
        "free-course",
        "parsimonious",
        &free,
    ));

    for (name, variant) in [
        ("paid-base", Variant2::Base),
        ("paid-revocation", Variant2::RevocationCheck),
        ("paid-authority-db", Variant2::AuthorityDb),
        ("paid-broker", Variant2::Broker),
    ] {
        let mut s = Scenario2::build(variant);
        let out = s.run(Strategy::Parsimonious, Scenario2::paid_goal(1000));
        assert!(out.success);
        rows.push(Row::from_outcome("E2", name, "parsimonious", &out));
    }

    for (name, variant, ablation, goal_price) in [
        (
            "revoked-card",
            Variant2::RevocationCheck,
            Ablation2::CardRevoked,
            1000,
        ),
        (
            "price-too-high",
            Variant2::Base,
            Ablation2::PriceTooHigh,
            2500,
        ),
        (
            "merchant-unauth",
            Variant2::Base,
            Ablation2::MerchantNotAuthorized,
            1000,
        ),
    ] {
        let mut s = Scenario2::build_ablated(variant, ablation);
        let out = s.run(Strategy::Parsimonious, Scenario2::paid_goal(goal_price));
        assert!(!out.success);
        rows.push(Row::from_outcome("E2", name, "parsimonious", &out));
    }

    let mut s = Scenario2::build_ablated(Variant2::Base, Ablation2::IbmNotElenaMember);
    let free = s.run(Strategy::Parsimonious, Scenario2::free_goal());
    assert!(!free.success);
    rows.push(Row::from_outcome(
        "E2",
        "non-member-free",
        "parsimonious",
        &free,
    ));
    let mut s = Scenario2::build_ablated(Variant2::Base, Ablation2::IbmNotElenaMember);
    let paid = s.run(Strategy::Parsimonious, Scenario2::paid_goal(1000));
    assert!(paid.success);
    rows.push(Row::from_outcome(
        "E2",
        "non-member-paid",
        "parsimonious",
        &paid,
    ));
}

fn e3(rows: &mut Vec<Row>) {
    println!("== E3: chain depth sweep ==");
    for depth in [1usize, 2, 4, 8, 16, 32, 48] {
        for strategy in Strategy::ALL {
            let out = with_big_stack(move || {
                let mut w = chain(depth);
                run_workload(&mut w, strategy)
            });
            assert!(out.success);
            assert_eq!(out.credential_count(), depth);
            rows.push(Row::from_outcome(
                "E3",
                format!("depth={depth}"),
                strategy.name(),
                &out,
            ));
        }
    }
}

fn e4_e5(rows: &mut Vec<Row>) {
    println!("== E4/E5: random policy graphs, strategy comparison ==");
    for n in [8usize, 16, 32] {
        for seed in 0..3u64 {
            let cfg = RandomPolicyConfig {
                creds_per_side: n,
                max_deps: 2,
                public_prob: 0.25,
                allow_cycles: true,
                seed,
                ..RandomPolicyConfig::default()
            };
            let truth = random_policies(cfg).satisfiable;
            for strategy in Strategy::ALL {
                let mut w = random_policies(cfg);
                let out = with_big_stack(move || run_workload(&mut w, strategy));
                if strategy == Strategy::Eager {
                    assert_eq!(out.success, truth, "eager completeness");
                }
                verify_safe_sequence(&out).unwrap();
                rows.push(Row::from_outcome(
                    "E4",
                    format!("n={n} seed={seed} {}", if truth { "sat" } else { "unsat" }),
                    strategy.name(),
                    &out,
                ));
            }
        }
    }
}

fn e6(rows: &mut Vec<Row>) {
    println!("== E6: delegation chain discovery ==");
    for depth in [1usize, 2, 4, 8, 16, 32] {
        let (cold, warm) = with_big_stack(move || {
            let mut w = delegation_chain(depth);
            let cold = run_workload(&mut w, Strategy::Parsimonious);
            let warm = run_workload(&mut w, Strategy::Parsimonious);
            (cold, warm)
        });
        assert!(cold.success && warm.success);
        rows.push(Row::from_outcome(
            "E6",
            format!("depth={depth} cold"),
            "parsimonious",
            &cold,
        ));
        rows.push(Row::from_outcome(
            "E6",
            format!("depth={depth} warm"),
            "parsimonious",
            &warm,
        ));
    }
}

fn e7(_rows: &mut Vec<Row>) {
    println!("== E7: UniPro policy protection ==");
    // Nested guards: policy{i} guarded by policy{i+1}, last public.
    for depth in [0usize, 2, 4, 8] {
        let registry = peertrust_crypto::KeyRegistry::new();
        registry.register_derived(PeerId::new("CA"), 1);
        let mut owner = NegotiationPeer::new("Owner", registry.clone());
        for i in 0..depth {
            let next = i + 1;
            owner
                .load_program(&format!(
                    r#"policy{i}(R) <-_(policy{next}(R)) policy{next}(R)."#
                ))
                .unwrap();
        }
        owner
            .load_program(&format!(r#"policy{depth}(R) <-_true unlocked{depth}(R)."#))
            .unwrap();
        for i in 0..=depth {
            owner
                .load_program(&format!(r#"unlocked{i}("Asker")."#))
                .unwrap();
        }
        let mut peers = PeerMap::new();
        peers.insert(owner);
        peers.insert(NegotiationPeer::new("Asker", registry));

        let mut net = SimNetwork::new(1);
        let res = request_policy(
            &mut peers,
            &mut net,
            NegotiationId(1),
            PeerId::new("Asker"),
            PeerId::new("Owner"),
            Sym::new("policy0"),
        );
        println!(
            "  guard nesting {depth}: disclosed={} messages={}",
            res.rules.len(),
            res.messages
        );
    }
}

fn e10(rows: &mut Vec<Row>) {
    println!("== E10: peer-count scaling ==");
    for n in [4usize, 16, 64, 128, 256] {
        let (mut peers, _reg, goals) = fleet(n);
        let mut net = SimNetwork::new(1);
        let mut total_msgs = 0u64;
        let t0 = std::time::Instant::now();
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
            total_msgs += out.messages;
        }
        println!(
            "  clients={n}: total messages={} wall={:?} (messages/client={})",
            total_msgs,
            t0.elapsed(),
            total_msgs / n as u64
        );
    }
    // One representative row for the table.
    let (mut peers, _reg, goals) = fleet(8);
    let (client, goal) = goals[0].clone();
    let out = run_negotiation(
        &mut peers,
        client,
        PeerId::new("Server"),
        goal,
        Strategy::Parsimonious,
        true,
    );
    rows.push(Row::from_outcome(
        "E10",
        "fleet client (n=8)",
        "parsimonious",
        &out,
    ));
}

fn e17(rows: &mut Vec<Row>) {
    println!("== E17: cyclic delegation meshes via GEM tabling ==");
    for (n, laps, chords) in [
        (2usize, 2usize, false),
        (3, 2, false),
        (3, 3, false),
        (4, 2, true),
        (5, 2, true),
    ] {
        let label = format!(
            "mesh n={n} laps={laps}{}",
            if chords { " chord" } else { "" }
        );
        // GEM lane: the fixpoint converges with zero cycle refusals.
        let mut w = delegation_mesh(n, laps, chords);
        let mut net = SimNetwork::new(17);
        let requester = w.peer_ids[1];
        let (out, _) = negotiate(
            &mut w.peers,
            &mut net,
            &NegotiateOptions {
                session: SessionConfig {
                    gem: true,
                    gem_max_rounds: 32,
                    ..Default::default()
                },
                ..NegotiateOptions::default()
            },
            NegotiationId(1),
            requester,
            w.responder,
            w.goal.clone(),
        );
        assert!(out.success, "{label}: gem lane must converge");
        assert!(
            !out.refusals
                .iter()
                .any(|r| r.reason == peertrust_negotiation::RefusalReason::CycleDetected),
            "{label}: gem lane must not refuse on cycles"
        );
        rows.push(Row::from_outcome("E17", label.clone(), "gem", &out));

        // Classical lane: the same workload needs more than one lap of
        // unrolling, so the variant check refuses it.
        let mut w = delegation_mesh(n, laps, chords);
        let mut net = SimNetwork::new(17);
        let classical = Strategy::Parsimonious.run(
            &mut w.peers,
            &mut net,
            NegotiationId(1),
            requester,
            w.responder,
            w.goal.clone(),
        );
        assert!(!classical.success, "{label}: classical lane must refuse");
        rows.push(Row::from_outcome("E17", label, "classical", &classical));
    }
}

/// E18: open-loop serving with admission control. Sweeps the offered
/// rate across saturation over the Zipf workload and reports shed rates
/// and tick-exact latency percentiles. Deterministic end to end (seeded
/// arrivals, seeded popularity, virtual-time admission), so the printed
/// table is identical on every run.
fn e18() {
    use peertrust_negotiation::{serve_open_loop, ServeConfig};
    use peertrust_telemetry::Telemetry;

    println!("== E18: open-loop serving (Zipf popularity, Poisson arrivals) ==");
    let w = peertrust_scenarios::serving_workload(8, 2, 512, 1.1, 18);
    let hot: usize = w.popularity.iter().take(2).sum();
    println!(
        "  workload: 512 arrivals over 8 resources, zipf s=1.1 (top-2 resources take {}%)",
        hot * 100 / 512
    );
    println!(
        "  {:<22} | {:>8} | {:>10} | {:>12} | {:>14} | {:>20}",
        "offered", "admitted", "shed(full)", "shed(late)", "wait p50/p99", "latency p50/p99/p999"
    );
    for mean in [16.0, 8.0, 4.0, 2.0] {
        let cfg = ServeConfig {
            mean_interarrival_ticks: mean,
            servers: 2,
            queue_cap: 8,
            deadline_ticks: 96,
            workers: 4,
            arrival_seed: 18,
            ..ServeConfig::default()
        };
        let report = serve_open_loop(&w.peers, &w.jobs, &cfg, &Telemetry::disabled());
        let s = &report.stats;
        assert_eq!(s.base_clones, 0, "serving must stay clone-free");
        assert!(s.max_queue_depth <= cfg.queue_cap);
        println!(
            "  1 per {mean:>4.0} ticks       | {:>8} | {:>10} | {:>12} | {:>6}/{:<7} | {:>6}/{}/{} ticks",
            s.admitted,
            s.shed_queue_full,
            s.shed_deadline,
            s.wait.p50,
            s.wait.p99,
            s.latency.p50,
            s.latency.p99,
            s.latency.p999,
        );
    }
}

fn e11(rows: &mut Vec<Row>) {
    println!("== E11: cyclic-policy rejection ==");
    for k in [2usize, 4, 8, 16] {
        let registry = peertrust_crypto::KeyRegistry::new();
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
        a.load_program(r#"resource(X) $ true <- cred1(X) @ "CA" @ X."#)
            .unwrap();
        let mut peers = PeerMap::new();
        peers.insert(a);
        peers.insert(b);

        let mut net = SimNetwork::new(1);
        let out = Strategy::Parsimonious.run(
            &mut peers,
            &mut net,
            NegotiationId(1),
            PeerId::new("B"),
            PeerId::new("A"),
            peertrust_parser::parse_literal(r#"resource("B")"#).unwrap(),
        );
        assert!(!out.success, "cycle must be rejected");
        rows.push(Row::from_outcome(
            "E11",
            format!("deadlock ring k={k}"),
            "parsimonious",
            &out,
        ));
    }
}
