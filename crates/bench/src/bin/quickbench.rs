//! Criterion-free smoke benchmark for the solver hot path.
//!
//! Runs a handful of e8/e13/e14/e17/e18 scenarios a fixed number of times
//! with `std::time::Instant`, reports the median wall time per scenario,
//! and writes the result as JSON (default `target/BENCH.json`). This is
//! what `cargo xtask bench --quick` invokes in CI: fast enough to run on
//! every push, deterministic in workload shape, and comparable against
//! the committed baseline (`BENCH_BASELINE.json`).
//!
//! Usage:
//!   quickbench [--quick] [--out PATH] [--baseline PATH]
//!
//! `--quick` lowers the batch scenarios' iteration counts for CI smoke runs.
//!
//! Besides wall time, each cold solver scenario is replayed once to
//! collect its *deterministic* work counters (resolution steps), and the
//! serving scenario records its admission decisions. Wall-clock medians
//! wobble with machine load; the counters don't, so they are asserted
//! **exactly** against the baseline: any drift in the engine's search
//! behaviour fails loudly instead of hiding inside a 25% timing budget.
//!
//! `--baseline` applies one rule set to every scenario present in both
//! the fresh run and the baseline:
//! - cold `e8_deep_chain_cold` / `e13_tabled_cold` fail past 1.25x, on
//!   their speed *relative to the host*: every iteration of every
//!   scenario is paired with a fixed reference workload (SHA-256 over a
//!   fixed buffer), the median scenario/reference ratio is stored as
//!   `ref_ratio`, and this gate compares ratios, so a slower or busier
//!   host moves both sides of it;
//! - `e17_gem_mesh` and `e18_serving` (low batch iteration counts) fail
//!   past 3x;
//! - warm and batch medians are reported informationally;
//! - every work counter present in both must match exactly — for e18
//!   that pins the admission decisions (admitted/shed counts, queue peak,
//!   makespan, tick-exact wait/latency p99) and `base_clones == 0`, the
//!   clone-free startup guard.

use peertrust_core::{KnowledgeBase, Literal, PeerId, Rule, Term};
use peertrust_crypto::sha256_digest;
use peertrust_engine::{AnswerTable, EngineConfig, SharedTable, Solver};
use peertrust_negotiation::{
    negotiate_batch, serve_open_loop, BatchConfig, BatchJob, ServeConfig, SessionConfig,
};
use peertrust_scenarios::{delegation_mesh, serving_workload, throughput_grid};
use peertrust_telemetry::Telemetry;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// Linear `reach`/`edge` closure KB: the e8/e13 deep-chain workload.
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

/// Wall time of one run of `f` in nanoseconds. The closure returns a
/// checksum that is asserted against `expect` so the work cannot be
/// optimized away and the scenario stays self-validating.
fn time_ns(expect: usize, f: &mut impl FnMut() -> usize) -> f64 {
    let t = Instant::now();
    let got = f();
    let ns = t.elapsed().as_nanos() as f64;
    assert_eq!(got, expect, "scenario checksum mismatch");
    ns
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

struct Report {
    /// Per scenario: name, median ns, iterations, and the median
    /// scenario/reference time ratio.
    entries: Vec<(&'static str, f64, usize, f64)>,
    /// Deterministic work counters: `"<scenario>.<counter>"` -> value.
    /// Asserted exactly against the committed baseline — see module docs.
    counters: Vec<(String, u64)>,
}

impl Report {
    /// Time `iters` runs of `f`, each followed by one run of the host-speed
    /// reference — SHA-256 over a fixed 256 KiB buffer, about a fifth of a
    /// cold e8/e13 solve — so both see the same host state. Records the
    /// median time and the median per-iteration scenario/reference ratio.
    fn record(
        &mut self,
        name: &'static str,
        iters: usize,
        expect: usize,
        mut f: impl FnMut() -> usize,
    ) {
        let buf: Vec<u8> = (0..1u32 << 18).map(|i| (i % 251) as u8).collect();
        let mut sha = || sha256_digest(std::hint::black_box(&buf))[0] as usize;
        let check = sha();
        let (mut times, mut ratios): (Vec<f64>, Vec<f64>) = (0..iters)
            .map(|_| {
                let ns = time_ns(expect, &mut f);
                (ns, ns / time_ns(check, &mut sha))
            })
            .unzip();
        let (ns, ratio) = (median(&mut times), median(&mut ratios));
        println!("{name:<28} median {ns:>12.0} ns  ({iters} iters, {ratio:.3}x reference)");
        self.entries.push((name, ns, iters, ratio));
    }

    /// Record a single deterministic work counter.
    fn count_value(&mut self, name: &str, counter: &str, value: u64) {
        println!("{name:<28} {counter:<16} {value}");
        self.counters.push((format!("{name}.{counter}"), value));
    }

    fn to_json(&self) -> String {
        let scenarios: Vec<String> = self
            .entries
            .iter()
            .map(|(name, ns, iters, ratio)| {
                format!("    \"{name}\": {{ \"median_ns\": {ns:.0}, \"iters\": {iters}, \"ref_ratio\": {ratio:.4} }}")
            })
            .collect();
        let counters: Vec<String> = self
            .counters
            .iter()
            .map(|(key, value)| format!("    \"{key}\": {value}"))
            .collect();
        format!(
            "{{\n  \"schema\": \"peertrust-quickbench-v1\",\n  \"scenarios\": {{\n{}\n  }},\n  \"counters\": {{\n{}\n  }}\n}}\n",
            scenarios.join(",\n"),
            counters.join(",\n")
        )
    }
}

/// The number after the first `"<key>":` in `text` — enough to read our
/// own quickbench JSON (written above) without a full parser. Dotted
/// counter keys never collide with scenario names.
fn number_after(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let tail = text[text.find(&needle)? + needle.len()..].trim_start();
    let end = tail
        .find(|c: char| !c.is_ascii_digit() && c != '.')
        .unwrap_or(tail.len());
    tail[..end].parse().ok()
}

/// `field` of the `"<scenario>": { ... }` object.
fn read_field(json: &str, scenario: &str, field: &str) -> Option<f64> {
    let object = &json[json.find(&format!("\"{scenario}\""))?..];
    number_after(&object[..object.find('}')?], field)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let arg_val = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let out_path = arg_val("--out").unwrap_or_else(|| "target/BENCH.json".to_string());
    let baseline_path = arg_val("--baseline");

    // Cold-scenario counts stay high even under `--quick`: a cold solve
    // is a few ms, and the 25% gate needs a median ratio that averages
    // over several seconds of a shared host's load. Only the batch
    // scenarios are trimmed.
    let (cold_iters, batch_iters) = (201, if quick { 3 } else { 5 });

    let mut report = Report {
        entries: Vec::new(),
        counters: Vec::new(),
    };

    let deep = closure_kb(128);
    let deep_goal = [Literal::new("reach", vec![Term::int(0), Term::var("W")])];
    let tbl_kb = closure_kb(64);
    let tbl_goal = [Literal::new("reach", vec![Term::int(0), Term::var("W")])];

    // e8: deep-chain cold solve, no tabling — the raw clause-resolution
    // hot path. e13: tabled cold solve — the table is built from scratch
    // each iteration.
    report.record("e8_deep_chain_cold", cold_iters, 128, || {
        let mut solver = Solver::new(&deep, PeerId::new("self")).with_config(engine_config(false));
        solver.solve(&deep_goal).len()
    });
    report.record("e13_tabled_cold", cold_iters, 64, || {
        let mut solver = Solver::new(&tbl_kb, PeerId::new("self")).with_config(engine_config(true));
        solver.solve(&tbl_goal).len()
    });

    // Deterministic work counters for the cold scenarios.
    let mut replay = Solver::new(&deep, PeerId::new("self")).with_config(engine_config(false));
    assert_eq!(replay.solve(&deep_goal).len(), 128);
    report.count_value("e8_deep_chain_cold", "steps", replay.stats().steps);
    let mut replay = Solver::new(&tbl_kb, PeerId::new("self")).with_config(engine_config(true));
    assert_eq!(replay.solve(&tbl_goal).len(), 64);
    report.count_value("e13_tabled_cold", "steps", replay.stats().steps);

    // e13: warm table — answers served from a pre-populated shared table.
    let table: SharedTable = Rc::new(RefCell::new(AnswerTable::new()));
    {
        let mut warmer = Solver::new(&tbl_kb, PeerId::new("self"))
            .with_config(engine_config(true))
            .with_table(table.clone());
        assert_eq!(warmer.solve(&tbl_goal).len(), 64);
    }
    report.record("e13_tabled_warm", cold_iters, 64, || {
        let mut solver = Solver::new(&tbl_kb, PeerId::new("self"))
            .with_config(engine_config(true))
            .with_table(table.clone());
        solver.solve(&tbl_goal).len()
    });

    // e14: small negotiation batch — ensures the end-to-end stack
    // (sessions, transport, scheduler) stays within noise.
    let grid = throughput_grid(4, 2, 4);
    report.record("e14_batch", batch_iters, 8, || {
        let cfg = BatchConfig {
            workers: 2,
            ..BatchConfig::default()
        };
        let rep = negotiate_batch(&grid.peers, &grid.jobs, &cfg, &Telemetry::disabled());
        rep.stats.successes
    });

    // e17: a cyclic delegation mesh batched through the GEM
    // distributed-tabling fixpoint — the classical driver refuses
    // this workload, so the scenario times the loop-resolution lane
    // end to end (loop closure, answer rounds, completion).
    let mesh = delegation_mesh(3, 2, false);
    let mesh_jobs: Vec<BatchJob> = (0..4)
        .map(|_| BatchJob::new(mesh.peer_ids[1], mesh.responder, mesh.goal.clone()))
        .collect();
    report.record("e17_gem_mesh", batch_iters, 4, || {
        let cfg = BatchConfig {
            workers: 2,
            session: SessionConfig {
                gem: true,
                gem_max_rounds: 32,
                ..SessionConfig::default()
            },
            ..BatchConfig::default()
        };
        let rep = negotiate_batch(&mesh.peers, &mesh_jobs, &cfg, &Telemetry::disabled());
        rep.stats.successes
    });

    // e18: the open-loop serving engine over the Zipf workload at an
    // offered rate past saturation — times clone-free session
    // startup, the virtual-time admission controller, and load
    // shedding end to end. The admission decisions are deterministic,
    // so the admitted count doubles as the scenario checksum and the
    // serving counters are asserted exactly against the baseline.
    let serving = serving_workload(4, 2, 64, 1.1, 18);
    let serve_cfg = ServeConfig {
        mean_interarrival_ticks: 4.0,
        servers: 2,
        queue_cap: 4,
        deadline_ticks: 128,
        workers: 2,
        ..ServeConfig::default()
    };
    let serve_once = || {
        let rep = serve_open_loop(
            &serving.peers,
            &serving.jobs,
            &serve_cfg,
            &Telemetry::disabled(),
        );
        assert_eq!(rep.stats.base_clones, 0, "serving must stay clone-free");
        rep.stats.admitted
    };
    let replay = serve_open_loop(
        &serving.peers,
        &serving.jobs,
        &serve_cfg,
        &Telemetry::disabled(),
    );
    let expect_admitted = replay.stats.admitted;
    report.record("e18_serving", batch_iters, expect_admitted, serve_once);
    report.count_value("e18_serving", "admitted", replay.stats.admitted as u64);
    report.count_value(
        "e18_serving",
        "shed",
        (replay.stats.shed_queue_full + replay.stats.shed_deadline) as u64,
    );
    report.count_value("e18_serving", "base_clones", replay.stats.base_clones);
    report.count_value(
        "e18_serving",
        "max_queue_depth",
        replay.stats.max_queue_depth as u64,
    );
    report.count_value("e18_serving", "makespan_ticks", replay.stats.makespan_ticks);
    report.count_value("e18_serving", "wait_p99", replay.stats.wait.p99);
    report.count_value("e18_serving", "latency_p99", replay.stats.latency.p99);

    let json = report.to_json();
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create output dir");
        }
    }
    std::fs::write(&out_path, &json).expect("write bench json");
    println!("wrote {out_path}");

    let failed = baseline_path.is_some_and(|bp| baseline_sweep(&report, &bp));
    if failed {
        std::process::exit(1);
    }
}

/// Compare this run against the committed quickbench baseline. Returns
/// `true` if a gate failed.
///
/// The scenarios gated at 25% are the cold e8/e13 solves — the tracked
/// solver metrics, measured over full iteration counts — and they are
/// gated on their reference ratio, not on absolute time: an absolute
/// baseline only holds on the host that wrote it. Warm and batch medians
/// are reported but not gated: their lower iteration counts make a hard
/// 25% bound flaky. `e17_gem_mesh` and `e18_serving` share the low batch
/// iteration counts, so they get a generous 3x guard instead — loose
/// enough for scheduler-batch noise and host speed, tight enough to
/// catch a catastrophic regression (e.g. every SCC grinding to the round
/// limit).
fn baseline_sweep(report: &Report, path: &str) -> bool {
    const GATED_25PCT: &[&str] = &["e8_deep_chain_cold", "e13_tabled_cold"];
    const GATED_3X: &[&str] = &["e17_gem_mesh", "e18_serving"];
    let mut failed = false;
    let base =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read baseline {path}: {e}"));
    for &(name, new_ns, _, new_ref) in &report.entries {
        let Some(base_ns) = read_field(&base, name, "median_ns") else {
            continue;
        };
        let ratio = new_ns / base_ns;
        println!("{name} vs baseline: {new_ns:.0} ns / {base_ns:.0} ns = {ratio:.3}x");
        let (ratio, budget) = if GATED_25PCT.contains(&name) {
            let Some(base_ref) = read_field(&base, name, "ref_ratio") else {
                eprintln!("FAIL: {name} has no ref_ratio in {path}");
                failed = true;
                continue;
            };
            println!(
                "{name} vs baseline, host-relative: {new_ref:.3} / {base_ref:.3} = {:.3}x",
                new_ref / base_ref
            );
            (new_ref / base_ref, 1.25)
        } else if GATED_3X.contains(&name) {
            (ratio, 3.0)
        } else {
            continue;
        };
        if ratio > budget {
            eprintln!("FAIL: {name} regressed >{budget:.2}x vs {path}");
            failed = true;
        }
    }
    // Work counters are deterministic — assert them *exactly*.
    // Timing noise can't hide here: one extra resolution step or one
    // changed admission decision against the committed baseline is a
    // failure.
    let mut checked = 0;
    for (key, value) in &report.counters {
        let Some(base_value) = number_after(&base, key) else {
            continue;
        };
        checked += 1;
        if *value as f64 != base_value {
            eprintln!("FAIL: counter {key} = {value}, baseline {path} says {base_value}");
            failed = true;
        }
    }
    println!("baseline sweep complete ({checked} counters matched exactly)");
    failed
}
