//! One workload's run: set-up, the closed-loop measured window, and the
//! separate traced run that yields the per-layer metrics.
//!
//! The loop is closed with one worker: the next negotiation starts when
//! the previous one finishes. Each job takes a copy-on-write snapshot of
//! a frozen peer map, builds `SimNetwork::for_job(seed, i)` and runs the
//! negotiation — the per-job path the batch and serving executors take.
//! Checks run between negotiations, outside the timed intervals.

use crate::stats::{median, percentile, tail_percentile};
use crate::trace::{chrome_json, decompose, Interval, WallClock};
use crate::workloads::{build, Job, Workload};
use peertrust_crypto::verify_signed_rule;
use peertrust_negotiation::{
    negotiate_batch, serve_open_loop, BatchConfig, BatchJob, DisclosedItem, NegotiationOutcome,
    PeerMap, ServeConfig, ServeDecision,
};
use peertrust_net::{NegotiationId, SimNetwork};
use peertrust_telemetry::Telemetry;
use serde_json::{Number, Value};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Set-up is timed this many times before the window, then once more
/// between blocks every `SETUP_SPACING_SECS`, so that a slow spell of the
/// host at start-up does not decide `setup_s`, the median build.
const SETUP_BUILDS: usize = 5;
const SETUP_SPACING_SECS: f64 = 0.5;
/// The exact per-negotiation counters are taken over this prefix of the
/// schedule, so they do not depend on how many jobs a window held.
const EXACT_PREFIX: usize = 1024;
const WARMUP_SECS: f64 = 1.0;
/// Timings are summarized per block of this many consecutive
/// negotiations (enough for a p99 with ten samples beyond it). Each
/// timing metric is then the block at the quicker quartile: on a shared
/// host, neighbours slow every block they overlap (periods of seconds,
/// up to ~1.7x), and never speed one up, so the quicker quartile stays
/// put unless three quarters of a window is disturbed.
const BLOCK: usize = 1000;
/// The traced run takes the first jobs of the schedule, up to this many
/// or this long, whichever comes first.
const TRACED_JOBS: usize = 2000;
const TRACED_SECS: f64 = 3.0;
/// Jobs written to the Chrome trace file.
const CHROME_JOBS: usize = 200;
/// Jobs fed to the serving and batch executors on `zipf_serve`.
const EXECUTOR_JOBS: usize = 1024;

pub struct Settings {
    pub seed: u64,
    pub secs: f64,
    pub trace: bool,
    pub out_dir: PathBuf,
}

#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
    /// Listed in BENCHMARK.json and printed on the result line. The rest
    /// are reported only: wall-clock tails that do not repeat on a shared
    /// host, always-zero checks, and metrics only some workloads have.
    pub gated: bool,
}

fn gated(name: &str, unit: &str, value: f64) -> Metric {
    Metric {
        name: name.to_string(),
        unit: unit.to_string(),
        value,
        gated: true,
    }
}

fn shown(name: &str, unit: &str, value: f64) -> Metric {
    Metric {
        gated: false,
        ..gated(name, unit, value)
    }
}

/// Everything one workload run measured.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Report {
    pub workload: String,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Vec<Metric>,
    /// Only `snapshot.base_clones` without a traced run.
    pub per_layer: Vec<Metric>,
    pub notes: Vec<String>,
}

/// Running correctness tally over every negotiation of the run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    base_clones: u64,
    errors: Vec<String>,
}

impl Tally {
    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(msg);
        }
    }

    /// Check one finished job. `peers` is the job's snapshot, which must
    /// still share every frozen KB base with `base`.
    fn check(
        &mut self,
        i: usize,
        job: &Job,
        out: &NegotiationOutcome,
        peers: &PeerMap,
        base: &PeerMap,
    ) {
        if !peers.shares_frozen_bases_with(base) {
            self.base_clones += 1;
        }
        if let Err(e) = job.expect.check(out) {
            self.fail(format!("job {i} ({}): {e}", job.goal));
        }
    }
}

/// Run workload `name`; `None` if there is no such workload.
pub fn run(name: &str, s: &Settings) -> Option<Report> {
    let mut setup = Vec::new();
    let mut built = None;
    while setup.len() < SETUP_BUILDS {
        drop(built.take());
        let t = Instant::now();
        built = Some(build(name, s.seed)?);
        setup.push(t.elapsed().as_secs_f64());
    }
    let w = built.expect("at least one build");
    let mut tally = Tally::default();
    let mut exact: Vec<[f64; 4]> = Vec::with_capacity(EXACT_PREFIX);

    let mut i = 0;
    let warmup = Duration::from_secs_f64(s.secs.min(WARMUP_SECS));
    let t0 = Instant::now();
    while t0.elapsed() < warmup {
        run_job(&w, i, s.seed, &mut tally, &mut exact);
        i += 1;
    }
    // Read before the builds spread over the window (each a second copy
    // of the inputs) and before the traced run (telemetry and deeper
    // stacks): neither is part of the workload's footprint.
    let rss = gated("peak_rss_mb", "MB", peak_rss_mb());
    // Per block: negotiations per busy second, p50 and tail, in ns.
    let mut blocks: Vec<[f64; 3]> = Vec::new();
    let mut block: Vec<f64> = Vec::with_capacity(BLOCK);
    let window = Duration::from_secs_f64(s.secs);
    let first_measured = i;
    let t1 = Instant::now();
    let mut last_build = t1;
    while t1.elapsed() < window || i < EXACT_PREFIX {
        if let Some(ns) = run_job(&w, i, s.seed, &mut tally, &mut exact) {
            block.push(ns as f64);
        }
        i += 1;
        if block.len() == BLOCK {
            blocks.push(summarize(&mut block));
            block.clear();
            if last_build.elapsed().as_secs_f64() >= SETUP_SPACING_SECS {
                let t = Instant::now();
                drop(build(name, s.seed));
                setup.push(t.elapsed().as_secs_f64());
                last_build = Instant::now();
            }
        }
    }
    // A window too short for one full block falls back to what it has.
    let block_len = if blocks.is_empty() {
        block.len()
    } else {
        BLOCK
    };
    if blocks.is_empty() && !block.is_empty() {
        blocks.push(summarize(&mut block));
    }
    let over_blocks = |k: usize, p: f64| {
        let mut v: Vec<f64> = blocks.iter().map(|b| b[k]).collect();
        v.sort_by(f64::total_cmp);
        percentile(&v, p)
    };
    let throughput = over_blocks(0, 75.0);

    let column = |k: usize| exact.iter().map(|e| e[k]).collect::<Vec<f64>>();
    let mean = |v: Vec<f64>| v.iter().sum::<f64>() / v.len() as f64;
    let mut ticks = column(3);
    ticks.sort_by(f64::total_cmp);
    let ticks_tail = tail_percentile(ticks.len()).unwrap_or(100.0);

    let mut report = Report {
        workload: w.name.to_string(),
        end_to_end: vec![
            gated("setup_s", "s", median(&setup)),
            gated("throughput_nps", "1/s", throughput),
            gated("latency_p50_us", "us", over_blocks(1, 25.0) / 1e3),
            shown("latency_p99_us", "us", over_blocks(2, 25.0) / 1e3),
            gated("msgs_per_neg", "msgs/neg", mean(column(0))),
            gated("bytes_per_neg", "bytes/neg", mean(column(1))),
            gated("creds_per_neg", "creds/neg", mean(column(2))),
            gated("net_ticks_p99", "hops", percentile(&ticks, ticks_tail)),
        ],
        notes: vec![
            format!(
                "timings: quicker quartile of {} blocks of {block_len} negotiations ({} measured, tail at p{})",
                blocks.len(),
                i - first_measured,
                tail_percentile(block_len).unwrap_or(100.0)
            ),
            format!(
                "set-up: median of {} builds; exact counters over the first {} jobs (ticks tail at p{ticks_tail})",
                setup.len(),
                exact.len()
            ),
        ],
        ..Report::default()
    };

    if s.trace {
        traced(&w, s, 1e9 / throughput, &mut tally, &mut report);
        if w.name == "zipf_serve" {
            executors(&w, s, &mut tally, &mut report);
        }
    }
    report.end_to_end.extend([
        rss,
        shown(
            "error_share",
            "share",
            tally.failed as f64 / tally.attempted.max(1) as f64,
        ),
    ]);
    report.per_layer.push(shown(
        "snapshot.base_clones",
        "count",
        tally.base_clones as f64,
    ));
    report.correct = tally.failed == 0 && tally.base_clones == 0;
    report.attempted = tally.attempted;
    report.failed = tally.failed;
    report.notes.extend(tally.errors);
    Some(report)
}

/// Negotiations per busy second, p50 and tail latency (ns) of one block
/// of timings.
fn summarize(block: &mut [f64]) -> [f64; 3] {
    let busy_s = block.iter().sum::<f64>() / 1e9;
    block.sort_by(f64::total_cmp);
    let tail = tail_percentile(block.len()).unwrap_or(100.0);
    [
        block.len() as f64 / busy_s,
        percentile(block, 50.0),
        percentile(block, tail),
    ]
}

/// One timed negotiation: snapshot through outcome. Returns its wall time
/// in ns, or `None` if it panicked.
fn run_job(
    w: &Workload,
    i: usize,
    seed: u64,
    tally: &mut Tally,
    exact: &mut Vec<[f64; 4]>,
) -> Option<u64> {
    let job = w.job(i);
    let base = &w.bases[job.base];
    tally.attempted += 1;
    let ran = catch_unwind(AssertUnwindSafe(|| {
        let t = Instant::now();
        let mut peers = base.clone();
        let mut net = SimNetwork::for_job(seed, i);
        let out = job.strategy.run(
            &mut peers,
            &mut net,
            NegotiationId(i as u64 + 1),
            job.requester,
            job.responder,
            job.goal.clone(),
        );
        (t.elapsed().as_nanos() as u64, peers, out)
    }));
    let Ok((ns, peers, out)) = ran else {
        tally.fail(format!("job {i} ({}): panicked", job.goal));
        return None;
    };
    tally.check(i, job, &out, &peers, base);
    if i < EXACT_PREFIX {
        exact.push([
            out.messages as f64,
            out.bytes as f64,
            out.credential_count() as f64,
            out.elapsed_ticks as f64,
        ]);
    }
    Some(ns)
}

/// The span name → layer map. Benchmark spans are prefixed `ptbench.`.
fn layer(span: &str, eager: bool) -> &'static str {
    match span {
        "ptbench.job" => "harness",
        "ptbench.snapshot" => "snapshot",
        "ptbench.crypto" => "crypto",
        "ptbench.codec" => "codec",
        "engine.solve" => "engine",
        // The eager driver emits no engine or request spans, so its
        // negotiation span's self time is all of it.
        "negotiation" if eager => "eager",
        "negotiation" | "request" => "session",
        _ => "other",
    }
}

/// The traced run: the first jobs of the same schedule with a wall-clock
/// recorder attached to the negotiation and the network, plus replays of
/// signature verification and message encoding over each outcome.
fn traced(w: &Workload, s: &Settings, untraced_ns: f64, tally: &mut Tally, report: &mut Report) {
    let clock = WallClock::new();
    let tele = Telemetry::with_recorder(clock.recorder());
    let cap = Duration::from_secs_f64(s.secs.min(TRACED_SECS));
    let start = Instant::now();
    let mut self_ns: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut job_ns = 0u64;
    let (mut verifies, mut queries, mut disclosures, mut refusals) = (0u64, 0u64, 0u64, 0u64);
    let mut chrome: Vec<(usize, &'static str, Interval)> = Vec::new();
    let mut n = 0;
    while n < TRACED_JOBS && start.elapsed() < cap {
        let i = n;
        n += 1;
        let job = w.job(i);
        let base = &w.bases[job.base];
        let nid = i as u64 + 1;
        tally.attempted += 1;
        let ran = catch_unwind(AssertUnwindSafe(|| {
            let span = tele.span_start(0, nid, "ptbench.job", vec![]);
            let snap = tele.span_start(0, nid, "ptbench.snapshot", vec![]);
            let mut peers = base.clone();
            tele.span_end(0, snap, nid, vec![]);
            let mut net = SimNetwork::for_job(s.seed, i)
                .with_trace()
                .with_telemetry(tele.clone());
            let out = job.strategy.run_traced(
                &mut peers,
                &mut net,
                NegotiationId(nid),
                job.requester,
                job.responder,
                job.goal.clone(),
                &tele,
            );
            tele.span_end(0, span, nid, vec![]);

            let span = tele.span_start(0, nid, "ptbench.crypto", vec![]);
            let (mut checked, mut bad) = (0u64, 0u64);
            for d in &out.disclosures {
                if let DisclosedItem::SignedRule(sr) = &d.item {
                    let registry = &base.get(d.to).expect("recipient exists").registry;
                    checked += 1;
                    bad += u64::from(black_box(verify_signed_rule(registry, sr)).is_err());
                }
            }
            tele.span_end(0, span, nid, vec![]);

            let span = tele.span_start(0, nid, "ptbench.codec", vec![]);
            let bytes: u64 = net
                .trace()
                .iter()
                .map(|e| black_box(e.message.encode()).len() as u64)
                .sum();
            tele.span_end(0, span, nid, vec![]);
            (peers, out, checked, bad, bytes)
        }));
        let marks = clock.take();
        let Ok((peers, out, checked, bad, bytes)) = ran else {
            tally.fail(format!("traced job {i} ({}): panicked", job.goal));
            continue;
        };
        tally.check(i, job, &out, &peers, base);
        if bad > 0 {
            tally.fail(format!(
                "traced job {i}: {bad} disclosed signatures fail to verify"
            ));
        }
        if bytes != out.bytes {
            tally.fail(format!(
                "traced job {i}: re-encoded {bytes} bytes, outcome counted {}",
                out.bytes
            ));
        }
        verifies += checked;
        queries += out.queries;
        disclosures += out.disclosures.len() as u64;
        refusals += out.refusals.len() as u64;

        let eager = job.strategy == peertrust_negotiation::Strategy::Eager;
        let d = decompose(&marks);
        for (name, ns) in &d.self_ns {
            *self_ns.entry(layer(name, eager)).or_default() += ns;
        }
        job_ns += d.total_ns.get("ptbench.job").copied().unwrap_or(0);
        if i < CHROME_JOBS {
            chrome.extend(
                d.intervals
                    .into_iter()
                    .map(|iv| (i, layer(&iv.name, eager), iv)),
            );
        }
    }

    let nf = n.max(1) as f64;
    let us = |layer: &str| self_ns.get(layer).copied().unwrap_or(0) as f64 / nf / 1e3;
    let snap = tele.metrics().expect("telemetry enabled").snapshot();
    let counter = |k: &str| snap.counters.get(k).copied().unwrap_or(0) as f64;
    let solves = snap
        .histograms
        .get("engine.solutions")
        .map_or(0, |h| h.count) as f64;
    let job_us = job_ns as f64 / nf / 1e3;
    let crypto_us = us("crypto");
    let memo_hits = counter("negotiation.cache.session_hits");
    let memo_all = memo_hits + counter("negotiation.cache.misses");
    report.per_layer = vec![
        gated("engine.self_us", "us/neg", us("engine")),
        shown("engine.self_share", "share", us("engine") / job_us),
        gated("engine.solves", "count/neg", solves / nf),
        gated("engine.steps", "count/neg", counter("engine.steps") / nf),
        gated(
            "engine.rule_tries",
            "count/neg",
            counter("engine.rule_tries") / nf,
        ),
        gated(
            "engine.tries_per_step",
            "ratio",
            counter("engine.rule_tries") / counter("engine.steps").max(1.0),
        ),
        gated(
            "engine.trail_binds",
            "count/neg",
            counter("engine.trail.binds") / nf,
        ),
        // Zero until a change makes the compiled lane the per-job path.
        shown(
            "engine.heap_cells",
            "count/neg",
            counter("engine.heap.cells") / nf,
        ),
        shown(
            "engine.loop_prunes",
            "count/neg",
            counter("engine.loop_prunes") / nf,
        ),
        gated("session.self_us", "us/neg", us("session")),
        gated("session.queries", "count/neg", queries as f64 / nf),
        gated("session.disclosures", "count/neg", disclosures as f64 / nf),
        shown("session.refusals", "count/neg", refusals as f64 / nf),
        shown(
            "session.memo_hit_share",
            "share",
            if memo_all > 0.0 {
                memo_hits / memo_all
            } else {
                0.0
            },
        ),
        gated("crypto.verifies", "count/neg", verifies as f64 / nf),
        gated(
            "crypto.verify_us",
            "us",
            crypto_us * nf / (verifies.max(1) as f64),
        ),
        gated("crypto.us_per_neg", "us/neg", crypto_us),
        gated("codec.encode_us_per_neg", "us/neg", us("codec")),
        gated("snapshot.clone_us", "us/neg", us("snapshot")),
        shown("harness.self_us", "us/neg", us("harness")),
        shown("trace.job_us", "us/neg", job_us),
        gated(
            "trace.overhead_share",
            "share",
            job_us * 1e3 / untraced_ns - 1.0,
        ),
    ];
    if w.name == "paper_mix" {
        report
            .per_layer
            .push(shown("eager.self_us", "us/neg", us("eager")));
    }
    report.notes.push(format!(
        "traced run: {n} negotiations, first {} in trace_{}.json",
        n.min(CHROME_JOBS),
        w.name
    ));
    let path = s.out_dir.join(format!("trace_{}.json", w.name));
    if let Err(e) = std::fs::create_dir_all(&s.out_dir)
        .and_then(|()| std::fs::write(&path, chrome_json(&chrome)))
    {
        report
            .notes
            .push(format!("could not write {}: {e}", path.display()));
    }
}

/// The executor layer on `zipf_serve`: `serve_open_loop` at offered rates
/// of one job per 2 and per 4 ticks, and `negotiate_batch`, each with one
/// worker over the first jobs of the schedule.
fn executors(w: &Workload, s: &Settings, tally: &mut Tally, report: &mut Report) {
    let base = &w.bases[0];
    let jobs: Vec<BatchJob> = (0..EXECUTOR_JOBS)
        .map(|i| {
            let j = w.job(i);
            BatchJob::new(j.requester, j.responder, j.goal.clone())
        })
        .collect();
    let mut check_all = |outcomes: &[NegotiationOutcome], ran: &dyn Fn(usize) -> bool| {
        for (k, out) in outcomes.iter().enumerate().filter(|(k, _)| ran(*k)) {
            tally.attempted += 1;
            if let Err(e) = w.job(k).expect.check(out) {
                tally.fail(format!("executor job {k}: {e}"));
            }
        }
    };
    let serve = |mean: f64| {
        let cfg = ServeConfig {
            mean_interarrival_ticks: mean,
            servers: 4,
            queue_cap: 16,
            deadline_ticks: 64,
            arrival_seed: s.seed,
            net_seed: s.seed,
            workers: 1,
            ..ServeConfig::default()
        };
        let t = Instant::now();
        let rep = serve_open_loop(base, &jobs, &cfg, &Telemetry::disabled());
        (rep, t.elapsed())
    };
    let (r2, _) = serve(2.0);
    let (r4, wall4) = serve(4.0);
    for rep in [&r2, &r4] {
        check_all(&rep.outcomes, &|k| {
            rep.decisions[k] == ServeDecision::Admitted
        });
    }
    let batch_cfg = BatchConfig {
        workers: 1,
        net_seed: s.seed,
        ..BatchConfig::default()
    };
    let batch = negotiate_batch(base, &jobs, &batch_cfg, &Telemetry::disabled());
    check_all(&batch.outcomes, &|_| true);
    tally.base_clones += r2.stats.base_clones + r4.stats.base_clones;
    let r2s = &r2.stats;
    report.per_layer.extend([
        shown(
            "serve.shed_share.r2",
            "share",
            (r2s.shed_queue_full + r2s.shed_deadline) as f64 / r2s.offered as f64,
        ),
        shown("serve.wait_p99_ticks.r4", "ticks", r4.stats.wait.p99 as f64),
        shown(
            "serve.latency_p99_ticks.r4",
            "ticks",
            r4.stats.latency.p99 as f64,
        ),
        shown(
            "serve.base_clones",
            "count",
            (r2.stats.base_clones + r4.stats.base_clones) as f64,
        ),
        shown(
            "serve.wall_us_per_job",
            "us",
            wall4.as_secs_f64() * 1e6 / r4.stats.offered as f64,
        ),
        shown(
            "scheduler.batch_nps",
            "1/s",
            batch.stats.negotiations_per_sec,
        ),
    ]);
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kb / 1024.0)
        })
        .unwrap_or(f64::NAN)
}

/// `{name: {"value", "unit"}}`, plus `"gated"` when `flag` is set.
fn metrics_json<'a>(metrics: impl Iterator<Item = &'a Metric>, flag: bool) -> Value {
    Value::Object(
        metrics
            .map(|m| {
                let mut fields = vec![
                    ("value".into(), Value::Number(Number::F64(m.value))),
                    ("unit".into(), Value::String(m.unit.clone())),
                ];
                if flag {
                    fields.push(("gated".into(), Value::Bool(m.gated)));
                }
                (m.name.clone(), Value::Object(fields))
            })
            .collect(),
    )
}

fn metrics_from(v: &Value) -> Vec<Metric> {
    match v {
        Value::Object(entries) => entries
            .iter()
            .map(|(name, m)| Metric {
                name: name.clone(),
                unit: m["unit"].as_str().unwrap_or("").to_string(),
                value: m["value"].as_f64().unwrap_or(f64::NAN),
                gated: m["gated"].as_bool().unwrap_or(false),
            })
            .collect(),
        _ => Vec::new(),
    }
}

impl Report {
    pub fn find(&self, name: &str) -> Option<&Metric> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }

    /// The result line the benchmark contract asks for: the gated
    /// end-to-end metrics untraced, the gated per-layer metrics traced.
    pub fn contract_line(&self, trace: bool) -> String {
        let metrics = if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        Value::Object(vec![
            ("correct".into(), Value::Bool(self.correct)),
            (
                "attempted".into(),
                Value::Number(Number::U64(self.attempted)),
            ),
            ("failed".into(), Value::Number(Number::U64(self.failed))),
            (
                "metrics".into(),
                metrics_json(metrics.iter().filter(|m| m.gated), false),
            ),
        ])
        .to_string()
    }

    pub fn to_json(&self) -> Value {
        Value::Object(vec![
            ("workload".into(), Value::String(self.workload.clone())),
            ("correct".into(), Value::Bool(self.correct)),
            (
                "attempted".into(),
                Value::Number(Number::U64(self.attempted)),
            ),
            ("failed".into(), Value::Number(Number::U64(self.failed))),
            (
                "end_to_end".into(),
                metrics_json(self.end_to_end.iter(), true),
            ),
            (
                "per_layer".into(),
                metrics_json(self.per_layer.iter(), true),
            ),
            (
                "notes".into(),
                Value::Array(self.notes.iter().cloned().map(Value::String).collect()),
            ),
        ])
    }

    pub fn from_json(v: &Value) -> Option<Report> {
        Some(Report {
            workload: v["workload"].as_str()?.to_string(),
            correct: v["correct"].as_bool()?,
            attempted: v["attempted"].as_u64()?,
            failed: v["failed"].as_u64()?,
            end_to_end: metrics_from(&v["end_to_end"]),
            per_layer: metrics_from(&v["per_layer"]),
            notes: v["notes"]
                .as_array()
                .map(|a| {
                    a.iter()
                        .filter_map(|n| n.as_str().map(String::from))
                        .collect()
                })
                .unwrap_or_default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_round_trips() {
        let r = Report {
            workload: "deep_chain".into(),
            correct: true,
            attempted: 10,
            failed: 0,
            end_to_end: vec![
                gated("latency_p50_us", "us", 1.25),
                shown("latency_p99_us", "us", 2.5),
            ],
            per_layer: vec![
                gated("engine.self_us", "us/neg", 0.5),
                shown("session.refusals", "count/neg", 0.0),
            ],
            notes: vec!["n".into()],
        };
        let back = Report::from_json(&serde_json::from_str(&r.to_json().to_string()).unwrap());
        assert_eq!(back, Some(r.clone()));
        let line: Value = serde_json::from_str(&r.contract_line(false)).unwrap();
        assert_eq!(
            line["metrics"]["latency_p50_us"]["value"].as_f64(),
            Some(1.25)
        );
        assert_eq!(
            line["metrics"]["latency_p99_us"],
            Value::Null,
            "reported only"
        );
        assert_eq!(line["attempted"], 10u64);
        let line: Value = serde_json::from_str(&r.contract_line(true)).unwrap();
        assert_eq!(line["metrics"]["engine.self_us"]["unit"], "us/neg");
        assert_eq!(line["metrics"]["session.refusals"], Value::Null);
    }
}
