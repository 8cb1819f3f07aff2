//! Multi-core batch negotiation scheduler.
//!
//! [`negotiate_batch`] runs a workload of independent negotiations — one
//! `(requester, responder, goal)` triple per job — across a fixed pool
//! of worker threads, and returns their outcomes **in submission order**
//! regardless of which worker finished when.
//!
//! Determinism (DESIGN.md §4d): each job gets
//!
//! * its own *pristine* snapshot of the peer map. The batch freezes the
//!   map once at setup ([`PeerMap::freeze`], DESIGN.md §4i, §4n), so the
//!   peers, their rule stores and signed-rule maps live behind `Arc`s
//!   and the per-job snapshot is a copy-on-write view: cloning costs one
//!   `Arc` bump, and a job copies only the peers it writes. Jobs never
//!   observe each other's session mutations — disclosures received
//!   mid-session land in the clone's private overlay;
//! * its own [`SimNetwork`] seeded from `(net_seed, job index)` via
//!   [`SimNetwork::for_job`], so the latency/ordering stream depends
//!   only on the job, never on the executing thread;
//! * a [`NegotiationId`] equal to `job index + 1`.
//!
//! With no shared cache, a batch is therefore bit-identical across runs
//! *and worker counts*. With a shared [`SharedRemoteAnswerCache`], the
//! negotiated results (success, granted literals, disclosure contents)
//! are still scheduling-independent — the cache only ever returns what
//! recomputation would produce — but transport *counters* (messages,
//! bytes) can differ with cache warmth, which varies with interleaving.
//!
//! Telemetry: each worker records into a private registry (no cross-core
//! lock traffic on the hot path); the registries merge into the caller's
//! at join, and batch-level `negotiation.throughput.*` series are
//! recorded on top.

use crate::answer_cache::{CacheStats, SharedRemoteAnswerCache};
use crate::outcome::NegotiationOutcome;
use crate::resilience::{ResilienceConfig, ResilienceReport, ResilienceStats};
use crate::session::{negotiate, NegotiateOptions, PeerMap, SessionConfig};
use peertrust_core::{Literal, PeerId};
use peertrust_net::faults::FaultPlan;
use peertrust_net::message::NegotiationId;
use peertrust_net::sim::SimNetwork;
use peertrust_telemetry::{Recorder, SpanId, Telemetry, TraceEvent};
use std::borrow::Cow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One unit of work: `requester` asks `responder` to establish `goal`.
#[derive(Clone, Debug)]
pub struct BatchJob {
    pub requester: PeerId,
    pub responder: PeerId,
    pub goal: Literal,
}

impl BatchJob {
    pub fn new(requester: PeerId, responder: PeerId, goal: Literal) -> BatchJob {
        BatchJob {
            requester,
            responder,
            goal,
        }
    }
}

/// Fault-injection grid for a batch: every job runs against its own
/// deterministic reseeding of `plan` (via [`FaultPlan::for_job`]) with
/// the resilience layer supervising deliveries. Because the per-job plan
/// depends only on the job index, a faulty batch stays bit-identical
/// across runs and worker counts, exactly like a fault-free one.
#[derive(Clone)]
pub struct BatchFaults {
    /// Base fault schedule; job `i` runs under `plan.for_job(i)`.
    pub plan: FaultPlan,
    /// Retry/timeout policy for every session in the batch.
    pub resilience: ResilienceConfig,
}

/// Batch-level configuration.
#[derive(Clone)]
pub struct BatchConfig {
    /// Worker threads. `0` is treated as `1`.
    pub workers: usize,
    /// Per-session configuration, cloned into every job.
    pub session: SessionConfig,
    /// Base seed for the per-job simulated networks.
    pub net_seed: u64,
    /// Cross-negotiation answer cache shared by every worker. `None`
    /// runs each job cold (fully deterministic transport counters).
    pub shared_cache: Option<SharedRemoteAnswerCache>,
    /// Fault grid: when set, every job's network is wrapped in a fault
    /// lane and driven resiliently. `None` is the historical fault-free
    /// path, bit-identical to before this field existed.
    pub faults: Option<BatchFaults>,
}

impl Default for BatchConfig {
    fn default() -> BatchConfig {
        BatchConfig {
            workers: 1,
            session: SessionConfig::default(),
            net_seed: 7,
            shared_cache: None,
            faults: None,
        }
    }
}

/// Aggregate measurements of one batch run.
#[derive(Clone, Debug, Default)]
pub struct BatchStats {
    /// Jobs executed.
    pub jobs: usize,
    /// Jobs whose negotiation succeeded.
    pub successes: usize,
    /// Worker threads used.
    pub workers: usize,
    /// Wall-clock time of the whole batch.
    pub wall: Duration,
    /// Negotiations per wall-clock second.
    pub negotiations_per_sec: f64,
    /// Per-worker busy time (time spent inside jobs, not idle/queueing).
    pub worker_busy: Vec<Duration>,
    /// Mean worker utilization over the batch wall time, in percent.
    pub utilization_pct: f64,
    /// Shared-cache counter deltas for this batch (zeroes when no cache).
    pub cache: CacheStats,
    /// Jobs whose resilience layer abandoned no delivery. Equals `jobs`
    /// when no fault grid is configured.
    pub converged: usize,
    /// Aggregated resilience counters across every job (zeroes without a
    /// fault grid).
    pub resilience: ResilienceStats,
}

/// Outcomes (in submission order) plus batch statistics.
pub struct BatchReport {
    pub outcomes: Vec<NegotiationOutcome>,
    /// Per-job resilience reports, aligned with `outcomes`; `None`
    /// entries when the batch ran without a fault grid.
    pub resilience: Vec<Option<ResilienceReport>>,
    pub stats: BatchStats,
}

/// Run every job in `jobs` across `cfg.workers` threads. See the module
/// docs for the isolation and determinism model.
pub fn negotiate_batch(
    peers: &PeerMap,
    jobs: &[BatchJob],
    cfg: &BatchConfig,
    telemetry: &Telemetry,
) -> BatchReport {
    let workers = cfg.workers.max(1).min(jobs.len().max(1));
    let peers = &*frozen(peers);
    let cache_before = cfg
        .shared_cache
        .as_ref()
        .map(|c| c.stats())
        .unwrap_or_default();
    let shared = NegotiateOptions {
        session: cfg.session.clone(),
        cache: cfg.shared_cache.clone(),
        resilience: cfg.faults.as_ref().map(|f| f.resilience.clone()),
        telemetry: telemetry.clone(),
    };
    let plan = cfg.faults.as_ref().map(|f| &f.plan);

    let next_job = AtomicUsize::new(0);
    #[allow(clippy::type_complexity)]
    let slots: Mutex<Vec<Option<(NegotiationOutcome, Option<ResilienceReport>)>>> =
        Mutex::new((0..jobs.len()).map(|_| None).collect());
    let started = Instant::now();

    let per_worker: Vec<(Duration, Worker)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let next_job = &next_job;
                let slots = &slots;
                let shared = &shared;
                scope.spawn(move || {
                    let worker = Worker::new(shared);
                    let mut busy = Duration::ZERO;
                    loop {
                        let idx = next_job.fetch_add(1, Ordering::Relaxed);
                        let Some(job) = jobs.get(idx) else {
                            break;
                        };
                        let job_started = Instant::now();
                        let (_, outcome, report) =
                            run_job(peers, job, idx, cfg.net_seed, plan, &worker.opts);
                        busy += job_started.elapsed();
                        slots.lock().expect("slot lock")[idx] = Some((outcome, report));
                    }
                    (busy, worker)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    });

    let wall = started.elapsed();
    let (outcomes, resilience): (Vec<NegotiationOutcome>, Vec<Option<ResilienceReport>>) = slots
        .into_inner()
        .expect("slot lock")
        .into_iter()
        .map(|o| o.expect("every job filled its slot"))
        .unzip();

    let worker_busy: Vec<Duration> = per_worker.iter().map(|(busy, _)| *busy).collect();
    merge_workers(telemetry, per_worker.into_iter().map(|(_, worker)| worker));

    let successes = outcomes.iter().filter(|o| o.success).count();
    let busy_total: Duration = worker_busy.iter().sum();
    let wall_secs = wall.as_secs_f64();
    let negotiations_per_sec = if wall_secs > 0.0 {
        jobs.len() as f64 / wall_secs
    } else {
        0.0
    };
    let utilization_pct = if wall_secs > 0.0 && workers > 0 {
        100.0 * busy_total.as_secs_f64() / (wall_secs * workers as f64)
    } else {
        0.0
    };
    let cache_after = cfg
        .shared_cache
        .as_ref()
        .map(|c| c.stats())
        .unwrap_or_default();
    let cache = CacheStats {
        hits: cache_after.hits - cache_before.hits,
        misses: cache_after.misses - cache_before.misses,
        inserts: cache_after.inserts - cache_before.inserts,
        invalidated: cache_after.invalidated - cache_before.invalidated,
        expired: cache_after.expired - cache_before.expired,
    };

    // Resilience rollup: without a fault grid every job trivially
    // converged (nothing could be lost).
    let converged = resilience
        .iter()
        .filter(|r| r.as_ref().map(|r| r.converged).unwrap_or(true))
        .count();
    let mut resilience_stats = ResilienceStats::default();
    for report in resilience.iter().flatten() {
        resilience_stats.retries += report.stats.retries;
        resilience_stats.timeouts += report.stats.timeouts;
        resilience_stats.duplicates_suppressed += report.stats.duplicates_suppressed;
        resilience_stats.crash_resumes += report.stats.crash_resumes;
        resilience_stats.gave_up += report.stats.gave_up;
    }

    let stats = BatchStats {
        jobs: jobs.len(),
        successes,
        workers,
        wall,
        negotiations_per_sec,
        worker_busy,
        utilization_pct,
        cache,
        converged,
        resilience: resilience_stats,
    };
    flush_throughput_metrics(telemetry, &stats);
    if cfg.faults.is_some() && telemetry.enabled() {
        telemetry.incr(
            "negotiation.resilience.converged_sessions",
            stats.converged as u64,
        );
        telemetry.incr(
            "negotiation.resilience.failed_sessions",
            (stats.jobs - stats.converged) as u64,
        );
    }
    BatchReport {
        outcomes,
        resilience,
        stats,
    }
}

/// `peers` frozen ([`PeerMap::freeze`]): borrowed when it already is,
/// else a frozen private copy. Both executors call this once at setup, so
/// every per-job snapshot in [`run_job`] is a copy-on-write view over the
/// shared peers (one `Arc` bump; a job copies only the peers it writes).
pub(crate) fn frozen(peers: &PeerMap) -> Cow<'_, PeerMap> {
    if peers.is_frozen() {
        return Cow::Borrowed(peers);
    }
    let mut prepared = peers.clone();
    prepared.freeze();
    Cow::Owned(prepared)
}

/// Run job `idx` the way both executors do: on its own snapshot of the
/// frozen `peers`, over its own [`SimNetwork::for_job`] stream (faulted
/// by `faults.for_job(idx)` when set), as negotiation `idx + 1`. Every
/// input depends only on the job index, never on the executing thread.
/// Returns the snapshot too, so the serving driver can check it stayed
/// copy-on-write.
pub(crate) fn run_job(
    peers: &PeerMap,
    job: &BatchJob,
    idx: usize,
    net_seed: u64,
    faults: Option<&FaultPlan>,
    opts: &NegotiateOptions,
) -> (PeerMap, NegotiationOutcome, Option<ResilienceReport>) {
    let mut snapshot = peers.clone();
    let mut net = SimNetwork::for_job(net_seed, idx);
    if let Some(plan) = faults {
        net = net.with_faults(plan.for_job(idx));
    }
    let (outcome, report) = negotiate(
        &mut snapshot,
        &mut net,
        opts,
        NegotiationId(idx as u64 + 1),
        job.requester,
        job.responder,
        job.goal.clone(),
    );
    (snapshot, outcome, report)
}

/// Buffers every event a worker's private pipeline emits, for
/// [`merge_workers`] to re-emit in a scheduling-independent order.
#[derive(Clone, Default)]
struct EventBuffer(Arc<Mutex<Vec<TraceEvent>>>);

impl Recorder for EventBuffer {
    fn record(&self, event: TraceEvent) {
        self.0.lock().expect("event buffer lock").push(event);
    }
}

/// One executor worker: the run's negotiation options with a private
/// telemetry pipeline swapped in (a registry of its own plus an event
/// buffer), so workers never contend on the caller's pipeline.
pub(crate) struct Worker {
    pub(crate) opts: NegotiateOptions,
    events: Option<EventBuffer>,
}

impl Worker {
    pub(crate) fn new(shared: &NegotiateOptions) -> Worker {
        let events = shared.telemetry.enabled().then(EventBuffer::default);
        let telemetry = match &events {
            Some(buffer) => Telemetry::with_recorder(Box::new(buffer.clone())),
            None => Telemetry::disabled(),
        };
        Worker {
            opts: NegotiateOptions {
                telemetry,
                ..shared.clone()
            },
            events,
        }
    }
}

/// Fold finished workers into the caller's pipeline: merge their metric
/// registries, then re-emit their buffered events. A negotiation never
/// spans workers, so sorting stably by negotiation id (ties broken by
/// each worker's emission order) yields a stream — and therefore a
/// reconstructed trace — that is bit-identical across runs and worker
/// counts.
pub(crate) fn merge_workers(telemetry: &Telemetry, workers: impl IntoIterator<Item = Worker>) {
    let Some(metrics) = telemetry.metrics() else {
        return;
    };
    let mut events = Vec::new();
    for worker in workers {
        if let Some(m) = worker.opts.telemetry.metrics() {
            metrics.merge(&m.snapshot());
        }
        if let Some(buffer) = worker.events {
            events.append(&mut buffer.0.lock().expect("event buffer lock"));
        }
    }
    events.sort_by_key(|e: &TraceEvent| (e.negotiation, e.seq));
    for e in events {
        telemetry.event(e.at, SpanId(e.span), e.negotiation, &e.kind, e.fields);
    }
}

/// Record the batch-level `negotiation.throughput.*` series.
fn flush_throughput_metrics(telemetry: &Telemetry, stats: &BatchStats) {
    if !telemetry.enabled() {
        return;
    }
    telemetry.incr("negotiation.throughput.sessions", stats.jobs as u64);
    telemetry.incr("negotiation.throughput.succeeded", stats.successes as u64);
    telemetry.observe("negotiation.throughput.workers", stats.workers as u64);
    telemetry.observe(
        "negotiation.throughput.sessions_per_sec",
        stats.negotiations_per_sec as u64,
    );
    telemetry.observe(
        "negotiation.throughput.wall_ms",
        stats.wall.as_millis() as u64,
    );
    for busy in &stats.worker_busy {
        telemetry.observe(
            "negotiation.throughput.worker_busy_ms",
            busy.as_millis() as u64,
        );
    }
    telemetry.observe(
        "negotiation.throughput.worker_utilization_pct",
        stats.utilization_pct as u64,
    );
    telemetry.incr("negotiation.throughput.cache.hits", stats.cache.hits);
    telemetry.incr("negotiation.throughput.cache.misses", stats.cache.misses);
    telemetry.incr("negotiation.throughput.cache.inserts", stats.cache.inserts);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::peer::NegotiationPeer;
    use peertrust_crypto::KeyRegistry;
    use peertrust_parser::parse_literal;

    /// The bilateral scenario from the session tests, repeated as a batch
    /// workload: E-Learn guards `resource` behind a UIUC credential that
    /// Alice only releases to BBB members.
    fn bilateral_batch(repeats: usize) -> (PeerMap, Vec<BatchJob>) {
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
        let goal = parse_literal(r#"resource("Alice")"#).unwrap();
        let jobs = (0..repeats)
            .map(|_| BatchJob::new(PeerId::new("Alice"), PeerId::new("E-Learn"), goal.clone()))
            .collect();
        (peers, jobs)
    }

    fn outcome_key(o: &NegotiationOutcome) -> String {
        format!(
            "{}|{}|{}|{}|{:?}",
            o.success,
            o.requester,
            o.responder,
            o.goal,
            o.granted.iter().map(|g| g.to_string()).collect::<Vec<_>>(),
        )
    }

    /// Full outcome fingerprint, transport counters included.
    fn full_key(o: &NegotiationOutcome) -> String {
        serde_json::to_string(o).unwrap()
    }

    #[test]
    fn batch_outcomes_are_ordered_and_succeed() {
        let (peers, jobs) = bilateral_batch(6);
        let report = negotiate_batch(
            &peers,
            &jobs,
            &BatchConfig::default(),
            &Telemetry::disabled(),
        );
        assert_eq!(report.outcomes.len(), 6);
        assert_eq!(report.stats.successes, 6);
        for o in &report.outcomes {
            assert!(o.success, "bilateral negotiation should succeed");
        }
    }

    #[test]
    fn uncached_batches_are_bit_identical_across_worker_counts() {
        let (peers, jobs) = bilateral_batch(8);
        let baseline: Vec<String> = negotiate_batch(
            &peers,
            &jobs,
            &BatchConfig::default(),
            &Telemetry::disabled(),
        )
        .outcomes
        .iter()
        .map(full_key)
        .collect();
        for workers in [2, 4, 8] {
            let cfg = BatchConfig {
                workers,
                ..BatchConfig::default()
            };
            let run: Vec<String> = negotiate_batch(&peers, &jobs, &cfg, &Telemetry::disabled())
                .outcomes
                .iter()
                .map(full_key)
                .collect();
            assert_eq!(run, baseline, "divergence at {workers} workers");
        }
    }

    #[test]
    fn shared_cache_preserves_negotiated_results_across_worker_counts() {
        let (peers, jobs) = bilateral_batch(8);
        let baseline: Vec<String> = negotiate_batch(
            &peers,
            &jobs,
            &BatchConfig::default(),
            &Telemetry::disabled(),
        )
        .outcomes
        .iter()
        .map(outcome_key)
        .collect();
        for workers in [1, 2, 4] {
            let cfg = BatchConfig {
                workers,
                shared_cache: Some(SharedRemoteAnswerCache::new()),
                ..BatchConfig::default()
            };
            let report = negotiate_batch(&peers, &jobs, &cfg, &Telemetry::disabled());
            let run: Vec<String> = report.outcomes.iter().map(outcome_key).collect();
            assert_eq!(run, baseline, "divergence at {workers} workers");
        }
    }

    #[test]
    fn batch_emits_throughput_metrics() {
        let (peers, jobs) = bilateral_batch(4);
        let (tele, _ring) = Telemetry::ring(1024);
        let cfg = BatchConfig {
            workers: 2,
            shared_cache: Some(SharedRemoteAnswerCache::new()),
            ..BatchConfig::default()
        };
        let report = negotiate_batch(&peers, &jobs, &cfg, &tele);
        assert_eq!(report.stats.jobs, 4);
        let metrics = tele.metrics().unwrap();
        assert_eq!(metrics.counter("negotiation.throughput.sessions"), 4);
        assert_eq!(metrics.counter("negotiation.throughput.succeeded"), 4);
        assert!(metrics
            .histogram("negotiation.throughput.wall_ms")
            .is_some());
        assert!(metrics
            .histogram("negotiation.throughput.worker_busy_ms")
            .is_some());
        // Per-worker session counters merged into the caller's registry.
        assert!(metrics.counter("negotiation.queries_issued.Alice") > 0);
    }

    #[test]
    fn faulty_batches_are_bit_identical_across_worker_counts() {
        use peertrust_net::LinkFaults;
        let (peers, jobs) = bilateral_batch(8);
        let faulty = |workers| BatchConfig {
            workers,
            faults: Some(BatchFaults {
                plan: FaultPlan::uniform(11, LinkFaults::lossy(0.2)),
                resilience: ResilienceConfig {
                    max_retries: 8,
                    query_deadline_ticks: 256,
                    ..ResilienceConfig::default()
                },
            }),
            ..BatchConfig::default()
        };
        let fingerprint = |cfg: &BatchConfig| -> Vec<String> {
            let report = negotiate_batch(&peers, &jobs, cfg, &Telemetry::disabled());
            report
                .outcomes
                .iter()
                .zip(&report.resilience)
                .map(|(o, r)| format!("{}|{}", full_key(o), serde_json::to_string(r).unwrap()))
                .collect()
        };
        let baseline = fingerprint(&faulty(1));
        for workers in [2, 4, 8] {
            assert_eq!(
                fingerprint(&faulty(workers)),
                baseline,
                "divergence at {workers} workers"
            );
        }
    }

    #[test]
    fn faulty_batch_with_retries_reaches_fault_free_outcomes() {
        use peertrust_net::LinkFaults;
        let (peers, jobs) = bilateral_batch(12);
        let clean = negotiate_batch(
            &peers,
            &jobs,
            &BatchConfig::default(),
            &Telemetry::disabled(),
        );
        let report = negotiate_batch(
            &peers,
            &jobs,
            &BatchConfig {
                workers: 4,
                faults: Some(BatchFaults {
                    plan: FaultPlan::uniform(23, LinkFaults::drops(0.2)),
                    resilience: ResilienceConfig {
                        max_retries: 8,
                        query_deadline_ticks: 256,
                        ..ResilienceConfig::default()
                    },
                }),
                ..BatchConfig::default()
            },
            &Telemetry::disabled(),
        );
        assert_eq!(report.stats.converged, report.stats.jobs);
        assert_eq!(report.stats.successes, clean.stats.successes);
        for (faulty, clean) in report.outcomes.iter().zip(&clean.outcomes) {
            assert_eq!(outcome_key(faulty), outcome_key(clean));
        }
    }

    /// Mutually recursive two-peer delegation (the session tests'
    /// `mutual_recursion_peers` scenario) as a batch workload: every job
    /// exercises the GEM fixpoint.
    fn gem_batch(repeats: usize) -> (PeerMap, Vec<BatchJob>) {
        let reg = KeyRegistry::new();
        let mut peers = PeerMap::new();
        let mut a = NegotiationPeer::new("A", reg.clone());
        a.load_program(
            r#"
            r(0) @ "A".
            r(Y) @ "A" <- r(X) @ "B" @ "B", next(X, Y).
            next(1, 2).
            next(3, 4).
            r(X) @ Y $ true <-_true r(X) @ Y.
            "#,
        )
        .unwrap();
        peers.insert(a);
        let mut b = NegotiationPeer::new("B", reg);
        b.load_program(
            r#"
            r(Y) @ "B" <- r(X) @ "A" @ "A", next(X, Y).
            next(0, 1).
            next(2, 3).
            r(X) @ Y $ true <-_true r(X) @ Y.
            "#,
        )
        .unwrap();
        peers.insert(b);
        let goal = parse_literal(r#"r(4) @ "A""#).unwrap();
        let jobs = (0..repeats)
            .map(|_| BatchJob::new(PeerId::new("B"), PeerId::new("A"), goal.clone()))
            .collect();
        (peers, jobs)
    }

    #[test]
    fn gem_batches_are_bit_identical_across_worker_counts() {
        // Fixpoint round order derives from peer names and session
        // sequence numbers, so cyclic workloads stay deterministic under
        // the scheduler exactly like acyclic ones.
        let (peers, jobs) = gem_batch(8);
        let gem_cfg = |workers| BatchConfig {
            workers,
            session: SessionConfig {
                gem: true,
                ..SessionConfig::default()
            },
            ..BatchConfig::default()
        };
        let baseline = negotiate_batch(&peers, &jobs, &gem_cfg(1), &Telemetry::disabled());
        assert_eq!(
            baseline.stats.successes, 8,
            "every cyclic job must converge via GEM"
        );
        let baseline: Vec<String> = baseline.outcomes.iter().map(full_key).collect();
        for workers in [2, 4, 8] {
            let run: Vec<String> =
                negotiate_batch(&peers, &jobs, &gem_cfg(workers), &Telemetry::disabled())
                    .outcomes
                    .iter()
                    .map(full_key)
                    .collect();
            assert_eq!(run, baseline, "gem divergence at {workers} workers");
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let (peers, _) = bilateral_batch(1);
        let report = negotiate_batch(&peers, &[], &BatchConfig::default(), &Telemetry::disabled());
        assert!(report.outcomes.is_empty());
        assert_eq!(report.stats.jobs, 0);
    }
}
