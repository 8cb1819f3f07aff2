//! Open-loop serving with admission control.
//!
//! [`negotiate_batch`](crate::scheduler::negotiate_batch) is *closed-loop*:
//! every job eventually runs, so offered load can never exceed capacity —
//! the workload just takes longer. Real serving is *open-loop*: arrivals
//! come whether or not the system keeps up, and an engine that buffers
//! without bound converts a transient burst into unbounded queueing delay
//! (and memory). [`serve_open_loop`] models that regime in deterministic
//! virtual time:
//!
//! * **arrivals** — a seeded Poisson process ([`poisson_arrivals`]):
//!   exponentially distributed inter-arrival gaps with a configurable
//!   mean, quantized to whole ticks (minimum gap 1);
//! * **capacity** — `servers` *virtual* servers, each able to run one
//!   negotiation at a time. Capacity is deliberately decoupled from the
//!   OS worker pool (`workers`), which only affects wall-clock speed —
//!   admission decisions and every reported tick are identical across
//!   worker counts;
//! * **admission control** — a bounded FIFO queue (`queue_cap`). An
//!   arrival that finds every server busy and the queue full is shed
//!   immediately (`queue_full`); a queued job whose start would exceed
//!   `arrival + deadline_ticks` is shed at dequeue (`deadline`). Shed
//!   jobs are **never executed**: they get a synthesized failed
//!   [`NegotiationOutcome`] with a typed
//!   [`RefusalReason::Overload`] refusal and a
//!   [`ResilienceFailure::Overload`] record. Nothing in the driver
//!   buffers beyond `queue_cap + servers` jobs;
//! * **service** — an admitted job goes through the batch scheduler's
//!   job runner: a real negotiation on a copy-on-write snapshot of the
//!   frozen peer map (DESIGN.md §4i) with its own
//!   [`peertrust_net::SimNetwork::for_job`] stream. Its virtual service
//!   time is the negotiation's `elapsed_ticks`. Because per-job service times
//!   depend only on the job index, the whole M/G/c simulation — admit
//!   and shed decisions, waits, completions — is bit-identical across
//!   runs *and* worker counts.
//!
//! Latency accounting flows through the telemetry quantile sketches:
//! `negotiation.serve.{offered,admitted,shed,completed}` counters and
//! `negotiation.serve.{wait,service,latency}_ticks` histograms
//! (p50/p99/p999 in the exported snapshot), plus
//! `negotiation.serve.base_clones` — the number of per-job snapshots
//! that did *not* share their peer's frozen KB base, asserted zero in
//! tests and benches as the clone-free-startup regression guard.

use crate::answer_cache::SharedRemoteAnswerCache;
use crate::outcome::{NegotiationOutcome, Refusal, RefusalReason};
use crate::resilience::ResilienceFailure;
use crate::scheduler::{frozen, merge_workers, run_job, BatchJob, Worker};
use crate::session::{NegotiateOptions, PeerMap, SessionConfig};
use peertrust_net::Tick;
use peertrust_telemetry::Telemetry;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Open-loop driver configuration.
#[derive(Clone)]
pub struct ServeConfig {
    /// Mean inter-arrival gap in ticks; the offered rate is its inverse.
    pub mean_interarrival_ticks: f64,
    /// Virtual serving capacity: negotiations in service at once. This is
    /// the *model's* concurrency; see `workers` for the OS pool.
    pub servers: usize,
    /// Bounded FIFO admission queue. Arrivals beyond it are shed.
    pub queue_cap: usize,
    /// Maximum ticks a job may wait in the queue; a job whose service
    /// cannot start by `arrival + deadline_ticks` is shed at dequeue.
    pub deadline_ticks: Tick,
    /// Seed for the Poisson arrival process.
    pub arrival_seed: u64,
    /// Base seed for the per-job simulated networks
    /// ([`peertrust_net::SimNetwork::for_job`]), exactly as in the batch
    /// scheduler.
    pub net_seed: u64,
    /// OS worker threads executing admitted jobs. Result-invisible: every
    /// decision and tick is identical across worker counts. `0` and `1`
    /// run jobs inline on the coordinator.
    pub workers: usize,
    /// Per-session configuration, cloned into every admitted job.
    pub session: SessionConfig,
    /// Cross-negotiation answer cache. When set, admitted jobs execute
    /// sequentially in virtual start order (cache warmth then depends
    /// only on that deterministic order, keeping the run reproducible).
    pub shared_cache: Option<SharedRemoteAnswerCache>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            mean_interarrival_ticks: 8.0,
            servers: 4,
            queue_cap: 16,
            deadline_ticks: 64,
            arrival_seed: 7,
            net_seed: 7,
            workers: 1,
            session: SessionConfig::default(),
            shared_cache: None,
        }
    }
}

/// What admission control decided for one arrival.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum ServeDecision {
    /// Started service (immediately or after queueing).
    Admitted,
    /// Shed on arrival: every server busy and the bounded queue full.
    ShedQueueFull,
    /// Shed at dequeue: service could not start within the deadline.
    ShedDeadline,
}

/// Exact quantiles over one per-job tick series (computed from the full
/// sorted series, unlike the sketch-backed telemetry histograms).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct TickQuantiles {
    pub p50: Tick,
    pub p99: Tick,
    pub p999: Tick,
    pub max: Tick,
}

impl TickQuantiles {
    fn from_samples(mut samples: Vec<Tick>) -> TickQuantiles {
        if samples.is_empty() {
            return TickQuantiles::default();
        }
        samples.sort_unstable();
        let at = |q: f64| samples[((q * (samples.len() - 1) as f64).round()) as usize];
        TickQuantiles {
            p50: at(0.50),
            p99: at(0.99),
            p999: at(0.999),
            max: *samples.last().expect("non-empty"),
        }
    }
}

/// Aggregate measurements of one open-loop run.
#[derive(Clone, Debug, Default, serde::Serialize)]
pub struct ServeStats {
    /// Arrivals offered to the engine.
    pub offered: usize,
    /// Jobs that started service.
    pub admitted: usize,
    /// Jobs shed because the bounded queue was full on arrival.
    pub shed_queue_full: usize,
    /// Jobs shed because they could not start within their deadline.
    pub shed_deadline: usize,
    /// Admitted jobs that ran to completion (always equals `admitted`:
    /// admitted work is never abandoned).
    pub completed: usize,
    /// Completed jobs whose negotiation succeeded.
    pub successes: usize,
    /// Per-job peer-map snapshots that did **not** share the frozen KB
    /// base — i.e. hot-path deep clones. Zero whenever the copy-on-write
    /// path is intact.
    pub base_clones: u64,
    /// Peak admission-queue depth observed (never exceeds `queue_cap`).
    pub max_queue_depth: usize,
    /// Virtual tick of the last completion (0 when nothing ran).
    pub makespan_ticks: Tick,
    /// Queueing delay of admitted jobs (start − arrival).
    pub wait: TickQuantiles,
    /// Service time of admitted jobs (the negotiation's elapsed ticks).
    pub service: TickQuantiles,
    /// End-to-end latency of admitted jobs (completion − arrival).
    pub latency: TickQuantiles,
}

/// Everything one open-loop run produced, aligned by arrival index.
pub struct ServeReport {
    /// Admission decision per arrival.
    pub decisions: Vec<ServeDecision>,
    /// Outcome per arrival: the real negotiation outcome for admitted
    /// jobs, a synthesized [`RefusalReason::Overload`] refusal for shed
    /// ones.
    pub outcomes: Vec<NegotiationOutcome>,
    /// `Some(`[`ResilienceFailure::Overload`]`)` for shed arrivals.
    pub failures: Vec<Option<ResilienceFailure>>,
    /// Virtual arrival tick per job.
    pub arrivals: Vec<Tick>,
    /// Virtual service-start tick (`None` for shed jobs).
    pub starts: Vec<Option<Tick>>,
    /// Virtual completion tick (`None` for shed jobs).
    pub completions: Vec<Option<Tick>>,
    pub stats: ServeStats,
}

/// Deterministic Poisson arrival schedule: `n` cumulative arrival ticks
/// whose gaps are exponentially distributed with the given mean, rounded
/// to whole ticks with a minimum gap of 1. Identical for identical
/// `(n, mean, seed)`.
pub fn poisson_arrivals(n: usize, mean_interarrival_ticks: f64, seed: u64) -> Vec<Tick> {
    assert!(
        mean_interarrival_ticks > 0.0,
        "mean inter-arrival must be positive"
    );
    let mut state = seed;
    let mut t: Tick = 0;
    (0..n)
        .map(|_| {
            // splitmix64 → uniform in [0, 1) → inverse-CDF exponential.
            let u = (splitmix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
            let gap = -(1.0 - u).ln() * mean_interarrival_ticks;
            t += (gap.round() as Tick).max(1);
            t
        })
        .collect()
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// What one executed job hands back to the coordinator.
struct JobResult {
    outcome: NegotiationOutcome,
    /// Did the job's peer-map snapshot still share every frozen KB base
    /// with the serving base after the negotiation (`true` =
    /// copy-on-write throughout, no deep clone)?
    shared_base: bool,
}

/// Bounded-by-construction dispatch queue for the worker pool. Only jobs
/// the admission controller has *started* are ever pushed, so at most
/// `servers` entries are pending at once.
struct WorkQueue {
    state: Mutex<(VecDeque<usize>, bool)>,
    cv: Condvar,
}

impl WorkQueue {
    fn new() -> WorkQueue {
        WorkQueue {
            state: Mutex::new((VecDeque::new(), false)),
            cv: Condvar::new(),
        }
    }

    fn push(&self, idx: usize) {
        self.state.lock().expect("work lock").0.push_back(idx);
        self.cv.notify_one();
    }

    fn close(&self) {
        self.state.lock().expect("work lock").1 = true;
        self.cv.notify_all();
    }

    fn pop(&self) -> Option<usize> {
        let mut guard = self.state.lock().expect("work lock");
        loop {
            if let Some(idx) = guard.0.pop_front() {
                return Some(idx);
            }
            if guard.1 {
                return None;
            }
            guard = self.cv.wait(guard).expect("work lock");
        }
    }
}

/// Per-job result slots the coordinator blocks on when the simulation
/// needs a completion time.
struct ResultSlots {
    slots: Mutex<Vec<Option<JobResult>>>,
    cv: Condvar,
}

impl ResultSlots {
    fn new(n: usize) -> ResultSlots {
        ResultSlots {
            slots: Mutex::new((0..n).map(|_| None).collect()),
            cv: Condvar::new(),
        }
    }

    fn fill(&self, idx: usize, result: JobResult) {
        self.slots.lock().expect("slot lock")[idx] = Some(result);
        self.cv.notify_all();
    }

    /// Block until job `idx` finished; return its virtual service ticks.
    fn service_ticks(&self, idx: usize) -> Tick {
        let mut guard = self.slots.lock().expect("slot lock");
        loop {
            if let Some(result) = &guard[idx] {
                // A negotiation always occupies its server for at least
                // one tick, even if it resolved without network traffic.
                return result.outcome.elapsed_ticks.max(1);
            }
            guard = self.cv.wait(guard).expect("slot lock");
        }
    }
}

/// One job in service: started at `start`, completion resolved lazily
/// (blocking on the worker pool) the first time the simulation needs it.
struct InService {
    job: usize,
    completion: Option<Tick>,
}

/// Run `jobs` through the open-loop admission controller. See the module
/// docs for the model; the report is aligned with `jobs` by index.
pub fn serve_open_loop(
    peers: &PeerMap,
    jobs: &[BatchJob],
    cfg: &ServeConfig,
    telemetry: &Telemetry,
) -> ServeReport {
    let peers = &*frozen(peers);

    let n = jobs.len();
    let arrivals = poisson_arrivals(n, cfg.mean_interarrival_ticks, cfg.arrival_seed);
    // A shared cache makes service times depend on execution order, so
    // order is pinned to the deterministic virtual start order by running
    // inline on the coordinator.
    let sequential = cfg.shared_cache.is_some() || cfg.workers <= 1;
    let pool_workers = if sequential {
        0
    } else {
        cfg.workers.min(n.max(1))
    };

    let work = WorkQueue::new();
    let slots = ResultSlots::new(n);
    let shared = NegotiateOptions {
        session: cfg.session.clone(),
        cache: cfg.shared_cache.clone(),
        resilience: None,
        telemetry: telemetry.clone(),
    };
    let serve_job = |idx: usize, opts: &NegotiateOptions| {
        let (snapshot, outcome, _) = run_job(peers, &jobs[idx], idx, cfg.net_seed, None, opts);
        JobResult {
            outcome,
            shared_base: snapshot.shares_frozen_bases_with(peers),
        }
    };

    let (sim, per_worker) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..pool_workers)
            .map(|_| {
                let work = &work;
                let slots = &slots;
                let (shared, serve_job) = (&shared, &serve_job);
                scope.spawn(move || {
                    let worker = Worker::new(shared);
                    while let Some(idx) = work.pop() {
                        slots.fill(idx, serve_job(idx, &worker.opts));
                    }
                    worker
                })
            })
            .collect();

        // The coordinator's own pipeline for inline (sequential-mode)
        // jobs, merged through the same path as the workers'.
        let inline = Worker::new(&shared);
        let dispatch = |idx: usize| {
            if sequential {
                slots.fill(idx, serve_job(idx, &inline.opts));
            } else {
                work.push(idx);
            }
        };
        let sim = simulate(&arrivals, cfg, &dispatch, &slots);
        work.close();
        let mut per_worker: Vec<Worker> = handles
            .into_iter()
            .map(|h| h.join().expect("serve worker panicked"))
            .collect();
        per_worker.push(inline);
        (sim, per_worker)
    });
    merge_workers(telemetry, per_worker);

    // Assemble per-job results in arrival order.
    let results = slots.slots.into_inner().expect("slot lock");
    let mut decisions = Vec::with_capacity(n);
    let mut outcomes = Vec::with_capacity(n);
    let mut failures = Vec::with_capacity(n);
    let mut base_clones = 0u64;
    let mut successes = 0usize;
    let (mut waits, mut services, mut latencies) = (Vec::new(), Vec::new(), Vec::new());
    for (idx, result) in results.into_iter().enumerate() {
        match result {
            Some(result) => {
                if !result.shared_base {
                    base_clones += 1;
                }
                if result.outcome.success {
                    successes += 1;
                }
                let start = sim.starts[idx].expect("admitted job has a start");
                let completion = sim.completions[idx].expect("admitted job completed");
                waits.push(start - arrivals[idx]);
                services.push(completion - start);
                latencies.push(completion - arrivals[idx]);
                decisions.push(ServeDecision::Admitted);
                outcomes.push(result.outcome);
                failures.push(None);
            }
            None => {
                let (decision, kind) = sim.shed_kind(idx);
                decisions.push(decision);
                outcomes.push(shed_outcome(&jobs[idx]));
                failures.push(Some(ResilienceFailure::Overload {
                    peer: jobs[idx].responder,
                    kind: kind.to_string(),
                    at: arrivals[idx],
                }));
            }
        }
    }

    let stats = ServeStats {
        offered: n,
        admitted: waits.len(),
        shed_queue_full: sim.shed_queue_full.len(),
        shed_deadline: sim.shed_deadline.len(),
        completed: waits.len(),
        successes,
        base_clones,
        max_queue_depth: sim.max_queue_depth,
        makespan_ticks: sim.completions.iter().flatten().copied().max().unwrap_or(0),
        wait: TickQuantiles::from_samples(waits.clone()),
        service: TickQuantiles::from_samples(services.clone()),
        latency: TickQuantiles::from_samples(latencies.clone()),
    };
    flush_serve_metrics(telemetry, &stats, &waits, &services, &latencies);

    ServeReport {
        decisions,
        outcomes,
        failures,
        arrivals,
        starts: sim.starts,
        completions: sim.completions,
        stats,
    }
}

/// Virtual-time M/G/c simulation state produced by [`simulate`].
struct SimResult {
    starts: Vec<Option<Tick>>,
    completions: Vec<Option<Tick>>,
    shed_queue_full: Vec<usize>,
    shed_deadline: Vec<usize>,
    max_queue_depth: usize,
}

impl SimResult {
    fn shed_kind(&self, idx: usize) -> (ServeDecision, &'static str) {
        if self.shed_queue_full.contains(&idx) {
            (ServeDecision::ShedQueueFull, "queue_full")
        } else {
            debug_assert!(self.shed_deadline.contains(&idx));
            (ServeDecision::ShedDeadline, "deadline")
        }
    }
}

/// Drive arrivals through the bounded queue and virtual servers.
/// `dispatch` hands an admitted job to the execution engine; completion
/// times are resolved lazily (blocking) through `slots` only when the
/// simulation needs them, so independent in-service jobs overlap on the
/// worker pool.
fn simulate(
    arrivals: &[Tick],
    cfg: &ServeConfig,
    dispatch: &dyn Fn(usize),
    slots: &ResultSlots,
) -> SimResult {
    let n = arrivals.len();
    let servers = cfg.servers.max(1);
    let mut idle = servers;
    let mut in_service: Vec<InService> = Vec::with_capacity(servers);
    let mut queue: VecDeque<usize> = VecDeque::new();
    let mut result = SimResult {
        starts: vec![None; n],
        completions: vec![None; n],
        shed_queue_full: Vec::new(),
        shed_deadline: Vec::new(),
        max_queue_depth: 0,
    };

    // Advance virtual time up to `horizon` (or drain fully on `None`):
    // resolve in-service completions (blocking on the pool — they all
    // run concurrently), ties broken by job index so completion order is
    // deterministic, and let freed servers pull from the queue.
    let process = |result: &mut SimResult,
                   in_service: &mut Vec<InService>,
                   queue: &mut VecDeque<usize>,
                   idle: &mut usize,
                   horizon: Option<Tick>| {
        loop {
            let next = in_service
                .iter_mut()
                .enumerate()
                .map(|(pos, entry)| {
                    let start = result.starts[entry.job].expect("in-service job started");
                    let ct = *entry
                        .completion
                        .get_or_insert_with(|| start + slots.service_ticks(entry.job));
                    (pos, ct, entry.job)
                })
                .min_by_key(|&(_, ct, job)| (ct, job))
                .map(|(pos, ct, _)| (pos, ct));
            let Some((pos, ct)) = next else { break };
            if let Some(horizon) = horizon {
                if ct > horizon {
                    break;
                }
            }
            let done = in_service.swap_remove(pos);
            result.completions[done.job] = Some(ct);
            *idle += 1;
            // The freed server picks up queued work at tick `ct`; jobs
            // whose wait already blew the deadline are shed at dequeue
            // and the server stays free for the next in line.
            while *idle > 0 {
                let Some(&j) = queue.front() else { break };
                queue.pop_front();
                if ct.saturating_sub(arrivals[j]) > cfg.deadline_ticks {
                    result.shed_deadline.push(j);
                    continue;
                }
                result.starts[j] = Some(ct);
                dispatch(j);
                in_service.push(InService {
                    job: j,
                    completion: None,
                });
                *idle -= 1;
            }
        }
    };

    for (i, &t) in arrivals.iter().enumerate() {
        process(&mut result, &mut in_service, &mut queue, &mut idle, Some(t));
        if idle > 0 && queue.is_empty() {
            result.starts[i] = Some(t);
            dispatch(i);
            in_service.push(InService {
                job: i,
                completion: None,
            });
            idle -= 1;
        } else if queue.len() < cfg.queue_cap {
            queue.push_back(i);
            result.max_queue_depth = result.max_queue_depth.max(queue.len());
        } else {
            result.shed_queue_full.push(i);
        }
    }
    process(&mut result, &mut in_service, &mut queue, &mut idle, None);
    debug_assert!(queue.is_empty() && in_service.is_empty());
    result
}

/// A shed job's synthesized outcome: failed, nothing disclosed, one
/// typed [`RefusalReason::Overload`] refusal from the responder the
/// request never reached.
fn shed_outcome(job: &BatchJob) -> NegotiationOutcome {
    NegotiationOutcome {
        success: false,
        requester: job.requester,
        responder: job.responder,
        goal: job.goal.clone(),
        granted: Vec::new(),
        disclosures: Vec::new(),
        refusals: vec![Refusal {
            peer: job.responder,
            requester: job.requester,
            goal: job.goal.clone(),
            reason: RefusalReason::Overload,
        }],
        messages: 0,
        bytes: 0,
        queries: 0,
        rounds: 0,
        elapsed_ticks: 0,
    }
}

/// Record the `negotiation.serve.*` series (tick-valued, so the exported
/// snapshot is deterministic across runs and worker counts).
fn flush_serve_metrics(
    telemetry: &Telemetry,
    stats: &ServeStats,
    waits: &[Tick],
    services: &[Tick],
    latencies: &[Tick],
) {
    if !telemetry.enabled() {
        return;
    }
    telemetry.incr("negotiation.serve.offered", stats.offered as u64);
    telemetry.incr("negotiation.serve.admitted", stats.admitted as u64);
    telemetry.incr(
        "negotiation.serve.shed",
        (stats.shed_queue_full + stats.shed_deadline) as u64,
    );
    telemetry.incr(
        "negotiation.serve.shed.queue_full",
        stats.shed_queue_full as u64,
    );
    telemetry.incr(
        "negotiation.serve.shed.deadline",
        stats.shed_deadline as u64,
    );
    telemetry.incr("negotiation.serve.completed", stats.completed as u64);
    telemetry.incr("negotiation.serve.succeeded", stats.successes as u64);
    telemetry.incr("negotiation.serve.base_clones", stats.base_clones);
    telemetry.observe(
        "negotiation.serve.queue_depth_peak",
        stats.max_queue_depth as u64,
    );
    telemetry.observe("negotiation.serve.makespan_ticks", stats.makespan_ticks);
    for &w in waits {
        telemetry.observe("negotiation.serve.wait_ticks", w);
    }
    for &s in services {
        telemetry.observe("negotiation.serve.service_ticks", s);
    }
    for &l in latencies {
        telemetry.observe("negotiation.serve.latency_ticks", l);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::peer::NegotiationPeer;
    use crate::scheduler::{negotiate_batch, BatchConfig};
    use peertrust_core::PeerId;
    use peertrust_crypto::KeyRegistry;
    use peertrust_parser::parse_literal;

    /// The scheduler tests' bilateral scenario as an arrival stream.
    fn bilateral_jobs(n: usize) -> (PeerMap, Vec<BatchJob>) {
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
        let jobs = (0..n)
            .map(|_| BatchJob::new(PeerId::new("Alice"), PeerId::new("E-Learn"), goal.clone()))
            .collect();
        (peers, jobs)
    }

    /// An overloaded config: arrivals every ~1 tick into a single server
    /// whose bilateral negotiation takes many ticks.
    fn overload_cfg(workers: usize) -> ServeConfig {
        ServeConfig {
            mean_interarrival_ticks: 1.0,
            servers: 1,
            queue_cap: 3,
            deadline_ticks: 48,
            workers,
            ..ServeConfig::default()
        }
    }

    fn fingerprint(report: &ServeReport) -> String {
        [
            serde_json::to_string(&report.decisions).unwrap(),
            serde_json::to_string(&report.arrivals).unwrap(),
            serde_json::to_string(&report.starts).unwrap(),
            serde_json::to_string(&report.completions).unwrap(),
            serde_json::to_string(&report.outcomes).unwrap(),
            serde_json::to_string(&report.failures).unwrap(),
        ]
        .join("|")
    }

    #[test]
    fn poisson_arrival_schedule_is_deterministic_and_strictly_increasing() {
        let a = poisson_arrivals(512, 8.0, 42);
        let b = poisson_arrivals(512, 8.0, 42);
        assert_eq!(a, b);
        assert_ne!(a, poisson_arrivals(512, 8.0, 43), "seed must matter");
        for w in a.windows(2) {
            assert!(w[0] < w[1], "arrival ticks must be strictly increasing");
        }
        // Mean gap should be in the right ballpark of the configured mean.
        let mean = *a.last().unwrap() as f64 / a.len() as f64;
        assert!(
            (4.0..=12.0).contains(&mean),
            "mean inter-arrival {mean} implausible for configured 8.0"
        );
    }

    #[test]
    fn overload_sheds_with_typed_refusals_and_bounded_queue() {
        let (peers, jobs) = bilateral_jobs(40);
        let cfg = overload_cfg(1);
        let report = serve_open_loop(&peers, &jobs, &cfg, &Telemetry::disabled());
        let stats = &report.stats;
        assert_eq!(stats.offered, 40);
        assert_eq!(
            stats.admitted + stats.shed_queue_full + stats.shed_deadline,
            stats.offered,
            "every arrival is admitted or shed"
        );
        assert!(
            stats.shed_queue_full + stats.shed_deadline > 0,
            "offered load far above capacity must shed"
        );
        assert!(stats.admitted > 0, "capacity is nonzero, some jobs run");
        assert!(
            stats.max_queue_depth <= cfg.queue_cap,
            "queue stayed bounded"
        );
        // p99 (indeed max) admitted queueing delay within the deadline.
        assert!(stats.wait.max <= cfg.deadline_ticks);
        for (idx, decision) in report.decisions.iter().enumerate() {
            match decision {
                ServeDecision::Admitted => {
                    assert!(report.outcomes[idx].success);
                    assert!(report.failures[idx].is_none());
                    let wait = report.starts[idx].unwrap() - report.arrivals[idx];
                    assert!(wait <= cfg.deadline_ticks);
                }
                ServeDecision::ShedQueueFull | ServeDecision::ShedDeadline => {
                    let o = &report.outcomes[idx];
                    assert!(!o.success);
                    assert_eq!(o.refusals.len(), 1);
                    assert_eq!(o.refusals[0].reason, RefusalReason::Overload);
                    assert_eq!(o.messages + o.bytes + o.queries, 0, "shed jobs never ran");
                    match report.failures[idx].as_ref().unwrap() {
                        ResilienceFailure::Overload { peer, kind, at } => {
                            assert_eq!(*peer, jobs[idx].responder);
                            assert_eq!(*at, report.arrivals[idx]);
                            let expected = match decision {
                                ServeDecision::ShedQueueFull => "queue_full",
                                _ => "deadline",
                            };
                            assert_eq!(kind, expected);
                        }
                        other => panic!("expected Overload failure, got {other:?}"),
                    }
                    assert!(report.starts[idx].is_none());
                }
            }
        }
    }

    #[test]
    fn decisions_and_metrics_are_bit_identical_across_runs_and_worker_counts() {
        let (peers, jobs) = bilateral_jobs(24);
        let run = |workers: usize| {
            let (tele, _ring) = Telemetry::ring(4096);
            let report = serve_open_loop(&peers, &jobs, &overload_cfg(workers), &tele);
            (fingerprint(&report), tele.metrics().unwrap().to_json())
        };
        let (baseline_fp, baseline_metrics) = run(1);
        let (again_fp, again_metrics) = run(1);
        assert_eq!(again_fp, baseline_fp, "re-run divergence");
        assert_eq!(again_metrics, baseline_metrics, "re-run metric divergence");
        for workers in [2, 4] {
            let (fp, metrics) = run(workers);
            assert_eq!(fp, baseline_fp, "divergence at {workers} workers");
            assert_eq!(
                metrics, baseline_metrics,
                "metric divergence at {workers} workers"
            );
        }
    }

    #[test]
    fn uncontended_serving_matches_the_closed_loop_batch() {
        let (peers, jobs) = bilateral_jobs(6);
        // Plenty of capacity and headroom: nothing queues, nothing sheds.
        let cfg = ServeConfig {
            mean_interarrival_ticks: 1000.0,
            servers: 4,
            queue_cap: 8,
            deadline_ticks: 10_000,
            workers: 2,
            ..ServeConfig::default()
        };
        let report = serve_open_loop(&peers, &jobs, &cfg, &Telemetry::disabled());
        assert_eq!(report.stats.admitted, 6);
        assert_eq!(report.stats.shed_queue_full + report.stats.shed_deadline, 0);
        assert_eq!(report.stats.wait.max, 0, "no contention, no queueing");
        // Same nid / net-seed scheme as the batch scheduler, so the
        // negotiated outcomes are identical to the closed-loop run.
        let batch = negotiate_batch(
            &peers,
            &jobs,
            &BatchConfig::default(),
            &Telemetry::disabled(),
        );
        for (served, batched) in report.outcomes.iter().zip(&batch.outcomes) {
            assert_eq!(
                serde_json::to_string(served).unwrap(),
                serde_json::to_string(batched).unwrap()
            );
        }
    }

    #[test]
    fn session_startup_shares_the_frozen_base() {
        let (peers, jobs) = bilateral_jobs(16);
        let (tele, _ring) = Telemetry::ring(4096);
        let report = serve_open_loop(&peers, &jobs, &overload_cfg(2), &tele);
        assert_eq!(
            report.stats.base_clones, 0,
            "per-job startup must not deep-clone the peer map"
        );
        assert_eq!(
            tele.metrics()
                .unwrap()
                .counter("negotiation.serve.base_clones"),
            0
        );
        // The caller's map is untouched (serve froze a private copy).
        assert!(!peers.is_frozen());
    }

    #[test]
    fn serve_emits_the_admission_metric_series() {
        let (peers, jobs) = bilateral_jobs(24);
        let (tele, _ring) = Telemetry::ring(4096);
        let report = serve_open_loop(&peers, &jobs, &overload_cfg(1), &tele);
        let m = tele.metrics().unwrap();
        assert_eq!(m.counter("negotiation.serve.offered"), 24);
        assert_eq!(
            m.counter("negotiation.serve.admitted"),
            report.stats.admitted as u64
        );
        assert_eq!(
            m.counter("negotiation.serve.shed"),
            m.counter("negotiation.serve.shed.queue_full")
                + m.counter("negotiation.serve.shed.deadline")
        );
        assert_eq!(
            m.counter("negotiation.serve.completed"),
            m.counter("negotiation.serve.admitted")
        );
        let latency = m
            .histogram("negotiation.serve.latency_ticks")
            .expect("latency sketch recorded");
        assert_eq!(latency.count, report.stats.admitted as u64);
        assert!(latency.p999 >= latency.p50);
        assert!(m.histogram("negotiation.serve.wait_ticks").is_some());
        assert!(m.histogram("negotiation.serve.service_ticks").is_some());
    }

    #[test]
    fn shared_cache_serving_is_deterministic_and_warms_up() {
        let (peers, jobs) = bilateral_jobs(16);
        let run = || {
            let cache = SharedRemoteAnswerCache::new();
            let cfg = ServeConfig {
                shared_cache: Some(cache.clone()),
                workers: 4, // forced sequential by the shared cache
                ..overload_cfg(4)
            };
            let report = serve_open_loop(&peers, &jobs, &cfg, &Telemetry::disabled());
            (fingerprint(&report), cache.stats().hits)
        };
        let (a_fp, a_hits) = run();
        let (b_fp, b_hits) = run();
        assert_eq!(a_fp, b_fp);
        assert_eq!(a_hits, b_hits);
        assert!(a_hits > 0, "repeated hot goal should hit the shared cache");
    }

    #[test]
    fn empty_offered_stream_is_fine() {
        let (peers, _) = bilateral_jobs(1);
        let report = serve_open_loop(&peers, &[], &ServeConfig::default(), &Telemetry::disabled());
        assert_eq!(report.stats.offered, 0);
        assert!(report.decisions.is_empty());
        assert_eq!(report.stats.makespan_ticks, 0);
    }
}
