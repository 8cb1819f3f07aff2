//! Synthetic policy-graph workload generators.
//!
//! The paper's evaluation is qualitative; these generators create the
//! parameterized workloads behind the quantitative experiments in
//! EXPERIMENTS.md:
//!
//! * [`chain`] — E3: alternating release-dependency chains of depth *d*
//!   (credential *i*'s release policy demands credential *i + 1* from the
//!   other side; the deepest credential is public);
//! * [`random_policies`] — E4/E5: random bipartite policy graphs with a
//!   known ground-truth satisfiability (computed by unlock-set fixpoint);
//! * [`delegation_chain`] — E6: authority delegation chains of depth *d*
//!   (A0 delegates to A1 delegates to ... to An, which issued the
//!   subject's credential);
//! * [`fleet`] — E10: one server and *n* independent clients, for
//!   peer-count scaling;
//! * [`throughput_grid`] — E14: one server and *n* clients each behind a
//!   namespaced release chain, plus a round-robin job list for the batch
//!   scheduler's negotiations/sec benchmark;
//! * [`resilience_grid`] — E15: the E14 workload crossed with a grid of
//!   fault plans (drop rate × retry budget) for the resilience sweep.
//! * [`serving_workload`] — E18: the E14 peer construction with a job
//!   stream whose resource popularity is Zipf-distributed, for the
//!   open-loop serving driver (skewed sustained traffic).
//!
//! Every generator is deterministic in its seed.

use peertrust_core::{Literal, PeerId, Term};
use peertrust_crypto::KeyRegistry;
use peertrust_negotiation::{BatchFaults, BatchJob, NegotiationPeer, PeerMap, ResilienceConfig};
use peertrust_net::{FaultPlan, LinkFaults};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A ready-to-run negotiation workload.
pub struct Workload {
    pub peers: PeerMap,
    pub registry: KeyRegistry,
    pub requester: PeerId,
    pub responder: PeerId,
    pub goal: Literal,
    /// Ground truth: does a safe disclosure sequence exist?
    pub satisfiable: bool,
}

pub const CLIENT: &str = "Client";
pub const SERVER: &str = "Server";
const CA: &str = "WorkloadCA";

fn fresh_registry() -> KeyRegistry {
    let registry = KeyRegistry::new();
    registry.register_derived(PeerId::new(CA), 400);
    registry
}

/// E3: an alternating release-dependency chain of depth `depth >= 1`.
///
/// The server's resource needs `cred1` from the client; `cred{i}`'s
/// release policy needs `cred{i+1}` from the opposite side; `cred{depth}`
/// is public. The unique safe sequence discloses `cred{depth} ...
/// cred{1}` then the resource, so both strategies must succeed with
/// disclosure count = `depth`.
pub fn chain(depth: usize) -> Workload {
    assert!(depth >= 1, "chain depth must be at least 1");
    let registry = fresh_registry();
    let mut client = NegotiationPeer::new(CLIENT, registry.clone());
    let mut server = NegotiationPeer::new(SERVER, registry.clone());

    server
        .load_program(&format!(r#"resource(X) $ true <- cred1(X) @ "{CA}" @ X."#))
        .expect("resource rule parses");

    for i in 1..=depth {
        // Odd credentials belong to the client, even to the server.
        let (owner, owner_name) = if i % 2 == 1 {
            (&mut client, CLIENT)
        } else {
            (&mut server, SERVER)
        };
        let fact = format!(r#"cred{i}("{owner_name}") @ "{CA}" signedBy ["{CA}"]."#);
        owner.load_program(&fact).expect("credential parses");
        let release = if i == depth {
            format!(r#"cred{i}(X) @ Y $ true <-_true cred{i}(X) @ Y."#)
        } else {
            let next = i + 1;
            format!(
                r#"cred{i}(X) @ Y $ cred{next}(Requester) @ "{CA}" @ Requester <-_true cred{i}(X) @ Y."#
            )
        };
        owner.load_program(&release).expect("release rule parses");
    }

    let mut peers = PeerMap::new();
    peers.insert(client);
    peers.insert(server);
    Workload {
        peers,
        registry,
        requester: PeerId::new(CLIENT),
        responder: PeerId::new(SERVER),
        goal: Literal::new("resource", vec![Term::str(CLIENT)]),
        satisfiable: true,
    }
}

/// Configuration for [`random_policies`].
#[derive(Clone, Copy, Debug)]
pub struct RandomPolicyConfig {
    /// Credentials per side.
    pub creds_per_side: usize,
    /// Maximum release-policy dependencies per credential.
    pub max_deps: usize,
    /// Probability a credential's release policy is public (no deps).
    pub public_prob: f64,
    /// Allow cyclic dependencies (may make the instance unsatisfiable).
    pub allow_cycles: bool,
    /// Post-process a cyclic instance until it is satisfiable by
    /// construction: while the unlock fixpoint leaves the target
    /// credential locked, the lowest-indexed still-locked credential is
    /// made public, breaking one dependency cycle per step. Deterministic,
    /// and a no-op on instances that are already satisfiable.
    pub ensure_satisfiable: bool,
    pub seed: u64,
}

impl Default for RandomPolicyConfig {
    fn default() -> Self {
        RandomPolicyConfig {
            creds_per_side: 8,
            max_deps: 2,
            public_prob: 0.25,
            allow_cycles: true,
            ensure_satisfiable: false,
            seed: 1,
        }
    }
}

/// E4/E5: a random bipartite policy graph.
///
/// Each side holds `creds_per_side` credentials; each credential's release
/// policy is a conjunction of up to `max_deps` credentials of the *other*
/// side. The server's resource requires the client's credential 0. Ground
/// truth satisfiability is computed by the standard unlock fixpoint:
/// repeatedly unlock any credential all of whose dependencies are already
/// unlocked on the other side; the instance is satisfiable iff the
/// client's credential 0 ends up unlocked.
pub fn random_policies(cfg: RandomPolicyConfig) -> Workload {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let n = cfg.creds_per_side;
    assert!(n >= 1);

    // deps[side][i] = indices (on the other side) this credential needs.
    let mut deps: [Vec<Vec<usize>>; 2] = [Vec::new(), Vec::new()];
    for side_deps in deps.iter_mut() {
        for i in 0..n {
            if rng.gen_bool(cfg.public_prob) {
                side_deps.push(Vec::new());
                continue;
            }
            let k = rng.gen_range(1..=cfg.max_deps);
            let mut d: Vec<usize> = Vec::new();
            for _ in 0..k {
                let j = if cfg.allow_cycles {
                    rng.gen_range(0..n)
                } else {
                    // Acyclic: only depend on strictly higher indices; if
                    // impossible, be public.
                    if i + 1 >= n {
                        continue;
                    }
                    rng.gen_range(i + 1..n)
                };
                if !d.contains(&j) {
                    d.push(j);
                }
            }
            side_deps.push(d);
        }
        // Pad in case the loop above pushed fewer entries (never happens,
        // but keep the invariant obvious).
        debug_assert_eq!(side_deps.len(), n);
    }

    // Ground truth: unlock fixpoint.
    fn unlock_fixpoint(deps: &[Vec<Vec<usize>>; 2], n: usize) -> [Vec<bool>; 2] {
        let mut unlocked = [vec![false; n], vec![false; n]];
        loop {
            let mut changed = false;
            for side in 0..2 {
                for i in 0..n {
                    if unlocked[side][i] {
                        continue;
                    }
                    if deps[side][i].iter().all(|&j| unlocked[1 - side][j]) {
                        unlocked[side][i] = true;
                        changed = true;
                    }
                }
            }
            if !changed {
                return unlocked;
            }
        }
    }

    if cfg.ensure_satisfiable {
        // Break dependency cycles until the target credential unlocks:
        // each step makes the lowest-indexed locked credential public,
        // which unlocks at least one credential per fixpoint — so this
        // terminates within 2n steps.
        loop {
            let unlocked = unlock_fixpoint(&deps, n);
            if unlocked[0][0] {
                break;
            }
            let (side, i) = (0..2)
                .flat_map(|s| (0..n).map(move |i| (s, i)))
                .find(|&(s, i)| !unlocked[s][i])
                .expect("target locked implies some credential is locked");
            deps[side][i].clear();
        }
    }

    let unlocked = unlock_fixpoint(&deps, n);
    let satisfiable = unlocked[0][0]; // side 0 = client, credential 0

    // Build the peers. Side 0 = client, side 1 = server.
    let registry = fresh_registry();
    let mut client = NegotiationPeer::new(CLIENT, registry.clone());
    let mut server = NegotiationPeer::new(SERVER, registry.clone());
    for (side, side_deps) in deps.iter().enumerate() {
        let (peer, owner_name) = if side == 0 {
            (&mut client, CLIENT)
        } else {
            (&mut server, SERVER)
        };
        for (i, cred_deps) in side_deps.iter().enumerate() {
            let pred = format!("c{side}_{i}");
            peer.load_program(&format!(
                r#"{pred}("{owner_name}") @ "{CA}" signedBy ["{CA}"]."#
            ))
            .expect("credential parses");
            let ctx = if cred_deps.is_empty() {
                "true".to_string()
            } else {
                cred_deps
                    .iter()
                    .map(|j| {
                        let other = 1 - side;
                        format!(r#"c{other}_{j}(Requester) @ "{CA}" @ Requester"#)
                    })
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            peer.load_program(&format!(r#"{pred}(X) @ Y $ {ctx} <-_true {pred}(X) @ Y."#))
                .expect("release rule parses");
        }
    }
    server
        .load_program(&format!(r#"resource(X) $ true <- c0_0(X) @ "{CA}" @ X."#))
        .expect("resource rule parses");

    let mut peers = PeerMap::new();
    peers.insert(client);
    peers.insert(server);
    Workload {
        peers,
        registry,
        requester: PeerId::new(CLIENT),
        responder: PeerId::new(SERVER),
        goal: Literal::new("resource", vec![Term::str(CLIENT)]),
        satisfiable,
    }
}

/// E6: an authority delegation chain of depth `depth`.
///
/// `A0` is the root authority the verifier trusts; each `Ai` delegates
/// attribute certification to `A(i+1)` with a signed rule; the last
/// authority issued the subject's credential (and keeps an issuance
/// record). The verifier's policy asks the subject, whose device fetches
/// the chain at run time by querying `A0` — credential-chain discovery.
pub fn delegation_chain(depth: usize) -> Workload {
    let registry = KeyRegistry::new();
    for i in 0..=depth {
        registry.register_derived(PeerId::new(&format!("A{i}")), 500 + i as u64);
    }
    let mut peers = PeerMap::new();

    // The verifier.
    let mut verifier = NegotiationPeer::new(SERVER, registry.clone());
    verifier
        .load_program(r#"resource(X) $ true <- attr(X) @ "A0" @ X."#)
        .expect("verifier rule parses");
    peers.insert(verifier);

    // The subject: holds only its leaf credential.
    let mut subject = NegotiationPeer::new(CLIENT, registry.clone());
    subject
        .load_program(&format!(
            r#"
            attr("{CLIENT}") @ "A{depth}" signedBy ["A{depth}"].
            attr(X) @ Y $ true <-_true attr(X) @ Y.
            "#
        ))
        .expect("subject program parses");
    peers.insert(subject);

    // The authorities.
    for i in 0..depth {
        let mut a = NegotiationPeer::new(format!("A{i}").as_str(), registry.clone());
        let next = i + 1;
        a.load_program(&format!(
            r#"
            attr(X) @ "A{i}" <- signedBy ["A{i}"] attr(X) @ "A{next}".
            attr(X) @ Y $ true <-_true attr(X) @ Y.
            "#
        ))
        .expect("delegation parses");
        peers.insert(a);
    }
    // The issuing (leaf) authority keeps issuance records.
    let mut leaf = NegotiationPeer::new(format!("A{depth}").as_str(), registry.clone());
    leaf.load_program(&format!(
        r#"
        attr("{CLIENT}") @ "A{depth}" signedBy ["A{depth}"].
        attr(X) @ Y $ true <-_true attr(X) @ Y.
        "#
    ))
    .expect("leaf program parses");
    peers.insert(leaf);

    Workload {
        peers,
        registry,
        requester: PeerId::new(CLIENT),
        responder: PeerId::new(SERVER),
        goal: Literal::new("resource", vec![Term::str(CLIENT)]),
        satisfiable: true,
    }
}

/// E10: one server, `n` independent clients, each with a depth-2 chain
/// (client credential guarded by a public server credential). Returns the
/// shared peer map plus per-client goals.
pub fn fleet(n: usize) -> (PeerMap, KeyRegistry, Vec<(PeerId, Literal)>) {
    let registry = fresh_registry();
    let mut peers = PeerMap::new();
    let mut server = NegotiationPeer::new(SERVER, registry.clone());
    server
        .load_program(&format!(
            r#"
            svc("{SERVER}") @ "{CA}" signedBy ["{CA}"].
            svc(X) @ Y $ true <-_true svc(X) @ Y.
            "#
        ))
        .expect("server creds parse");
    let mut goals = Vec::new();
    for c in 0..n {
        let name = format!("Client{c}");
        server
            .load_program(&format!(
                r#"resource{c}(X) $ true <- id{c}(X) @ "{CA}" @ X."#
            ))
            .expect("resource rule parses");
        let mut client = NegotiationPeer::new(name.as_str(), registry.clone());
        client
            .load_program(&format!(
                r#"
                id{c}("{name}") @ "{CA}" signedBy ["{CA}"].
                id{c}(X) @ Y $ svc(Requester) @ "{CA}" @ Requester <-_true id{c}(X) @ Y.
                "#
            ))
            .expect("client program parses");
        goals.push((
            PeerId::new(&name),
            Literal::new(
                format!("resource{c}").as_str(),
                vec![Term::str(name.as_str())],
            ),
        ));
        peers.insert(client);
    }
    peers.insert(server);
    (peers, registry, goals)
}

/// A ready-to-run batch-scheduler workload: the shared peer map plus the
/// job list to feed `negotiate_batch`.
pub struct BatchWorkload {
    pub peers: PeerMap,
    pub registry: KeyRegistry,
    pub jobs: Vec<BatchJob>,
}

/// E14: one server, `clients` clients, each client `c` gated by its own
/// alternating release chain of depth `depth` over namespaced predicates
/// (`cred{c}_{i}`, exactly the [`chain`] construction), and a job list of
/// `repeats * clients` negotiations round-robin over the clients.
///
/// Distinct predicates per client mean jobs exercise distinct goal
/// variants (no accidental sharing through the engine table), while
/// repeats of the same client exercise warm-cache reuse. Every job is
/// satisfiable with exactly `depth` disclosures.
pub fn throughput_grid(clients: usize, repeats: usize, depth: usize) -> BatchWorkload {
    assert!(clients >= 1 && repeats >= 1 && depth >= 1);
    let registry = fresh_registry();
    let mut server = NegotiationPeer::new(SERVER, registry.clone());
    let mut peers = PeerMap::new();
    let mut client_ids = Vec::new();

    for c in 0..clients {
        let name = format!("Client{c}");
        let mut client = NegotiationPeer::new(name.as_str(), registry.clone());
        server
            .load_program(&format!(
                r#"resource{c}(X) $ true <- cred{c}_1(X) @ "{CA}" @ X."#
            ))
            .expect("resource rule parses");
        for i in 1..=depth {
            // Odd credentials belong to the client, even to the server.
            let (owner, owner_name): (&mut NegotiationPeer, &str) = if i % 2 == 1 {
                (&mut client, name.as_str())
            } else {
                (&mut server, SERVER)
            };
            let pred = format!("cred{c}_{i}");
            owner
                .load_program(&format!(
                    r#"{pred}("{owner_name}") @ "{CA}" signedBy ["{CA}"]."#
                ))
                .expect("credential parses");
            let release = if i == depth {
                format!(r#"{pred}(X) @ Y $ true <-_true {pred}(X) @ Y."#)
            } else {
                let next = format!("cred{c}_{}", i + 1);
                format!(
                    r#"{pred}(X) @ Y $ {next}(Requester) @ "{CA}" @ Requester <-_true {pred}(X) @ Y."#
                )
            };
            owner.load_program(&release).expect("release rule parses");
        }
        client_ids.push(PeerId::new(&name));
        peers.insert(client);
    }
    peers.insert(server);

    let server_id = PeerId::new(SERVER);
    let mut jobs = Vec::with_capacity(clients * repeats);
    for _ in 0..repeats {
        for (c, client_id) in client_ids.iter().enumerate() {
            jobs.push(BatchJob::new(
                *client_id,
                server_id,
                Literal::new(
                    format!("resource{c}").as_str(),
                    vec![Term::str(format!("Client{c}").as_str())],
                ),
            ));
        }
    }
    BatchWorkload {
        peers,
        registry,
        jobs,
    }
}

/// An open-loop serving workload: the [`throughput_grid`] peer
/// construction (one server, `resources` clients each behind its own
/// namespaced release chain) plus a stream of `jobs` arrival goals whose
/// resource popularity follows a Zipf(`zipf_s`) distribution — rank-`k`
/// resource drawn with probability proportional to `1 / k^s`, the skew
/// web resource traffic classically shows. Skew is what makes the
/// serving driver's cache layers earn their keep: a small hot set
/// dominates the offered load.
pub struct ServingWorkload {
    pub peers: PeerMap,
    pub registry: KeyRegistry,
    /// `jobs[i]` is the goal of the `i`-th arrival.
    pub jobs: Vec<BatchJob>,
    /// Arrivals per resource (index = resource rank, descending weight).
    pub popularity: Vec<usize>,
}

/// Generate a [`ServingWorkload`]. Deterministic in `seed`: the sampled
/// job stream (and hence everything the serving driver does with it) is
/// identical across runs. `zipf_s == 0.0` degrades to uniform popularity.
pub fn serving_workload(
    resources: usize,
    depth: usize,
    jobs: usize,
    zipf_s: f64,
    seed: u64,
) -> ServingWorkload {
    assert!(resources >= 1 && depth >= 1);
    assert!(zipf_s >= 0.0, "zipf exponent must be non-negative");
    let base = throughput_grid(resources, 1, depth);
    // Zipf CDF over ranks 1..=resources (rank-`k` resource has weight
    // 1/k^s before normalization).
    let mut cdf = Vec::with_capacity(resources);
    let mut acc = 0.0;
    for k in 1..=resources {
        acc += 1.0 / (k as f64).powf(zipf_s);
        cdf.push(acc);
    }
    let total = acc;

    let mut rng = StdRng::seed_from_u64(seed);
    let mut popularity = vec![0usize; resources];
    let sampled = (0..jobs)
        .map(|_| {
            let u = rng.gen_range(0.0..1.0) * total;
            let rank = cdf.partition_point(|&c| c <= u).min(resources - 1);
            popularity[rank] += 1;
            base.jobs[rank].clone()
        })
        .collect();
    ServingWorkload {
        peers: base.peers,
        registry: base.registry,
        jobs: sampled,
        popularity,
    }
}

/// One cell of the E15 resilience sweep: a fault plan at `drop_rate` and
/// a retry budget, ready to drop into `BatchConfig::faults`.
pub struct ResilienceGridPoint {
    /// `"drop{pct}_retry{budget}"`, for metric names and reports.
    pub label: String,
    pub drop_rate: f64,
    pub max_retries: u32,
    pub faults: BatchFaults,
}

/// E15: the [`throughput_grid`] workload crossed with a fault grid —
/// every combination of `drop_rates` × `retry_budgets` becomes a
/// [`ResilienceGridPoint`] whose plan drops (and proportionately
/// duplicates/delays/reorders/corrupts, via [`LinkFaults::lossy`]) at
/// the given rate. Deadlines are sized so the budget, not the clock, is
/// the binding constraint. Deterministic in `seed`.
pub fn resilience_grid(
    clients: usize,
    repeats: usize,
    depth: usize,
    seed: u64,
    drop_rates: &[f64],
    retry_budgets: &[u32],
) -> (BatchWorkload, Vec<ResilienceGridPoint>) {
    let workload = throughput_grid(clients, repeats, depth);
    let mut points = Vec::with_capacity(drop_rates.len() * retry_budgets.len());
    for &drop_rate in drop_rates {
        for &max_retries in retry_budgets {
            let link = if drop_rate == 0.0 {
                LinkFaults::NONE
            } else {
                LinkFaults::lossy(drop_rate)
            };
            points.push(ResilienceGridPoint {
                label: format!(
                    "drop{}_retry{max_retries}",
                    (drop_rate * 100.0).round() as u32
                ),
                drop_rate,
                max_retries,
                faults: BatchFaults {
                    plan: FaultPlan::uniform(seed, link),
                    resilience: ResilienceConfig {
                        max_retries,
                        query_deadline_ticks: 256,
                        ..ResilienceConfig::default()
                    },
                },
            });
        }
    }
    (workload, points)
}

/// A cyclic delegation-mesh workload for the GEM experiments (E17).
pub struct MeshWorkload {
    pub peers: PeerMap,
    pub registry: KeyRegistry,
    /// The ring members `G0 .. G{n-1}` — every one is a valid initiator
    /// (the converged answer set is initiator-independent).
    pub peer_ids: Vec<PeerId>,
    /// The peer owning the goal (`G0`).
    pub responder: PeerId,
    /// `r(n * laps) @ "G0"` — reachable only by pumping instances around
    /// the ring `laps` times.
    pub goal: Literal,
    /// Ring laps required to derive the goal.
    pub laps: usize,
}

/// E17: a ring of `n` mutually recursive delegators, satisfiable by
/// construction — but only for a driver that can resolve cross-peer
/// loops.
///
/// Each ring member `Gi` defines its `r` instances from its ring
/// successor: `r(Y) @ "Gi" <- r(X) @ "Gsucc" @ "Gsucc", next(X, Y).` —
/// the delegated literal is resolved with `X` unbound, so every hop
/// re-requests the same goal variant and the ring closes into one
/// cross-peer SCC. The seed fact `r(0)` lives at `G0`, and the step fact
/// `next(k-1, k)` at the unique peer whose rule derives `r(k)` (index
/// `(n - k % n) % n`), so instances advance one `next` step per hop and
/// return to `G0` once per lap.
///
/// The goal `r(n * laps) @ "G0"` therefore needs `laps` full laps. The
/// classical driver unrolls exactly one lap before the variant check
/// refuses the loop, so with `laps >= 2` it fails with `CycleDetected`
/// while the GEM fixpoint converges (within `n * laps + 2` rounds).
///
/// With `chords`, `G0` additionally copies instances straight from `G2`
/// (`r(X) @ "G0" <- r(X) @ "G2" @ "G2".`), closing a second loop that
/// skips `G1` — the two loops overlap and must merge into one SCC. One
/// chord, not one per peer: every extra copy edge multiplies the
/// re-descent paths the fixpoint re-evaluates each round, so a densely
/// chorded mesh blows the per-peer query budget long before it converges.
pub fn delegation_mesh(n: usize, laps: usize, chords: bool) -> MeshWorkload {
    assert!(n >= 2, "a delegation mesh needs at least two peers");
    assert!(laps >= 1);
    let registry = fresh_registry();
    let mut peers = PeerMap::new();
    let mut peer_ids = Vec::with_capacity(n);
    let target = n * laps;

    for i in 0..n {
        let name = format!("G{i}");
        let succ = format!("G{}", (i + 1) % n);
        let mut program = format!(
            r#"
            r(Y) @ "{name}" <- r(X) @ "{succ}" @ "{succ}", next(X, Y).
            r(X) @ Y $ true <-_true r(X) @ Y.
            "#
        );
        if chords && n > 2 && i == 0 {
            program.push_str(r#"r(X) @ "G0" <- r(X) @ "G2" @ "G2"."#);
            program.push('\n');
        }
        if i == 0 {
            program.push_str(&format!(r#"r(0) @ "{name}"."#));
            program.push('\n');
        }
        // next(k-1, k) lives at the peer whose rule derives r(k).
        for k in 1..=target {
            if (n - k % n) % n == i {
                program.push_str(&format!("next({}, {k}).\n", k - 1));
            }
        }
        let mut peer = NegotiationPeer::new(name.as_str(), registry.clone());
        peer.load_program(&program).expect("mesh program parses");
        peers.insert(peer);
        peer_ids.push(PeerId::new(&name));
    }

    MeshWorkload {
        peers,
        registry,
        peer_ids,
        responder: PeerId::new("G0"),
        goal: peertrust_parser::parse_literal(&format!(r#"r({target}) @ "G0""#))
            .expect("mesh goal parses"),
        laps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peertrust_negotiation::{verify_safe_sequence, Strategy};
    use peertrust_net::{NegotiationId, SimNetwork};

    fn run(w: &mut Workload, strategy: Strategy) -> peertrust_negotiation::NegotiationOutcome {
        let mut net = SimNetwork::new(w.requester.0.index() as u64);
        strategy.run(
            &mut w.peers,
            &mut net,
            NegotiationId(1),
            w.requester,
            w.responder,
            w.goal.clone(),
        )
    }

    #[test]
    fn chain_depth_1_succeeds_trivially() {
        for strategy in Strategy::ALL {
            let mut w = chain(1);
            let out = run(&mut w, strategy);
            assert!(out.success, "{strategy} on depth 1: {:#?}", out.refusals);
            assert_eq!(out.credential_count(), 1);
        }
    }

    #[test]
    fn chain_messages_grow_with_depth() {
        let mut sizes = Vec::new();
        for depth in [1, 3, 5, 7] {
            let mut w = chain(depth);
            let out = run(&mut w, Strategy::Parsimonious);
            assert!(out.success, "depth {depth}: {:#?}", out.refusals);
            assert_eq!(out.credential_count(), depth, "depth {depth}");
            verify_safe_sequence(&out).unwrap();
            sizes.push(out.messages);
        }
        assert!(
            sizes.windows(2).all(|w| w[0] < w[1]),
            "messages must grow with depth: {sizes:?}"
        );
    }

    #[test]
    fn chain_eager_matches_parsimonious_disclosures() {
        // On a pure chain, every credential is needed, so both strategies
        // disclose exactly `depth` credentials.
        for depth in [2, 4, 6] {
            let mut wp = chain(depth);
            let pars = run(&mut wp, Strategy::Parsimonious);
            let mut we = chain(depth);
            let eag = run(&mut we, Strategy::Eager);
            assert!(pars.success && eag.success, "depth {depth}");
            assert_eq!(pars.credential_count(), depth);
            assert_eq!(eag.credential_count(), depth);
            assert!(eag.queries == 0 && pars.queries > 0);
        }
    }

    #[test]
    fn random_acyclic_instances_are_satisfiable_and_strategies_agree() {
        for seed in 0..10 {
            let cfg = RandomPolicyConfig {
                allow_cycles: false,
                seed,
                ..RandomPolicyConfig::default()
            };
            let w = random_policies(cfg);
            assert!(
                w.satisfiable,
                "acyclic instances always unlock (seed {seed})"
            );
            for strategy in Strategy::ALL {
                let mut w = random_policies(cfg);
                let out = run(&mut w, strategy);
                assert!(out.success, "seed {seed} {strategy}: {:#?}", out.refusals);
            }
        }
    }

    #[test]
    fn random_cyclic_instances_match_ground_truth() {
        let mut sat = 0;
        let mut unsat = 0;
        for seed in 0..30 {
            let cfg = RandomPolicyConfig {
                allow_cycles: true,
                public_prob: 0.15,
                seed,
                ..RandomPolicyConfig::default()
            };
            let w = random_policies(cfg);
            if w.satisfiable {
                sat += 1;
            } else {
                unsat += 1;
            }
            // The eager strategy is complete: success iff satisfiable.
            let mut we = random_policies(cfg);
            let out = run(&mut we, Strategy::Eager);
            assert_eq!(
                out.success, w.satisfiable,
                "eager must match ground truth (seed {seed})"
            );
        }
        assert!(
            sat > 0 && unsat > 0,
            "sweep covers both outcomes ({sat}/{unsat})"
        );
    }

    #[test]
    fn delegation_chain_discovers_and_verifies() {
        for depth in [1, 2, 4] {
            let mut w = delegation_chain(depth);
            let out = run(&mut w, Strategy::Parsimonious);
            assert!(out.success, "depth {depth}: {:#?}", out.refusals);
            verify_safe_sequence(&out).unwrap();
        }
    }

    #[test]
    fn throughput_grid_jobs_all_succeed_in_a_batch() {
        use peertrust_negotiation::{negotiate_batch, BatchConfig};
        let w = throughput_grid(3, 2, 2);
        assert_eq!(w.jobs.len(), 6);
        let report = negotiate_batch(
            &w.peers,
            &w.jobs,
            &BatchConfig::default(),
            &peertrust_telemetry::Telemetry::disabled(),
        );
        assert_eq!(report.outcomes.len(), 6);
        for (i, out) in report.outcomes.iter().enumerate() {
            assert!(out.success, "job {i}: {:#?}", out.refusals);
            assert_eq!(out.credential_count(), 2, "job {i} discloses the chain");
            verify_safe_sequence(out).unwrap();
        }
        assert_eq!(report.stats.successes, 6);
    }

    #[test]
    fn throughput_grid_warm_cache_matches_cold_results() {
        use peertrust_negotiation::{negotiate_batch, BatchConfig, SharedRemoteAnswerCache};
        let w = throughput_grid(2, 3, 2);
        let cold = negotiate_batch(
            &w.peers,
            &w.jobs,
            &BatchConfig::default(),
            &peertrust_telemetry::Telemetry::disabled(),
        );
        let cache = SharedRemoteAnswerCache::new();
        let warm_cfg = BatchConfig {
            workers: 2,
            shared_cache: Some(cache),
            ..BatchConfig::default()
        };
        let warm = negotiate_batch(
            &w.peers,
            &w.jobs,
            &warm_cfg,
            &peertrust_telemetry::Telemetry::disabled(),
        );
        for (c, wo) in cold.outcomes.iter().zip(warm.outcomes.iter()) {
            assert_eq!(c.success, wo.success);
            assert_eq!(c.granted, wo.granted);
            assert_eq!(c.requester, wo.requester);
            assert_eq!(c.goal, wo.goal);
        }
    }

    #[test]
    fn warm_cache_batch_under_faults_reaches_the_clean_results() {
        use peertrust_negotiation::{
            negotiate_batch, BatchConfig, BatchFaults, ResilienceConfig, SharedRemoteAnswerCache,
        };
        use peertrust_net::{FaultPlan, LinkFaults};
        let w = throughput_grid(4, 3, 3);
        let tele = peertrust_telemetry::Telemetry::disabled();
        let clean = negotiate_batch(&w.peers, &w.jobs, &BatchConfig::default(), &tele);
        for workers in [1, 2, 4] {
            let cfg = BatchConfig {
                workers,
                shared_cache: Some(SharedRemoteAnswerCache::new()),
                faults: Some(BatchFaults {
                    plan: FaultPlan::uniform(23, LinkFaults::drops(0.2)),
                    resilience: ResilienceConfig {
                        max_retries: 8,
                        query_deadline_ticks: 256,
                        ..ResilienceConfig::default()
                    },
                }),
                ..BatchConfig::default()
            };
            let report = negotiate_batch(&w.peers, &w.jobs, &cfg, &tele);
            assert_eq!(report.stats.jobs, 12);
            assert_eq!(report.stats.converged, 12, "{workers} workers");
            assert!(report.stats.resilience.retries > 0, "drops force retries");
            assert!(report.stats.cache.hits > 0, "repeats hit the shared cache");
            for (faulty, clean) in report.outcomes.iter().zip(&clean.outcomes) {
                assert_eq!(faulty.success, clean.success, "{workers} workers");
                assert_eq!(faulty.granted, clean.granted, "{workers} workers");
            }
        }
    }

    #[test]
    fn serving_workload_is_deterministic_and_zipf_skewed() {
        let key = |w: &ServingWorkload| {
            w.jobs
                .iter()
                .map(|j| format!("{}>{}:{}", j.requester, j.responder, j.goal))
                .collect::<Vec<_>>()
        };
        let a = serving_workload(8, 2, 400, 1.1, 42);
        let b = serving_workload(8, 2, 400, 1.1, 42);
        assert_eq!(key(&a), key(&b), "same seed, same stream");
        assert_eq!(a.popularity, b.popularity);
        let c = serving_workload(8, 2, 400, 1.1, 43);
        assert_ne!(key(&a), key(&c), "different seed, different stream");

        assert_eq!(a.jobs.len(), 400);
        assert_eq!(a.popularity.iter().sum::<usize>(), 400);
        // Zipf skew: the hottest resource dominates the coldest, and the
        // hot half carries most of the traffic.
        assert!(a.popularity[0] > a.popularity[7] * 2, "{:?}", a.popularity);
        let hot: usize = a.popularity[..4].iter().sum();
        assert!(hot * 2 > 400, "hot half carries most traffic");
        // s = 0 degrades to roughly uniform.
        let u = serving_workload(8, 2, 400, 0.0, 42);
        assert!(
            u.popularity.iter().all(|&n| n > 20 && n < 80),
            "{:?}",
            u.popularity
        );
    }

    #[test]
    fn serving_workload_jobs_negotiate_successfully() {
        let w = serving_workload(3, 2, 6, 1.0, 7);
        use peertrust_negotiation::{negotiate_batch, BatchConfig};
        let report = negotiate_batch(
            &w.peers,
            &w.jobs,
            &BatchConfig::default(),
            &peertrust_telemetry::Telemetry::disabled(),
        );
        assert_eq!(report.stats.successes, 6, "every sampled goal succeeds");
    }

    #[test]
    fn resilience_grid_points_converge_with_retries() {
        use peertrust_negotiation::{negotiate_batch, BatchConfig};
        let (w, points) = resilience_grid(2, 2, 2, 17, &[0.0, 0.2], &[4]);
        assert_eq!(points.len(), 2);
        let clean = negotiate_batch(
            &w.peers,
            &w.jobs,
            &BatchConfig::default(),
            &peertrust_telemetry::Telemetry::disabled(),
        );
        for point in points {
            let report = negotiate_batch(
                &w.peers,
                &w.jobs,
                &BatchConfig {
                    faults: Some(point.faults.clone()),
                    ..BatchConfig::default()
                },
                &peertrust_telemetry::Telemetry::disabled(),
            );
            assert_eq!(
                report.stats.converged, report.stats.jobs,
                "{} must converge",
                point.label
            );
            assert_eq!(
                report.stats.successes, clean.stats.successes,
                "{}",
                point.label
            );
        }
    }

    #[test]
    fn ensure_satisfiable_forces_cyclic_instances_to_unlock() {
        for seed in 0..30 {
            let cfg = RandomPolicyConfig {
                allow_cycles: true,
                public_prob: 0.15,
                ensure_satisfiable: true,
                seed,
                ..RandomPolicyConfig::default()
            };
            let w = random_policies(cfg);
            assert!(w.satisfiable, "seed {seed} must be satisfiable");
            let mut we = random_policies(cfg);
            let out = run(&mut we, Strategy::Eager);
            assert!(out.success, "seed {seed}: {:#?}", out.refusals);
        }
    }

    #[test]
    fn delegation_mesh_needs_gem_beyond_one_lap() {
        use peertrust_negotiation::{negotiate, NegotiateOptions, RefusalReason, SessionConfig};
        let gem_opts = NegotiateOptions {
            session: SessionConfig {
                gem: true,
                gem_max_rounds: 32,
                ..SessionConfig::default()
            },
            ..NegotiateOptions::default()
        };
        for (n, laps, chords) in [(2, 2, false), (3, 2, false), (4, 2, true)] {
            // Classical driver: one lap of unrolling, then CycleDetected.
            let mut w = delegation_mesh(n, laps, chords);
            let mut net = SimNetwork::new(5);
            let initiator = w.peer_ids[1];
            let out = Strategy::Parsimonious.run(
                &mut w.peers,
                &mut net,
                NegotiationId(1),
                initiator,
                w.responder,
                w.goal.clone(),
            );
            assert!(!out.success, "n={n} laps={laps}: classical must refuse");
            assert!(out
                .refusals
                .iter()
                .any(|r| r.reason == RefusalReason::CycleDetected));

            // GEM: the fixpoint pumps instances around the ring.
            let mut w = delegation_mesh(n, laps, chords);
            let mut net = SimNetwork::new(5);
            let (out, _) = negotiate(
                &mut w.peers,
                &mut net,
                &gem_opts,
                NegotiationId(1),
                initiator,
                w.responder,
                w.goal.clone(),
            );
            assert!(
                out.success,
                "n={n} laps={laps} chords={chords}: {:#?}",
                out.refusals
            );
            assert_eq!(out.granted[0], w.goal);
            assert!(!out
                .refusals
                .iter()
                .any(|r| r.reason == RefusalReason::CycleDetected));
        }
    }

    #[test]
    fn delegation_mesh_single_lap_succeeds_classically() {
        // laps = 1 is within the classical driver's single unrolling —
        // the mesh generator's satisfiability claim degenerates cleanly.
        let mut w = delegation_mesh(3, 1, false);
        let out = run(
            &mut Workload {
                peers: std::mem::take(&mut w.peers),
                registry: w.registry.clone(),
                requester: w.peer_ids[2],
                responder: w.responder,
                goal: w.goal.clone(),
                satisfiable: true,
            },
            Strategy::Parsimonious,
        );
        assert!(out.success, "{:#?}", out.refusals);
    }

    #[test]
    fn fleet_clients_negotiate_independently() {
        let (mut peers, _reg, goals) = fleet(4);
        let mut net = SimNetwork::new(99);
        for (i, (client, goal)) in goals.iter().enumerate() {
            let out = Strategy::Parsimonious.run(
                &mut peers,
                &mut net,
                NegotiationId(i as u64),
                *client,
                PeerId::new(SERVER),
                goal.clone(),
            );
            assert!(out.success, "client {i}: {:#?}", out.refusals);
        }
    }
}
