//! The four workloads: their peer maps (built and frozen at set-up), the
//! seeded job schedule, and each job's pinned expected outcome.
//!
//! `--seed` picks request order and Zipf draws, never the policies. Why
//! each workload exists is recorded in this directory's README.md.

use peertrust_core::{Literal, PeerId, Term};
use peertrust_crypto::KeyRegistry;
use peertrust_engine::canonicalize;
use peertrust_negotiation::{
    verify_safe_sequence, NegotiationOutcome, NegotiationPeer, PeerMap, Strategy,
};
use peertrust_rdf::{import_metadata, parse_ntriples, TripleStore};
use peertrust_scenarios::{
    chain, serving_workload, Ablation1, Ablation2, Scenario1, Scenario2, Variant2,
};
use std::fmt::Write as _;

pub const NAMES: [&str; 4] = ["paper_mix", "deep_chain", "catalog_closure", "zipf_serve"];

/// What a job must produce. A mismatch on any field is a wrong outcome.
#[derive(Clone, Debug)]
pub struct Expect {
    pub success: bool,
    /// The first granted literal, variables canonicalized (`None` for an
    /// expected denial).
    pub granted: Option<String>,
    pub messages: u64,
    pub credentials: usize,
}

impl Expect {
    fn grant(granted: impl Into<String>, messages: u64, credentials: usize) -> Expect {
        Expect {
            success: true,
            granted: Some(granted.into()),
            messages,
            credentials,
        }
    }

    fn deny(messages: u64) -> Expect {
        Expect {
            success: false,
            granted: None,
            messages,
            credentials: 0,
        }
    }

    /// Check an outcome against this expectation and the paper's
    /// safe-disclosure property.
    pub fn check(&self, out: &NegotiationOutcome) -> Result<(), String> {
        if out.success != self.success {
            return Err(format!(
                "expected success={}, got {} (refusals: {:?})",
                self.success,
                out.success,
                out.refusals.iter().map(|r| &r.reason).collect::<Vec<_>>()
            ));
        }
        if let Some(want) = &self.granted {
            let got = out.granted.first().map(|g| canonicalize(g).to_string());
            if got.as_deref() != Some(want.as_str()) {
                return Err(format!("granted {got:?}, expected {want:?}"));
            }
        }
        if out.messages != self.messages {
            return Err(format!(
                "{} messages, expected {}",
                out.messages, self.messages
            ));
        }
        if out.credential_count() != self.credentials {
            return Err(format!(
                "{} credentials disclosed, expected {}",
                out.credential_count(),
                self.credentials
            ));
        }
        verify_safe_sequence(out).map_err(|v| format!("unsafe disclosure sequence: {v:?}"))
    }
}

/// One negotiation of the schedule.
#[derive(Clone)]
pub struct Job {
    /// Index into [`Workload::bases`].
    pub base: usize,
    pub strategy: Strategy,
    pub requester: PeerId,
    pub responder: PeerId,
    pub goal: Literal,
    pub expect: Expect,
}

pub struct Workload {
    pub name: &'static str,
    /// Frozen peer maps; every job negotiates on a copy-on-write clone.
    pub bases: Vec<PeerMap>,
    /// The schedule. Job `i` of a run is `jobs[i % jobs.len()]`.
    pub jobs: Vec<Job>,
}

impl Workload {
    pub fn job(&self, i: usize) -> &Job {
        &self.jobs[i % self.jobs.len()]
    }
}

/// Build workload `name` for `seed`, or `None` for an unknown name. This
/// is the whole of set-up: parse, sign, RDF import and freeze.
pub fn build(name: &str, seed: u64) -> Option<Workload> {
    let (name, mut bases, jobs) = match name {
        "paper_mix" => paper_mix(seed),
        "deep_chain" => deep_chain(),
        "catalog_closure" => catalog_closure(seed),
        "zipf_serve" => zipf_serve(seed),
        _ => return None,
    };
    for base in &mut bases {
        base.freeze();
    }
    Some(Workload { name, bases, jobs })
}

type Parts = (&'static str, Vec<PeerMap>, Vec<Job>);

/// splitmix64: the schedule generator. Only request order and draws
/// depend on it.
struct SplitMix(u64);

impl SplitMix {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }
}

/// Blocks of the paper mix in the schedule. Each block is one seeded
/// permutation of every kind, so any 8-job-aligned prefix holds each kind
/// equally often whatever the seed.
const PAPER_BLOCKS: usize = 128;

/// The §4.1/§4.2 negotiations. Pinned counts are EXPERIMENTS.md rows:
/// E1 full parsimonious/eager and NoStudentId, E2 free-course, paid-base,
/// price-too-high, paid-revocation and paid-broker.
fn paper_mix(seed: u64) -> Parts {
    let bases = vec![
        Scenario1::build().peers,
        Scenario1::build_ablated(Ablation1::NoStudentId).peers,
        Scenario2::build(Variant2::Base).peers,
        Scenario2::build_ablated(Variant2::Base, Ablation2::PriceTooHigh).peers,
        Scenario2::build(Variant2::RevocationCheck).peers,
        Scenario2::build(Variant2::Broker).peers,
    ];
    let alice = PeerId::new("Alice");
    let bob = PeerId::new("Bob");
    let elearn = PeerId::new("E-Learn");
    let discount = r#"discountEnroll(spanish101, "Alice")"#;
    let paid = r#"enroll(cs411, "Bob", "IBM", _C_1, 1000)"#;
    let s1 = |base, strategy, expect| Job {
        base,
        strategy,
        requester: alice,
        responder: elearn,
        goal: Scenario1::goal(),
        expect,
    };
    let s2 = |base, goal, expect| Job {
        base,
        strategy: Strategy::Parsimonious,
        requester: bob,
        responder: elearn,
        goal,
        expect,
    };
    let kinds = [
        s1(0, Strategy::Parsimonious, Expect::grant(discount, 9, 4)),
        s1(0, Strategy::Eager, Expect::grant(discount, 2, 3)),
        s1(1, Strategy::Parsimonious, Expect::deny(6)),
        s2(
            2,
            Scenario2::free_goal(),
            Expect::grant(r#"enroll(cs101, "Bob", "IBM", "Bob@ibm.com", 0)"#, 13, 3),
        ),
        s2(2, Scenario2::paid_goal(1000), Expect::grant(paid, 14, 4)),
        s2(3, Scenario2::paid_goal(2500), Expect::deny(4)),
        s2(4, Scenario2::paid_goal(1000), Expect::grant(paid, 16, 4)),
        s2(5, Scenario2::paid_goal(1000), Expect::grant(paid, 18, 4)),
    ];
    let mut rng = SplitMix(seed);
    let mut jobs = Vec::with_capacity(PAPER_BLOCKS * kinds.len());
    for _ in 0..PAPER_BLOCKS {
        let mut order: Vec<usize> = (0..kinds.len()).collect();
        for k in (1..order.len()).rev() {
            order.swap(k, rng.below(k + 1));
        }
        jobs.extend(order.into_iter().map(|k| kinds[k].clone()));
    }
    ("paper_mix", bases, jobs)
}

/// EXPERIMENTS.md E3, depth 32, parsimonious: 98 messages, 32
/// credentials, query nesting 63.
fn deep_chain() -> Parts {
    let w = chain(32);
    let job = Job {
        base: 0,
        strategy: Strategy::Parsimonious,
        requester: w.requester,
        responder: w.responder,
        goal: w.goal.clone(),
        expect: Expect::grant(r#"resource("Client")"#, 98, 32),
    };
    ("deep_chain", vec![w.peers], vec![job])
}

const COURSES: usize = 8192;
const CHAIN_DEPTH: usize = 96;
const CATALOG_CA: &str = "CatalogCA";

fn course(n: usize) -> String {
    // Fixed width, so every request moves the same number of bytes.
    format!("c{n:05}")
}

/// The catalogue as N-Triples: courses in prerequisite chains of
/// `CHAIN_DEPTH`, each chain ending at the shared `root` course.
fn catalog_ntriples() -> String {
    let mut nt = String::with_capacity(COURSES * 120);
    for n in 0..COURSES {
        let prereq = if n % CHAIN_DEPTH == 0 {
            "root".to_string()
        } else {
            course(n - 1)
        };
        writeln!(
            nt,
            "<http://elearn.example/courses/{}> <http://elearn.example/terms#prereq> <http://elearn.example/courses/{prereq}> .",
            course(n)
        )
        .expect("writing to a String cannot fail");
    }
    nt
}

/// A catalogue server whose grant needs one client credential plus the
/// `prereq` closure from the requested course down to `root`.
fn catalog_closure(seed: u64) -> Parts {
    let registry = KeyRegistry::new();
    registry.register_derived(PeerId::new(CATALOG_CA), 500);
    let mut server = NegotiationPeer::new("Catalog", registry.clone());
    server
        .load_program(
            r#"
            enroll(Course, X) $ true <- idCard(X) @ X, requires(Course, root).
            requires(C, P) <- prereq(C, P).
            requires(C, P) <- prereq(C, Q), requires(Q, P).
            "#,
        )
        .expect("catalogue policy parses");
    let triples = parse_ntriples(&catalog_ntriples()).expect("generated N-Triples parse");
    let store: TripleStore = triples.into_iter().collect();
    import_metadata(&store, &mut server.kb).expect("catalogue imports");
    let mut client = NegotiationPeer::new("Client", registry);
    client
        .load_program(&format!(
            r#"
            idCard("Client") signedBy ["{CATALOG_CA}"].
            idCard(X) $ true <-_true idCard(X).
            "#
        ))
        .expect("client program parses");
    let (requester, responder) = (client.id, server.id);
    let mut peers = PeerMap::new();
    peers.insert(server);
    peers.insert(client);

    let mut rng = SplitMix(seed);
    let jobs = (0..COURSES)
        .map(|_| {
            let c = course(rng.below(COURSES));
            Job {
                base: 0,
                strategy: Strategy::Parsimonious,
                requester,
                responder,
                goal: Literal::new("enroll", vec![Term::atom(c.as_str()), Term::str("Client")]),
                expect: Expect::grant(format!(r#"enroll({c}, "Client")"#), 5, 1),
            }
        })
        .collect();
    ("catalog_closure", vec![peers], jobs)
}

/// E18's serving workload: 64 clients behind depth-4 release chains and a
/// Zipf(1.1) request stream.
fn zipf_serve(seed: u64) -> Parts {
    let w = serving_workload(64, 4, 4096, 1.1, seed);
    let jobs = w
        .jobs
        .iter()
        .map(|j| Job {
            base: 0,
            strategy: Strategy::Parsimonious,
            requester: j.requester,
            responder: j.responder,
            goal: j.goal.clone(),
            expect: Expect::grant(canonicalize(&j.goal).to_string(), 14, 4),
        })
        .collect();
    ("zipf_serve", vec![w.peers], jobs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_draws_are_uniform_in_range() {
        let mut rng = SplitMix(3);
        let mut seen = [0usize; 8];
        for _ in 0..8000 {
            seen[rng.below(8)] += 1;
        }
        assert!(seen.iter().all(|&n| (800..1200).contains(&n)), "{seen:?}");
    }

    #[test]
    fn paper_mix_blocks_hold_every_kind_once() {
        let (_, _, jobs) = paper_mix(9);
        assert_eq!(jobs.len(), PAPER_BLOCKS * 8);
        for block in jobs.chunks(8) {
            let mut kinds: Vec<(usize, u64, bool)> = block
                .iter()
                .map(|j| (j.base, j.expect.messages, j.strategy == Strategy::Eager))
                .collect();
            kinds.sort();
            kinds.dedup();
            assert_eq!(kinds.len(), 8);
        }
    }

    #[test]
    fn catalogue_chains_end_at_root() {
        let nt = catalog_ntriples();
        assert_eq!(nt.lines().count(), COURSES);
        let roots = nt.lines().filter(|l| l.contains("courses/root>")).count();
        assert_eq!(roots, COURSES.div_ceil(CHAIN_DEPTH));
    }
}
