//! Property tests of the copy-on-write [`PeerMap`]: random interleavings
//! of inserts, writes through `get_mut`, freezes, clones and drops, run
//! against an oracle per map that keeps every peer outside any `PeerMap`.
//!
//! Checked after every operation, on the original and on every kept
//! clone:
//!
//! 1. `get`, `contains` and `ids` agree with the oracle, so a clone keeps
//!    its view after later writes to the original and the other way round;
//! 2. `is_frozen` holds right after `freeze` and fails after a write;
//! 3. a clone of a frozen map shares its frozen bases with that map
//!    through writes (`shares_frozen_bases_with`).
//!
//! A second property runs sequences of negotiations on a never-frozen map
//! and on frozen copies, and compares outcomes and KB entries.

use peertrust_core::{Literal, PeerId, Rule, RuleId, RuleOrigin, Term};
use peertrust_crypto::{KeyRegistry, SignedRule};
use peertrust_negotiation::{negotiate, NegotiateOptions, NegotiationPeer, PeerMap};
use peertrust_net::{NegotiationId, SimNetwork};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::BTreeMap;

const CA: &str = "MapCA";
/// Peer ids the operations draw from; inserts reuse them, so some insert
/// a new peer and some replace one.
const IDS: usize = 4;
/// Distinct pushed credentials; re-pushes are duplicates.
const CREDS: usize = 4;

fn registry() -> KeyRegistry {
    let reg = KeyRegistry::new();
    reg.register_derived(PeerId::new(CA), 3);
    reg
}

fn peer_id(i: usize) -> PeerId {
    PeerId::new(&format!("P{i}"))
}

type Entries = Vec<(RuleId, Rule, RuleOrigin)>;

/// A peer's KB and certified-view entries.
fn entries(p: &NegotiationPeer) -> (Entries, Entries) {
    let of = |kb: &peertrust_core::KnowledgeBase| {
        kb.iter()
            .map(|sr| (sr.id, (*sr.rule).clone(), sr.origin))
            .collect()
    };
    (of(&p.kb), of(p.signed_only_kb()))
}

/// One operation on model `map` (counted modulo the models alive).
#[derive(Clone, Debug)]
struct Op {
    map: usize,
    kind: Kind,
}

#[derive(Clone, Debug)]
enum Kind {
    /// Insert a fresh peer `id` holding `facts` local facts.
    Insert {
        id: usize,
        facts: usize,
    },
    /// `get_mut(id)`, then `add_rule` of fact `k`.
    AddRule {
        id: usize,
        k: usize,
    },
    /// `get_mut(id)`, then `receive_signed` of pushed credential `cred`.
    Receive {
        id: usize,
        cred: usize,
    },
    Freeze,
    /// Clone the map and keep the clone.
    Clone,
    /// Drop the map, unless it is the original (model 0).
    Drop,
}

fn arb_op() -> impl Strategy<Value = Op> {
    let kind = prop_oneof![
        (0..IDS, 0usize..3).prop_map(|(id, facts)| Kind::Insert { id, facts }),
        (0..IDS, 0usize..4).prop_map(|(id, k)| Kind::AddRule { id, k }),
        (0..IDS, 0..CREDS).prop_map(|(id, cred)| Kind::Receive { id, cred }),
        Just(Kind::Freeze),
        Just(Kind::Clone),
        Just(Kind::Drop),
    ];
    (0usize..8, kind).prop_map(|(map, kind)| Op { map, kind })
}

/// One map under test with its oracle.
struct Model {
    map: PeerMap,
    /// Every visible peer, kept outside any `PeerMap`.
    oracle: BTreeMap<PeerId, NegotiationPeer>,
    /// The frozen map this one was cloned from, while the clone has had
    /// only `get_mut` writes since.
    shares_with: Option<PeerMap>,
}

impl Model {
    fn check(&self, step: &str) -> Result<(), TestCaseError> {
        for i in 0..IDS {
            let id = peer_id(i);
            prop_assert_eq!(
                self.map.get(id).map(entries),
                self.oracle.get(&id).map(entries),
                "get({}) after {}",
                id,
                step
            );
            prop_assert_eq!(self.map.contains(id), self.oracle.contains_key(&id));
        }
        let ids: Vec<PeerId> = self.oracle.keys().copied().collect();
        prop_assert_eq!(self.map.ids(), ids, "ids after {}", step);
        if let Some(frozen) = &self.shares_with {
            prop_assert!(
                self.map.shares_frozen_bases_with(frozen),
                "a clone of a frozen map stopped sharing its bases after {}",
                step
            );
        }
        Ok(())
    }
}

/// Pushed credentials, minted by a holder that is never in a map.
fn credentials(reg: &KeyRegistry) -> Vec<SignedRule> {
    let mut holder = NegotiationPeer::new("Holder", reg.clone());
    (0..CREDS)
        .map(|k| {
            let src = if k % 2 == 0 {
                format!(r#"cred{k}("V") signedBy ["{CA}"]."#)
            } else {
                format!(r#"cred{k}("V") @ "{CA}" signedBy ["{CA}"]."#)
            };
            let id = holder.load_program(&src).unwrap()[0];
            holder.signed_rule(id).unwrap().clone()
        })
        .collect()
}

fn run_ops(ops: &[Op]) -> Result<(), TestCaseError> {
    let reg = registry();
    let creds = credentials(&reg);
    let holder = PeerId::new("Holder");
    let mut models = vec![Model {
        map: PeerMap::new(),
        oracle: BTreeMap::new(),
        shares_with: None,
    }];
    for (generation, op) in ops.iter().enumerate() {
        let step = format!("op {generation}: {op:?}");
        let at = op.map % models.len();
        let m = &mut models[at];
        match op.kind {
            Kind::Insert { id, facts } => {
                let mut peer = NegotiationPeer::new(peer_id(id), reg.clone());
                for k in 0..facts {
                    let fact =
                        Literal::new(format!("g{generation}").as_str(), vec![Term::int(k as i64)]);
                    peer.add_rule(Rule::fact(fact));
                }
                m.oracle.insert(peer.id, peer.clone());
                m.map.insert(peer);
                m.shares_with = None;
                prop_assert!(!m.map.is_frozen(), "frozen after {}", step);
            }
            Kind::AddRule { id, k } | Kind::Receive { id, cred: k } => {
                let id = peer_id(id);
                let was_frozen = m.map.is_frozen();
                let (Some(peer), Some(expected)) = (m.map.get_mut(id), m.oracle.get_mut(&id))
                else {
                    prop_assert!(!m.oracle.contains_key(&id), "get_mut({}) missed", id);
                    prop_assert_eq!(m.map.is_frozen(), was_frozen);
                    continue;
                };
                if let Kind::AddRule { .. } = op.kind {
                    let fact = Rule::fact(Literal::new("w", vec![Term::int(k as i64)]));
                    prop_assert_eq!(peer.add_rule(fact.clone()), expected.add_rule(fact));
                } else {
                    let got = peer.receive_signed(&creds[k], holder).unwrap();
                    prop_assert_eq!(got, expected.receive_signed(&creds[k], holder).unwrap());
                }
                prop_assert!(!m.map.is_frozen(), "frozen after {}", step);
            }
            Kind::Freeze => {
                if !m.map.is_frozen() {
                    m.shares_with = None;
                }
                m.map.freeze();
                prop_assert!(m.map.is_frozen(), "not frozen after {}", step);
            }
            Kind::Clone => {
                let shares_with = if m.map.is_frozen() {
                    Some(m.map.clone())
                } else {
                    m.shares_with.clone()
                };
                let clone = Model {
                    map: m.map.clone(),
                    oracle: m.oracle.clone(),
                    shares_with,
                };
                prop_assert_eq!(clone.map.is_frozen(), m.map.is_frozen());
                models.push(clone);
            }
            Kind::Drop => {
                if at > 0 {
                    models.remove(at);
                }
            }
        }
        for m in &models {
            m.check(&step)?;
        }
    }
    Ok(())
}

/// The E10 fleet in miniature: one server, `n` clients, each client's ID
/// released only to a peer proving `svc`, which the server releases to
/// anyone. Every negotiation pushes one credential each way.
fn fleet(n: usize) -> PeerMap {
    let reg = registry();
    let mut server = NegotiationPeer::new("Server", reg.clone());
    server
        .load_program(&format!(
            r#"svc("Server") @ "{CA}" signedBy ["{CA}"].
               svc(X) @ Y $ true <-_true svc(X) @ Y."#
        ))
        .unwrap();
    let mut peers = PeerMap::new();
    for c in 0..n {
        server
            .load_program(&format!(
                r#"resource{c}(X) $ true <- id{c}(X) @ "{CA}" @ X."#
            ))
            .unwrap();
        let mut client = NegotiationPeer::new(format!("Client{c}").as_str(), reg.clone());
        client
            .load_program(&format!(
                r#"id{c}("Client{c}") @ "{CA}" signedBy ["{CA}"].
                   id{c}(X) @ Y $ svc(Requester) @ "{CA}" @ Requester <-_true id{c}(X) @ Y."#
            ))
            .unwrap();
        peers.insert(client);
    }
    peers.insert(server);
    peers
}

/// Every peer's KB and certified-view entries, in id order.
fn all_entries(peers: &PeerMap) -> Vec<(PeerId, (Entries, Entries))> {
    peers
        .ids()
        .into_iter()
        .map(|id| (id, entries(peers.get(id).unwrap())))
        .collect()
}

/// Negotiate client `c`'s resource on `peers`; the serialized outcome.
fn request(peers: &mut PeerMap, i: usize, c: usize) -> String {
    let client = PeerId::new(&format!("Client{c}"));
    let goal = Literal::new(format!("resource{c}").as_str(), vec![Term::peer(client)]);
    let (out, _) = negotiate(
        peers,
        &mut SimNetwork::new(1),
        &NegotiateOptions::default(),
        NegotiationId(i as u64 + 1),
        client,
        PeerId::new("Server"),
        goal,
    );
    assert!(out.success, "{:?}", out.refusals);
    serde_json::to_string(&out).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn peer_map_agrees_with_its_oracle(ops in prop::collection::vec(arb_op(), 1..48)) {
        run_ops(&ops)?;
    }

    /// A sequence of negotiations on one never-frozen map, and on a frozen
    /// copy that is cloned before each negotiation (so its base is shared
    /// when the next one freezes it), give the same outcomes and leave
    /// every peer with the same KB entries.
    #[test]
    fn negotiate_on_a_never_frozen_map_matches_a_frozen_copy(
        clients in prop::collection::vec(0usize..3, 1..6)
    ) {
        let mut reused = fleet(3);
        let mut copy = fleet(3);
        copy.freeze();
        let mut kept = Vec::new();
        for (i, &c) in clients.iter().enumerate() {
            kept.push(copy.clone());
            prop_assert_eq!(request(&mut reused, i, c), request(&mut copy, i, c), "negotiation {}", i);
            prop_assert_eq!(all_entries(&reused), all_entries(&copy), "after negotiation {}", i);
        }
    }
}
