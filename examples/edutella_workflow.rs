//! The full Edutella workflow in one program (paper §1 + §3.1 + §6):
//!
//! 1. course providers publish **RDF metadata**, imported into their
//!    knowledge bases;
//! 2. the **super-peer routing layer** discovers who offers the course
//!    Alice wants;
//! 3. a **trust negotiation** establishes access (bilateral disclosure);
//! 4. the provider issues a **nontransferable access token**, so repeat
//!    visits need no renegotiation;
//! 5. everything lands in a **tamper-evident audit trail**.
//!
//! Run with: `cargo run --example edutella_workflow`

use peertrust::core::{PeerId, Sym};
use peertrust::crypto::{KeyRegistry, RevocationList};
use peertrust::negotiation::{
    issue_ticket, redeem_ticket, AuditLog, NegotiationPeer, PeerMap, Strategy,
};
use peertrust::net::{NegotiationId, SimNetwork, SuperPeerNetwork};
use peertrust::parser::parse_literal;
use peertrust::rdf::{import_metadata, parse_ntriples, TripleStore};

const CATALOG: &str = r#"
<http://elearn.example/courses/spanish101> <http://elearn.example/terms#subject> "spanish" .
<http://elearn.example/courses/spanish101> <http://elearn.example/terms#level> "beginner" .
<http://elearn.example/catalog> <http://elearn.example/terms#peertrustPolicy> "offersSpanish(C) <- subject(C, \"spanish\")." .
"#;

fn main() {
    println!("=== Edutella workflow: metadata -> discovery -> negotiation -> token ===\n");

    // --- Setup: registry, peers, metadata. ---
    let registry = KeyRegistry::new();
    registry.register_derived(PeerId::new("UIUC"), 1);
    registry.register_derived(PeerId::new("BBB"), 2);
    registry.register_derived(PeerId::new("E-Learn"), 3);

    let mut peers = PeerMap::new();
    let mut elearn = NegotiationPeer::new("E-Learn", registry.clone());
    let store: TripleStore = parse_ntriples(CATALOG).unwrap().into_iter().collect();
    let imported = import_metadata(&store, &mut elearn.kb).unwrap();
    println!("1. E-Learn imported {imported} rules from its RDF catalog");
    elearn
        .load_program(
            r#"
            enroll(C, X) $ true <- offersSpanish(C), student(X) @ "UIUC" @ X.
            member("E-Learn") @ "BBB" $ true signedBy ["BBB"].
            "#,
        )
        .unwrap();
    peers.insert(elearn);

    let mut alice = NegotiationPeer::new("Alice", registry.clone());
    alice
        .load_program(
            r#"
            student("Alice") @ "UIUC" signedBy ["UIUC"].
            student(X) @ Y $ member(Requester) @ "BBB" @ Requester <-_true student(X) @ Y.
            "#,
        )
        .unwrap();
    peers.insert(alice);

    // --- Discovery over the super-peer backbone. ---
    let mut spn = SuperPeerNetwork::new([PeerId::new("SP1"), PeerId::new("SP2")]);
    spn.attach(PeerId::new("E-Learn"), PeerId::new("SP2"));
    spn.attach(PeerId::new("Alice"), PeerId::new("SP1"));
    spn.advertise(PeerId::new("E-Learn"), Sym::new("enroll"));
    let lookup = spn.lookup(PeerId::new("Alice"), Sym::new("enroll"), true);
    println!(
        "2. discovery: providers of `enroll` = {:?} ({} backbone hops)",
        lookup.providers, lookup.hops
    );
    let provider = lookup.providers[0];

    // --- Negotiation. ---
    let mut net = SimNetwork::new(99);
    let goal = parse_literal(r#"enroll(C, "Alice")"#).unwrap();
    let outcome = Strategy::Parsimonious.run(
        &mut peers,
        &mut net,
        NegotiationId(1),
        PeerId::new("Alice"),
        provider,
        goal,
    );
    println!(
        "3. negotiation: success={} granted={:?} messages={}",
        outcome.success,
        outcome
            .granted
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>(),
        outcome.messages
    );
    assert!(outcome.success);

    // --- Token issuance & repeat access. ---
    let revocations = RevocationList::new();
    let elearn_ref = peers.get(provider).unwrap();
    let ticket = issue_ticket(elearn_ref, &outcome, 1, 500).unwrap();
    let resource = outcome.granted[0].clone();
    for visit in 1..=3u32 {
        redeem_ticket(
            elearn_ref,
            &revocations,
            &ticket,
            PeerId::new("Alice"),
            &resource,
            u64::from(visit) * 10,
        )
        .unwrap();
    }
    println!("4. token: 3 repeat visits redeemed with zero messages");

    // --- Audit trail. ---
    let mut audit = AuditLog::new();
    audit.record(net.now(), outcome);
    audit.verify_chain().unwrap();
    let (ok, fail) = audit.stats();
    println!(
        "5. audit: {} record(s), chain verified ({ok} success / {fail} failure)",
        audit.len()
    );

    println!("\nworkflow complete.");
}
