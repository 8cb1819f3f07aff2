//! RDF metadata driving live trust negotiations: the Edutella workflow of
//! paper §1 — course resources described by RDF, policies referencing the
//! imported attributes, negotiation deciding access.

use peertrust::core::{PeerId, Term};
use peertrust::crypto::KeyRegistry;
use peertrust::negotiation::{NegotiationPeer, PeerMap, Strategy};
use peertrust::net::{NegotiationId, SimNetwork};
use peertrust::parser::parse_literal;
use peertrust::rdf::{import_metadata, parse_ntriples, TripleStore};

const CATALOG: &str = r#"
# The E-Learn course catalog, Edutella-style.
<http://elearn.example/courses/cs101> <http://elearn.example/terms#freeCourse> "yes" .
<http://elearn.example/courses/cs101> <http://purl.org/dc/terms/title> "Intro to CS" .
<http://elearn.example/courses/cs411> <http://elearn.example/terms#price> "1000"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://elearn.example/courses/cs411> <http://purl.org/dc/terms/title> "Databases" .
<http://elearn.example/courses/ml500> <http://elearn.example/terms#price> "2500" .
<http://elearn.example/catalog> <http://elearn.example/terms#peertrustPolicy> "withinBudget(C) <- price(C, P), P < 2000." .
"#;

fn build() -> (PeerMap, KeyRegistry) {
    let registry = KeyRegistry::new();
    registry.register_derived(PeerId::new("IBM"), 1);

    let mut peers = PeerMap::new();
    let mut elearn = NegotiationPeer::new("E-Learn", registry.clone());

    // Import the RDF catalog: facts + the embedded budget policy.
    let store: TripleStore = parse_ntriples(CATALOG).unwrap().into_iter().collect();
    import_metadata(&store, &mut elearn.kb).unwrap();

    // Access policies over the *imported metadata*.
    elearn
        .load_program(
            r#"
            enrollFree(Course, X) $ true <-
                freeCourse(Course, "yes").
            enrollPaid(Course, X) $ true <-
                withinBudget(Course),
                authorized(X) @ "IBM" @ X.
            "#,
        )
        .unwrap();
    peers.insert(elearn);

    let mut bob = NegotiationPeer::new("Bob", registry.clone());
    bob.load_program(
        r#"
        authorized("Bob") @ "IBM" signedBy ["IBM"].
        authorized(X) @ Y $ true <-_true authorized(X) @ Y.
        "#,
    )
    .unwrap();
    peers.insert(bob);

    (peers, registry)
}

fn run(peers: &mut PeerMap, goal: &str) -> peertrust::negotiation::NegotiationOutcome {
    let mut net = SimNetwork::new(3);
    Strategy::Parsimonious.run(
        peers,
        &mut net,
        NegotiationId(1),
        PeerId::new("Bob"),
        PeerId::new("E-Learn"),
        parse_literal(goal).unwrap(),
    )
}

#[test]
fn free_course_from_rdf_attribute() {
    let (mut peers, _) = build();
    let out = run(&mut peers, r#"enrollFree(cs101, "Bob")"#);
    assert!(out.success, "{:#?}", out.refusals);
    assert_eq!(out.credential_count(), 0);
}

#[test]
fn paid_course_within_embedded_budget_policy() {
    // cs411 at 1000 passes the RDF-embedded `withinBudget` rule; Bob's
    // authorization is negotiated.
    let (mut peers, _) = build();
    let out = run(&mut peers, r#"enrollPaid(cs411, "Bob")"#);
    assert!(out.success, "{:#?}", out.refusals);
    assert!(out.credential_count() >= 1);
}

#[test]
fn course_over_budget_is_rejected_by_metadata() {
    // ml500 costs 2500: the embedded policy filters it before any
    // credential is requested.
    let (mut peers, _) = build();
    let out = run(&mut peers, r#"enrollPaid(ml500, "Bob")"#);
    assert!(!out.success);
    assert_eq!(
        out.credential_count(),
        0,
        "no negotiation for a filtered course"
    );
}

#[test]
fn metadata_enumerates_the_accessible_catalog() {
    let (mut peers, _) = build();
    let out = run(&mut peers, r#"enrollPaid(C, "Bob")"#);
    assert!(out.success);
    let courses: Vec<String> = out.granted.iter().map(|g| g.args[0].to_string()).collect();
    assert_eq!(courses, vec!["cs411"]);
}

#[test]
fn raw_triples_are_queryable_alongside() {
    let (peers, _) = build();
    let elearn = peers.get(PeerId::new("E-Learn")).unwrap();
    let mut solver = peertrust::engine::Solver::new(&elearn.kb, PeerId::new("E-Learn"));
    let sols = solver.solve(&peertrust::parser::parse_goals("triple(cs411, title, T)").unwrap());
    assert_eq!(sols.len(), 1);
    assert_eq!(sols[0].subst.apply(&Term::var("T")), Term::str("Databases"));
}
