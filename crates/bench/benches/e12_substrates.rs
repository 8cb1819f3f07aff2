//! E12: substrate micro-costs — RDF parsing/import, super-peer routing
//! lookups, wire-codec framing, and access-token redemption vs full
//! renegotiation.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use peertrust_core::{PeerId, Sym};
use peertrust_crypto::{KeyRegistry, RevocationList};
use peertrust_negotiation::{issue_ticket, redeem_ticket, NegotiationPeer, PeerMap, Strategy};
use peertrust_net::{encode_frame, NegotiationId, SimNetwork, SuperPeerNetwork};
use peertrust_parser::parse_literal;
use peertrust_rdf::{import_metadata, parse_ntriples, TripleStore};

fn catalog(n: usize) -> String {
    let mut s = String::new();
    for i in 0..n {
        s.push_str(&format!(
            "<http://e/courses/c{i}> <http://e/terms#price> \"{}\" .\n",
            (i * 37) % 3000
        ));
        s.push_str(&format!(
            "<http://e/courses/c{i}> <http://purl.org/dc/terms/title> \"Course {i}\" .\n"
        ));
    }
    s
}

fn bench_rdf(c: &mut Criterion) {
    let mut group = c.benchmark_group("e12_rdf");
    for n in [100usize, 1_000, 10_000] {
        let doc = catalog(n);
        group.throughput(Throughput::Bytes(doc.len() as u64));
        group.bench_with_input(BenchmarkId::new("parse", n), &doc, |b, doc| {
            b.iter(|| parse_ntriples(doc).unwrap().len())
        });
        let triples = parse_ntriples(&doc).unwrap();
        group.bench_with_input(BenchmarkId::new("import", n), &triples, |b, triples| {
            b.iter_batched(
                || triples.clone().into_iter().collect::<TripleStore>(),
                |store| {
                    let mut kb = peertrust_core::KnowledgeBase::new();
                    import_metadata(&store, &mut kb).unwrap()
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn bench_routing(c: &mut Criterion) {
    let mut group = c.benchmark_group("e12_routing");
    for (sps, providers) in [(4usize, 100usize), (16, 1_000)] {
        let mut net = SuperPeerNetwork::new((0..sps).map(|i| PeerId::new(&format!("SP{i}"))));
        for p in 0..providers {
            let leaf = PeerId::new(&format!("prov{p}"));
            net.attach(leaf, PeerId::new(&format!("SP{}", p % sps)));
            net.advertise(leaf, Sym::new(&format!("svc{}", p % 50)));
        }
        let asker = PeerId::new("prov0");
        group.bench_function(format!("lookup/sps{sps}_prov{providers}"), |b| {
            b.iter(|| net.lookup(asker, Sym::new("svc42"), true).providers.len())
        });
    }
    group.finish();
}

fn bench_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("e12_codec");
    let registry = KeyRegistry::new();
    registry.register_derived(PeerId::new("UIUC"), 1);
    let rule = peertrust_core::Rule::fact(
        peertrust_core::Literal::new("student", vec![peertrust_core::Term::str("Alice")])
            .at(peertrust_core::Term::str("UIUC")),
    )
    .signed_by("UIUC");
    let signed = peertrust_crypto::sign_rule(&registry, &rule).unwrap();
    let msg = peertrust_net::Message {
        id: peertrust_net::MessageId(1),
        negotiation: NegotiationId(1),
        from: PeerId::new("Alice"),
        to: PeerId::new("E-Learn"),
        payload: peertrust_net::Payload::CredentialPush {
            rules: vec![signed],
        },
        hops: 0,
        trace: peertrust_net::TraceContext::NONE,
    };
    group.bench_function("encode_frame", |b| {
        b.iter(|| encode_frame(&msg).unwrap().len())
    });
    let frame = encode_frame(&msg).unwrap();
    group.bench_function("decode_frame", |b| {
        b.iter_batched(
            || bytes::BytesMut::from(&frame[..]),
            |mut buf| peertrust_net::decode_frame(&mut buf).unwrap(),
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_tickets(c: &mut Criterion) {
    let mut group = c.benchmark_group("e12_tickets");
    group.sample_size(20);

    let build = || {
        let registry = KeyRegistry::new();
        registry.register_derived(PeerId::new("UIUC"), 1);
        registry.register_derived(PeerId::new("Server"), 2);
        let mut peers = PeerMap::new();
        let mut server = NegotiationPeer::new("Server", registry.clone());
        server
            .load_program(r#"resource(X) $ true <- student(X) @ "UIUC" @ X."#)
            .unwrap();
        peers.insert(server);
        let mut alice = NegotiationPeer::new("Alice", registry);
        alice
            .load_program(
                r#"
                student("Alice") @ "UIUC" signedBy ["UIUC"].
                student(X) @ Y $ true <-_true student(X) @ Y.
                "#,
            )
            .unwrap();
        peers.insert(alice);
        peers
    };

    group.bench_function("renegotiate_each_visit", |b| {
        b.iter_batched(
            build,
            |mut peers| {
                let mut net = SimNetwork::new(1);
                let out = Strategy::Parsimonious.run(
                    &mut peers,
                    &mut net,
                    NegotiationId(1),
                    PeerId::new("Alice"),
                    PeerId::new("Server"),
                    parse_literal(r#"resource("Alice")"#).unwrap(),
                );
                assert!(out.success);
                out.messages
            },
            BatchSize::SmallInput,
        )
    });

    group.bench_function("redeem_token_visit", |b| {
        b.iter_batched(
            || {
                let mut peers = build();
                let mut net = SimNetwork::new(1);
                let out = Strategy::Parsimonious.run(
                    &mut peers,
                    &mut net,
                    NegotiationId(1),
                    PeerId::new("Alice"),
                    PeerId::new("Server"),
                    parse_literal(r#"resource("Alice")"#).unwrap(),
                );
                let ticket = issue_ticket(
                    peers.get(PeerId::new("Server")).unwrap(),
                    &out,
                    1,
                    1_000_000,
                )
                .unwrap();
                let resource = out.granted[0].clone();
                (peers, ticket, resource)
            },
            |(peers, ticket, resource)| {
                let server = peers.get(PeerId::new("Server")).unwrap();
                let crl = RevocationList::new();
                redeem_ticket(server, &crl, &ticket, PeerId::new("Alice"), &resource, 5).unwrap();
            },
            BatchSize::SmallInput,
        )
    });

    group.finish();
}

criterion_group!(
    benches,
    bench_rdf,
    bench_routing,
    bench_codec,
    bench_tickets
);
criterion_main!(benches);
