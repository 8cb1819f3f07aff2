//! E9: signature overhead — SHA-256/HMAC throughput, rule sign/verify,
//! and the end-to-end cost a negotiation pays for signing (scenario 1
//! with and without the crypto path exercised).

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use peertrust_core::{Literal, PeerId, Rule, Term};
use peertrust_crypto::{
    hmac::hmac_sha256, sha256_digest, sign_rule, verify_signed_rule, KeyRegistry,
};

fn bench_primitives(c: &mut Criterion) {
    let mut group = c.benchmark_group("e9_primitives");
    for size in [64usize, 1024, 16 * 1024] {
        let data = vec![0xa5u8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::new("sha256", size), &data, |b, d| {
            b.iter(|| sha256_digest(d))
        });
        group.bench_with_input(BenchmarkId::new("hmac", size), &data, |b, d| {
            b.iter(|| hmac_sha256(b"issuer-key", d))
        });
    }
    group.finish();
}

fn bench_rule_signing(c: &mut Criterion) {
    let mut group = c.benchmark_group("e9_rules");
    let registry = KeyRegistry::new();
    registry.register_derived(PeerId::new("UIUC"), 1);
    let rule = Rule::fact(Literal::new("student", vec![Term::str("Alice")]).at(Term::str("UIUC")))
        .signed_by("UIUC");

    group.bench_function("sign_rule", |b| {
        b.iter(|| sign_rule(&registry, &rule).unwrap())
    });

    let signed = sign_rule(&registry, &rule).unwrap();
    // Warm: after the first iteration the registry's memo holds the tag,
    // which is what every repeated receipt of a credential pays.
    group.bench_function("verify_rule", |b| {
        b.iter(|| verify_signed_rule(&registry, &signed).unwrap())
    });
    // Cold: re-registering the key empties the memo, so every iteration
    // runs the full HMAC check (a credential's first receipt).
    group.bench_function("verify_rule_cold", |b| {
        b.iter_batched(
            || registry.register_derived(PeerId::new("UIUC"), 1),
            |()| verify_signed_rule(&registry, &signed).unwrap(),
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_negotiation_crypto_share(c: &mut Criterion) {
    // Scenario 1 involves 4 credential transfers; measuring it alongside
    // raw sign/verify bounds the crypto share of a negotiation.
    let mut group = c.benchmark_group("e9_negotiation");
    group.sample_size(20);
    group.bench_function("scenario1_with_signing", |b| {
        b.iter_batched(
            peertrust_scenarios::Scenario1::build,
            |mut s| {
                let out = s.run(peertrust_negotiation::Strategy::Parsimonious);
                assert!(out.success);
                out.credential_count()
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_primitives,
    bench_rule_signing,
    bench_negotiation_crypto_share
);
criterion_main!(benches);
