//! The registry's verified-tag memo against a memo-free oracle.
//!
//! Random sequences of sign, verify, tamper, forge and re-register steps
//! run against a [`KeyRegistry`] and against a model that keeps the raw
//! key bytes and recomputes `hmac_sha256` for every verification. Every
//! verification must return exactly the oracle's answer, and must run an
//! HMAC check exactly when no identical verification has succeeded since
//! the last `register`.

use peertrust_core::PeerId;
use peertrust_crypto::hmac::hmac_sha256;
use peertrust_crypto::{Digest, KeyError, KeyRegistry, SecretKey};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

/// Three issuers; the last is never registered.
const ISSUERS: [&str; 3] = ["CA0", "CA1", "Ghost"];

fn issuer(i: u8) -> PeerId {
    PeerId::new(ISSUERS[usize::from(i) % ISSUERS.len()])
}

/// Few distinct messages, so tags and bytes collide often.
fn message(m: u8) -> Vec<u8> {
    format!("cred{}(\"Alice\") signedBy [\"CA\"]", m % 4).into_bytes()
}

/// The memo-free model: registered key bytes, plus the verifications
/// that succeeded since the last `register`.
#[derive(Default)]
struct Oracle {
    keys: HashMap<PeerId, Vec<u8>>,
    verified: HashSet<(PeerId, Digest, Vec<u8>)>,
}

impl Oracle {
    fn verify(&self, issuer: PeerId, msg: &[u8], tag: &Digest) -> Result<(), KeyError> {
        match self.keys.get(&issuer) {
            None => Err(KeyError::UnknownIssuer(issuer)),
            Some(key) if hmac_sha256(key, msg) == *tag => Ok(()),
            Some(_) => Err(KeyError::BadSignature(issuer)),
        }
    }
}

proptest! {
    #[test]
    fn memoized_verification_matches_the_oracle(
        steps in prop::collection::vec((0u8..6, 0u8..3, 0u8..4, 0u8..32, 0u8..3), 1..80)
    ) {
        let reg = KeyRegistry::new();
        let mut oracle = Oracle::default();
        // Tags produced so far: (issuer, message, tag).
        let mut signed: Vec<(PeerId, Vec<u8>, Digest)> = Vec::new();
        for (step, (op, i, m, pick, k)) in steps.into_iter().enumerate() {
            let (who, msg) = (issuer(i), message(m));
            let (claimed, bytes, tag) = match (op, signed.get(usize::from(pick) % signed.len().max(1))) {
                // Register, or replace, a key for a registrable issuer.
                (0, _) => {
                    if who != issuer(2) {
                        let key = vec![k + 1; 20];
                        reg.register(who, SecretKey::from_bytes(&key));
                        oracle.keys.insert(who, key);
                        oracle.verified.clear();
                    }
                    continue;
                }
                // Sign: the registry's tag is the oracle's HMAC.
                (1, _) => {
                    let want = oracle.keys.get(&who).map(|key| hmac_sha256(key, &msg));
                    prop_assert_eq!(reg.sign(who, &msg).ok(), want, "step {}", step);
                    if let Some(tag) = want {
                        signed.push((who, msg, tag));
                    }
                    continue;
                }
                // Verify an earlier tag as signed, under its issuer.
                (2, Some((s, b, t))) => (*s, b.clone(), *t),
                // The same tag over other bytes.
                (3, Some((s, _, t))) => (*s, msg, *t),
                // A forged tag: one bit flipped.
                (4, Some((s, b, t))) => {
                    let mut forged = *t;
                    forged[usize::from(pick) % forged.len()] ^= 1 << (k % 8);
                    (*s, b.clone(), forged)
                }
                // The tag claimed by another issuer, or any unseen tag.
                (5, Some((_, b, t))) => (who, b.clone(), *t),
                _ => (who, msg, [pick; 32]),
            };
            let want = oracle.verify(claimed, &bytes, &tag);
            let remembered = oracle.verified.contains(&(claimed, tag, bytes.clone()));
            let checks = reg.hmac_checks();
            prop_assert_eq!(reg.verify(claimed, &bytes, &tag), want.clone(), "step {}", step);
            let expected_checks = u64::from(oracle.keys.contains_key(&claimed) && !remembered);
            prop_assert_eq!(reg.hmac_checks() - checks, expected_checks, "step {}", step);
            if want.is_ok() {
                oracle.verified.insert((claimed, tag, bytes));
            }
        }
    }
}
