//! Keys and the trusted key registry — the simulated CA infrastructure.
//!
//! PeerTrust 1.0 used X.509 certificates and the Java Cryptography
//! Architecture (paper §6). We substitute a minimal PKI that preserves the
//! properties the negotiation layer relies on:
//!
//! * an issuer can produce a tag over a rule that nobody else can produce;
//! * any peer can verify a tag *if* it trusts the registry entry for the
//!   issuer (stand-in for a CA-signed certificate chain);
//! * verification fails on any tampering with rule contents or claimed
//!   issuer.
//!
//! Signatures are HMAC-SHA256 with per-issuer secrets. The [`KeyRegistry`]
//! holds issuer secrets and is shared (read-only) by verifying peers,
//! modelling "everyone can check a signature" without implementing
//! asymmetric crypto from scratch; the registry API intentionally only
//! exposes sign/verify, never raw secrets, so the trust boundary matches a
//! real public-key deployment.

use crate::hmac::{verify_tag, HmacKey};
use crate::sha256::Digest;
use parking_lot::RwLock;
use peertrust_core::{FxHashMap, PeerId};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A signing secret. Deliberately opaque: no `Display`, no getters.
#[derive(Clone)]
pub struct SecretKey(Vec<u8>);

impl SecretKey {
    /// Derive a key from raw bytes (tests) …
    pub fn from_bytes(bytes: &[u8]) -> SecretKey {
        SecretKey(bytes.to_vec())
    }

    /// … or generate one deterministically from an issuer name and a seed
    /// (used by scenario setup so runs are reproducible).
    pub fn derive(issuer: PeerId, seed: u64) -> SecretKey {
        let mut material = issuer.name().as_bytes().to_vec();
        material.extend_from_slice(&seed.to_be_bytes());
        SecretKey(crate::sha256::sha256(&material).to_vec())
    }
}

impl fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SecretKey(…)")
    }
}

/// Errors from registry operations.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum KeyError {
    /// No key registered for this issuer — the "certificate chain" cannot be
    /// validated.
    UnknownIssuer(PeerId),
    /// The issuer is known but the tag does not verify (tampering or wrong
    /// issuer claim).
    BadSignature(PeerId),
}

impl fmt::Display for KeyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KeyError::UnknownIssuer(p) => write!(f, "unknown issuer {p}"),
            KeyError::BadSignature(p) => write!(f, "signature claimed by {p} does not verify"),
        }
    }
}

impl std::error::Error for KeyError {}

/// Most verified tags [`KeyRegistry::verify`] remembers. A full memo is
/// emptied and refills from the next verifications, so memory stays
/// bounded however many distinct credentials a registry sees.
const VERIFIED_MEMO_CAP: usize = 4096;

/// The shared trusted key registry (simulated CA).
///
/// Cloning is cheap (`Arc` inside); all clones see the same key set and
/// the same memo of verified tags.
#[derive(Clone, Default)]
pub struct KeyRegistry {
    inner: Arc<RwLock<Keys>>,
}

/// Verified tags: `(issuer, tag)` → the exact bytes the tag covers.
type VerifiedTags = FxHashMap<(PeerId, Digest), Box<[u8]>>;

#[derive(Default)]
struct Keys {
    /// Each issuer's HMAC key schedule, built once at `register`.
    schedules: HashMap<PeerId, HmacKey>,
    /// Positive-only memo of tags that verified under the current keys.
    /// Reachable only through a guard on `Keys`: `verify` reads and fills
    /// it under the read lock, `register` empties it under the write
    /// lock, so no tag checked under a replaced key can land after the
    /// replacement.
    verified: RwLock<VerifiedTags>,
    /// HMAC checks run by `verify` (see [`KeyRegistry::hmac_checks`]).
    hmac_checks: AtomicU64,
}

impl KeyRegistry {
    pub fn new() -> KeyRegistry {
        KeyRegistry::default()
    }

    /// Register (or replace) the key for `issuer`. Forgets every verified
    /// tag: a replaced key must not vouch for tags it no longer produces.
    pub fn register(&self, issuer: PeerId, key: SecretKey) {
        let mut keys = self.inner.write();
        keys.schedules.insert(issuer, HmacKey::new(&key.0));
        keys.verified.get_mut().clear();
    }

    /// Register a derived key for `issuer`; convenience for scenario setup.
    pub fn register_derived(&self, issuer: PeerId, seed: u64) {
        self.register(issuer, SecretKey::derive(issuer, seed));
    }

    /// Is the issuer known?
    pub fn knows(&self, issuer: PeerId) -> bool {
        self.inner.read().schedules.contains_key(&issuer)
    }

    /// Produce the tag `issuer` would attach to `message`.
    pub fn sign(&self, issuer: PeerId, message: &[u8]) -> Result<Digest, KeyError> {
        let keys = self.inner.read();
        let key = keys
            .schedules
            .get(&issuer)
            .ok_or(KeyError::UnknownIssuer(issuer))?;
        Ok(key.tag(message))
    }

    /// Check that `tag` is `issuer`'s tag over `message`.
    ///
    /// A tag that already verified over byte-equal `message` under the
    /// current keys is accepted from the memo without recomputing the
    /// HMAC. Anything else — an unseen tag, the same tag over other
    /// bytes, a forgery — takes the full check, and only a success is
    /// remembered.
    pub fn verify(&self, issuer: PeerId, message: &[u8], tag: &Digest) -> Result<(), KeyError> {
        let keys = self.inner.read();
        let key = keys
            .schedules
            .get(&issuer)
            .ok_or(KeyError::UnknownIssuer(issuer))?;
        let memo_key = (issuer, *tag);
        if keys
            .verified
            .read()
            .get(&memo_key)
            .is_some_and(|bytes| **bytes == *message)
        {
            return Ok(());
        }
        keys.hmac_checks.fetch_add(1, Ordering::Relaxed);
        if !verify_tag(&key.tag(message), tag) {
            return Err(KeyError::BadSignature(issuer));
        }
        let mut verified = keys.verified.write();
        if verified.len() >= VERIFIED_MEMO_CAP {
            verified.clear();
        }
        verified.insert(memo_key, message.into());
        Ok(())
    }

    /// How many HMAC checks [`KeyRegistry::verify`] has run over the
    /// lifetime of this registry (all clones together): memo hits and
    /// unknown issuers are not counted. Which of concurrent verifications
    /// of one tag pays the check depends on scheduling, so this is a probe
    /// for tests, not a deterministic work counter.
    pub fn hmac_checks(&self) -> u64 {
        self.inner.read().hmac_checks.load(Ordering::Relaxed)
    }
}

impl fmt::Debug for KeyRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "KeyRegistry({} issuers)",
            self.inner.read().schedules.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hmac::hmac_sha256;

    #[test]
    fn sign_verify_roundtrip() {
        let reg = KeyRegistry::new();
        let uiuc = PeerId::new("UIUC");
        reg.register_derived(uiuc, 42);
        let tag = reg.sign(uiuc, b"student(\"Alice\")").unwrap();
        assert!(reg.verify(uiuc, b"student(\"Alice\")", &tag).is_ok());
    }

    #[test]
    fn tampered_message_rejected() {
        let reg = KeyRegistry::new();
        let uiuc = PeerId::new("UIUC");
        reg.register_derived(uiuc, 42);
        let tag = reg.sign(uiuc, b"student(\"Alice\")").unwrap();
        assert_eq!(
            reg.verify(uiuc, b"student(\"Mallory\")", &tag),
            Err(KeyError::BadSignature(uiuc))
        );
    }

    #[test]
    fn wrong_issuer_rejected() {
        let reg = KeyRegistry::new();
        let uiuc = PeerId::new("UIUC");
        let visa = PeerId::new("VISA");
        reg.register_derived(uiuc, 1);
        reg.register_derived(visa, 2);
        let tag = reg.sign(uiuc, b"m").unwrap();
        assert!(reg.verify(visa, b"m", &tag).is_err());
    }

    #[test]
    fn unknown_issuer_is_distinguished_error() {
        let reg = KeyRegistry::new();
        let ghost = PeerId::new("Ghost CA");
        assert_eq!(
            reg.sign(ghost, b"m").unwrap_err(),
            KeyError::UnknownIssuer(ghost)
        );
        assert_eq!(
            reg.verify(ghost, b"m", &[0u8; 32]).unwrap_err(),
            KeyError::UnknownIssuer(ghost)
        );
    }

    #[test]
    fn registry_tags_match_rfc4231() {
        // RFC 4231 test case 2, signed and verified through the registry.
        let reg = KeyRegistry::new();
        let jefe = PeerId::new("Jefe");
        reg.register(jefe, SecretKey::from_bytes(b"Jefe"));
        let msg = b"what do ya want for nothing?";
        let tag = reg.sign(jefe, msg).unwrap();
        assert_eq!(
            crate::sha256::to_hex(&tag),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
        assert_eq!(reg.verify(jefe, msg, &tag), Ok(()));
    }

    /// A registry with one issuer whose tag over `MSG` has verified once,
    /// so it sits in the memo.
    fn memoized() -> (KeyRegistry, PeerId, Digest) {
        let reg = KeyRegistry::new();
        let uiuc = PeerId::new("UIUC");
        reg.register_derived(uiuc, 42);
        let tag = reg.sign(uiuc, MSG).unwrap();
        assert_eq!(reg.verify(uiuc, MSG, &tag), Ok(()));
        (reg, uiuc, tag)
    }

    const MSG: &[u8] = b"student(\"Alice\") @ \"UIUC\" signedBy [\"UIUC\"]";

    #[test]
    fn a_verified_tag_is_not_checked_again() {
        let (reg, uiuc, tag) = memoized();
        assert_eq!(reg.hmac_checks(), 1);
        assert_eq!(reg.clone().verify(uiuc, MSG, &tag), Ok(()));
        assert_eq!(reg.hmac_checks(), 1, "a memo hit, seen by every clone");
    }

    #[test]
    fn signing_does_not_fill_the_memo() {
        let reg = KeyRegistry::new();
        let uiuc = PeerId::new("UIUC");
        reg.register_derived(uiuc, 42);
        let tag = reg.sign(uiuc, MSG).unwrap();
        assert_eq!(reg.verify(uiuc, MSG, &tag), Ok(()));
        assert_eq!(reg.hmac_checks(), 1);
    }

    #[test]
    fn memoized_tag_over_tampered_bytes_still_fails() {
        let (reg, uiuc, tag) = memoized();
        let tampered = b"student(\"Mallory\") @ \"UIUC\" signedBy [\"UIUC\"]";
        assert_eq!(
            reg.verify(uiuc, tampered, &tag),
            Err(KeyError::BadSignature(uiuc))
        );
        // A strict prefix of the memoized bytes is tampering too.
        assert_eq!(
            reg.verify(uiuc, &MSG[..MSG.len() - 1], &tag),
            Err(KeyError::BadSignature(uiuc))
        );
        assert_eq!(reg.hmac_checks(), 3, "both took the full check");
    }

    #[test]
    fn forged_tag_over_memoized_bytes_still_fails() {
        let (reg, uiuc, tag) = memoized();
        let mut forged = tag;
        forged[0] ^= 1;
        assert_eq!(
            reg.verify(uiuc, MSG, &forged),
            Err(KeyError::BadSignature(uiuc))
        );
        // A failure is not remembered: the forgery fails again in full.
        assert_eq!(
            reg.verify(uiuc, MSG, &forged),
            Err(KeyError::BadSignature(uiuc))
        );
        assert_eq!(reg.hmac_checks(), 3);
    }

    #[test]
    fn memoized_tag_under_another_issuer_still_fails() {
        let (reg, uiuc, tag) = memoized();
        let visa = PeerId::new("VISA");
        reg.register_derived(visa, 7);
        assert_eq!(reg.verify(uiuc, MSG, &tag), Ok(()));
        assert_eq!(
            reg.verify(visa, MSG, &tag),
            Err(KeyError::BadSignature(visa))
        );
        let ghost = PeerId::new("Ghost CA");
        assert_eq!(
            reg.verify(ghost, MSG, &tag),
            Err(KeyError::UnknownIssuer(ghost))
        );
    }

    #[test]
    fn replacing_a_key_forgets_its_verified_tags() {
        let (reg, uiuc, old_tag) = memoized();
        reg.register_derived(uiuc, 43);
        assert_eq!(
            reg.verify(uiuc, MSG, &old_tag),
            Err(KeyError::BadSignature(uiuc))
        );
        let new_tag = reg.sign(uiuc, MSG).unwrap();
        assert_eq!(reg.verify(uiuc, MSG, &new_tag), Ok(()));
        // Re-registering the old key makes the old tag valid again — by
        // a fresh check, since the memo was emptied on each replacement.
        reg.register_derived(uiuc, 42);
        assert_eq!(reg.verify(uiuc, MSG, &old_tag), Ok(()));
        assert_eq!(reg.hmac_checks(), 4);
    }

    #[test]
    fn a_full_memo_starts_over() {
        let reg = KeyRegistry::new();
        let ca = PeerId::new("CA");
        reg.register_derived(ca, 1);
        let msgs: Vec<Vec<u8>> = (0..=VERIFIED_MEMO_CAP)
            .map(|i| format!("cred({i})").into_bytes())
            .collect();
        let tags: Vec<Digest> = msgs.iter().map(|m| reg.sign(ca, m).unwrap()).collect();
        for (m, t) in msgs.iter().zip(&tags) {
            assert_eq!(reg.verify(ca, m, t), Ok(()));
        }
        let memo_len = || reg.inner.read().verified.read().len();
        assert_eq!(memo_len(), 1, "cleared when full, then refilled");
        assert_eq!(reg.verify(ca, &msgs[0], &tags[0]), Ok(()));
        assert_eq!(reg.hmac_checks(), VERIFIED_MEMO_CAP as u64 + 2);
    }

    #[test]
    fn no_tag_checked_under_a_replaced_key_survives_the_replacement() {
        // Two verifier threads check every message's tag under both of
        // two keys, over and over: whichever key is current, one check
        // per pair runs the HMAC, succeeds and fills the memo. Meanwhile
        // the main thread keeps switching the issuer between the keys.
        // Once `register` has returned, no tag of the other key may
        // verify, not even one whose check finished just before.
        const KEYS: [&[u8]; 2] = [b"key A", b"key B"];
        let uiuc = PeerId::new("UIUC");
        let msgs: Vec<Vec<u8>> = (0..64).map(|i| format!("c{i}(x)").into_bytes()).collect();
        let tags: Vec<[Digest; 2]> = msgs
            .iter()
            .map(|m| KEYS.map(|k| hmac_sha256(k, m)))
            .collect();
        let reg = KeyRegistry::new();
        reg.register(uiuc, SecretKey::from_bytes(KEYS[0]));
        let stop = std::sync::atomic::AtomicBool::new(false);
        let stale = std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    while !stop.load(Ordering::Relaxed) {
                        for (m, pair) in msgs.iter().zip(&tags) {
                            for tag in pair {
                                let _ = reg.verify(uiuc, m, tag);
                            }
                        }
                    }
                });
            }
            // The first (round, message) whose replaced tag still verified.
            let stale = (0..100).find_map(|round| {
                let (current, replaced) = (round % 2, 1 - round % 2);
                reg.register(uiuc, SecretKey::from_bytes(KEYS[current]));
                msgs.iter()
                    .zip(&tags)
                    .position(|(m, pair)| reg.verify(uiuc, m, &pair[replaced]).is_ok())
                    .map(|i| (round, i))
            });
            stop.store(true, Ordering::Relaxed);
            stale
        });
        assert_eq!(
            stale, None,
            "(round, message) accepted under a replaced key"
        );
    }

    #[test]
    fn clones_share_keys() {
        let reg = KeyRegistry::new();
        let reg2 = reg.clone();
        reg.register_derived(PeerId::new("BBB"), 7);
        assert!(reg2.knows(PeerId::new("BBB")));
    }

    #[test]
    fn derived_keys_are_deterministic_and_distinct() {
        let a1 = SecretKey::derive(PeerId::new("A"), 1);
        let a1b = SecretKey::derive(PeerId::new("A"), 1);
        let a2 = SecretKey::derive(PeerId::new("A"), 2);
        let b1 = SecretKey::derive(PeerId::new("B"), 1);
        assert_eq!(hmac_sha256(&a1.0, b"m"), hmac_sha256(&a1b.0, b"m"));
        assert_ne!(hmac_sha256(&a1.0, b"m"), hmac_sha256(&a2.0, b"m"));
        assert_ne!(hmac_sha256(&a1.0, b"m"), hmac_sha256(&b1.0, b"m"));
    }
}
