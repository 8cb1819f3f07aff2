//! HMAC-SHA256 (RFC 2104 / FIPS 198-1).
//!
//! Used as the signature primitive of the simulated PKI: each issuer holds a
//! secret key; verifiers check tags through the trusted [`crate::keys::KeyRegistry`],
//! which plays the role of the paper's certificate-authority infrastructure.

use crate::sha256::{sha256, Digest, Sha256};

const BLOCK: usize = 64;

/// An HMAC-SHA256 key schedule: the SHA-256 midstates after absorbing the
/// inner (`key ^ ipad`) and outer (`key ^ opad`) key blocks. Tagging a
/// message from them skips the two key-block compressions that
/// [`hmac_sha256`] would redo per call.
pub(crate) struct HmacKey {
    inner: Sha256,
    outer: Sha256,
}

impl HmacKey {
    pub(crate) fn new(key: &[u8]) -> HmacKey {
        // Keys longer than the block size are hashed first.
        let mut k = [0u8; BLOCK];
        if key.len() > BLOCK {
            k[..32].copy_from_slice(&sha256(key));
        } else {
            k[..key.len()].copy_from_slice(key);
        }

        let mut ipad = [0u8; BLOCK];
        let mut opad = [0u8; BLOCK];
        for i in 0..BLOCK {
            ipad[i] = k[i] ^ 0x36;
            opad[i] = k[i] ^ 0x5c;
        }

        let mut inner = Sha256::new();
        inner.update(&ipad);
        let mut outer = Sha256::new();
        outer.update(&opad);
        HmacKey { inner, outer }
    }

    /// `HMAC-SHA256(key, message)`.
    pub(crate) fn tag(&self, message: &[u8]) -> Digest {
        let mut inner = self.inner.clone();
        inner.update(message);
        let mut outer = self.outer.clone();
        outer.update(&inner.finalize());
        outer.finalize()
    }
}

/// Compute `HMAC-SHA256(key, message)`.
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> Digest {
    HmacKey::new(key).tag(message)
}

/// Constant-time tag comparison (avoids the classic timing side channel,
/// mostly for hygiene — the simulated network is in-process).
pub fn verify_tag(expected: &Digest, actual: &Digest) -> bool {
    let mut diff = 0u8;
    for (a, b) in expected.iter().zip(actual) {
        diff |= a ^ b;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::to_hex;

    // RFC 4231 test vectors for HMAC-SHA256.
    #[test]
    fn rfc4231_case_1() {
        let key = [0x0b; 20];
        let tag = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            to_hex(&tag),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case_2_jefe() {
        let tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            to_hex(&tag),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case_3_fifty_aa() {
        let key = [0xaa; 20];
        let data = [0xdd; 50];
        let tag = hmac_sha256(&key, &data);
        assert_eq!(
            to_hex(&tag),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case_6_long_key() {
        let key = [0xaa; 131];
        let tag = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            to_hex(&tag),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn key_schedule_reuse_matches_one_shot() {
        let key = HmacKey::new(b"Jefe");
        for msg in [&b""[..], b"what do ya want for nothing?", &[0x5a; 200]] {
            assert_eq!(key.tag(msg), hmac_sha256(b"Jefe", msg));
        }
    }

    #[test]
    fn different_keys_different_tags() {
        assert_ne!(hmac_sha256(b"k1", b"m"), hmac_sha256(b"k2", b"m"));
        assert_ne!(hmac_sha256(b"k", b"m1"), hmac_sha256(b"k", b"m2"));
    }

    #[test]
    fn verify_tag_accepts_equal_rejects_unequal() {
        let t1 = hmac_sha256(b"k", b"m");
        let mut t2 = t1;
        assert!(verify_tag(&t1, &t2));
        t2[31] ^= 1;
        assert!(!verify_tag(&t1, &t2));
    }
}
