//! Signing and verifying rules.
//!
//! A signed rule travels between peers as a [`SignedRule`]: the rule (with
//! contexts stripped, per paper §3.1 — contexts are the *sender's* release
//! policies and are not shipped) plus one signature per issuer listed in its
//! `signedBy` clause. Before a received rule enters a peer's knowledge base,
//! [`verify_signed_rule`] checks every claimed signature; the paper assumes
//! exactly this ("we assume that when a peer receives a signed rule from
//! another peer, the signature is verified before the rule is passed to the
//! DLP evaluation engine").
//!
//! The canonical byte encoding of a rule is its pretty-printed text — the
//! printer is deterministic, and the parser/printer round-trip tests in
//! `peertrust-parser` guarantee injectivity for the language's rule shapes.

use crate::keys::{KeyError, KeyRegistry};
use crate::sha256::Digest;
use peertrust_core::{PeerId, Rule};

/// A rule plus the signatures (one per entry of `rule.signed_by`, same
/// order) that make it a transferable credential.
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct SignedRule {
    pub rule: Rule,
    pub signatures: Vec<Digest>,
}

/// Errors when producing or checking signed rules.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SigError {
    /// The rule's `signedBy` clause is empty — nothing to sign.
    NotASignedRule,
    /// Wrong number of signatures attached.
    SignatureCountMismatch { expected: usize, actual: usize },
    /// Key registry failure (unknown issuer or bad tag).
    Key(KeyError),
}

impl std::fmt::Display for SigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SigError::NotASignedRule => write!(f, "rule carries no signedBy clause"),
            SigError::SignatureCountMismatch { expected, actual } => {
                write!(f, "expected {expected} signatures, found {actual}")
            }
            SigError::Key(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SigError {}

impl From<KeyError> for SigError {
    fn from(e: KeyError) -> SigError {
        SigError::Key(e)
    }
}

/// The canonical bytes an issuer signs: the context-stripped rule text.
/// Contexts are the holder's private release policies and must not affect
/// (or be covered by) the issuer's signature.
pub fn canonical_bytes(rule: &Rule) -> Vec<u8> {
    use std::fmt::Write as _;
    // Room for a typical credential, so printing does not regrow the
    // buffer several times per verification.
    let mut text = String::with_capacity(128);
    let printed = if rule.has_contexts() {
        write!(text, "{}", rule.strip_contexts())
    } else {
        write!(text, "{rule}")
    };
    printed.expect("printing a rule cannot fail");
    text.into_bytes()
}

/// Sign `rule` with every issuer in its `signedBy` clause.
///
/// In production each issuer signs at issuance time; in the simulation the
/// shared registry lets scenario setup mint credentials directly.
pub fn sign_rule(registry: &KeyRegistry, rule: &Rule) -> Result<SignedRule, SigError> {
    if rule.signed_by.is_empty() {
        return Err(SigError::NotASignedRule);
    }
    let msg = canonical_bytes(rule);
    let signatures = rule
        .issuers()
        .into_iter()
        .map(|issuer| registry.sign(issuer, &msg))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(SignedRule {
        rule: rule.clone(),
        signatures,
    })
}

/// Verify every signature on a received rule. Returns the issuer list on
/// success so callers can record provenance.
pub fn verify_signed_rule(
    registry: &KeyRegistry,
    signed: &SignedRule,
) -> Result<Vec<PeerId>, SigError> {
    let issuers = signed.rule.issuers();
    if issuers.is_empty() {
        return Err(SigError::NotASignedRule);
    }
    if issuers.len() != signed.signatures.len() {
        return Err(SigError::SignatureCountMismatch {
            expected: issuers.len(),
            actual: signed.signatures.len(),
        });
    }
    let msg = canonical_bytes(&signed.rule);
    for (issuer, tag) in issuers.iter().zip(&signed.signatures) {
        registry.verify(*issuer, &msg, tag)?;
    }
    Ok(issuers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use peertrust_core::{Context, Literal, Term};

    fn registry() -> KeyRegistry {
        let reg = KeyRegistry::new();
        reg.register_derived(PeerId::new("UIUC"), 1);
        reg.register_derived(PeerId::new("ELENA"), 2);
        reg
    }

    fn student_cred() -> Rule {
        Rule::fact(Literal::new("student", vec![Term::str("Alice")]).at(Term::str("UIUC")))
            .signed_by("UIUC")
    }

    #[test]
    fn sign_and_verify_roundtrip() {
        let reg = registry();
        let signed = sign_rule(&reg, &student_cred()).unwrap();
        let issuers = verify_signed_rule(&reg, &signed).unwrap();
        assert_eq!(issuers, vec![PeerId::new("UIUC")]);
    }

    #[test]
    fn unsigned_rule_rejected() {
        let reg = registry();
        let plain = Rule::fact(Literal::new("p", vec![]));
        assert_eq!(
            sign_rule(&reg, &plain).unwrap_err(),
            SigError::NotASignedRule
        );
    }

    #[test]
    fn tampered_rule_content_fails_verification() {
        let reg = registry();
        let mut signed = sign_rule(&reg, &student_cred()).unwrap();
        // Mallory swaps the subject.
        signed.rule.head.args[0] = Term::str("Mallory");
        assert!(matches!(
            verify_signed_rule(&reg, &signed).unwrap_err(),
            SigError::Key(KeyError::BadSignature(_))
        ));
    }

    #[test]
    fn forged_issuer_claim_fails() {
        let reg = registry();
        // Mallory takes her self-signed rule and claims UIUC signed it.
        let mallory_rule =
            Rule::fact(Literal::new("student", vec![Term::str("Mallory")]).at(Term::str("UIUC")))
                .signed_by("UIUC");
        // She cannot produce UIUC's tag, so she attaches garbage.
        let forged = SignedRule {
            rule: mallory_rule,
            signatures: vec![[7u8; 32]],
        };
        assert!(verify_signed_rule(&reg, &forged).is_err());
    }

    #[test]
    fn signature_count_mismatch_detected() {
        let reg = registry();
        let mut signed = sign_rule(&reg, &student_cred()).unwrap();
        signed.signatures.clear();
        assert_eq!(
            verify_signed_rule(&reg, &signed).unwrap_err(),
            SigError::SignatureCountMismatch {
                expected: 1,
                actual: 0
            }
        );
    }

    #[test]
    fn multi_issuer_rules_need_all_signatures() {
        let reg = registry();
        let dual = Rule::fact(Literal::new("jointStatement", vec![]))
            .signed_by("UIUC")
            .signed_by("ELENA");
        let signed = sign_rule(&reg, &dual).unwrap();
        assert_eq!(signed.signatures.len(), 2);
        assert!(verify_signed_rule(&reg, &signed).is_ok());

        // Corrupt the second signature only.
        let mut bad = signed;
        bad.signatures[1][0] ^= 0xff;
        assert!(verify_signed_rule(&reg, &bad).is_err());
    }

    #[test]
    fn contexts_do_not_affect_signature() {
        // The holder may attach release policies locally; the issuer's
        // signature still verifies because contexts are stripped from the
        // canonical bytes.
        let reg = registry();
        let signed = sign_rule(&reg, &student_cred()).unwrap();
        let mut with_ctx = signed.clone();
        with_ctx.rule.head_context = Some(Context::public());
        assert!(verify_signed_rule(&reg, &with_ctx).is_ok());
    }

    #[test]
    fn delegation_rule_signs() {
        let reg = registry();
        let delegation = Rule::horn(
            Literal::new("student", vec![Term::var("X")]).at(Term::str("UIUC")),
            vec![Literal::new("student", vec![Term::var("X")]).at(Term::str("UIUC Registrar"))],
        )
        .signed_by("UIUC");
        let signed = sign_rule(&reg, &delegation).unwrap();
        assert!(verify_signed_rule(&reg, &signed).is_ok());
    }
}
