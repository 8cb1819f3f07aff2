//! Access tokens (paper §3.1): *"For some services, the mechanism may
//! instead give Alice a nontransferable token that she can use to access
//! the service repeatedly without having to negotiate trust again until
//! the token expires."*
//!
//! A [`Ticket`] is a signed fact
//! `accessToken("Holder", resourceInstance, Expiry) signedBy [Issuer]`
//! minted by the responder after a successful negotiation. Redemption
//! checks, without any network traffic:
//!
//! * the signature (via the shared registry);
//! * the holder — tokens are **nontransferable**: only the named holder
//!   may redeem;
//! * the expiry against the current tick;
//! * the issuer's revocation list (tickets are serial-numbered
//!   credentials, so the §4.2 revocation machinery applies unchanged).

use crate::outcome::NegotiationOutcome;
use crate::peer::NegotiationPeer;
use peertrust_core::{Literal, PeerId, Rule, Term};
use peertrust_crypto::{sign_rule, verify_signed_rule, RevocationList, SignedRule, Tick};

/// A redeemable access token.
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Ticket {
    /// Serial number (scope: the issuer's revocation list).
    pub serial: u64,
    /// The signed `accessToken(holder, resource, expiry)` fact.
    pub signed: SignedRule,
}

/// Why a redemption failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TicketError {
    /// The underlying signature did not verify.
    BadSignature,
    /// Presented by someone other than the named holder.
    WrongHolder { expected: PeerId, actual: PeerId },
    /// The token does not cover the requested resource.
    WrongResource,
    /// Past its expiry tick.
    Expired { expiry: Tick, now: Tick },
    /// On the issuer's revocation list.
    Revoked,
    /// The token fact is malformed.
    Malformed,
}

impl std::fmt::Display for TicketError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TicketError::BadSignature => write!(f, "ticket signature does not verify"),
            TicketError::WrongHolder { expected, actual } => {
                write!(
                    f,
                    "ticket is nontransferable: held by {expected}, presented by {actual}"
                )
            }
            TicketError::WrongResource => write!(f, "ticket does not cover this resource"),
            TicketError::Expired { expiry, now } => {
                write!(f, "ticket expired at tick {expiry} (now {now})")
            }
            TicketError::Revoked => write!(f, "ticket has been revoked"),
            TicketError::Malformed => write!(f, "malformed ticket"),
        }
    }
}

impl std::error::Error for TicketError {}

/// The reserved token predicate.
pub const TOKEN_PREDICATE: &str = "accessToken";

/// Issue a ticket for a successful negotiation: the responder signs
/// `accessToken(requester, resource, expiry)`.
///
/// The issuer must be registered with the key registry (every negotiation
/// peer in the simulation is).
pub fn issue_ticket(
    issuer: &NegotiationPeer,
    outcome: &NegotiationOutcome,
    serial: u64,
    expiry: Tick,
) -> Result<Ticket, peertrust_crypto::SigError> {
    assert!(outcome.success, "tickets are only issued on success");
    let resource = outcome
        .granted
        .first()
        .expect("successful outcomes carry a grant");
    let fact = Rule::fact(Literal::new(
        TOKEN_PREDICATE,
        vec![
            Term::peer(outcome.requester),
            resource_term(resource),
            Term::int(expiry as i64),
        ],
    ))
    .signed_by(issuer.id.0);
    let signed = sign_rule(&issuer.registry, &fact)?;
    Ok(Ticket { serial, signed })
}

/// Redeem a ticket at the issuing peer: `presenter` asks for `resource`
/// at time `now`. No negotiation, no messages — just local checks.
pub fn redeem_ticket(
    issuer: &NegotiationPeer,
    revocations: &RevocationList,
    ticket: &Ticket,
    presenter: PeerId,
    resource: &Literal,
    now: Tick,
) -> Result<(), TicketError> {
    if verify_signed_rule(&issuer.registry, &ticket.signed).is_err() {
        return Err(TicketError::BadSignature);
    }
    let head = &ticket.signed.rule.head;
    if head.pred.as_str() != TOKEN_PREDICATE || head.args.len() != 3 {
        return Err(TicketError::Malformed);
    }
    let holder = head.args[0].as_peer().ok_or(TicketError::Malformed)?;
    if holder != presenter {
        return Err(TicketError::WrongHolder {
            expected: holder,
            actual: presenter,
        });
    }
    if head.args[1] != resource_term(resource) {
        return Err(TicketError::WrongResource);
    }
    let expiry = match head.args[2] {
        Term::Int(e) if e >= 0 => e as Tick,
        _ => return Err(TicketError::Malformed),
    };
    if now >= expiry {
        return Err(TicketError::Expired { expiry, now });
    }
    for ticket_issuer in ticket.signed.rule.issuers() {
        if revocations.is_revoked(ticket_issuer, ticket.serial) {
            return Err(TicketError::Revoked);
        }
    }
    Ok(())
}

/// Encode a granted resource literal as a single term (so it fits in one
/// token argument): `resource(args...)` becomes the compound term
/// `resource(args...)`, a zero-arity grant becomes an atom.
fn resource_term(resource: &Literal) -> Term {
    if resource.args.is_empty() {
        Term::atom(resource.pred.as_str())
    } else {
        Term::compound(resource.pred.as_str(), resource.args.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::PeerMap;
    use crate::strategy::Strategy;
    use peertrust_crypto::KeyRegistry;
    use peertrust_net::{NegotiationId, SimNetwork};
    use peertrust_parser::parse_literal;

    fn setup() -> (PeerMap, NegotiationOutcome) {
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

        let mut net = SimNetwork::new(21);
        let outcome = Strategy::Parsimonious.run(
            &mut peers,
            &mut net,
            NegotiationId(1),
            PeerId::new("Alice"),
            PeerId::new("Server"),
            parse_literal(r#"resource("Alice")"#).unwrap(),
        );
        assert!(outcome.success);
        (peers, outcome)
    }

    #[test]
    fn issue_and_redeem_roundtrip() {
        let (peers, outcome) = setup();
        let server = peers.get(PeerId::new("Server")).unwrap();
        let ticket = issue_ticket(server, &outcome, 1, 100).unwrap();
        let crl = RevocationList::new();
        let resource = parse_literal(r#"resource("Alice")"#).unwrap();

        // Redemption needs zero messages and works repeatedly.
        for now in [0, 50, 99] {
            redeem_ticket(server, &crl, &ticket, PeerId::new("Alice"), &resource, now)
                .unwrap_or_else(|e| panic!("tick {now}: {e}"));
        }
    }

    #[test]
    fn tokens_are_nontransferable() {
        let (peers, outcome) = setup();
        let server = peers.get(PeerId::new("Server")).unwrap();
        let ticket = issue_ticket(server, &outcome, 1, 100).unwrap();
        let crl = RevocationList::new();
        let resource = parse_literal(r#"resource("Alice")"#).unwrap();
        let err = redeem_ticket(server, &crl, &ticket, PeerId::new("Mallory"), &resource, 10)
            .unwrap_err();
        assert!(matches!(err, TicketError::WrongHolder { .. }));
    }

    #[test]
    fn tokens_expire() {
        let (peers, outcome) = setup();
        let server = peers.get(PeerId::new("Server")).unwrap();
        let ticket = issue_ticket(server, &outcome, 1, 100).unwrap();
        let crl = RevocationList::new();
        let resource = parse_literal(r#"resource("Alice")"#).unwrap();
        assert_eq!(
            redeem_ticket(server, &crl, &ticket, PeerId::new("Alice"), &resource, 100),
            Err(TicketError::Expired {
                expiry: 100,
                now: 100
            })
        );
    }

    #[test]
    fn tokens_are_resource_scoped() {
        let (peers, outcome) = setup();
        let server = peers.get(PeerId::new("Server")).unwrap();
        let ticket = issue_ticket(server, &outcome, 1, 100).unwrap();
        let crl = RevocationList::new();
        let other = parse_literal(r#"resource("Bob")"#).unwrap();
        assert_eq!(
            redeem_ticket(server, &crl, &ticket, PeerId::new("Alice"), &other, 10),
            Err(TicketError::WrongResource)
        );
    }

    #[test]
    fn revoked_tokens_fail() {
        let (peers, outcome) = setup();
        let server = peers.get(PeerId::new("Server")).unwrap();
        let ticket = issue_ticket(server, &outcome, 77, 100).unwrap();
        let crl = RevocationList::new();
        crl.revoke(PeerId::new("Server"), 77);
        let resource = parse_literal(r#"resource("Alice")"#).unwrap();
        assert_eq!(
            redeem_ticket(server, &crl, &ticket, PeerId::new("Alice"), &resource, 10),
            Err(TicketError::Revoked)
        );
    }

    #[test]
    fn tampered_tokens_fail_signature() {
        let (peers, outcome) = setup();
        let server = peers.get(PeerId::new("Server")).unwrap();
        let mut ticket = issue_ticket(server, &outcome, 1, 100).unwrap();
        // Extend the expiry without re-signing.
        ticket.signed.rule.head.args[2] = Term::int(10_000);
        let crl = RevocationList::new();
        let resource = parse_literal(r#"resource("Alice")"#).unwrap();
        assert_eq!(
            redeem_ticket(server, &crl, &ticket, PeerId::new("Alice"), &resource, 10),
            Err(TicketError::BadSignature)
        );
    }

    #[test]
    fn redemption_is_cheaper_than_renegotiation() {
        // The paper's rationale: a token redemption is message-free.
        let (mut peers, outcome) = setup();
        let ticket = {
            let server = peers.get(PeerId::new("Server")).unwrap();
            issue_ticket(server, &outcome, 1, 1000).unwrap()
        };
        // Renegotiation costs messages every time...
        let mut net = SimNetwork::new(22);
        let again = Strategy::Parsimonious.run(
            &mut peers,
            &mut net,
            NegotiationId(2),
            PeerId::new("Alice"),
            PeerId::new("Server"),
            parse_literal(r#"resource("Alice")"#).unwrap(),
        );
        assert!(again.success && again.messages > 0);
        // ...redemption costs none.
        let server = peers.get(PeerId::new("Server")).unwrap();
        let crl = RevocationList::new();
        let resource = parse_literal(r#"resource("Alice")"#).unwrap();
        redeem_ticket(server, &crl, &ticket, PeerId::new("Alice"), &resource, 5).unwrap();
    }
}
