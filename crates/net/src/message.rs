//! The message vocabulary of a PeerTrust negotiation.
//!
//! A negotiation (paper §2) is an exchange of *queries* (please establish
//! this literal for me), *answers* (instances of a queried literal, possibly
//! empty = failure/refusal), and *credential pushes* (signed rules whose
//! release policies the sender has verified against the recipient). The
//! 2004 prototype shipped these over TLS sockets between Java peers; here
//! they travel over the simulated or threaded transport in
//! [`crate::sim`] / [`crate::threaded`].

use bytes::Bytes;
use peertrust_core::{Literal, PeerId, Rule, Sym};
use peertrust_crypto::SignedRule;
use std::fmt;

/// Identifies one negotiation (one top-level resource request).
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, serde::Serialize, serde::Deserialize,
)]
pub struct NegotiationId(pub u64);

/// Identifies one message within the transport.
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, serde::Serialize, serde::Deserialize,
)]
pub struct MessageId(pub u64);

/// Correlates an answer with the query it answers.
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, serde::Serialize, serde::Deserialize,
)]
pub struct QueryId(pub u64);

/// Causal trace coordinates carried by a message (see
/// `peertrust_telemetry::trace`): the trace (= negotiation) it belongs
/// to, the span covering its transit, and the sender-side span that
/// caused it. Span ids are allocated per-negotiation by the session, so
/// reconstructed traces are deterministic across scheduler worker
/// counts. The all-zero value means "untraced" and is skipped on the
/// wire, keeping untraced frames byte-identical to the pre-tracing
/// encoding.
#[derive(
    Clone, Copy, PartialEq, Eq, Hash, Debug, Default, serde::Serialize, serde::Deserialize,
)]
pub struct TraceContext {
    pub trace_id: u64,
    pub span_id: u64,
    pub parent_span_id: u64,
}

impl TraceContext {
    /// The untraced context (all zeros).
    pub const NONE: TraceContext = TraceContext {
        trace_id: 0,
        span_id: 0,
        parent_span_id: 0,
    };

    pub fn is_none(&self) -> bool {
        *self == TraceContext::NONE
    }
}

/// What a message carries.
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Payload {
    /// Ask the recipient to establish (instances of) `goal`.
    Query { id: QueryId, goal: Literal },
    /// Answer instances for the query `id` asked `goal`. Empty `answers`
    /// means the recipient cannot (or will not) establish the goal.
    Answers {
        id: QueryId,
        goal: Literal,
        answers: Vec<Literal>,
    },
    /// Disclose signed rules (credentials / delegations) to the recipient.
    /// The sender must have checked each rule's release policy first.
    CredentialPush { rules: Vec<SignedRule> },
    /// Explicit refusal/failure notice for query `id` (used by strategies
    /// that distinguish "no" from "won't say").
    Failure {
        id: QueryId,
        goal: Literal,
        reason: String,
    },
    /// UniPro: ask for the definition of the named (opaque) policy.
    PolicyRequest { id: QueryId, policy: Sym },
    /// UniPro: the policy's defining rules (contexts stripped), or empty
    /// if the policy's own policy was not satisfied.
    PolicyDisclosure { id: QueryId, rules: Vec<Rule> },
    /// GEM distributed tabling: a re-request of `goal` that carries the
    /// sender's evaluation context — the `(responder, canonical goal)`
    /// frames currently open on the sender's side — so the recipient can
    /// recognize that the goal closes a cross-peer loop instead of
    /// starting a fresh (infinite) descent.
    GemQuery {
        id: QueryId,
        goal: Literal,
        context: Vec<(PeerId, Literal)>,
    },
    /// GEM distributed tabling: the current tabled (partial) answer set
    /// for a loop-closing goal, produced during fixpoint `round` of the
    /// owning SCC. Unlike [`Payload::Answers`], an empty set here means
    /// "nothing derived *yet*", not failure.
    GemAnswers {
        id: QueryId,
        goal: Literal,
        round: u32,
        answers: Vec<Literal>,
    },
    /// GEM distributed tabling: the SCC leader announces that the
    /// component containing `goal` reached its fixpoint after `rounds`
    /// iterations; tabled entries for its goals are final and reusable.
    GemComplete { goal: Literal, rounds: u32 },
}

impl Payload {
    /// Short tag for traces and metrics.
    pub fn kind(&self) -> &'static str {
        match self {
            Payload::Query { .. } => "query",
            Payload::Answers { .. } => "answers",
            Payload::CredentialPush { .. } => "push",
            Payload::Failure { .. } => "failure",
            Payload::PolicyRequest { .. } => "policy-request",
            Payload::PolicyDisclosure { .. } => "policy-disclosure",
            Payload::GemQuery { .. } => "gem-query",
            Payload::GemAnswers { .. } => "gem-answers",
            Payload::GemComplete { .. } => "gem-complete",
        }
    }
}

/// A transport-level message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Message {
    pub id: MessageId,
    pub negotiation: NegotiationId,
    pub from: PeerId,
    pub to: PeerId,
    pub payload: Payload,
    /// Delegation hop count, bounded by the transport to stop runaway
    /// forwarding loops.
    pub hops: u32,
    /// Causal trace coordinates ([`TraceContext::NONE`] when tracing is
    /// off). Not part of [`Message::encode`]'s byte accounting.
    pub trace: TraceContext,
}

// Hand-written serde impls (the vendored derive has no field
// attributes): `trace` is omitted when [`TraceContext::is_none`] and
// defaults to NONE when absent, so frames from pre-tracing builds decode
// unchanged and untraced frames encode to the exact same bytes as before.
impl serde::Serialize for Message {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let err = <S::Error as serde::ser::Error>::custom;
        let mut map: Vec<(serde::Content, serde::Content)> = Vec::with_capacity(7);
        let mut field = |k: &str, c: serde::Content| {
            map.push((serde::Content::Str(k.to_string()), c));
        };
        field("id", serde::to_content(&self.id).map_err(err)?);
        field(
            "negotiation",
            serde::to_content(&self.negotiation).map_err(err)?,
        );
        field("from", serde::to_content(&self.from).map_err(err)?);
        field("to", serde::to_content(&self.to).map_err(err)?);
        field("payload", serde::to_content(&self.payload).map_err(err)?);
        field("hops", serde::Content::U64(self.hops.into()));
        if !self.trace.is_none() {
            field("trace", serde::to_content(&self.trace).map_err(err)?);
        }
        serializer.serialize_content(serde::Content::Map(map))
    }
}

impl<'de> serde::Deserialize<'de> for Message {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let err = <D::Error as serde::de::Error>::custom;
        let content = deserializer.deserialize_content()?;
        let mut fields = serde::de::expect_map(content).map_err(err)?;
        Ok(Message {
            id: serde::de::take_field(&mut fields, "id").map_err(err)?,
            negotiation: serde::de::take_field(&mut fields, "negotiation").map_err(err)?,
            from: serde::de::take_field(&mut fields, "from").map_err(err)?,
            to: serde::de::take_field(&mut fields, "to").map_err(err)?,
            payload: serde::de::take_field(&mut fields, "payload").map_err(err)?,
            hops: serde::de::take_field(&mut fields, "hops").map_err(err)?,
            trace: serde::de::take_field::<Option<TraceContext>>(&mut fields, "trace")
                .map_err(err)?
                .unwrap_or(TraceContext::NONE),
        })
    }
}

impl Message {
    /// Wire encoding used for byte-level metrics (experiments report
    /// message *and* byte counts). Signatures count 32 bytes each; logical
    /// content is encoded as its canonical text.
    pub fn encode(&self) -> Bytes {
        let mut buf = String::new();
        self.write_wire(&mut buf)
            .expect("writing to a String cannot fail");
        Bytes::from(buf)
    }

    /// Encoded size in bytes: the length of [`Message::encode`], counted
    /// without building the frame (the simulated network calls this for
    /// every message it sends).
    pub fn encoded_size(&self) -> usize {
        let mut count = ByteCount(0);
        self.write_wire(&mut count)
            .expect("counting bytes cannot fail");
        count.0
    }

    /// Write the wire encoding into any `fmt::Write` sink.
    fn write_wire(&self, w: &mut impl fmt::Write) -> fmt::Result {
        write!(w, "{}>{}|", self.from.name(), self.to.name())?;
        match &self.payload {
            Payload::Query { goal, .. } => write!(w, "Q|{goal}"),
            Payload::Answers { goal, answers, .. } => {
                write!(w, "A|{goal}")?;
                answers.iter().try_for_each(|a| write!(w, ";{a}"))
            }
            Payload::CredentialPush { rules } => {
                w.write_str("C|")?;
                for r in rules {
                    write!(w, "{}", r.rule)?;
                    // Account for the signature bytes.
                    for _ in &r.signatures {
                        w.write_str(SIGNATURE_PLACEHOLDER)?;
                    }
                }
                Ok(())
            }
            Payload::Failure { goal, reason, .. } => write!(w, "F|{goal};{reason}"),
            Payload::PolicyRequest { policy, .. } => write!(w, "PR|{}", policy.as_str()),
            Payload::PolicyDisclosure { rules, .. } => {
                w.write_str("PD|")?;
                rules.iter().try_for_each(|r| write!(w, "{r};"))
            }
            Payload::GemQuery { goal, context, .. } => {
                write!(w, "GQ|{goal}")?;
                context
                    .iter()
                    .try_for_each(|(peer, frame)| write!(w, ";{}:{frame}", peer.name()))
            }
            Payload::GemAnswers {
                goal,
                round,
                answers,
                ..
            } => {
                write!(w, "GA|{round}|{goal}")?;
                answers.iter().try_for_each(|a| write!(w, ";{a}"))
            }
            Payload::GemComplete { goal, rounds } => write!(w, "GC|{rounds}|{goal}"),
        }
    }
}

/// The 32 bytes a signature occupies on the wire.
const SIGNATURE_PLACEHOLDER: &str =
    "\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0";

/// A `fmt::Write` sink that only counts the bytes written to it.
struct ByteCount(usize);

impl fmt::Write for ByteCount {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0 += s.len();
        Ok(())
    }
}

impl fmt::Display for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[neg {} msg {}] {} -> {}: {}",
            self.negotiation.0,
            self.id.0,
            self.from,
            self.to,
            self.payload.kind()
        )?;
        match &self.payload {
            Payload::Query { goal, .. } => write!(f, " {goal}"),
            Payload::Answers { goal, answers, .. } => {
                write!(f, " {goal} ({} answers)", answers.len())
            }
            Payload::CredentialPush { rules } => write!(f, " ({} rules)", rules.len()),
            Payload::Failure { goal, reason, .. } => write!(f, " {goal}: {reason}"),
            Payload::PolicyRequest { policy, .. } => write!(f, " {policy}"),
            Payload::PolicyDisclosure { rules, .. } => write!(f, " ({} rules)", rules.len()),
            Payload::GemQuery { goal, context, .. } => {
                write!(f, " {goal} ({} context frames)", context.len())
            }
            Payload::GemAnswers {
                goal,
                round,
                answers,
                ..
            } => write!(f, " {goal} round {round} ({} answers)", answers.len()),
            Payload::GemComplete { goal, rounds } => {
                write!(f, " {goal} complete after {rounds} rounds")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peertrust_core::Term;

    fn msg(payload: Payload) -> Message {
        Message {
            id: MessageId(1),
            negotiation: NegotiationId(7),
            from: PeerId::new("Alice"),
            to: PeerId::new("E-Learn"),
            payload,
            hops: 0,
            trace: TraceContext::NONE,
        }
    }

    #[test]
    fn trace_context_none_is_default_and_skipped() {
        assert!(TraceContext::default().is_none());
        let untraced = msg(Payload::Query {
            id: QueryId(1),
            goal: Literal::truth(),
        });
        let json = serde_json::to_string(&untraced).unwrap();
        assert!(!json.contains("trace"), "NONE context must be omitted");

        let mut traced = untraced.clone();
        traced.trace = TraceContext {
            trace_id: 7,
            span_id: 3,
            parent_span_id: 1,
        };
        let json = serde_json::to_string(&traced).unwrap();
        assert!(json.contains("\"trace\""));
        let back: Message = serde_json::from_str(&json).unwrap();
        assert_eq!(back, traced);
    }

    #[test]
    fn kinds_are_stable() {
        let q = msg(Payload::Query {
            id: QueryId(1),
            goal: Literal::truth(),
        });
        assert_eq!(q.payload.kind(), "query");
    }

    #[test]
    fn encoded_size_counts_signatures() {
        let rule = peertrust_core::Rule::fact(
            Literal::new("student", vec![Term::str("Alice")]).at(Term::str("UIUC")),
        )
        .signed_by("UIUC");
        let unsigned_len = msg(Payload::CredentialPush {
            rules: vec![SignedRule {
                rule: rule.clone(),
                signatures: vec![],
            }],
        })
        .encoded_size();
        let signed_len = msg(Payload::CredentialPush {
            rules: vec![SignedRule {
                rule,
                signatures: vec![[0u8; 32]],
            }],
        })
        .encoded_size();
        assert_eq!(signed_len, unsigned_len + 32);
    }

    /// One message of every payload variant, signatures included.
    fn every_payload() -> Vec<Payload> {
        let goal = Literal::new("student", vec![Term::var("X")]).at(Term::str("UIUC"));
        let alice = Literal::new("student", vec![Term::str("Alice")]);
        let cred =
            peertrust_core::Rule::fact(alice.clone().at(Term::str("UIUC"))).signed_by("UIUC");
        vec![
            Payload::Query {
                id: QueryId(1),
                goal: goal.clone(),
            },
            Payload::Answers {
                id: QueryId(1),
                goal: goal.clone(),
                answers: vec![
                    alice.clone(),
                    Literal::new("student", vec![Term::str("Bob")]),
                ],
            },
            Payload::CredentialPush {
                rules: vec![
                    SignedRule {
                        rule: cred.clone(),
                        signatures: vec![[7u8; 32], [9u8; 32]],
                    },
                    SignedRule {
                        rule: cred.clone(),
                        signatures: vec![],
                    },
                ],
            },
            Payload::Failure {
                id: QueryId(2),
                goal: goal.clone(),
                reason: "not released".into(),
            },
            Payload::PolicyRequest {
                id: QueryId(3),
                policy: Sym::new("policy7"),
            },
            Payload::PolicyDisclosure {
                id: QueryId(3),
                rules: vec![cred, peertrust_core::Rule::fact(alice.clone())],
            },
            Payload::GemQuery {
                id: QueryId(4),
                goal: goal.clone(),
                context: vec![(PeerId::new("UIUC"), goal.clone())],
            },
            Payload::GemAnswers {
                id: QueryId(4),
                goal: goal.clone(),
                round: 12,
                answers: vec![alice],
            },
            Payload::GemComplete { goal, rounds: 3 },
        ]
    }

    #[test]
    fn encoded_size_matches_encode_for_every_payload() {
        let payloads = every_payload();
        let kinds: std::collections::BTreeSet<_> = payloads.iter().map(Payload::kind).collect();
        assert_eq!(kinds.len(), 9, "one message per payload variant");
        for p in payloads {
            let m = msg(p);
            assert_eq!(m.encoded_size(), m.encode().len(), "{}", m.payload.kind());
        }
    }

    #[test]
    fn encoding_is_pinned() {
        let [query, answers, push, ..] = &every_payload()[..] else {
            unreachable!()
        };
        assert_eq!(
            &msg(query.clone()).encode()[..],
            br#"Alice>E-Learn|Q|student(X) @ "UIUC""#
        );
        assert_eq!(
            &msg(answers.clone()).encode()[..],
            br#"Alice>E-Learn|A|student(X) @ "UIUC";student("Alice");student("Bob")"#
        );
        let push = msg(push.clone()).encode();
        let rule = r#"student("Alice") @ "UIUC" signedBy ["UIUC"]."#;
        let expected = format!("Alice>E-Learn|C|{rule}{}{rule}", "\0".repeat(64));
        assert_eq!(&push[..], expected.as_bytes());
    }

    #[test]
    fn answers_encoding_grows_with_answers() {
        let goal = Literal::new("student", vec![Term::var("X")]);
        let a0 = msg(Payload::Answers {
            id: QueryId(1),
            goal: goal.clone(),
            answers: vec![],
        })
        .encoded_size();
        let a2 = msg(Payload::Answers {
            id: QueryId(1),
            goal: goal.clone(),
            answers: vec![
                Literal::new("student", vec![Term::str("Alice")]),
                Literal::new("student", vec![Term::str("Bob")]),
            ],
        })
        .encoded_size();
        assert!(a2 > a0);
    }

    #[test]
    fn gem_payloads_roundtrip_and_encode() {
        let goal = Literal::new("reach", vec![Term::var("X")]).at(Term::str("A"));
        let q = msg(Payload::GemQuery {
            id: QueryId(4),
            goal: goal.clone(),
            context: vec![
                (PeerId::new("A"), goal.clone()),
                (
                    PeerId::new("B"),
                    Literal::new("reach", vec![Term::var("X")]),
                ),
            ],
        });
        assert_eq!(q.payload.kind(), "gem-query");
        let back: Message = serde_json::from_str(&serde_json::to_string(&q).unwrap()).unwrap();
        assert_eq!(back, q);
        // Byte accounting grows with the carried evaluation context.
        let bare = msg(Payload::GemQuery {
            id: QueryId(4),
            goal: goal.clone(),
            context: vec![],
        });
        assert!(q.encoded_size() > bare.encoded_size());

        let a = msg(Payload::GemAnswers {
            id: QueryId(4),
            goal: goal.clone(),
            round: 3,
            answers: vec![Literal::new("reach", vec![Term::int(0)])],
        });
        assert_eq!(a.payload.kind(), "gem-answers");
        let back: Message = serde_json::from_str(&serde_json::to_string(&a).unwrap()).unwrap();
        assert_eq!(back, a);
        assert!(a.to_string().contains("round 3"));

        let c = msg(Payload::GemComplete { goal, rounds: 2 });
        assert_eq!(c.payload.kind(), "gem-complete");
        let back: Message = serde_json::from_str(&serde_json::to_string(&c).unwrap()).unwrap();
        assert_eq!(back, c);
        assert!(c.encoded_size() > 0);
    }

    #[test]
    fn display_is_informative() {
        let m = msg(Payload::Query {
            id: QueryId(3),
            goal: Literal::new("student", vec![Term::var("X")]).at(Term::str("UIUC")),
        });
        let s = m.to_string();
        assert!(s.contains("Alice -> E-Learn"));
        assert!(s.contains("student(X) @ \"UIUC\""));
    }
}
