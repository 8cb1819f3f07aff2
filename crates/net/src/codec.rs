//! Wire codec: length-prefixed JSON frames for [`Message`].
//!
//! The in-process transports pass `Message` structs directly; this codec
//! is the serialization boundary a real socket deployment would use (the
//! 2004 prototype shipped XML-ish payloads over TLS). Frames are
//! `u32`-length-prefixed JSON — simple, debuggable, and symbol-portable
//! (interned symbols serialize as text).

use crate::message::Message;
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Encode-side codec errors.
#[derive(Debug)]
pub enum CodecError {
    /// JSON serialization failed.
    Json(serde_json::Error),
    /// The frame's declared length exceeds [`MAX_FRAME`].
    FrameTooLarge(usize),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Json(e) => write!(f, "codec json error: {e}"),
            CodecError::FrameTooLarge(n) => write!(f, "frame of {n} bytes exceeds limit"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<serde_json::Error> for CodecError {
    fn from(e: serde_json::Error) -> CodecError {
        CodecError::Json(e)
    }
}

/// Typed decode-side errors. Every malformed input maps to one of these —
/// [`decode_frame`] never panics, whatever bytes arrive (the fault lane's
/// corruption injection and the fuzz tests below depend on that).
#[derive(Debug)]
pub enum DecodeError {
    /// The buffer holds fewer bytes (`have`) than a complete frame needs
    /// (`need`). Streaming callers read more and retry; nothing was
    /// consumed.
    Truncated { have: usize, need: usize },
    /// The length prefix declares `len` bytes, above the `max` bound —
    /// either corruption or an attack; the connection should be dropped.
    Oversized { len: usize, max: usize },
    /// The frame body is not a valid JSON [`Message`].
    Malformed(serde_json::Error),
}

impl DecodeError {
    /// True when the input is merely incomplete (read more and retry),
    /// as opposed to irrecoverably bad.
    pub fn is_incomplete(&self) -> bool {
        matches!(self, DecodeError::Truncated { .. })
    }
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated { have, need } => {
                write!(f, "truncated frame: have {have} bytes, need {need}")
            }
            DecodeError::Oversized { len, max } => {
                write!(f, "oversized frame: {len} bytes exceeds limit {max}")
            }
            DecodeError::Malformed(e) => write!(f, "malformed frame body: {e}"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl From<serde_json::Error> for DecodeError {
    fn from(e: serde_json::Error) -> DecodeError {
        DecodeError::Malformed(e)
    }
}

/// Upper bound on a single frame (a negotiation message is a handful of
/// rules; anything bigger indicates a bug or an attack).
pub const MAX_FRAME: usize = 4 << 20;

/// Encode one message as a length-prefixed frame.
pub fn encode_frame(msg: &Message) -> Result<Bytes, CodecError> {
    let body = serde_json::to_vec(msg)?;
    if body.len() > MAX_FRAME {
        return Err(CodecError::FrameTooLarge(body.len()));
    }
    let mut buf = BytesMut::with_capacity(4 + body.len());
    buf.put_u32(u32::try_from(body.len()).expect("bounded above"));
    buf.put_slice(&body);
    Ok(buf.freeze())
}

/// Decode one frame from the front of `buf`, consuming it. Returns
/// `Err(Truncated { .. })` without consuming anything when more bytes
/// are needed.
pub fn decode_frame(buf: &mut BytesMut) -> Result<Message, DecodeError> {
    if buf.len() < 4 {
        return Err(DecodeError::Truncated {
            have: buf.len(),
            need: 4,
        });
    }
    let len = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if len > MAX_FRAME {
        return Err(DecodeError::Oversized {
            len,
            max: MAX_FRAME,
        });
    }
    if buf.len() < 4 + len {
        return Err(DecodeError::Truncated {
            have: buf.len(),
            need: 4 + len,
        });
    }
    buf.advance(4);
    let body = buf.split_to(len);
    Ok(serde_json::from_slice(&body)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{MessageId, NegotiationId, Payload, QueryId, TraceContext};
    use peertrust_core::{Literal, PeerId, Rule, Term};
    use peertrust_crypto::SignedRule;

    fn sample(n: u64) -> Message {
        Message {
            id: MessageId(n),
            negotiation: NegotiationId(1),
            from: PeerId::new("Alice"),
            to: PeerId::new("E-Learn"),
            payload: Payload::Query {
                id: QueryId(n),
                goal: Literal::new("student", vec![Term::var("X")]).at(Term::str("UIUC")),
            },
            hops: 2,
            trace: TraceContext::NONE,
        }
    }

    #[test]
    fn roundtrip_query() {
        let msg = sample(7);
        let frame = encode_frame(&msg).unwrap();
        let mut buf = BytesMut::from(&frame[..]);
        let back = decode_frame(&mut buf).unwrap();
        assert_eq!(back, msg);
        assert!(buf.is_empty());
    }

    #[test]
    fn trace_context_is_backward_compatible_on_the_wire() {
        // An untraced frame carries no `trace` key at all, so its bytes
        // match the pre-tracing encoding; a frame from a pre-tracing
        // build (no `trace` key) decodes to `TraceContext::NONE`.
        let untraced = sample(7);
        let frame = encode_frame(&untraced).unwrap();
        assert!(!frame.windows(7).any(|w| w == b"\"trace\""));
        let mut buf = BytesMut::from(&frame[..]);
        assert_eq!(decode_frame(&mut buf).unwrap().trace, TraceContext::NONE);

        let traced = Message {
            trace: TraceContext {
                trace_id: 1,
                span_id: 5,
                parent_span_id: 2,
            },
            ..sample(7)
        };
        let frame = encode_frame(&traced).unwrap();
        let mut buf = BytesMut::from(&frame[..]);
        let back = decode_frame(&mut buf).unwrap();
        assert_eq!(back, traced);
        assert_eq!(back.trace.span_id, 5);
    }

    #[test]
    fn roundtrip_credential_push_with_signatures() {
        let rule =
            Rule::fact(Literal::new("student", vec![Term::str("Alice")]).at(Term::str("UIUC")))
                .signed_by("UIUC");
        let msg = Message {
            payload: Payload::CredentialPush {
                rules: vec![SignedRule {
                    rule,
                    signatures: vec![[42u8; 32]],
                }],
            },
            ..sample(1)
        };
        let frame = encode_frame(&msg).unwrap();
        let mut buf = BytesMut::from(&frame[..]);
        let back = decode_frame(&mut buf).unwrap();
        assert_eq!(back, msg);
    }

    #[test]
    fn streaming_decode_of_concatenated_frames() {
        let mut buf = BytesMut::new();
        for n in 0..3 {
            buf.extend_from_slice(&encode_frame(&sample(n)).unwrap());
        }
        for n in 0..3 {
            let m = decode_frame(&mut buf).unwrap();
            assert_eq!(m.id, MessageId(n));
        }
        assert!(matches!(
            decode_frame(&mut buf),
            Err(DecodeError::Truncated { have: 0, need: 4 })
        ));
    }

    #[test]
    fn incomplete_frames_do_not_consume() {
        let frame = encode_frame(&sample(9)).unwrap();
        let mut buf = BytesMut::from(&frame[..frame.len() - 1]);
        let before = buf.len();
        match decode_frame(&mut buf) {
            Err(DecodeError::Truncated { have, need }) => {
                assert_eq!(have, frame.len() - 1);
                assert_eq!(need, frame.len());
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
        assert_eq!(buf.len(), before, "nothing consumed");
        // Completing the frame makes it decodable.
        buf.extend_from_slice(&frame[frame.len() - 1..]);
        assert!(decode_frame(&mut buf).is_ok());
    }

    #[test]
    fn oversized_length_prefix_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u32(u32::MAX);
        buf.put_slice(&[0u8; 16]);
        assert!(matches!(
            decode_frame(&mut buf),
            Err(DecodeError::Oversized { max: MAX_FRAME, .. })
        ));
    }

    #[test]
    fn garbage_body_is_malformed() {
        let mut buf = BytesMut::new();
        buf.put_u32(3);
        buf.put_slice(b"x{]");
        assert!(matches!(
            decode_frame(&mut buf),
            Err(DecodeError::Malformed(_))
        ));
    }

    #[test]
    fn truncation_at_every_prefix_length_never_consumes_or_panics() {
        // Fuzz-style sweep: every possible truncation of a valid frame
        // must yield Truncated (with a correct `need`) and leave the
        // buffer byte-identical for the retry.
        let frame = encode_frame(&sample(3)).unwrap();
        for cut in 0..frame.len() {
            let mut buf = BytesMut::from(&frame[..cut]);
            match decode_frame(&mut buf) {
                Err(DecodeError::Truncated { have, need }) => {
                    assert_eq!(have, cut);
                    assert!(need > cut);
                    assert_eq!(&buf[..], &frame[..cut], "consumed on Truncated");
                }
                other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn single_byte_mutations_never_panic_and_never_roundtrip() {
        // Fuzz-style sweep: flip each byte of a valid frame through a few
        // xor patterns. decode_frame must always return (no panic), and a
        // successful decode must differ from the original message. That
        // holds for this `Query` sample only: frames carry no checksum, so
        // a flipped name of a `null` optional field (a rule's
        // `head_context`, say) decodes to an equal message.
        let msg = sample(5);
        let frame = encode_frame(&msg).unwrap();
        for pos in 0..frame.len() {
            for flip in [0x01u8, 0x20, 0x80, 0xff] {
                let mut bytes = frame.to_vec();
                bytes[pos] ^= flip;
                let mut buf = BytesMut::from(&bytes[..]);
                match decode_frame(&mut buf) {
                    Ok(decoded) => assert_ne!(decoded, msg, "pos {pos} flip {flip:#x}"),
                    Err(e) => {
                        // Errors must classify, not panic; exercise Display.
                        let _ = e.to_string();
                    }
                }
            }
        }
    }

    #[test]
    fn random_garbage_never_panics() {
        // A deterministic pseudo-random byte soup, fed in as-is.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for len in [0usize, 1, 3, 4, 5, 16, 64, 512] {
            let bytes: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            let mut buf = BytesMut::from(&bytes[..]);
            // Drain until the decoder stops making progress.
            for _ in 0..len + 1 {
                let before = buf.len();
                match decode_frame(&mut buf) {
                    Ok(_) => {}
                    Err(e) if e.is_incomplete() => break,
                    Err(_) => {
                        if buf.len() == before {
                            break;
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn signature_bytes_survive_roundtrip_and_verify() {
        // The real thing: sign, encode, decode, verify.
        let reg = peertrust_crypto::KeyRegistry::new();
        reg.register_derived(PeerId::new("UIUC"), 5);
        let rule =
            Rule::fact(Literal::new("student", vec![Term::str("Alice")]).at(Term::str("UIUC")))
                .signed_by("UIUC");
        let signed = peertrust_crypto::sign_rule(&reg, &rule).unwrap();
        let msg = Message {
            payload: Payload::CredentialPush {
                rules: vec![signed],
            },
            ..sample(1)
        };
        let mut buf = BytesMut::from(&encode_frame(&msg).unwrap()[..]);
        let back = decode_frame(&mut buf).unwrap();
        let Payload::CredentialPush { rules } = back.payload else {
            panic!("wrong payload");
        };
        assert!(peertrust_crypto::verify_signed_rule(&reg, &rules[0]).is_ok());
    }
}
