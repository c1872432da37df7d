//! The versioned, length-prefixed wire codec.
//!
//! Every protocol interaction of the Chiaroscuro runtime crosses the wire as
//! one [`Message`], serialized into a *frame*:
//!
//! ```text
//! ┌────────────┬─────────┬─────┬──────────┬───────────────┬───────────────────┐
//! │ length u32 │ version │ tag │ trace    │ trace context │ body (per-variant)│
//! │ (LE, body) │   u8    │ u8  │ flag u8  │ 24 B, if flag │                   │
//! │            │         │     │          │ is 1          │                   │
//! └────────────┴─────────┴─────┴──────────┴───────────────┴───────────────────┘
//! ```
//!
//! The length prefix covers everything after it, so frames are
//! self-delimiting on a byte stream. Integers are little-endian; `f64`
//! travels as its IEEE-754 bit pattern; big integers as length-prefixed
//! little-endian byte strings (the same convention as `cs_bigint`'s serde
//! form). Decoding is strict: wrong version, unknown tag, truncation,
//! trailing bytes, and absurd element counts are all rejected — what crosses
//! the wire is the security-relevant object, so nothing is silently
//! tolerated.
//!
//! The optional [`TraceContext`] block sits between the tag and the body:
//! a one-byte flag (0 = absent, 1 = present, anything else is corrupt)
//! followed, when present, by the 24-byte context — so causality crosses
//! process boundaries with the message that carries it.
//!
//! There is one layout, [`WIRE_VERSION`]. No peer of another version is
//! deployed anywhere and the `cs_node` handshake demands an exact match, so
//! frames of the earlier layouts (v1: no packed push; v2: no trace block;
//! v3: a termination vote under tag 4, retired with the vote; v4: a push of
//! one ciphertext per slot under tag 0, retired with that layout) are
//! rejected as [`WireError::BadVersion`] like any other foreign byte, and
//! tags 0 and 4 in a current frame are a [`WireError::BadTag`].
//!
//! The [`Message`] type also derives serde, so every variant has a JSON
//! form for logs and debugging; the binary frame codec is the transport
//! format.

use cs_bigint::BigUint;
use cs_crypto::{Ciphertext, PartialDecryption};
pub use cs_obs::TraceContext;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The wire format version — the only one [`decode_frame`] accepts and
/// [`encode_frame`] emits. Bump on any layout change.
pub const WIRE_VERSION: u8 = 5;

/// Hard upper bound on one frame's body, guarding decode against hostile
/// length prefixes (64 MiB comfortably fits any realistic slot vector).
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// Upper bound on per-message element counts (slots, partials), guarding
/// allocation against corrupt counts.
const MAX_ELEMENTS: usize = 1 << 20;

/// Traffic class of a frame, for bytes-on-wire accounting. `class as usize`
/// indexes every `[gossip, decrypt, control]` counter block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameClass {
    /// Push-sum gossip payloads (steps 2a/2b).
    Gossip,
    /// Collaborative-decryption traffic (step 2d).
    Decrypt,
    /// Membership traffic: `Join` and `Leave` announcements.
    Control,
}

/// Everything a Chiaroscuro participant ever puts on the wire.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Message {
    /// One encrypted push-sum half-exchange (steps 2a–2c as one aggregate):
    /// the sender's one-block contribution — noise shares folded in before
    /// encryption — as Damgård-Jurik ciphertexts that each carry a whole
    /// lane vector (`cs_crypto::packing`), `⌈buckets/lanes⌉` of them, with
    /// their denominator exponent and the halved push-sum weight. `buckets`
    /// is the logical bucket count (`SlotLayout::total()`), letting the
    /// receiver cross-check the sender's layout before absorbing.
    PackedPush {
        /// Protocol iteration this push belongs to.
        iteration: u64,
        /// Sender's denominator exponent after halving.
        denom_exp: u32,
        /// The halved push-sum weight.
        weight: f64,
        /// Logical bucket count packed into `slots`.
        buckets: u32,
        /// The pushed ciphertexts.
        slots: Vec<Ciphertext>,
    },
    /// The plaintext counterpart used in simulated-crypto mode: same
    /// dataflow, cleartext slots.
    PlainPush {
        /// Protocol iteration this push belongs to.
        iteration: u64,
        /// The halved push-sum weight.
        weight: f64,
        /// The pushed plaintext slots.
        slots: Vec<f64>,
    },
    /// A request for partial decryptions of the requester's snapshot of its
    /// gossip ciphertexts — the perturbed aggregate (step 2d).
    DecryptRequest {
        /// Protocol iteration of the decryption round.
        iteration: u64,
        /// The ciphertexts to partially decrypt.
        slots: Vec<Ciphertext>,
    },
    /// A committee member's partial decryptions, one per requested slot.
    DecryptShare {
        /// Protocol iteration of the decryption round.
        iteration: u64,
        /// One partial decryption per requested slot, in request order.
        partials: Vec<PartialDecryption>,
    },
    /// Membership: a (re)joining node announcing itself.
    Join {
        /// The joining node's identifier.
        node: u64,
        /// The latest iteration the joiner knows (lets peers decide whether
        /// it must synchronize its Diptych).
        iteration: u64,
    },
    /// Membership: a gracefully departing node.
    Leave {
        /// The departing node's identifier.
        node: u64,
    },
}

impl Message {
    /// The traffic class of this message.
    pub fn class(&self) -> FrameClass {
        match self {
            Message::PackedPush { .. } | Message::PlainPush { .. } => FrameClass::Gossip,
            Message::DecryptRequest { .. } | Message::DecryptShare { .. } => FrameClass::Decrypt,
            Message::Join { .. } | Message::Leave { .. } => FrameClass::Control,
        }
    }

    /// The wire tag of this message — the stable `kind` discriminant trace
    /// events record (`cstrace` maps it back to the variant name).
    pub fn wire_tag(&self) -> u8 {
        match self {
            Message::PlainPush { .. } => 1,
            Message::DecryptRequest { .. } => 2,
            Message::DecryptShare { .. } => 3,
            Message::Join { .. } => 5,
            Message::Leave { .. } => 6,
            Message::PackedPush { .. } => 7,
        }
    }

    /// Exact length in bytes of [`encode_frame`]'s output for this message,
    /// computed without serializing.
    ///
    /// The sharded executor delivers messages by move — no frame is ever
    /// materialized — but its bytes-on-wire accounting and its link model
    /// must stay comparable with the TCP transport's, so this mirrors
    /// the codec's layout arithmetic exactly (asserted by a round-trip
    /// proptest).
    pub fn encoded_len(&self) -> usize {
        let ciphertexts = |slots: &[Ciphertext]| -> usize {
            4 + slots
                .iter()
                .map(|c| 4 + c.as_biguint().byte_len())
                .sum::<usize>()
        };
        // length prefix + version + tag + cleared trace flag, then the
        // per-variant body. A set trace context adds
        // [`TraceContext::WIRE_BYTES`] more ([`encode_frame_traced`]).
        4 + 1
            + 1
            + 1
            + match self {
                Message::PackedPush { slots, .. } => 8 + 4 + 8 + 4 + ciphertexts(slots),
                Message::PlainPush { slots, .. } => 8 + 8 + 4 + 8 * slots.len(),
                Message::DecryptRequest { slots, .. } => 8 + ciphertexts(slots),
                Message::DecryptShare { partials, .. } => {
                    8 + 4
                        + partials
                            .iter()
                            .map(|p| 8 + 4 + p.value().byte_len())
                            .sum::<usize>()
                }
                Message::Join { .. } => 8 + 8,
                Message::Leave { .. } => 8,
            }
    }

    /// Exact length in bytes of [`encode_frame_traced`]'s output for this
    /// message under `ctx`: [`Message::encoded_len`], plus the trace block
    /// when the context is set. The sharded executor's traffic counters and
    /// link model run on this number; the encoder sizes its buffer with it.
    pub fn traced_len(&self, ctx: TraceContext) -> usize {
        let trace_bytes = if ctx.is_set() {
            TraceContext::WIRE_BYTES
        } else {
            0
        };
        self.encoded_len() + trace_bytes
    }
}

/// Decoding failures. Encoding is infallible.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the declared content did.
    Truncated,
    /// The length prefix exceeds [`MAX_FRAME_BYTES`].
    FrameTooLarge(usize),
    /// A TCP record header demands a record over
    /// [`MAX_RECORD_LEN`](crate::tcp::MAX_RECORD_LEN) — rejected before any
    /// buffer is sized from the untrusted length.
    RecordTooLarge(usize),
    /// The length prefix disagrees with the bytes actually present.
    BadLength {
        /// Length the prefix declared.
        declared: usize,
        /// Bytes actually available after the prefix.
        actual: usize,
    },
    /// Unsupported wire format version.
    BadVersion(u8),
    /// Unknown message tag.
    BadTag(u8),
    /// The body decoded but bytes were left over.
    TrailingBytes(usize),
    /// A field value is structurally impossible (e.g. absurd element count).
    BadValue(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::FrameTooLarge(n) => write!(f, "frame of {n} bytes exceeds the cap"),
            WireError::RecordTooLarge(n) => {
                write!(f, "record of {n} bytes exceeds the record cap")
            }
            WireError::BadLength { declared, actual } => {
                write!(f, "length prefix says {declared} bytes, found {actual}")
            }
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::BadTag(t) => write!(f, "unknown message tag {t}"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after the message"),
            WireError::BadValue(what) => write!(f, "invalid field: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_biguint(buf: &mut Vec<u8>, v: &BigUint) {
    let bytes = v.to_bytes_le();
    put_u32(buf, bytes.len() as u32);
    buf.extend_from_slice(&bytes);
}

fn put_ciphertexts(buf: &mut Vec<u8>, slots: &[Ciphertext]) {
    put_u32(buf, slots.len() as u32);
    for c in slots {
        put_biguint(buf, c.as_biguint());
    }
}

/// Encodes a message into one length-prefixed frame with no trace
/// context (the trace flag is cleared).
pub fn encode_frame(msg: &Message) -> Vec<u8> {
    encode_frame_traced(msg, TraceContext::NONE)
}

/// Encodes a message into one length-prefixed frame carrying `ctx` when
/// it is set ([`TraceContext::is_set`]); an unset context encodes
/// identically to [`encode_frame`].
pub fn encode_frame_traced(msg: &Message, ctx: TraceContext) -> Vec<u8> {
    // One allocation at the exact frame size; the length prefix is patched
    // in place once the body is written.
    let mut frame = Vec::with_capacity(msg.traced_len(ctx));
    put_u32(&mut frame, 0);
    frame.push(WIRE_VERSION);
    frame.push(msg.wire_tag());
    if ctx.is_set() {
        frame.push(1);
        frame.extend_from_slice(&ctx.to_bytes());
    } else {
        frame.push(0);
    }
    match msg {
        Message::PlainPush {
            iteration,
            weight,
            slots,
        } => {
            put_u64(&mut frame, *iteration);
            put_f64(&mut frame, *weight);
            put_u32(&mut frame, slots.len() as u32);
            let start = frame.len();
            frame.resize(start + 8 * slots.len(), 0);
            for (dst, v) in frame[start..].chunks_exact_mut(8).zip(slots) {
                dst.copy_from_slice(&v.to_bits().to_le_bytes());
            }
        }
        Message::DecryptRequest { iteration, slots } => {
            put_u64(&mut frame, *iteration);
            put_ciphertexts(&mut frame, slots);
        }
        Message::DecryptShare {
            iteration,
            partials,
        } => {
            put_u64(&mut frame, *iteration);
            put_u32(&mut frame, partials.len() as u32);
            for p in partials {
                put_u64(&mut frame, p.index());
                put_biguint(&mut frame, p.value());
            }
        }
        Message::Join { node, iteration } => {
            put_u64(&mut frame, *node);
            put_u64(&mut frame, *iteration);
        }
        Message::Leave { node } => {
            put_u64(&mut frame, *node);
        }
        Message::PackedPush {
            iteration,
            denom_exp,
            weight,
            buckets,
            slots,
        } => {
            put_u64(&mut frame, *iteration);
            put_u32(&mut frame, *denom_exp);
            put_f64(&mut frame, *weight);
            put_u32(&mut frame, *buckets);
            put_ciphertexts(&mut frame, slots);
        }
    }
    let declared = (frame.len() - 4) as u32;
    frame[..4].copy_from_slice(&declared.to_le_bytes());
    frame
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.buf.len() - self.pos < n {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn count(&mut self) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        if n > MAX_ELEMENTS {
            return Err(WireError::BadValue("element count exceeds the cap"));
        }
        Ok(n)
    }

    fn biguint(&mut self) -> Result<BigUint, WireError> {
        let len = self.count()?;
        Ok(BigUint::from_bytes_le(self.take(len)?))
    }

    fn ciphertexts(&mut self) -> Result<Vec<Ciphertext>, WireError> {
        let n = self.count()?;
        let mut out = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            out.push(Ciphertext::from_biguint(self.biguint()?));
        }
        Ok(out)
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

/// Decodes one length-prefixed frame, discarding any trace context. The
/// buffer must hold exactly one frame; any deviation — short buffer,
/// over-long prefix, version or tag mismatch, trailing bytes — is an
/// error.
pub fn decode_frame(frame: &[u8]) -> Result<Message, WireError> {
    decode_frame_traced(frame).map(|(msg, _)| msg)
}

/// Decodes one length-prefixed frame together with its trace context
/// ([`TraceContext::NONE`] for an untraced frame).
pub fn decode_frame_traced(frame: &[u8]) -> Result<(Message, TraceContext), WireError> {
    let mut r = Reader { buf: frame, pos: 0 };
    let declared = r.u32()? as usize;
    if declared > MAX_FRAME_BYTES {
        return Err(WireError::FrameTooLarge(declared));
    }
    if declared != r.remaining() {
        return Err(WireError::BadLength {
            declared,
            actual: r.remaining(),
        });
    }
    let version = r.u8()?;
    if version != WIRE_VERSION {
        return Err(WireError::BadVersion(version));
    }
    let tag = r.u8()?;
    let ctx = match r.u8()? {
        0 => TraceContext::NONE,
        1 => {
            let bytes: [u8; TraceContext::WIRE_BYTES] =
                r.take(TraceContext::WIRE_BYTES)?.try_into().expect("24");
            let ctx = TraceContext::from_bytes(&bytes);
            if !ctx.is_set() {
                // Span ids are never 0 — a flagged-but-empty context is
                // corruption, not an encoding choice.
                return Err(WireError::BadValue("flagged trace context is empty"));
            }
            ctx
        }
        _ => return Err(WireError::BadValue("trace flag must be 0 or 1")),
    };
    let msg = match tag {
        1 => {
            let iteration = r.u64()?;
            let weight = r.f64()?;
            let n = r.count()?;
            // One bounds check for the whole slot block (`n` is capped, so
            // `8 * n` cannot overflow), then a straight conversion pass.
            let slots = r
                .take(8 * n)?
                .chunks_exact(8)
                .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().expect("8-byte chunk"))))
                .collect();
            Message::PlainPush {
                iteration,
                weight,
                slots,
            }
        }
        2 => Message::DecryptRequest {
            iteration: r.u64()?,
            slots: r.ciphertexts()?,
        },
        3 => {
            let iteration = r.u64()?;
            let n = r.count()?;
            let mut partials = Vec::with_capacity(n.min(65_536));
            for _ in 0..n {
                let index = r.u64()?;
                if index == 0 {
                    return Err(WireError::BadValue("share index must be >= 1"));
                }
                partials.push(PartialDecryption::from_parts(index, r.biguint()?));
            }
            Message::DecryptShare {
                iteration,
                partials,
            }
        }
        5 => Message::Join {
            node: r.u64()?,
            iteration: r.u64()?,
        },
        6 => Message::Leave { node: r.u64()? },
        7 => Message::PackedPush {
            iteration: r.u64()?,
            denom_exp: r.u32()?,
            weight: r.f64()?,
            buckets: r.u32()?,
            slots: r.ciphertexts()?,
        },
        other => return Err(WireError::BadTag(other)),
    };
    if r.remaining() != 0 {
        return Err(WireError::TrailingBytes(r.remaining()));
    }
    Ok((msg, ctx))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_messages() -> Vec<Message> {
        let c = |v: u64| Ciphertext::from_biguint(BigUint::from(v));
        vec![
            Message::PlainPush {
                iteration: 1,
                weight: 1.0,
                slots: vec![0.0, -3.5, 1e300],
            },
            Message::DecryptRequest {
                iteration: 2,
                slots: vec![c(9)],
            },
            Message::DecryptShare {
                iteration: 2,
                partials: vec![
                    PartialDecryption::from_parts(1, BigUint::from(77u64)),
                    PartialDecryption::from_parts(3, BigUint::from(0u64)),
                ],
            },
            Message::Join {
                node: 11,
                iteration: 4,
            },
            Message::Leave { node: 12 },
            Message::PackedPush {
                iteration: 9,
                denom_exp: 3,
                weight: 0.5,
                buckets: 24,
                slots: vec![c(123_456_789), c(1)],
            },
        ]
    }

    #[test]
    fn every_variant_roundtrips() {
        for msg in sample_messages() {
            let frame = encode_frame(&msg);
            assert_eq!(decode_frame(&frame).unwrap(), msg, "{msg:?}");
        }
    }

    #[test]
    fn traced_frames_roundtrip_message_and_context() {
        let ctx = TraceContext {
            trace_id: 0xDEAD_BEEF_CAFE_F00D,
            span_id: (8 << 32) | 3,
            parent_id: (8 << 32) | 1,
        };
        for msg in sample_messages() {
            let frame = encode_frame_traced(&msg, ctx);
            // The trace block costs exactly 24 bytes over the untraced frame.
            assert_eq!(frame.len(), msg.encoded_len() + TraceContext::WIRE_BYTES);
            assert_eq!(frame.len(), msg.traced_len(ctx));
            let (back, back_ctx) = decode_frame_traced(&frame).unwrap();
            assert_eq!(back, msg, "{msg:?}");
            assert_eq!(back_ctx, ctx, "{msg:?}");
            // The plain decoder accepts the same frame and drops the context.
            assert_eq!(decode_frame(&frame).unwrap(), msg);
        }
    }

    #[test]
    fn untraced_frames_decode_with_no_context() {
        let frame = encode_frame(&Message::Leave { node: 1 });
        let (_, ctx) = decode_frame_traced(&frame).unwrap();
        assert_eq!(ctx, TraceContext::NONE);
    }

    #[test]
    fn corrupt_trace_context_bytes_are_rejected() {
        let ctx = TraceContext {
            trace_id: 1,
            span_id: 2,
            parent_id: 0,
        };
        // Flag byte outside {0, 1}.
        let mut frame = encode_frame_traced(&Message::Leave { node: 1 }, ctx);
        frame[6] = 2;
        assert_eq!(
            decode_frame(&frame),
            Err(WireError::BadValue("trace flag must be 0 or 1"))
        );
        // A flagged context whose span id is zero is corruption: encoders
        // emit flag 0 instead of an empty context.
        let mut frame = encode_frame_traced(&Message::Leave { node: 1 }, ctx);
        // span_id sits after len(4) + version(1) + tag(1) + flag(1) + trace_id(8).
        frame[15..23].copy_from_slice(&0u64.to_le_bytes());
        assert_eq!(
            decode_frame(&frame),
            Err(WireError::BadValue("flagged trace context is empty"))
        );
        // A declared length that ends inside the 24-byte context block: the
        // context read runs out of bytes.
        let mut frame = encode_frame_traced(&Message::Leave { node: 1 }, ctx);
        frame.truncate(frame.len() - 20);
        let len = (frame.len() - 4) as u32;
        frame[..4].copy_from_slice(&len.to_le_bytes());
        assert_eq!(decode_frame(&frame), Err(WireError::Truncated));
    }

    #[test]
    fn encoded_len_matches_actual_encoding() {
        for msg in sample_messages() {
            assert_eq!(msg.encoded_len(), encode_frame(&msg).len(), "{msg:?}");
        }
        // Zero-valued big integers encode as empty byte strings — the
        // arithmetic must agree with the codec there too.
        let zeroes = Message::PackedPush {
            iteration: 0,
            denom_exp: 0,
            weight: 0.0,
            buckets: 0,
            slots: vec![Ciphertext::from_biguint(BigUint::from(0u64)); 3],
        };
        assert_eq!(zeroes.encoded_len(), encode_frame(&zeroes).len());
    }

    #[test]
    fn classes_partition_the_message_space() {
        let classes: Vec<FrameClass> = sample_messages().iter().map(|m| m.class()).collect();
        assert_eq!(
            classes,
            vec![
                FrameClass::Gossip,
                FrameClass::Decrypt,
                FrameClass::Decrypt,
                FrameClass::Control,
                FrameClass::Control,
                FrameClass::Gossip,
            ]
        );
    }

    #[test]
    fn truncation_is_rejected_at_every_length() {
        let frame = encode_frame(sample_messages().last().expect("a packed push"));
        for cut in 0..frame.len() {
            assert!(decode_frame(&frame[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut frame = encode_frame(&Message::Leave { node: 1 });
        frame.push(0);
        assert!(matches!(
            decode_frame(&frame),
            Err(WireError::BadLength { .. })
        ));
        // Consistent prefix but extra body bytes inside the declared length.
        let mut frame = encode_frame(&Message::Leave { node: 1 });
        let len = u32::from_le_bytes(frame[..4].try_into().unwrap()) + 1;
        frame[..4].copy_from_slice(&len.to_le_bytes());
        frame.push(0);
        assert_eq!(decode_frame(&frame), Err(WireError::TrailingBytes(1)));
    }

    #[test]
    fn wrong_version_and_tag_rejected() {
        let mut frame = encode_frame(&Message::Leave { node: 1 });
        frame[4] = WIRE_VERSION + 1;
        assert_eq!(
            decode_frame(&frame),
            Err(WireError::BadVersion(WIRE_VERSION + 1))
        );
        let mut frame = encode_frame(&Message::Leave { node: 1 });
        frame[4] = 0;
        assert_eq!(decode_frame(&frame), Err(WireError::BadVersion(0)));
        let mut frame = encode_frame(&Message::Leave { node: 1 });
        frame[5] = 99;
        assert_eq!(decode_frame(&frame), Err(WireError::BadTag(99)));
        // The retired tags — the per-slot push's and the termination
        // vote's — are not reassigned.
        for retired in [0, 4] {
            frame[5] = retired;
            assert_eq!(decode_frame(&frame), Err(WireError::BadTag(retired)));
        }
    }

    #[test]
    fn hostile_length_prefix_rejected() {
        let mut frame = encode_frame(&Message::Leave { node: 1 });
        frame[..4].copy_from_slice(&(u32::MAX).to_le_bytes());
        assert!(matches!(
            decode_frame(&frame),
            Err(WireError::FrameTooLarge(_))
        ));
    }

    #[test]
    fn hostile_element_count_rejected() {
        // A DecryptRequest claiming 2^30 slots in a tiny body (flag 0:
        // no trace context).
        let mut body = vec![WIRE_VERSION, 2, 0];
        body.extend_from_slice(&0u64.to_le_bytes());
        body.extend_from_slice(&(1u32 << 30).to_le_bytes());
        let mut frame = Vec::new();
        frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
        frame.extend_from_slice(&body);
        assert_eq!(
            decode_frame(&frame),
            Err(WireError::BadValue("element count exceeds the cap"))
        );
    }

    #[test]
    fn zero_share_index_rejected() {
        let msg = Message::DecryptShare {
            iteration: 1,
            partials: vec![PartialDecryption::from_parts(1, BigUint::from(5u64))],
        };
        let mut frame = encode_frame(&msg);
        // The index field sits right after len(4) + version(1) + tag(1) +
        // flag(1) + iteration(8) + count(4).
        frame[19] = 0;
        assert_eq!(
            decode_frame(&frame),
            Err(WireError::BadValue("share index must be >= 1"))
        );
    }

    #[test]
    fn serde_json_mirror_exists_for_logging() {
        for msg in sample_messages() {
            let json = serde_json::to_string(&msg).unwrap();
            let back: Message = serde_json::from_str(&json).unwrap();
            assert_eq!(back, msg);
        }
    }
}
