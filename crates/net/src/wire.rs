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
//! travels as its IEEE-754 bit pattern; a vector of big integers as one
//! block, `count u32 | width u16 | count × width` bytes, each value
//! little-endian and zero-padded to `width`. A decryption frame's `width` is
//! the key's, `byte_len(n^(s+1))`, so its length is a function of element
//! count and key; a push, which names no width, travels at its widest
//! ciphertext's. Decoding is strict: wrong version, unknown tag, truncation,
//! trailing bytes, absurd element counts and zero-width blocks are all
//! rejected — what crosses the wire is the security-relevant object, so
//! nothing is silently tolerated.
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
//! one ciphertext per slot under tag 0, retired with that layout; v5: a
//! length prefix per big integer and a share index per partial; v6: no
//! release, every participant had its own estimate decrypted) are rejected
//! as [`WireError::BadVersion`] like any other foreign byte, and tags 0 and
//! 4 in a current frame are a [`WireError::BadTag`]. v7 added tags 8 and 9:
//! a non-member asks a committee member for its decrypted estimate
//! ([`Message::ReleaseRequest`]) and adopts the answer
//! ([`Message::Release`]), whose values travel as a push's `f64` block.

use cs_bigint::BigUint;
use cs_crypto::Ciphertext;
pub use cs_obs::TraceContext;
use std::fmt;

/// The wire format version — the only one [`decode_frame`] accepts and
/// [`encode_frame`] emits. Bump on any layout change.
pub const WIRE_VERSION: u8 = 7;

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
#[derive(Clone, Debug, PartialEq)]
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
    /// A committee member's request for partial decryptions of its
    /// snapshot of its gossip ciphertexts — the perturbed aggregate (step
    /// 2d).
    DecryptRequest {
        /// Protocol iteration of the decryption round.
        iteration: u64,
        /// Byte width of each ciphertext on the wire: the key width.
        width: u16,
        /// The ciphertexts to partially decrypt.
        slots: Vec<Ciphertext>,
    },
    /// A committee member's partial decryptions under its share index.
    DecryptShare {
        /// Protocol iteration of the decryption round.
        iteration: u64,
        /// The member's 1-based share index.
        member: u64,
        /// Byte width of each partial on the wire: the key width.
        width: u16,
        /// One partial decryption per requested slot, in request order.
        partials: Vec<BigUint>,
    },
    /// A non-member's request for a committee member's release: the
    /// member's own decrypted estimate of the step, which the requester
    /// adopts instead of having its own ciphertexts decrypted (step 2d).
    ReleaseRequest {
        /// Protocol iteration of the decryption round.
        iteration: u64,
    },
    /// A committee member's decrypted, perturbed aggregates, one value per
    /// slot of the step's layout (`SlotLayout::total()`), in slot order.
    Release {
        /// Protocol iteration of the decryption round.
        iteration: u64,
        /// The member's 1-based share index.
        member: u64,
        /// The aggregates, slot by slot.
        values: Vec<f64>,
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
            Message::DecryptRequest { .. }
            | Message::DecryptShare { .. }
            | Message::ReleaseRequest { .. }
            | Message::Release { .. } => FrameClass::Decrypt,
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
            Message::ReleaseRequest { .. } => 8,
            Message::Release { .. } => 9,
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
        // A block is its count and width, then `count × width` bytes.
        let block = |count: usize, width: u16| 4 + 2 + count * width as usize;
        // length prefix (4) + version + tag + cleared trace flag, then the
        // per-variant body. A set trace context adds
        // [`TraceContext::WIRE_BYTES`] more ([`encode_frame_traced`]).
        7 + match self {
            // iteration, denom_exp, weight, buckets, ciphertexts
            Message::PackedPush { slots, .. } => 24 + block(slots.len(), push_width(slots)),
            Message::PlainPush { slots, .. } => 8 + 8 + 4 + 8 * slots.len(),
            Message::DecryptRequest { width, slots, .. } => 8 + block(slots.len(), *width),
            // iteration, member, partials
            Message::DecryptShare {
                width, partials: p, ..
            } => 16 + block(p.len(), *width),
            Message::ReleaseRequest { .. } => 8,
            // iteration, member, values
            Message::Release { values, .. } => 8 + 8 + 4 + 8 * values.len(),
            Message::Join { .. } => 8 + 8,
            Message::Leave { .. } => 8,
        }
    }

    /// Exact length in bytes of [`encode_frame_traced`]'s output for this
    /// message under `ctx`: [`Message::encoded_len`], plus the trace block
    /// when the context is set. The sharded executor's traffic counters and
    /// link model run on this number; the encoder sizes its buffer with it.
    pub fn traced_len(&self, ctx: TraceContext) -> usize {
        self.encoded_len() + usize::from(ctx.is_set()) * TraceContext::WIRE_BYTES
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

/// Writes an `f64` block: `count u32`, then each value's bit pattern.
fn put_f64s(buf: &mut Vec<u8>, values: &[f64]) {
    put_u32(buf, values.len() as u32);
    let start = buf.len();
    buf.resize(start + 8 * values.len(), 0);
    for (dst, v) in buf[start..].chunks_exact_mut(8).zip(values) {
        dst.copy_from_slice(&v.to_bits().to_le_bytes());
    }
}

/// A push's block width: its widest ciphertext's byte length, at least 1.
fn push_width(slots: &[Ciphertext]) -> u16 {
    let widest = slots.iter().map(Ciphertext::byte_len).max().unwrap_or(0);
    widest.max(1) as u16
}

/// Writes one block: `count u32 | width u16`, then each value little-endian
/// and zero-padded to `width` bytes.
fn put_block<'a>(
    buf: &mut Vec<u8>,
    width: u16,
    values: impl ExactSizeIterator<Item = &'a BigUint>,
) {
    put_u32(buf, values.len() as u32);
    buf.extend_from_slice(&width.to_le_bytes());
    for v in values {
        let bytes = v.to_bytes_le();
        assert!(bytes.len() <= width as usize, "value wider than its block");
        buf.extend_from_slice(&bytes);
        buf.resize(buf.len() + width as usize - bytes.len(), 0);
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
            put_f64s(&mut frame, slots);
        }
        Message::DecryptRequest {
            iteration,
            width,
            slots,
        } => {
            put_u64(&mut frame, *iteration);
            put_block(&mut frame, *width, slots.iter().map(Ciphertext::as_biguint));
        }
        Message::DecryptShare {
            iteration,
            member,
            width,
            partials,
        } => {
            put_u64(&mut frame, *iteration);
            put_u64(&mut frame, *member);
            put_block(&mut frame, *width, partials.iter());
        }
        Message::ReleaseRequest { iteration } => put_u64(&mut frame, *iteration),
        Message::Release {
            iteration,
            member,
            values,
        } => {
            put_u64(&mut frame, *iteration);
            put_u64(&mut frame, *member);
            put_f64s(&mut frame, values);
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
            let values = slots.iter().map(Ciphertext::as_biguint);
            put_block(&mut frame, push_width(slots), values);
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

    /// Reads one block: its width, then its values. `count × width` is
    /// checked against the bytes left before anything is sized from it.
    fn block(&mut self) -> Result<(u16, impl Iterator<Item = BigUint> + 'a), WireError> {
        let n = self.count()?;
        let width = u16::from_le_bytes(self.take(2)?.try_into().expect("2 bytes"));
        if n > 0 && width == 0 {
            return Err(WireError::BadValue("a block of values has width 0"));
        }
        let values = self
            .take(n * width as usize)?
            .chunks_exact(width.max(1) as usize);
        Ok((width, values.map(BigUint::from_bytes_le)))
    }

    /// Reads an `f64` block: one bounds check for the whole block (the
    /// count is capped, so `8 * n` cannot overflow), then a straight
    /// conversion pass.
    fn f64s(&mut self) -> Result<Vec<f64>, WireError> {
        let n = self.count()?;
        let bytes = self.take(8 * n)?.chunks_exact(8);
        Ok(bytes
            .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().expect("8-byte chunk"))))
            .collect())
    }

    /// A share index, which is 1-based.
    fn member(&mut self) -> Result<u64, WireError> {
        match self.u64()? {
            0 => Err(WireError::BadValue("share index must be >= 1")),
            member => Ok(member),
        }
    }

    fn ciphertexts(&mut self) -> Result<(u16, Vec<Ciphertext>), WireError> {
        let (width, values) = self.block()?;
        Ok((width, values.map(Ciphertext::from_biguint).collect()))
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
        1 => Message::PlainPush {
            iteration: r.u64()?,
            weight: r.f64()?,
            slots: r.f64s()?,
        },
        2 => {
            let iteration = r.u64()?;
            let (width, slots) = r.ciphertexts()?;
            Message::DecryptRequest {
                iteration,
                width,
                slots,
            }
        }
        3 => {
            let iteration = r.u64()?;
            let member = r.member()?;
            let (width, partials) = r.block()?;
            Message::DecryptShare {
                iteration,
                member,
                width,
                partials: partials.collect(),
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
            slots: r.ciphertexts()?.1,
        },
        8 => Message::ReleaseRequest {
            iteration: r.u64()?,
        },
        9 => Message::Release {
            iteration: r.u64()?,
            member: r.member()?,
            values: r.f64s()?,
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
                width: 4,
                slots: vec![c(9)],
            },
            Message::DecryptShare {
                iteration: 2,
                member: 3,
                width: 2,
                partials: vec![BigUint::from(77u64), BigUint::from(0u64)],
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
            span_id: 2,
            ..TraceContext::NONE
        };
        let traced = || encode_frame_traced(&Message::Leave { node: 1 }, ctx);
        let bad = |why: &'static str| Err(WireError::BadValue(why));
        let (mut flag, mut empty, mut short) = (traced(), traced(), traced());
        flag[6] = 2; // flag byte outside {0, 1}
        empty[15..23].fill(0); // span id, after len(4) + version + tag + flag + trace id(8)
        short.truncate(short.len() - 20); // declared length ends inside the context
        let len = (short.len() - 4) as u32;
        short[..4].copy_from_slice(&len.to_le_bytes());
        assert_eq!(decode_frame(&flag), bad("trace flag must be 0 or 1"));
        assert_eq!(decode_frame(&empty), bad("flagged trace context is empty"));
        assert_eq!(decode_frame(&short), Err(WireError::Truncated));
    }

    #[test]
    fn encoded_len_matches_actual_encoding() {
        for msg in sample_messages() {
            assert_eq!(msg.encoded_len(), encode_frame(&msg).len(), "{msg:?}");
        }
        // All-zero ciphertexts still take a one-byte block width.
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
        for version in [WIRE_VERSION + 1, 0] {
            frame[4] = version;
            assert_eq!(decode_frame(&frame), Err(WireError::BadVersion(version)));
        }
        frame[4] = WIRE_VERSION;
        // 99 was never a tag; the retired ones — the per-slot push's and the
        // termination vote's — are not reassigned.
        for tag in [99, 0, 4] {
            frame[5] = tag;
            assert_eq!(decode_frame(&frame), Err(WireError::BadTag(tag)));
        }
    }

    #[test]
    fn hostile_length_prefix_rejected() {
        let mut frame = encode_frame(&Message::Leave { node: 1 });
        frame[..4].copy_from_slice(&(u32::MAX).to_le_bytes());
        let err = decode_frame(&frame);
        assert!(matches!(err, Err(WireError::FrameTooLarge(_))), "{err:?}");
    }

    #[test]
    fn zero_share_index_rejected() {
        let msg = Message::DecryptShare {
            iteration: 1,
            member: 1,
            width: 1,
            partials: vec![BigUint::from(5u64)],
        };
        let mut frame = encode_frame(&msg);
        // The member sits right after len(4) + version(1) + tag(1) +
        // flag(1) + iteration(8).
        frame[15] = 0;
        assert_eq!(
            decode_frame(&frame),
            Err(WireError::BadValue("share index must be >= 1"))
        );
    }
}
