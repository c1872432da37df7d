//! Property-based tests for the wire codec: every message variant must
//! round-trip through the binary frame format, and corrupt input — hostile
//! big-integer and `f64` blocks included — must be rejected with a typed
//! error (or decode to something else), never panic.

use cs_bigint::BigUint;
use cs_crypto::Ciphertext;
use cs_net::wire::{decode_frame, encode_frame, Message, WireError, WIRE_VERSION};
use proptest::collection::vec;
use proptest::prelude::*;

/// Builds a message from raw sampled parts; `variant` selects the shape.
fn build_message(
    variant: u8,
    iteration: u64,
    denom_exp: u32,
    weight: f64,
    raw_slots: &[Vec<u8>],
    floats: &[f64],
) -> Message {
    let cipher = |bytes: &Vec<u8>| Ciphertext::from_biguint(BigUint::from_bytes_le(bytes));
    let values = || raw_slots.iter().map(|bytes| BigUint::from_bytes_le(bytes));
    // A block is as wide as its widest value, at least one byte.
    let width = values().map(|v| v.byte_len()).max().unwrap_or(0).max(1) as u16;
    match variant % 8 {
        0 => Message::PlainPush {
            iteration,
            weight,
            slots: floats.to_vec(),
        },
        1 => Message::DecryptRequest {
            iteration,
            width,
            slots: raw_slots.iter().map(cipher).collect(),
        },
        2 => Message::DecryptShare {
            iteration,
            member: u64::from(denom_exp) + 1,
            width,
            partials: values().collect(),
        },
        3 => Message::Join {
            node: denom_exp as u64,
            iteration,
        },
        4 => Message::Leave {
            node: denom_exp as u64,
        },
        5 => Message::ReleaseRequest { iteration },
        6 => Message::Release {
            iteration,
            member: u64::from(denom_exp) + 1,
            values: floats.to_vec(),
        },
        _ => Message::PackedPush {
            iteration,
            denom_exp,
            weight,
            buckets: denom_exp.wrapping_mul(3),
            slots: raw_slots.iter().map(cipher).collect(),
        },
    }
}

/// A release names its member by share index, which is 1-based, like a
/// share vector: index 0 is refused before the values are read.
#[test]
fn a_release_under_share_index_zero_is_rejected() {
    let release = Message::Release {
        iteration: 1,
        member: 1,
        values: vec![5.0],
    };
    let mut frame = encode_frame(&release);
    // The member sits right after len(4) + version + tag + flag + iteration(8).
    frame[15] = 0;
    let refused = Err(WireError::BadValue("share index must be >= 1"));
    assert_eq!(decode_frame(&frame), refused);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_variant_roundtrips_binary(
        variant in 0u8..8,
        iteration in any::<u64>(),
        denom_exp in any::<u32>(),
        weight in -1e12f64..1e12,
        raw_slots in vec(vec(any::<u8>(), 0..24), 0..6),
        floats in vec(-1e12f64..1e12, 0..12),
    ) {
        let msg = build_message(variant, iteration, denom_exp, weight, &raw_slots, &floats);

        let frame = encode_frame(&msg);
        prop_assert_eq!(&decode_frame(&frame).unwrap(), &msg);
    }

    #[test]
    fn encoded_len_agrees_with_the_codec_on_every_variant(
        variant in 0u8..8,
        iteration in any::<u64>(),
        denom_exp in any::<u32>(),
        weight in -1e12f64..1e12,
        raw_slots in vec(vec(any::<u8>(), 0..24), 0..6),
        floats in vec(-1e12f64..1e12, 0..12),
    ) {
        // The sharded executor accounts bytes-on-wire (and feeds its link
        // model) through `encoded_len` without ever serializing — it must
        // agree with the real codec on every reachable message.
        let msg = build_message(variant, iteration, denom_exp, weight, &raw_slots, &floats);
        prop_assert_eq!(msg.encoded_len(), encode_frame(&msg).len());
    }

    #[test]
    fn any_truncation_is_rejected(
        variant in 0u8..8,
        iteration in any::<u64>(),
        raw_slots in vec(vec(any::<u8>(), 0..16), 0..4),
        cut_frac in 0.0f64..1.0,
    ) {
        let msg = build_message(variant, iteration, 3, 0.5, &raw_slots, &[1.0, 2.0]);
        let frame = encode_frame(&msg);
        let cut = ((frame.len() as f64) * cut_frac) as usize;
        prop_assert!(cut < frame.len());
        prop_assert!(decode_frame(&frame[..cut]).is_err(), "cut at {}", cut);
    }

    #[test]
    fn single_byte_corruption_never_yields_the_original(
        variant in 0u8..8,
        iteration in any::<u64>(),
        raw_slots in vec(vec(any::<u8>(), 1..16), 1..4),
        pos_frac in 0.0f64..1.0,
    ) {
        let msg = build_message(variant, iteration, 9, 0.25, &raw_slots, &[3.0]);
        let mut frame = encode_frame(&msg);
        let pos = ((frame.len() as f64) * pos_frac) as usize % frame.len();
        frame[pos] ^= 0xFF;
        // A flipped byte must either fail decoding or decode to a different
        // message — silently round-tripping corrupt bytes is the one
        // unacceptable outcome.
        if let Ok(decoded) = decode_frame(&frame) {
            prop_assert!(decoded != msg, "flip at {} went unnoticed", pos);
        }
    }

    #[test]
    fn version_is_enforced_on_every_variant(
        variant in 0u8..8,
        wrong in any::<u8>(),
    ) {
        prop_assume!(wrong != WIRE_VERSION);
        let msg = build_message(variant, 1, 2, 0.5, &[vec![9u8]], &[1.0]);
        let mut frame = encode_frame(&msg);
        frame[4] = wrong;
        prop_assert!(decode_frame(&frame).is_err());
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Hostile bytes for the block decoder: an arbitrary `(count, width,
    /// body)` block under each tag that carries one either decodes to
    /// exactly `count` values sized by the frame, or is the typed error the
    /// layout predicts — a block that claims more than the bytes left is
    /// `Truncated`, before any `Vec` is sized from its count.
    #[test]
    fn hostile_blocks_decode_or_fail_typed(
        tag in 0usize..3,
        small in (any::<bool>(), any::<bool>()),
        (small_count, any_count) in (0u32..8, any::<u32>()),
        (small_width, any_width) in (0u16..72, any::<u16>()),
        slack in -3i64..4,
        fill in any::<u8>(),
    ) {
        const MAX_ELEMENTS: u64 = 1 << 20;
        let tag = [2u8, 3, 7][tag];
        let count = if small.0 { small_count } else { any_count };
        let width = if small.1 { small_width } else { any_width };
        let claimed = u64::from(count) * u64::from(width);
        let body_len = (claimed as i64 + slack).clamp(0, 2048) as usize;
        let mut body = vec![WIRE_VERSION, tag, 0];
        body.extend_from_slice(&5u64.to_le_bytes()); // iteration
        match tag {
            3 => body.extend_from_slice(&2u64.to_le_bytes()), // member
            7 => body.extend_from_slice(&[0; 16]), // denom_exp, weight, buckets
            _ => {}
        }
        body.extend_from_slice(&count.to_le_bytes());
        body.extend_from_slice(&width.to_le_bytes());
        body.extend((0..body_len).map(|i| fill.wrapping_add(i as u8)));
        let mut frame = (body.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&body);

        let expected = if u64::from(count) > MAX_ELEMENTS {
            Err(WireError::BadValue("element count exceeds the cap"))
        } else if count > 0 && width == 0 {
            Err(WireError::BadValue("a block of values has width 0"))
        } else if claimed > body_len as u64 {
            Err(WireError::Truncated)
        } else if claimed < body_len as u64 {
            Err(WireError::TrailingBytes(body_len - claimed as usize))
        } else {
            Ok(())
        };
        let decoded = decode_frame(&frame);
        match (&decoded, expected) {
            (Ok(msg), Ok(())) => {
                let (got_width, held) = match msg {
                    Message::DecryptRequest { width, slots, .. } => (Some(*width), slots.capacity()),
                    Message::DecryptShare { width, partials, .. } => (Some(*width), partials.capacity()),
                    Message::PackedPush { slots, .. } => (None, slots.capacity()),
                    other => panic!("tag {tag} decoded as {other:?}"),
                };
                prop_assert!(got_width.is_none_or(|w| w == width));
                prop_assert_eq!(held, count as usize, "a Vec sized past its block");
            }
            (got, want) => prop_assert_eq!(got.as_ref().err(), want.err().as_ref()),
        }
    }

    /// The same for the `f64` block a plaintext push and a release carry:
    /// an arbitrary `(count, body)` either decodes to exactly `count`
    /// values or is the typed error the layout predicts, and no `Vec` is
    /// sized from a count the frame's bytes do not hold.
    #[test]
    fn hostile_f64_blocks_decode_or_fail_typed(
        release in any::<bool>(),
        small in any::<bool>(),
        (small_count, any_count) in (0u32..64, any::<u32>()),
        slack in -9i64..10,
        fill in any::<u8>(),
    ) {
        const MAX_ELEMENTS: u64 = 1 << 20;
        let tag = if release { 9u8 } else { 1 };
        let count = if small { small_count } else { any_count };
        let claimed = 8 * u64::from(count);
        let body_len = (claimed as i64 + slack).clamp(0, 2048) as usize;
        let mut body = vec![WIRE_VERSION, tag, 0];
        body.extend_from_slice(&5u64.to_le_bytes()); // iteration
        // A release's member, a push's weight: both 8 bytes, any nonzero.
        body.extend_from_slice(&2u64.to_le_bytes());
        body.extend_from_slice(&count.to_le_bytes());
        body.extend((0..body_len).map(|i| fill.wrapping_add(i as u8)));
        let mut frame = (body.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&body);

        let expected = if u64::from(count) > MAX_ELEMENTS {
            Err(WireError::BadValue("element count exceeds the cap"))
        } else if claimed > body_len as u64 {
            Err(WireError::Truncated)
        } else if claimed < body_len as u64 {
            Err(WireError::TrailingBytes(body_len - claimed as usize))
        } else {
            Ok(())
        };
        let decoded = decode_frame(&frame);
        match (&decoded, expected) {
            (Ok(msg), Ok(())) => {
                let held = match msg {
                    Message::Release { values, .. } => values.capacity(),
                    Message::PlainPush { slots, .. } => slots.capacity(),
                    other => panic!("tag {tag} decoded as {other:?}"),
                };
                prop_assert_eq!(held, count as usize, "a Vec sized past its block");
            }
            (got, want) => prop_assert_eq!(got.as_ref().err(), want.err().as_ref()),
        }
    }
}
