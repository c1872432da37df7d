//! Property-based tests for the wire codec: every message variant must
//! round-trip through the binary frame format and the serde JSON mirror,
//! and corrupt input must be rejected (or decode to something else), never
//! panic.

use cs_bigint::BigUint;
use cs_crypto::{Ciphertext, PartialDecryption};
use cs_net::wire::{decode_frame, encode_frame, Message, WIRE_VERSION};
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
    match variant % 6 {
        0 => Message::PlainPush {
            iteration,
            weight,
            slots: floats.to_vec(),
        },
        1 => Message::DecryptRequest {
            iteration,
            slots: raw_slots.iter().map(cipher).collect(),
        },
        2 => Message::DecryptShare {
            iteration,
            partials: raw_slots
                .iter()
                .enumerate()
                .map(|(i, bytes)| {
                    PartialDecryption::from_parts(i as u64 + 1, BigUint::from_bytes_le(bytes))
                })
                .collect(),
        },
        3 => Message::Join {
            node: denom_exp as u64,
            iteration,
        },
        4 => Message::Leave {
            node: denom_exp as u64,
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_variant_roundtrips_binary_and_json(
        variant in 0u8..6,
        iteration in any::<u64>(),
        denom_exp in any::<u32>(),
        weight in -1e12f64..1e12,
        raw_slots in vec(vec(any::<u8>(), 0..24), 0..6),
        floats in vec(-1e12f64..1e12, 0..12),
    ) {
        let msg = build_message(variant, iteration, denom_exp, weight, &raw_slots, &floats);

        let frame = encode_frame(&msg);
        prop_assert_eq!(&decode_frame(&frame).unwrap(), &msg);

        let json = serde_json::to_string(&msg).unwrap();
        let back: Message = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(&back, &msg);
    }

    #[test]
    fn encoded_len_agrees_with_the_codec_on_every_variant(
        variant in 0u8..6,
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
        variant in 0u8..6,
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
        variant in 0u8..6,
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
        variant in 0u8..6,
        wrong in any::<u8>(),
    ) {
        prop_assume!(wrong != WIRE_VERSION);
        let msg = build_message(variant, 1, 2, 0.5, &[vec![9u8]], &[1.0]);
        let mut frame = encode_frame(&msg);
        frame[4] = wrong;
        prop_assert!(decode_frame(&frame).is_err());
    }
}
