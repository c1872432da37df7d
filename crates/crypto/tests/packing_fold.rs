//! The decrypt-time fold of the packed layout, on plaintexts.
//!
//! A requester stacks each run of `g` aggregate ciphertexts into the unused
//! headroom of one before the threshold decryption
//! ([`PackedCodec::fold`]; `crates/crypto/src/packing.rs`, "Decrypt-time
//! fold"). Under encryption that is `Π_m C_m^(2^(m·u))`; on the plaintexts
//! it is `Σ_m P_m · 2^(m·u)`, which is what this suite builds — the
//! homomorphism itself is `decrypt_diff`'s and `packing_diff`'s business,
//! and `chiaroscuro::rounds` runs the fold through a real threshold
//! decryption. The property: reading the stacked lanes back
//! ([`PackedCodec::unfold_integers`]) gives, lane for lane, the integers
//! [`PackedCodec::unpack_integers`] reads from the vector that was never
//! folded — for every envelope, population, denominator schedule and
//! dyadic weight, and at each edge of the rule.

use cs_bigint::BigUint;
use cs_crypto::{CryptoError, FixedPointCodec, LaneFold, PackedCodec};
use proptest::collection::vec;
use proptest::prelude::*;

/// An integer-grid codec (`scale = 1`), so bucket values are exact.
fn codec(value_bits: u32, headroom_bits: u32, lanes: usize) -> PackedCodec {
    PackedCodec::from_parts(FixedPointCodec::new(0), value_bits, headroom_bits, lanes).unwrap()
}

/// The aggregate a node ends with at denominator `denom`: participant
/// `i`'s packed vector — it entered at denominator `k_i ≤ denom` — times
/// `2^(denom − k_i)`, summed; with its cleartext weight `Σ 2^−k_i`.
fn aggregate(
    c: &PackedCodec,
    contributions: &[(Vec<f64>, u32)],
    denom: u32,
) -> (Vec<BigUint>, f64) {
    let mut sum = vec![BigUint::zero(); c.ciphertexts_for(contributions[0].0.len())];
    let mut weight = 0.0;
    for (values, k) in contributions {
        for (acc, pt) in sum.iter_mut().zip(c.pack(values).unwrap()) {
            *acc = &*acc + &(pt << (denom - k) as usize);
        }
        weight += (-f64::from(*k)).exp2();
    }
    (sum, weight)
}

/// What `Π_m C_m^(2^(m·u))` over each run of `g` ciphertexts decrypts to.
fn stack(plaintexts: &[BigUint], fold: LaneFold) -> Vec<BigUint> {
    plaintexts
        .chunks(fold.group)
        .map(|run| {
            run.iter().enumerate().fold(BigUint::zero(), |acc, (m, p)| {
                &acc + &(p << (m * fold.unit_bits as usize))
            })
        })
        .collect()
}

/// Folds, checks the fold's own invariants, unfolds, and compares with the
/// unfolded decode. Returns the fold for the caller's expectations.
fn fold_roundtrip(c: &PackedCodec, contributions: &[(Vec<f64>, u32)], denom: u32) -> LaneFold {
    let slots = contributions[0].0.len();
    let (plaintexts, weight) = aggregate(c, contributions, denom);
    let fold = c.fold(denom, weight);
    assert!(fold.group >= 1);
    assert!(
        fold.group * fold.unit_bits as usize <= c.lane_bits() as usize,
        "{fold:?} asks more of a lane than its {} bits",
        c.lane_bits()
    );
    let folded = stack(&plaintexts, fold);
    assert_eq!(folded.len(), plaintexts.len().div_ceil(fold.group));
    for p in &folded {
        assert!(p.bit_len() <= c.lanes() * c.lane_bits() as usize);
    }
    assert_eq!(
        c.unfold_integers(&folded, slots, denom, weight).unwrap(),
        c.unpack_integers(&plaintexts, slots, denom, weight, 1)
            .unwrap(),
        "{fold:?} at denominator {denom}, weight {weight}"
    );
    fold
}

proptest! {
    /// Random envelope (value bits, headroom, lanes), bucket count,
    /// population and denominator schedule; bucket values over the whole
    /// biased range, both ends included.
    #[test]
    fn unfolding_a_stacked_vector_is_unpacking_the_unfolded_one(
        value_bits in 3u32..24,
        headroom_bits in 2u32..100,
        lanes in 1usize..5,
        slots in 1usize..24,
        ks in vec(0u32..98, 1..5),
        deeper in 0u32..6,
        raw in vec(any::<u32>(), 1..24),
    ) {
        let c = codec(value_bits, headroom_bits, lanes);
        // Σ 2^(K − k_i) ≤ 4·2^K must stay inside the headroom.
        let k_max = headroom_bits - 2;
        let span = (c.value_capacity() + c.bias() + 1) as u64;
        let contributions: Vec<(Vec<f64>, u32)> = ks
            .iter()
            .enumerate()
            .map(|(i, k)| {
                let values = (0..slots)
                    .map(|s| match raw[(i * 5 + s) % raw.len()] {
                        r if r % 7 == 0 => c.value_capacity() as f64,
                        r if r % 7 == 1 => -(c.bias() as f64),
                        r => (u64::from(r) % span) as f64 - c.bias() as f64,
                    })
                    .collect();
                (values, k % (k_max + 1))
            })
            .collect();
        // The node may sit deeper than anyone it heard from: aligning to a
        // zero-weight peer scales the sums and leaves the weight alone.
        let k_top = contributions.iter().map(|(_, k)| *k).max().unwrap();
        fold_roundtrip(&c, &contributions, (k_top + deeper).min(k_max));
    }
}

/// Every lane at its largest possible sum, in a layout where the stacked
/// units fill the lane to the bit: `g·u == lane_bits`.
#[test]
fn units_that_fill_the_lane_exactly_do_not_touch() {
    // Three participants at denominator 0: multiplier 3, two bits, so
    // u = 10 + 2 + 1 = 13 and a 39-bit lane holds exactly three.
    let c = codec(10, 29, 2);
    let top = vec![c.value_capacity() as f64; 11];
    let fold = fold_roundtrip(&c, &[(top.clone(), 0), (top.clone(), 0), (top, 0)], 0);
    assert_eq!(
        fold,
        LaneFold {
            group: 3,
            unit_bits: 13
        }
    );
    assert_eq!(fold.group as u32 * fold.unit_bits, c.lane_bits());
}

/// A carry multiplier past the 53 bits an `f64` counts exactly: the unit
/// is sized from the float's own magnitude plus a bit of slack.
#[test]
fn a_multiplier_beyond_two_to_the_53_still_folds() {
    let c = codec(4, 122, 1);
    // Multiplier 2^56 + 1. The `+ 1` is below the float's resolution —
    // both decodes see 2^56, as they always have — and the lane sums it
    // adds to fit the unit regardless.
    let contributions = [(vec![7.0, -8.0, 0.0], 0), (vec![1.0, 2.0, -3.0], 56)];
    let fold = fold_roundtrip(&c, &contributions, 56);
    assert_eq!(
        fold,
        LaneFold {
            group: 2,
            unit_bits: 4 + 57 + 1
        }
    );
}

/// Five ciphertexts in groups of two: the last group is one ciphertext,
/// left as it is.
#[test]
fn a_trailing_short_group_stands_alone() {
    let c = codec(8, 12, 2);
    let values: Vec<f64> = (0..9).map(|i| f64::from(i) * 13.0 - 60.0).collect();
    assert_eq!(c.ciphertexts_for(values.len()), 5);
    let fold = fold_roundtrip(&c, &[(values, 0)], 0);
    assert_eq!(fold.group, 2, "multiplier 1: u = 10 of 20 lane bits");
}

/// With the headroom used up nothing fits beside a lane sum: the fold is
/// the identity, and past the headroom decoding fails as it always did.
#[test]
fn exhausted_headroom_folds_to_itself() {
    let c = codec(6, 9, 3);
    let unfolded = LaneFold {
        group: 1,
        unit_bits: c.lane_bits(),
    };
    let values = vec![31.0, -32.0, 5.0, 0.0];
    let one = [(values.clone(), 0)];
    // Multiplier 2^9: at the budget, decodable, not foldable.
    assert_eq!(fold_roundtrip(&c, &one, 9), unfolded);
    // Half the headroom still does not fit two 6 + 5 + 1-bit units in 15.
    assert_eq!(fold_roundtrip(&c, &one, 4), unfolded);
    // Beyond it: same fold, same typed error from either decode.
    let (plaintexts, weight) = aggregate(&c, &one, 10);
    assert_eq!(c.fold(10, weight), unfolded);
    for result in [
        c.unfold_integers(&plaintexts, 4, 10, weight),
        c.unpack_integers(&plaintexts, 4, 10, weight, 1),
    ] {
        assert_eq!(result.unwrap_err(), CryptoError::LaneHeadroomExceeded);
    }
    // An unusable or hostile multiplier folds nothing either.
    for (denom, weight) in [(0, 0.0), (0, f64::NAN), (u32::MAX, 1.0), (200, 1.0)] {
        assert_eq!(c.fold(denom, weight), unfolded, "({denom}, {weight})");
    }
}

/// A folded vector is decoded only at its own width.
#[test]
fn a_vector_of_another_width_is_refused() {
    let c = codec(8, 20, 2);
    let values: Vec<f64> = (0..8).map(f64::from).collect();
    let (plaintexts, weight) = aggregate(&c, &[(values, 0)], 0);
    let fold = c.fold(0, weight);
    assert!(fold.group > 1);
    assert!(matches!(
        c.unfold_integers(&plaintexts, 8, 0, weight),
        Err(CryptoError::InvalidParameters(_))
    ));
    let folded = stack(&plaintexts, fold);
    assert!(c.unfold_integers(&folded, 8, 0, weight).is_ok());
}
