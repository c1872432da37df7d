//! Property-based tests for `cs-bigint`.
//!
//! Three families: (1) cross-checks against native `u128` arithmetic on
//! small values, (2) algebraic identities on arbitrarily large values built
//! from random byte strings, (3) the Montgomery kernels checked against
//! division-based `BigUint` arithmetic on carry-heavy moduli, in both storage
//! shapes: stack arrays at 1–8 limbs (`fixed_width_`), slices at 9–72
//! (`wide_`).

use cs_bigint::multi_exp::{multi_exp_signed, MultiExpTerm};
use cs_bigint::{
    gcd::extended_gcd, rng::random_below, BigInt, BigUint, FixedBaseExp, MontgomeryCtx,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn big(v: u128) -> BigUint {
    BigUint::from(v)
}

/// Strategy: arbitrary BigUint up to ~512 bits from raw bytes.
fn any_biguint() -> impl Strategy<Value = BigUint> {
    proptest::collection::vec(any::<u8>(), 0..64).prop_map(|bytes| BigUint::from_bytes_le(&bytes))
}

/// Strategy: non-zero BigUint.
fn nonzero_biguint() -> impl Strategy<Value = BigUint> {
    any_biguint().prop_map(|v| if v.is_zero() { BigUint::one() } else { v })
}

proptest! {
    // ---- u128 cross-checks -------------------------------------------------

    #[test]
    fn add_matches_u128(a in any::<u64>(), b in any::<u64>()) {
        let got = &big(a as u128) + &big(b as u128);
        prop_assert_eq!(got.to_u128(), Some(a as u128 + b as u128));
    }

    #[test]
    fn mul_matches_u128(a in any::<u64>(), b in any::<u64>()) {
        let got = &big(a as u128) * &big(b as u128);
        prop_assert_eq!(got.to_u128(), Some(a as u128 * b as u128));
    }

    #[test]
    fn div_rem_matches_u128(a in any::<u128>(), b in 1..=u128::MAX) {
        let (q, r) = big(a).div_rem(&big(b));
        prop_assert_eq!(q.to_u128(), Some(a / b));
        prop_assert_eq!(r.to_u128(), Some(a % b));
    }

    #[test]
    fn sub_matches_u128(a in any::<u128>(), b in any::<u128>()) {
        let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
        let got = &big(hi) - &big(lo);
        prop_assert_eq!(got.to_u128(), Some(hi - lo));
    }

    // ---- algebraic identities on large values ------------------------------

    #[test]
    fn add_commutes(a in any_biguint(), b in any_biguint()) {
        prop_assert_eq!(&a + &b, &b + &a);
    }

    #[test]
    fn mul_commutes_and_distributes(a in any_biguint(), b in any_biguint(), c in any_biguint()) {
        prop_assert_eq!(&a * &b, &b * &a);
        prop_assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
    }

    #[test]
    fn div_rem_reconstructs(a in any_biguint(), d in nonzero_biguint()) {
        let (q, r) = a.div_rem(&d);
        prop_assert!(r < d);
        prop_assert_eq!(&(&q * &d) + &r, a);
    }

    #[test]
    fn sub_inverts_add(a in any_biguint(), b in any_biguint()) {
        prop_assert_eq!(&(&a + &b) - &b, a);
    }

    #[test]
    fn shift_is_mul_by_power_of_two(a in any_biguint(), s in 0usize..200) {
        let shifted = &a << s;
        let back = &shifted >> s;
        prop_assert_eq!(back, a);
    }

    #[test]
    fn bytes_roundtrip(a in any_biguint()) {
        prop_assert_eq!(BigUint::from_bytes_be(&a.to_bytes_be()), a.clone());
        prop_assert_eq!(BigUint::from_bytes_le(&a.to_bytes_le()), a);
    }

    #[test]
    fn decimal_roundtrip(a in any_biguint()) {
        let s = a.to_str_radix(10);
        prop_assert_eq!(BigUint::parse_decimal(&s).unwrap(), a);
    }

    #[test]
    fn hex_roundtrip(a in any_biguint()) {
        let s = a.to_str_radix(16);
        prop_assert_eq!(BigUint::parse_hex(&s).unwrap(), a);
    }

    // ---- modular arithmetic -------------------------------------------------

    #[test]
    fn montgomery_mul_matches_division(a in any_biguint(), b in any_biguint(), m in nonzero_biguint()) {
        // Force an odd modulus > 1.
        let mut m = m;
        if m.is_even() { m = m.add_u64(1); }
        if m.is_one() { m = BigUint::from(3u64); }
        let ctx = MontgomeryCtx::new(&m);
        let ar = &a % &m;
        let br = &b % &m;
        prop_assert_eq!(ctx.mul_mod(&ar, &br), (&ar * &br) % &m);
    }

    #[test]
    fn mod_pow_agrees_with_iterated_mul(a in any::<u64>(), e in 0u64..40, m in 3u64..u64::MAX) {
        let m = if m % 2 == 0 { m + 1 } else { m };
        let mb = BigUint::from(m);
        let ab = BigUint::from(a % m);
        let mut expect = BigUint::one();
        for _ in 0..e {
            expect = (&expect * &ab) % &mb;
        }
        prop_assert_eq!(ab.mod_pow(&BigUint::from(e), &mb), expect);
    }

    #[test]
    fn mod_inverse_is_inverse(a in 1u64..u64::MAX, m in 2u64..u64::MAX) {
        let ab = BigUint::from(a);
        let mb = BigUint::from(m);
        if let Some(inv) = ab.mod_inverse(&mb) {
            prop_assert_eq!((&ab * &inv) % &mb, BigUint::one());
        } else {
            prop_assert!(!ab.gcd(&mb).is_one());
        }
    }

    #[test]
    fn extended_gcd_bezout(a in any::<u64>(), b in any::<u64>()) {
        let ab = BigInt::from(a);
        let bb = BigInt::from(b);
        let (g, x, y) = extended_gcd(&ab, &bb);
        prop_assert_eq!(&(&ab * &x) + &(&bb * &y), g.clone());
        if a != 0 && b != 0 {
            let gu = g.to_biguint().unwrap();
            prop_assert!((&BigUint::from(a) % &gu).is_zero());
            prop_assert!((&BigUint::from(b) % &gu).is_zero());
        }
    }

    #[test]
    fn gcd_divides_both(a in nonzero_biguint(), b in nonzero_biguint()) {
        let g = a.gcd(&b);
        prop_assert!((&a % &g).is_zero());
        prop_assert!((&b % &g).is_zero());
    }

    // ---- fixed-base exponentiation ------------------------------------------

    /// The fixed-base windowed path must agree with the generic Montgomery
    /// `pow_mod` across random bases, exponents, and (odd) moduli —
    /// including the 0/1 exponent edges and exponents adjacent to the
    /// modulus (the `n^s`-shaped exponents the cryptosystem raises to).
    #[test]
    fn fixed_base_pow_matches_montgomery(
        base in any_biguint(),
        exp in any_biguint(),
        m in nonzero_biguint(),
    ) {
        // Any odd modulus > 1.
        let m = (&(&m << 1) + &BigUint::one()).add_u64(2);
        let ctx = MontgomeryCtx::new(&m);
        let fixed = FixedBaseExp::new(&ctx, &base, 520);
        prop_assert_eq!(fixed.pow_mod(&exp), ctx.pow_mod(&base, &exp));

        // Edge exponents: 0, 1, and modulus-adjacent (m−1, m, m+1).
        for e in [
            BigUint::zero(),
            BigUint::one(),
            m.sub_u64(1),
            m.clone(),
            m.add_u64(1),
        ] {
            prop_assert_eq!(fixed.pow_mod(&e), ctx.pow_mod(&base, &e));
        }
    }

    /// Oversized exponents (beyond the table) transparently fall back to
    /// the generic path.
    #[test]
    fn fixed_base_oversized_exponent_falls_back(
        base in any_biguint(),
        exp in any_biguint(),
        m in nonzero_biguint(),
    ) {
        let m = (&(&m << 1) + &BigUint::one()).add_u64(2);
        let ctx = MontgomeryCtx::new(&m);
        let fixed = FixedBaseExp::new(&ctx, &base, 16);
        prop_assert_eq!(fixed.pow_mod(&exp), ctx.pow_mod(&base, &exp));
    }

    // ---- randomness ---------------------------------------------------------

    #[test]
    fn random_below_in_range(seed in any::<u64>(), bound in 1u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let bb = BigUint::from(bound);
        let v = random_below(&mut rng, &bb);
        prop_assert!(v < bb);
    }
}

// ---- the Montgomery kernels against division ---------------------------------

/// A limb that is often all-zeros or all-ones, so carry chains run long.
fn spiky_limb() -> impl Strategy<Value = u64> {
    (any::<u64>(), 0u8..8).prop_map(|(x, pick)| match pick {
        0 => 0,
        1 => u64::MAX,
        _ => x,
    })
}

/// Strategy: an odd modulus of exactly `limbs` limbs. Half the draws take
/// one of the odd counts `odd`, so the two-row kernels' single-row and
/// single-limb remainders run at every size class.
fn modulus(
    odd: [usize; 4],
    limbs: std::ops::RangeInclusive<usize>,
) -> impl Strategy<Value = BigUint> {
    (0usize..8, limbs)
        .prop_map(move |(pick, any)| odd.get(pick).copied().unwrap_or(any))
        .prop_flat_map(|k| proptest::collection::vec(spiky_limb(), k))
        .prop_map(|mut limbs| {
            limbs[0] |= 1;
            *limbs.last_mut().expect("k >= 1") |= 1 << 63;
            BigUint::from_limbs(limbs)
        })
}

/// Strategy: a modulus the stack-array kernels serve (1–8 limbs).
fn fixed_width_modulus() -> impl Strategy<Value = BigUint> {
    modulus([1, 3, 5, 7], 1..=8)
}

/// Strategy: a modulus the slice shape serves (9–72 limbs).
fn wide_modulus() -> impl Strategy<Value = BigUint> {
    modulus([9, 17, 33, 65], 9..=72)
}

/// Strategy: raw material for an operand of up to `limbs` limbs — reduce it
/// mod the case's modulus.
fn operand(limbs: usize) -> impl Strategy<Value = BigUint> {
    proptest::collection::vec(spiky_limb(), 0..=limbs).prop_map(BigUint::from_limbs)
}

fn wide_operand() -> impl Strategy<Value = BigUint> {
    operand(72)
}

/// Strategy: an exponent length, half the time one bit either side of a
/// width threshold of the sliding-window rule (24, 80, 240, 672 bits).
fn window_straddling_bits() -> impl Strategy<Value = usize> {
    (0usize..16, 0usize..=700).prop_map(|(pick, any)| {
        [23, 24, 79, 80, 239, 240, 671, 672]
            .get(pick)
            .copied()
            .unwrap_or(any)
    })
}

/// `0`, `1`, `n − 1`, then the given values reduced mod `n`.
fn with_edges(n: &BigUint, values: &[&BigUint]) -> Vec<BigUint> {
    let mut out = vec![BigUint::zero(), BigUint::one(), n.sub_u64(1)];
    out.extend(values.iter().map(|v| *v % n));
    out
}

/// An exponent of exactly `bits` bits (zero for `bits == 0`).
fn exponent_of_bits(raw: &BigUint, bits: usize) -> BigUint {
    if bits == 0 {
        return BigUint::zero();
    }
    let mut e = raw % &(BigUint::one() << bits);
    e.set_bit(bits - 1, true);
    e
}

/// Division-based square-and-multiply: the reference every Montgomery chain
/// is held to (`BigUint::mod_pow` would itself go through Montgomery).
fn ref_pow(base: &BigUint, exp: &BigUint, n: &BigUint) -> BigUint {
    let mut acc = BigUint::one();
    for i in (0..exp.bit_len()).rev() {
        acc = &(&acc * &acc) % n;
        if exp.bit(i) {
            acc = &(&acc * base) % n;
        }
    }
    acc
}

/// `mont_mul` through `mul_mod`, `mont_sqr` through one `pow_mod_pow2`
/// squaring, over every pair of edge and random operands.
fn mul_and_sqr_match_division(n: &BigUint, a: &BigUint, b: &BigUint) {
    let ctx = MontgomeryCtx::new(n);
    let operands = with_edges(n, &[a, b]);
    for x in &operands {
        prop_assert_eq!(ctx.pow_mod_pow2(x, 1), &(x * x) % n);
        for y in &operands {
            prop_assert_eq!(ctx.mul_mod(x, y), &(x * y) % n);
        }
    }
}

/// The sliding-window chain and the pure squaring chain.
fn pow_mod_matches_reference(n: &BigUint, base: &BigUint, exp: &BigUint, j: u32) {
    let ctx = MontgomeryCtx::new(n);
    for b in with_edges(n, &[base]) {
        prop_assert_eq!(ctx.pow_mod(&b, exp), ref_pow(&b, exp, n));
        prop_assert_eq!(
            ctx.pow_mod_pow2(&b, j),
            ref_pow(&b, &(BigUint::one() << j as usize), n)
        );
    }
    // An unreduced base is reduced first.
    let big = base + n;
    prop_assert_eq!(ctx.pow_mod(&big, exp), ref_pow(&(&big % n), exp, n));
}

/// Strategy: `(a, m)` for the inverse oracle — `m` of 1–64 limbs (half the
/// draws 1–4) with a top limb of any length, forced odd, forced even or left
/// as drawn, and `a` up to one limb longer. Both are multiplied by a common
/// factor, 1 in half the draws: above 1 it makes `a` a non-unit.
fn inverse_case() -> impl Strategy<Value = (BigUint, BigUint)> {
    (
        (0usize..8, 1usize..=64, 0u32..64),
        proptest::collection::vec(spiky_limb(), 64),
        operand(65),
        (0u8..3, 0usize..8),
    )
        .prop_map(|((pick, any, shift), mut limbs, a, (parity, c))| {
            let k = [1, 2, 3, 4].get(pick).copied().unwrap_or(any);
            limbs.truncate(k);
            limbs[k - 1] = (limbs[k - 1] >> shift) | 2;
            match parity {
                0 => limbs[0] |= 1,
                1 => limbs[0] &= !1,
                _ => {}
            }
            let m = BigUint::from_limbs(limbs);
            let common = [1, 1, 1, 1, 2, 3, 6, 10][c];
            (a.mul_u64(common), m.mul_u64(common))
        })
}

/// `mod_inverse` against the extended-Euclid oracle, on `a`, its edges
/// (`0`, `1`, `m − 1`), `m − a` — the pair the binary GCD's word
/// approximations find hardest to tell apart — and `a`'s low word, which
/// takes the one-word path.
fn inverse_matches_extended_gcd(a: &BigUint, m: &BigUint) {
    let mut values = with_edges(m, &[a]);
    values.push(m - &(a % m));
    values.push(a.clone());
    values.push(BigUint::from(a.limbs().first().copied().unwrap_or(2)));
    for a in &values {
        let reduced = BigInt::from_biguint(a % m);
        let (g, x, _) = extended_gcd(&reduced, &BigInt::from_biguint(m.clone()));
        let expected = (g == BigInt::one()).then(|| x.mod_floor(m));
        prop_assert_eq!(a.mod_inverse(m), expected);
    }
}

proptest! {
    // Debug builds keep the kernels' `debug_assert`s on but are ~20× slower
    // at these widths: a few cases there, the search proper in release (CI).
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 3 } else { 128 }))]

    #[test]
    fn fixed_width_mul_and_sqr_match_division(
        n in fixed_width_modulus(),
        a in operand(8),
        b in operand(8),
    ) {
        mul_and_sqr_match_division(&n, &a, &b);
    }

    #[test]
    fn fixed_width_pow_mod_matches_reference(
        n in fixed_width_modulus(),
        base in operand(8),
        raw_exp in operand(11),
        exp_bits in window_straddling_bits(),
        j in 0u32..24,
    ) {
        pow_mod_matches_reference(&n, &base, &exponent_of_bits(&raw_exp, exp_bits), j);
    }

    #[test]
    fn wide_mul_and_sqr_match_division(
        n in wide_modulus(),
        a in wide_operand(),
        b in wide_operand(),
    ) {
        mul_and_sqr_match_division(&n, &a, &b);
    }

    #[test]
    fn wide_pow_mod_matches_reference(
        n in wide_modulus(),
        base in wide_operand(),
        raw_exp in wide_operand(),
        exp_bits in 0usize..=300,
        j in 0u32..24,
    ) {
        pow_mod_matches_reference(&n, &base, &exponent_of_bits(&raw_exp, exp_bits), j);
    }

    /// The flat fixed-base table at 4- and 8-bit windows, with the exponent
    /// at `max_exp_bits` (last table window) and one bit past it (fallback).
    #[test]
    fn wide_fixed_base_matches_reference(
        n in wide_modulus(),
        base in wide_operand(),
        raw_exp in wide_operand(),
        short_bits in 0usize..96,
    ) {
        let ctx = MontgomeryCtx::new(&n);
        for b in with_edges(&n, &[&base]) {
            for window in [4usize, 8] {
                let fixed = FixedBaseExp::with_window(&ctx, &b, 96, window);
                prop_assert_eq!(fixed.max_exp_bits(), 96);
                for bits in [short_bits, 96, 97] {
                    let exp = exponent_of_bits(&raw_exp, bits);
                    prop_assert_eq!(fixed.pow_mod(&exp), ref_pow(&b, &exp, &n));
                }
            }
        }
    }

    /// Straus chains: binary (all exponents < 32 bits) and 4-bit windowed,
    /// with both signs, a zero exponent and a zero base in the mix.
    #[test]
    fn wide_multi_exp_signed_matches_reference(
        n in wide_modulus(),
        bases in proptest::collection::vec(wide_operand(), 1..4),
        raw_exp in wide_operand(),
        long_bits in 32usize..200,
        signs in any::<u8>(),
    ) {
        let ctx = MontgomeryCtx::new(&n);
        let mut bases = with_edges(&n, &bases.iter().collect::<Vec<_>>());
        bases.remove(0); // the zero base joins below, on its own
        for max_bits in [31usize, long_bits] {
            let mut terms: Vec<MultiExpTerm> = bases
                .iter()
                .enumerate()
                .map(|(i, base)| MultiExpTerm {
                    base: base.clone(),
                    exp: exponent_of_bits(&(&raw_exp >> i), max_bits - i),
                    negative: signs >> i & 1 == 1,
                })
                .collect();
            terms[0].exp = BigUint::zero();
            let reference = |terms: &[MultiExpTerm], negative: bool| {
                terms
                    .iter()
                    .filter(|t| t.negative == negative)
                    .fold(BigUint::one(), |acc, t| {
                        &(&acc * &ref_pow(&t.base, &t.exp, &n)) % &n
                    })
            };
            let (num, den) = multi_exp_signed(&ctx, &terms);
            prop_assert_eq!(num, reference(&terms, false));
            prop_assert_eq!(den, reference(&terms, true));

            terms.push(MultiExpTerm {
                base: BigUint::zero(),
                exp: BigUint::from(3u64),
                negative: signs & 0x80 != 0,
            });
            let (num, den) = multi_exp_signed(&ctx, &terms);
            prop_assert_eq!(num, reference(&terms, false));
            prop_assert_eq!(den, reference(&terms, true));
        }
    }
}

/// Exponents one bit below and exactly at every width threshold of the
/// sliding-window rule (w = 1/3/4/5/6 from 24, 80, 240 and 672 bits), on an
/// odd and an even limb count.
#[test]
fn wide_pow_mod_straddles_every_window_threshold() {
    let mut rng = StdRng::seed_from_u64(0x51D1_4600);
    for limbs in [9usize, 16] {
        let mut n = cs_bigint::rng::random_bits(&mut rng, limbs * 64);
        n.set_bit(0, true);
        n.set_bit(limbs * 64 - 1, true);
        let ctx = MontgomeryCtx::new(&n);
        let base = random_below(&mut rng, &n);
        for threshold in [24usize, 80, 240, 672] {
            for bits in [threshold - 1, threshold, threshold + 1] {
                let raw = cs_bigint::rng::random_bits(&mut rng, bits);
                // Random, all-ones (every window full) and a lone top bit
                // (one window, then squarings only).
                for exp in [
                    exponent_of_bits(&raw, bits),
                    (BigUint::one() << bits).sub_u64(1),
                    BigUint::one() << (bits - 1),
                ] {
                    assert_eq!(
                        ctx.pow_mod(&base, &exp),
                        ref_pow(&base, &exp, &n),
                        "{limbs} limbs, {bits}-bit exponent"
                    );
                }
            }
        }
    }
}

/// Deterministic heavyweight check: a 2048-bit Fermat test through the full
/// Montgomery pipeline, too slow for proptest's default case count but
/// valuable as a single integration-style assertion.
#[test]
fn fermat_identity_2048_bit_modulus() {
    // p, q are 64-bit primes; n = p·q; phi = (p-1)(q-1).
    let p = BigUint::parse_decimal("18446744073709551557").unwrap();
    let q = BigUint::parse_decimal("18446744073709551533").unwrap();
    let n = &p * &q;
    let phi = &p.sub_u64(1) * &q.sub_u64(1);
    // Euler: a^phi ≡ 1 mod n for gcd(a, n) = 1. Raise n to the 16th power to
    // get a ~2048-bit odd modulus exercise (identity holds mod n^k for the
    // adjusted phi·n^(k-1)).
    let k = 16usize;
    let mut nk = BigUint::one();
    for _ in 0..k {
        nk = &nk * &n;
    }
    let mut exp = phi;
    for _ in 0..k - 1 {
        exp = &exp * &n;
    }
    let a = BigUint::from(65537u64);
    assert_eq!(a.mod_pow(&exp, &nk), BigUint::one());
    assert!(nk.bit_len() > 2000);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 8 } else { 256 }))]

    /// Units and non-units, odd and even moduli of 1–64 limbs: the binary
    /// GCD returns exactly what extended Euclid does.
    #[test]
    fn mod_inverse_matches_the_extended_gcd_oracle((a, m) in inverse_case()) {
        inverse_matches_extended_gcd(&a, &m);
    }
}
