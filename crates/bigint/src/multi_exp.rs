//! Straus (interleaved) multi-exponentiation and batched modular inversion.
//!
//! Threshold combination evaluates `Π_i base_i^{exp_i} mod n` for a handful
//! of bases whose exponents are small signed Lagrange multiples. Computing
//! each factor with its own [`MontgomeryCtx::pow_mod`] repeats the squaring
//! chain (and a window table) per base; the Straus trick shares one
//! squaring chain across all bases, multiplying each base's windowed digit
//! in as the chain passes its position. Negative exponents accumulate into a
//! separate denominator product over the same chain, so a whole combine
//! costs one chain plus a single modular inversion — and even that inversion
//! can be amortized across many combines with [`batch_inverse`]
//! (Montgomery's trick: k inversions for the price of one plus `3(k-1)`
//! multiplications).

use crate::montgomery::MontgomeryCtx;
use crate::BigUint;

/// One `base^exp` factor of a multi-exponentiation, with the exponent's
/// sign carried alongside its magnitude (exponents in the Lagrange combine
/// are integers that may be negative).
#[derive(Clone, Debug)]
pub struct MultiExpTerm {
    /// The base, reduced mod the context modulus by the evaluator.
    pub base: BigUint,
    /// The exponent magnitude.
    pub exp: BigUint,
    /// Whether the factor contributes `base^{-exp}` (i.e. to the
    /// denominator product).
    pub negative: bool,
}

/// `Π base_i^{exp_i} mod n` over non-negative exponents, one shared
/// squaring chain across all bases.
///
/// ```
/// use cs_bigint::{multi_exp::multi_exp, BigUint, MontgomeryCtx};
///
/// let m = BigUint::from(1_000_000_007u64);
/// let ctx = MontgomeryCtx::new(&m);
/// let terms = [
///     (BigUint::from(3u64), BigUint::from(20u64)),
///     (BigUint::from(7u64), BigUint::from(13u64)),
/// ];
/// let naive = ctx.mul_mod(
///     &ctx.pow_mod(&terms[0].0, &terms[0].1),
///     &ctx.pow_mod(&terms[1].0, &terms[1].1),
/// );
/// assert_eq!(multi_exp(&ctx, &terms), naive);
/// ```
pub fn multi_exp(ctx: &MontgomeryCtx, terms: &[(BigUint, BigUint)]) -> BigUint {
    let signed: Vec<MultiExpTerm> = terms
        .iter()
        .map(|(base, exp)| MultiExpTerm {
            base: base.clone(),
            exp: exp.clone(),
            negative: false,
        })
        .collect();
    multi_exp_signed(ctx, &signed).0
}

/// Straus evaluation of a signed multi-exponentiation: returns
/// `(numerator, denominator)` where the true value is
/// `numerator · denominator^{-1} mod n`.
///
/// Both accumulators ride the same squaring chain, so t factors cost one
/// chain of `max_bits` doublings (twice that when any exponent is negative)
/// instead of t independent `pow_mod` chains. Windowed digit tables are
/// sized to the longest exponent: 4-bit windows with a 15-entry table per
/// base for long exponents, plain binary (no table) when every exponent is
/// short enough that table construction would dominate.
///
/// The caller owns the single inversion of the denominator (or batches it
/// across calls with [`batch_inverse`]). A denominator of 1 means no
/// negative exponents contributed.
pub fn multi_exp_signed(ctx: &MontgomeryCtx, terms: &[MultiExpTerm]) -> (BigUint, BigUint) {
    let modulus = ctx.modulus();
    let one = BigUint::one() % modulus;
    let mut live: Vec<(BigUint, &BigUint, bool)> = terms
        .iter()
        .filter(|t| !t.exp.is_zero())
        .map(|t| (&t.base % modulus, &t.exp, t.negative))
        .collect();
    // A zero base with a non-zero exponent collapses its side of the
    // fraction to zero; the Straus tables below assume unit-group
    // elements, so pull those terms out and zero the side afterwards.
    let num_zero = live.iter().any(|(b, _, neg)| b.is_zero() && !neg);
    let den_zero = live.iter().any(|(b, _, neg)| b.is_zero() && *neg);
    live.retain(|(b, _, _)| !b.is_zero());
    if live.is_empty() {
        let num = if num_zero {
            BigUint::zero()
        } else {
            one.clone()
        };
        let den = if den_zero { BigUint::zero() } else { one };
        return (num, den);
    }

    let max_bits = live.iter().map(|(_, e, _)| e.bit_len()).max().unwrap_or(0);
    // Table construction costs 14 mont_muls per base at 4-bit windows; for
    // the short exponents of a Lagrange combine that outweighs the saved
    // window multiplications, so fall back to binary (window = 1).
    let window = if max_bits >= 32 { 4usize } else { 1 };
    let digits = (1usize << window) - 1;

    // One buffer for the whole chain: per-base digit tables in Montgomery
    // form (`base_b^d` at entry `b·digits + d − 1`), the two accumulators,
    // their ping-pong partner, and the kernels' scratch.
    let k = ctx.limbs();
    let entries = live.len() * digits;
    let mut buf = vec![0u64; (entries + 3) * k + ctx.scratch_len()];
    let (tables, rest) = buf.split_at_mut(entries * k);
    let (mut num, rest) = rest.split_at_mut(k);
    let (mut den, rest) = rest.split_at_mut(k);
    let (mut tmp, t) = rest.split_at_mut(k);
    for (table, (base, _, _)) in tables.chunks_exact_mut(digits * k).zip(&live) {
        ctx.to_mont_into(&mut table[..k], base, t);
        for d in 1..digits {
            let (done, rest) = table.split_at_mut(d * k);
            ctx.mont_mul_into(&mut rest[..k], &done[(d - 1) * k..], &done[..k], t);
        }
    }

    let has_neg = live.iter().any(|(_, _, neg)| *neg);
    num.copy_from_slice(ctx.one_mont());
    den.copy_from_slice(ctx.one_mont());
    let top_window = max_bits.div_ceil(window);
    for w in (0..top_window).rev() {
        if w + 1 != top_window {
            for _ in 0..window {
                ctx.mont_sqr_into(tmp, num, t);
                std::mem::swap(&mut num, &mut tmp);
                if has_neg {
                    ctx.mont_sqr_into(tmp, den, t);
                    std::mem::swap(&mut den, &mut tmp);
                }
            }
        }
        for (b, (_, exp, neg)) in live.iter().enumerate() {
            let digit = exp.bits_at(w * window, window);
            if digit != 0 {
                let entry = &tables[(b * digits + digit - 1) * k..][..k];
                let side = if *neg { &mut den } else { &mut num };
                ctx.mont_mul_into(tmp, side, entry, t);
                std::mem::swap(side, &mut tmp);
            }
        }
    }
    let num = if num_zero {
        BigUint::zero()
    } else {
        ctx.from_mont(num)
    };
    let den = if den_zero {
        BigUint::zero()
    } else {
        ctx.from_mont(den)
    };
    (num, den)
}

/// Batched modular inversion (Montgomery's trick): inverts every value for
/// the cost of **one** extended-gcd inversion plus `3(k-1)` multiplications.
///
/// Returns `None` when any value is zero or shares a factor with the
/// modulus (the product is then not a unit, and neither is that value).
///
/// ```
/// use cs_bigint::{multi_exp::batch_inverse, BigUint, MontgomeryCtx};
///
/// let m = BigUint::from(1_000_003u64);
/// let ctx = MontgomeryCtx::new(&m);
/// let vals = [BigUint::from(42u64), BigUint::from(99u64)];
/// let invs = batch_inverse(&ctx, &vals).unwrap();
/// for (v, inv) in vals.iter().zip(&invs) {
///     assert!(ctx.mul_mod(v, inv).is_one());
/// }
/// ```
pub fn batch_inverse(ctx: &MontgomeryCtx, values: &[BigUint]) -> Option<Vec<BigUint>> {
    if values.is_empty() {
        return Some(Vec::new());
    }
    let modulus = ctx.modulus();
    // Prefix products: prefix[i] = v_0 · … · v_{i-1} mod n.
    let mut prefix = Vec::with_capacity(values.len());
    let mut acc = BigUint::one() % modulus;
    for v in values {
        prefix.push(acc.clone());
        acc = ctx.mul_mod(&acc, v);
    }
    // One inversion of the full product …
    let mut inv_acc = acc.mod_inverse(modulus)?;
    // … then peel values off the back: inv(v_i) = inv_suffix · prefix_i,
    // and fold v_i into the running suffix inverse.
    let mut out = vec![BigUint::zero(); values.len()];
    for i in (0..values.len()).rev() {
        out[i] = ctx.mul_mod(&inv_acc, &prefix[i]);
        inv_acc = ctx.mul_mod(&inv_acc, &values[i]);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::random_below;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ctx_512() -> MontgomeryCtx {
        // An odd 128-bit modulus is plenty to exercise multi-limb paths.
        let m = BigUint::from_limbs(vec![0xffff_ffff_ffff_ff43, 0xdead_beef_cafe_f00d]);
        MontgomeryCtx::new(&m)
    }

    fn naive(ctx: &MontgomeryCtx, terms: &[(BigUint, BigUint)]) -> BigUint {
        let mut acc = BigUint::one() % ctx.modulus();
        for (b, e) in terms {
            acc = ctx.mul_mod(&acc, &ctx.pow_mod(b, e));
        }
        acc
    }

    #[test]
    fn matches_naive_product_of_pow_mods() {
        let ctx = ctx_512();
        let mut rng = StdRng::seed_from_u64(7);
        for t in 0..6 {
            let terms: Vec<(BigUint, BigUint)> = (0..t)
                .map(|_| {
                    (
                        random_below(&mut rng, ctx.modulus()),
                        random_below(&mut rng, ctx.modulus()),
                    )
                })
                .collect();
            assert_eq!(multi_exp(&ctx, &terms), naive(&ctx, &terms), "t={t}");
        }
    }

    #[test]
    fn short_exponents_take_the_binary_path() {
        let ctx = ctx_512();
        let terms: Vec<(BigUint, BigUint)> = vec![
            (BigUint::from(17u64), BigUint::from(24u64)),
            (BigUint::from(23u64), BigUint::from(12u64)),
            (BigUint::from(29u64), BigUint::from(1u64)),
        ];
        assert_eq!(multi_exp(&ctx, &terms), naive(&ctx, &terms));
    }

    #[test]
    fn zero_exponent_terms_are_identity() {
        let ctx = ctx_512();
        let terms = vec![(BigUint::from(99u64), BigUint::zero())];
        assert!(multi_exp(&ctx, &terms).is_one());
        assert!(multi_exp(&ctx, &[]).is_one());
    }

    #[test]
    fn signed_split_agrees_with_manual_inversion() {
        let ctx = ctx_512();
        let mut rng = StdRng::seed_from_u64(11);
        let terms: Vec<MultiExpTerm> = (0..4)
            .map(|i| MultiExpTerm {
                base: random_below(&mut rng, ctx.modulus()),
                exp: BigUint::from(3u64 + 5 * i as u64),
                negative: i % 2 == 1,
            })
            .collect();
        let (num, den) = multi_exp_signed(&ctx, &terms);
        let expect_num = naive(
            &ctx,
            &terms
                .iter()
                .filter(|t| !t.negative)
                .map(|t| (t.base.clone(), t.exp.clone()))
                .collect::<Vec<_>>(),
        );
        let expect_den = naive(
            &ctx,
            &terms
                .iter()
                .filter(|t| t.negative)
                .map(|t| (t.base.clone(), t.exp.clone()))
                .collect::<Vec<_>>(),
        );
        assert_eq!(num, expect_num);
        assert_eq!(den, expect_den);
    }

    #[test]
    fn zero_base_collapses_its_side() {
        let ctx = ctx_512();
        let terms = vec![
            MultiExpTerm {
                base: BigUint::zero(),
                exp: BigUint::from(3u64),
                negative: false,
            },
            MultiExpTerm {
                base: BigUint::from(5u64),
                exp: BigUint::from(2u64),
                negative: true,
            },
        ];
        let (num, den) = multi_exp_signed(&ctx, &terms);
        assert!(num.is_zero());
        assert_eq!(den, BigUint::from(25u64));
    }

    #[test]
    fn batch_inverse_matches_individual_inverses() {
        let ctx = ctx_512();
        let mut rng = StdRng::seed_from_u64(13);
        for k in [1usize, 2, 5, 9] {
            let vals: Vec<BigUint> = (0..k)
                .map(|_| {
                    // Values coprime to the modulus with overwhelming
                    // probability; retry if not.
                    loop {
                        let v = random_below(&mut rng, ctx.modulus());
                        if !v.is_zero() && v.gcd(ctx.modulus()).is_one() {
                            return v;
                        }
                    }
                })
                .collect();
            let invs = batch_inverse(&ctx, &vals).expect("all units");
            for (v, inv) in vals.iter().zip(&invs) {
                assert_eq!(*inv, v.mod_inverse(ctx.modulus()).unwrap());
            }
        }
    }

    #[test]
    fn batch_inverse_rejects_non_units() {
        let ctx = ctx_512();
        assert!(batch_inverse(&ctx, &[BigUint::zero()]).is_none());
        assert!(batch_inverse(&ctx, &[]).unwrap().is_empty());
    }
}
