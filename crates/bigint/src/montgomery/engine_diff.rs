//! The IFMA engine against the scalar engine, its oracle.
//!
//! Both engines are built for one modulus through
//! [`MontgomeryCtx::with_engine`], whatever its width, and every public
//! operation over the pair must give one result: `mul_mod`, `pow_mod`,
//! `pow_mod_pow2`, a fixed-base comb, a signed multi-exponentiation and
//! Miller–Rabin. Moduli run from 9 to 80 limbs, at random widths, at the
//! widths where `R = 2^(52·N)` is only 4–8 times the modulus (there the
//! kernel's output lands in `[n, 2n)` often, and the operands include
//! values that take it there), and at `n²` of keys built like the
//! cryptosystem's. On a CPU without AVX-512 IFMA a test says so on stderr
//! and runs the scalar half alone.

use super::*;
use crate::ifma::integer;
use crate::multi_exp::{multi_exp_signed, MultiExpTerm};
use crate::prime::{gen_prime, miller_rabin};
use crate::rng::{random_below, random_bits};
use crate::FixedBaseExp;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The scalar engine for `n`, and the IFMA engine unless this CPU lacks it.
fn engines(n: &BigUint) -> (MontgomeryCtx, Option<MontgomeryCtx>) {
    let ifma = MontgomeryCtx::with_engine(n, true);
    if ifma.engine() != "ifma" {
        eprintln!("no avx512ifma on this CPU: only the scalar engine runs");
    }
    (
        MontgomeryCtx::with_engine(n, false),
        (ifma.engine() == "ifma").then_some(ifma),
    )
}

/// `op` on both engines, asserted equal; the scalar engine's result.
fn agree<T: PartialEq + std::fmt::Debug>(
    (scalar, ifma): &(MontgomeryCtx, Option<MontgomeryCtx>),
    what: &str,
    op: impl Fn(&MontgomeryCtx) -> T,
) -> T {
    let want = op(scalar);
    if let Some(ifma) = ifma {
        assert_eq!(
            op(ifma),
            want,
            "{what}, {}-bit modulus",
            scalar.modulus().bit_len()
        );
    }
    want
}

/// An odd modulus of exactly `bits` bits whose limbs are often all-zeros
/// or all-ones, so carry chains run long.
fn modulus(bits: usize, rng: &mut StdRng) -> BigUint {
    let mut m = random_bits(rng, bits);
    for limb in 0..bits / 64 {
        match rng.gen_range(0..6) {
            0 => (0..64).for_each(|b| m.set_bit(64 * limb + b, false)),
            1 => (0..64).for_each(|b| m.set_bit(64 * limb + b, true)),
            _ => {}
        }
    }
    m.set_bit(0, true);
    m.set_bit(bits - 1, true);
    m
}

/// Pairs `a, b < n` whose product `mul_mod(a, b)` leaves the IFMA kernel
/// in `[n, 2n)`, where only the exits' canonical step stands between the
/// engine and a wrong value: `b` drawn from just below `n`, `a` anywhere.
/// A modulus far below `R/4` yields none.
fn landing_high(ifma: &MontgomeryCtx, rng: &mut StdRng) -> Vec<BigUint> {
    let (n, k) = (ifma.modulus(), ifma.limbs());
    let (mut a_m, mut out, mut t) = (vec![0; k], vec![0; k], vec![0; ifma.scratch_len()]);
    let mut found = Vec::new();
    for _ in 0..200 {
        let a = random_below(rng, n);
        let b = n - &random_below(rng, &(n >> 3)).add_u64(1);
        ifma.to_mont_into(&mut a_m, &a, &mut t);
        ifma.mont_mul_into(&mut out, &a_m, &ifma.words_of(&b), &mut t);
        if integer(&out) >= *n {
            found.extend([a, b]);
            if found.len() == 4 {
                break;
            }
        }
    }
    found
}

/// Every operation on both engines for `n`, operands and exponents from
/// `rng`. Returns how many operands came in pairs that took the IFMA kernel
/// into `[n, 2n)`.
fn check_modulus(n: &BigUint, rng: &mut StdRng) -> usize {
    let pair = engines(n);
    let mut operands = vec![BigUint::zero(), BigUint::one(), n.sub_u64(1)];
    operands.extend([random_below(rng, n), random_below(rng, n)]);
    let high = match &pair.1 {
        Some(ifma) => landing_high(ifma, rng),
        None => Vec::new(),
    };
    operands.extend(high.iter().cloned());

    for x in &operands {
        for y in &operands {
            let product = agree(&pair, "mul_mod", |c| c.mul_mod(x, y));
            assert_eq!(product, &(x * y) % n);
        }
    }
    let (exp_bits, short_bits, j) = (
        rng.gen_range(1..300),
        rng.gen_range(1..96),
        rng.gen_range(0..24),
    );
    let exp = random_bits(rng, exp_bits);
    let short = random_bits(rng, short_bits);
    for base in &operands {
        agree(&pair, "pow_mod", |c| c.pow_mod(base, &exp));
        agree(&pair, "pow_mod_pow2", |c| c.pow_mod_pow2(base, j));
        agree(&pair, "FixedBaseExp::pow_mod", |c| {
            FixedBaseExp::with_window(c, base, 96, 4).pow_mod(&short)
        });
    }
    let terms: Vec<MultiExpTerm> = operands
        .iter()
        .enumerate()
        .map(|(i, base)| MultiExpTerm {
            base: base.clone(),
            exp: &exp >> (7 * i),
            negative: i % 2 == 1,
        })
        .collect();
    agree(&pair, "multi_exp_signed", |c| multi_exp_signed(c, &terms));
    let seed = rng.gen();
    agree(&pair, "is_probable_prime", |c| {
        miller_rabin(c, 2, &mut StdRng::seed_from_u64(seed))
    });
    high.len()
}

proptest! {
    // Debug builds run the kernels ~20× slower at these widths: a few
    // cases there, the search proper in release (CI).
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 3 } else { 48 }))]

    /// Odd moduli of 9–80 limbs, a random bit length at each.
    #[test]
    fn engines_agree_at_random_widths(limbs in 9usize..=80, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let bits = 64 * limbs - rng.gen_range(0..64usize);
        check_modulus(&modulus(bits, &mut rng), &mut rng);
    }

    /// Moduli of `52·8·v − 2` bits, the widest an `8v`-word residue holds
    /// (13–78 limbs): `R` is 4–8 times the modulus, and the IFMA kernel's
    /// output lands in `[n, 2n)` for some operand of every case.
    #[test]
    fn engines_agree_where_the_kernel_lands_in_n_to_2n(vectors in 2usize..=12, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = modulus(52 * 8 * vectors - 2, &mut rng);
        let high = check_modulus(&n, &mut rng);
        prop_assert!(high > 0 || MontgomeryCtx::with_engine(&n, true).engine() != "ifma");
    }
}

/// `n²` of keys built as the cryptosystem builds them (two primes of half
/// the bits): 16, 32 and 64 limbs, the widths a 512-, 1024- and 2048-bit key
/// exponentiates at. The 1024-bit primes of the widest key are themselves
/// 16 limbs, and both engines must call them prime.
#[test]
fn engines_agree_at_the_squares_of_real_keys() {
    let mut rng = StdRng::seed_from_u64(0x1F3A_2048);
    for bits in [512usize, 1024, 2048] {
        let (p, q) = (gen_prime(bits / 2, &mut rng), gen_prime(bits / 2, &mut rng));
        let n = &p * &q;
        check_modulus(&n.square(), &mut rng);
        if p.limb_len() >= 9 {
            let pair = engines(&p);
            assert!(agree(&pair, "is_probable_prime(p)", |c| {
                miller_rabin(c, 2, &mut StdRng::seed_from_u64(7))
            }));
        }
    }
}

/// Miller–Rabin's trap: the IFMA engine's residues lie in `[0, 2n)`, so
/// `n − 1` has two images, `n − (R mod n)` and that plus `n`. The context's
/// `±1` checks compare canonical residues and read both; a word-for-word
/// `==` against the canonical image would call the second "not −1" and a
/// prime composite.
#[test]
fn the_minus_one_check_reads_a_non_canonical_image() {
    let mut rng = StdRng::seed_from_u64(0x31);
    let n = modulus(52 * 8 * 4 - 2, &mut rng);
    let (scalar, ifma) = engines(&n);
    for ctx in std::iter::once(&scalar).chain(&ifma) {
        let one = ctx.residue(ctx.one_mont());
        let minus_one = &n - &one;
        assert!(ctx.is_minus_one_mont(&ctx.words_of(&minus_one)));
        assert!(ctx.is_one_mont(&ctx.words_of(&one)));
        assert!(!ctx.is_one_mont(&ctx.words_of(&minus_one)));
        if ctx.engine() == "ifma" {
            let image = ctx.words_of(&(&minus_one + &n));
            assert_ne!(image, ctx.words_of(&minus_one), "two images of −1");
            assert!(ctx.is_minus_one_mont(&image));
            assert!(!ctx.is_one_mont(&image));
            assert!(ctx.is_one_mont(&ctx.words_of(&(&one + &n))));
        }
    }
}
