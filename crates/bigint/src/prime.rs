//! Primality testing (Miller-Rabin) and random prime generation.

use crate::rng::{random_bits, random_range};
use crate::{BigUint, MontgomeryCtx};
use rand::Rng;

/// Trial-division primes: all primes below 2048, generated once.
fn small_primes() -> &'static [u64] {
    use std::sync::OnceLock;
    static PRIMES: OnceLock<Vec<u64>> = OnceLock::new();
    PRIMES.get_or_init(|| {
        let limit = 2048usize;
        let mut sieve = vec![true; limit];
        sieve[0] = false;
        sieve[1] = false;
        for i in 2..limit {
            if sieve[i] {
                for j in (i * i..limit).step_by(i) {
                    sieve[j] = false;
                }
            }
        }
        sieve
            .iter()
            .enumerate()
            .filter_map(|(i, &p)| p.then_some(i as u64))
            .collect()
    })
}

/// One Miller-Rabin round for witness `1 < a < n − 1` against odd
/// `n = d·2^r + 1`. The whole round stays in Montgomery form: `a^d` is
/// squared in place and checked against `±1` by the context, which compares
/// canonical residues (an engine's in-domain values need not be canonical).
fn miller_rabin_round(ctx: &MontgomeryCtx, d: &BigUint, r: usize, a: &BigUint) -> bool {
    let mut x = ctx.pow_mont(a, d);
    if ctx.is_one_mont(&x) || ctx.is_minus_one_mont(&x) {
        return true;
    }
    let mut next = vec![0u64; x.len()];
    let mut scratch = vec![0u64; ctx.scratch_len()];
    for _ in 1..r {
        ctx.mont_sqr_into(&mut next, &x, &mut scratch);
        std::mem::swap(&mut x, &mut next);
        if ctx.is_minus_one_mont(&x) {
            return true;
        }
        if ctx.is_one_mont(&x) {
            return false; // non-trivial square root of 1
        }
    }
    false
}

/// Miller-Rabin probabilistic primality test with `rounds` random witnesses
/// (plus a fixed base-2 round). The error probability is at most `4^-rounds`.
pub fn is_probable_prime<R: Rng + ?Sized>(n: &BigUint, rounds: usize, rng: &mut R) -> bool {
    if *n < 2u64 {
        return false;
    }
    for &p in small_primes() {
        let pb = BigUint::from(p);
        if *n == pb {
            return true;
        }
        if (n % &pb).is_zero() {
            return false;
        }
        if pb.square() > *n {
            return true; // fully trial-divided
        }
    }
    // n is odd and > 2048² here.
    miller_rabin(&MontgomeryCtx::new(n), rounds, rng)
}

/// Miller-Rabin over the context's odd modulus `n > 2048²`: a base-2 round,
/// then `rounds` random witnesses.
pub(crate) fn miller_rabin<R: Rng + ?Sized>(
    ctx: &MontgomeryCtx,
    rounds: usize,
    rng: &mut R,
) -> bool {
    let n_minus_1 = ctx.modulus().sub_u64(1);
    let r = n_minus_1
        .trailing_zeros()
        .expect("n-1 of odd n > 1 is non-zero even");
    let d = &n_minus_1 >> r;
    let two = BigUint::two();
    if !miller_rabin_round(ctx, &d, r, &two) {
        return false;
    }
    for _ in 0..rounds {
        let a = random_range(rng, &two, &n_minus_1);
        if !miller_rabin_round(ctx, &d, r, &a) {
            return false;
        }
    }
    true
}

/// Default Miller-Rabin rounds used by the generators (error `<= 4^-32`).
pub const DEFAULT_MR_ROUNDS: usize = 32;

/// Generates a random prime with exactly `bits` bits (top two bits set, so
/// products of two such primes have the full `2·bits` length).
///
/// Panics if `bits < 4`.
pub fn gen_prime<R: Rng + ?Sized>(bits: usize, rng: &mut R) -> BigUint {
    assert!(bits >= 4, "prime size too small");
    loop {
        let mut candidate = random_bits(rng, bits);
        candidate.set_bit(0, true); // odd
        candidate.set_bit(bits - 1, true);
        if bits >= 2 {
            candidate.set_bit(bits - 2, true);
        }
        if quick_composite(&candidate) {
            continue;
        }
        if is_probable_prime(&candidate, DEFAULT_MR_ROUNDS, rng) {
            return candidate;
        }
    }
}

/// Generates a *safe* prime `p = 2q + 1` with `q` also prime, `p` having
/// exactly `bits` bits. Safe primes strengthen the threshold Damgård-Jurik
/// key setup; plain primes are functionally sufficient (see DESIGN.md §3.2).
pub fn gen_safe_prime<R: Rng + ?Sized>(bits: usize, rng: &mut R) -> BigUint {
    assert!(bits >= 5, "safe prime size too small");
    loop {
        let q = gen_prime(bits - 1, rng);
        let p = q.mul_u64(2).add_u64(1);
        if p.bit_len() != bits {
            continue;
        }
        if !quick_composite(&p) && is_probable_prime(&p, DEFAULT_MR_ROUNDS, rng) {
            return p;
        }
    }
}

/// Fast rejection by trial division against the small-prime table.
fn quick_composite(n: &BigUint) -> bool {
    for &p in small_primes() {
        let pb = BigUint::from(p);
        if pb.square() > *n {
            return false;
        }
        if (n % &pb).is_zero() && *n != pb {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn small_prime_table_correct() {
        let primes = small_primes();
        assert_eq!(&primes[..10], &[2, 3, 5, 7, 11, 13, 17, 19, 23, 29]);
        assert!(primes.contains(&2039)); // largest prime < 2048
        assert!(!primes.contains(&2047)); // 23 * 89
    }

    #[test]
    fn known_primes_pass() {
        let mut rng = StdRng::seed_from_u64(1);
        for p in ["1000000007", "4294967311", "18446744073709551557"] {
            let n = BigUint::parse_decimal(p).unwrap();
            assert!(is_probable_prime(&n, 16, &mut rng), "{p} should be prime");
        }
    }

    #[test]
    fn known_composites_fail() {
        let mut rng = StdRng::seed_from_u64(2);
        // Carmichael numbers (fool Fermat, not Miller-Rabin) and a prime square.
        for c in ["561", "41041", "825265", "25326001", "1194649"] {
            let n = BigUint::parse_decimal(c).unwrap();
            assert!(!is_probable_prime(&n, 16, &mut rng), "{c} is composite");
        }
    }

    #[test]
    fn tiny_values() {
        let mut rng = StdRng::seed_from_u64(3);
        assert!(!is_probable_prime(&BigUint::zero(), 4, &mut rng));
        assert!(!is_probable_prime(&BigUint::one(), 4, &mut rng));
        assert!(is_probable_prime(&BigUint::two(), 4, &mut rng));
        assert!(is_probable_prime(&BigUint::from(3u64), 4, &mut rng));
        assert!(!is_probable_prime(&BigUint::from(4u64), 4, &mut rng));
    }

    #[test]
    fn generated_prime_has_requested_size() {
        let mut rng = StdRng::seed_from_u64(4);
        let p = gen_prime(96, &mut rng);
        assert_eq!(p.bit_len(), 96);
        assert!(p.is_odd());
        // Top two bits set ⇒ p ≥ 3·2^94.
        assert!(p.bit(95) && p.bit(94));
    }

    #[test]
    fn generated_primes_differ() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = gen_prime(64, &mut rng);
        let b = gen_prime(64, &mut rng);
        assert_ne!(a, b);
    }

    #[test]
    fn safe_prime_structure() {
        let mut rng = StdRng::seed_from_u64(6);
        let p = gen_safe_prime(48, &mut rng);
        assert_eq!(p.bit_len(), 48);
        let q = (&p.sub_u64(1)) >> 1;
        assert!(is_probable_prime(&q, 16, &mut rng), "(p-1)/2 must be prime");
    }
}
