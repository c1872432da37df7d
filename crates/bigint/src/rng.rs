//! Uniform random sampling of [`BigUint`] values.

use crate::BigUint;
use rand::Rng;

/// `⌈bits/64⌉` uniformly random limbs with every bit from `bits` up cleared.
fn random_limbs<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> Vec<u64> {
    let mut limbs: Vec<u64> = (0..bits.div_ceil(64)).map(|_| rng.gen()).collect();
    if let Some(top) = limbs.last_mut() {
        *top &= u64::MAX >> ((64 - bits % 64) % 64);
    }
    limbs
}

/// Samples a uniformly random value with exactly `bits` significant bits
/// (the top bit is forced to 1). Returns zero when `bits == 0`.
pub fn random_bits<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> BigUint {
    let mut limbs = random_limbs(rng, bits);
    if let Some(top) = limbs.last_mut() {
        *top |= 1u64 << ((bits - 1) % 64);
    }
    BigUint::from_limbs(limbs)
}

/// Samples uniformly from `[0, 2^bits)` — every bit free, unlike
/// [`random_bits`]. Returns zero when `bits == 0`.
pub fn random_below_pow2<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> BigUint {
    BigUint::from_limbs(random_limbs(rng, bits))
}

/// Samples uniformly from `[0, bound)` by rejection.
///
/// Panics if `bound` is zero.
pub fn random_below<R: Rng + ?Sized>(rng: &mut R, bound: &BigUint) -> BigUint {
    assert!(!bound.is_zero(), "empty range");
    let bits = bound.bit_len();
    // Rejection sampling: each draw succeeds with probability > 1/2.
    loop {
        let candidate = random_below_pow2(rng, bits);
        if candidate < *bound {
            return candidate;
        }
    }
}

/// Samples uniformly from `[low, high)`.
///
/// Panics if `low >= high`.
pub fn random_range<R: Rng + ?Sized>(rng: &mut R, low: &BigUint, high: &BigUint) -> BigUint {
    assert!(low < high, "empty range");
    let width = high - low;
    low + &random_below(rng, &width)
}

/// Samples a uniformly random element of `(Z/nZ)*`, i.e. a unit mod `n`.
///
/// For RSA-style `n` (product of two large primes) the first draw is a unit
/// with overwhelming probability.
pub fn random_unit<R: Rng + ?Sized>(rng: &mut R, n: &BigUint) -> BigUint {
    assert!(*n > 1u64, "modulus must exceed 1");
    loop {
        let candidate = random_range(rng, &BigUint::one(), n);
        if candidate.gcd(n).is_one() {
            return candidate;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn random_bits_has_exact_length() {
        let mut rng = StdRng::seed_from_u64(7);
        for bits in [1usize, 8, 63, 64, 65, 129, 512] {
            let v = random_bits(&mut rng, bits);
            assert_eq!(v.bit_len(), bits, "requested {bits} bits");
        }
        assert!(random_bits(&mut rng, 0).is_zero());
    }

    #[test]
    fn random_below_pow2_is_bounded_and_leaves_the_top_bit_free() {
        let mut rng = StdRng::seed_from_u64(9);
        for bits in [1usize, 63, 64, 65, 128] {
            let lens: Vec<usize> = (0..64)
                .map(|_| random_below_pow2(&mut rng, bits).bit_len())
                .collect();
            assert!(lens.iter().all(|&l| l <= bits), "{bits} bits");
            assert!(lens.contains(&bits), "{bits} bits: top bit never set");
            assert!(
                lens.iter().any(|&l| l < bits),
                "{bits} bits: top bit forced"
            );
        }
        assert!(random_below_pow2(&mut rng, 0).is_zero());
    }

    #[test]
    fn random_below_respects_bound() {
        let mut rng = StdRng::seed_from_u64(11);
        let bound = BigUint::from(1000u64);
        for _ in 0..200 {
            assert!(random_below(&mut rng, &bound) < bound);
        }
    }

    #[test]
    fn random_below_covers_small_range() {
        // With bound = 4, all residues should appear in 200 draws.
        let mut rng = StdRng::seed_from_u64(13);
        let bound = BigUint::from(4u64);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[random_below(&mut rng, &bound).to_u64().unwrap() as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn random_range_stays_in_range() {
        let mut rng = StdRng::seed_from_u64(17);
        let low = BigUint::from(500u64);
        let high = BigUint::from(600u64);
        for _ in 0..100 {
            let v = random_range(&mut rng, &low, &high);
            assert!(v >= low && v < high);
        }
    }

    #[test]
    fn random_unit_is_coprime() {
        let mut rng = StdRng::seed_from_u64(19);
        let n = BigUint::from(35u64); // 5 * 7 — units are plentiful
        for _ in 0..50 {
            let u = random_unit(&mut rng, &n);
            assert!(u.gcd(&n).is_one());
        }
    }

    #[test]
    fn deterministic_with_seed() {
        let a = random_bits(&mut StdRng::seed_from_u64(42), 256);
        let b = random_bits(&mut StdRng::seed_from_u64(42), 256);
        assert_eq!(a, b);
    }
}
