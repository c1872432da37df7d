//! Primality testing (Miller-Rabin) and random prime generation.

use crate::rng::{random_bits, random_range};
use crate::{BigUint, MontgomeryCtx};
use rand::Rng;
use std::sync::OnceLock;

/// Trial-division primes: all primes below 2048, generated once.
fn small_primes() -> &'static [u64] {
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

/// The small primes in ascending runs, each with its product, the longest
/// run whose product fits a word: 2–47, then fewer primes a run as they
/// grow, five near 2048; 49 runs in all.
fn prime_runs() -> &'static [(u64, &'static [u64])] {
    static RUNS: OnceLock<Vec<(u64, &'static [u64])>> = OnceLock::new();
    RUNS.get_or_init(|| {
        let mut runs = Vec::new();
        let mut rest = small_primes();
        while !rest.is_empty() {
            let (mut product, mut len) = (1u64, 0);
            while let Some(next) = rest.get(len).and_then(|&p| product.checked_mul(p)) {
                product = next;
                len += 1;
            }
            runs.push((product, &rest[..len]));
            rest = &rest[len..];
        }
        runs
    })
}

/// What trial division by the primes below 2048 says about an integer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Trial {
    /// Below 2, or a multiple of a small prime other than itself.
    Composite,
    /// A prime by trial division alone: a small prime itself, or a number
    /// no small prime up to its square root divides.
    Prime,
    /// No small prime divides it and it is above 2039²: Miller–Rabin
    /// decides.
    Undecided,
}

/// Trial division of `n` by the primes below 2048 in ascending order,
/// stopping at the first that divides `n` or whose square exceeds it. Word
/// arithmetic only: `n` is reduced once per run of [`prime_runs`], a limb
/// at a time, and that word once per prime.
fn trial_division(n: &BigUint) -> Trial {
    let word = n.to_u64();
    if word.is_some_and(|w| w < 2) {
        return Trial::Composite;
    }
    for &(product, primes) in prime_runs() {
        let r = n.limbs().iter().rev().fold(0, |r, &limb| {
            (((r as u128) << 64 | limb as u128) % product as u128) as u64
        });
        for &p in primes {
            if r % p == 0 {
                return if word == Some(p) {
                    Trial::Prime
                } else {
                    Trial::Composite
                };
            }
            if word.is_some_and(|w| p * p > w) {
                return Trial::Prime;
            }
        }
    }
    Trial::Undecided
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
/// (plus a fixed base-2 round), after trial division by the primes below
/// 2048, which decides every `n` below 2039² and draws nothing from `rng`.
/// The error probability is at most `4^-rounds`.
pub fn is_probable_prime<R: Rng + ?Sized>(n: &BigUint, rounds: usize, rng: &mut R) -> bool {
    match trial_division(n) {
        Trial::Composite => false,
        Trial::Prime => true,
        Trial::Undecided => miller_rabin(&MontgomeryCtx::new(n), rounds, rng),
    }
}

/// Miller-Rabin over the context's odd modulus `n > 2039²`: a base-2 round,
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
        if p.bit_len() == bits && is_probable_prime(&p, DEFAULT_MR_ROUNDS, rng) {
            return p;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Trial division as this module ran it before word remainders, the
    /// oracle of [`trial_division`]: a `BigUint` per prime, squared and
    /// long-divided into `n`. This is `is_probable_prime`'s pass.
    fn trial_division_oracle(n: &BigUint) -> Trial {
        if *n < 2u64 {
            return Trial::Composite;
        }
        for &p in small_primes() {
            let pb = BigUint::from(p);
            if *n == pb {
                return Trial::Prime;
            }
            if (n % &pb).is_zero() {
                return Trial::Composite;
            }
            if pb.square() > *n {
                return Trial::Prime;
            }
        }
        Trial::Undecided
    }

    /// `gen_prime`'s own pass before word remainders, run ahead of
    /// `is_probable_prime`'s.
    fn quick_composite_oracle(n: &BigUint) -> bool {
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

    /// Both oracles against [`trial_division`] on `n`.
    fn decides_alike(n: &BigUint) {
        let trial = trial_division(n);
        assert_eq!(trial, trial_division_oracle(n), "n = {n:x}");
        if *n >= 2u64 {
            assert_eq!(
                trial == Trial::Composite,
                quick_composite_oracle(n),
                "n = {n:x}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random odd numbers of 5–1100 bits.
        #[test]
        fn trial_division_matches_its_oracle_on_odd_numbers(bits in 5usize..=1100, seed in any::<u64>()) {
            let mut n = random_bits(&mut StdRng::seed_from_u64(seed), bits);
            n.set_bit(0, true);
            n.set_bit(bits - 1, true);
            decides_alike(&n);
        }

        /// Random words below 2^23.
        #[test]
        fn trial_division_matches_its_oracle_on_small_words(n in 0u64..1 << 23) {
            decides_alike(&BigUint::from(n));
        }

        /// Products of two small primes, alone and times a random cofactor
        /// of up to 600 bits.
        #[test]
        fn trial_division_matches_its_oracle_on_small_prime_products(
            i in 0usize..309,
            j in 0usize..309,
            cofactor_bits in 0usize..600,
            seed in any::<u64>(),
        ) {
            let primes = small_primes();
            let pq = BigUint::from(primes[i]).mul_u64(primes[j]);
            decides_alike(&pq);
            decides_alike(&BigUint::from(primes[i]));
            let cofactor = random_bits(&mut StdRng::seed_from_u64(seed), cofactor_bits);
            decides_alike(&(&pq * &cofactor.add_u64(1)));
        }
    }

    /// Every word below 5 000 (0, 1 and the small primes among them),
    /// and both sides of 2039² and 2053², where trial division stops
    /// deciding.
    #[test]
    fn trial_division_matches_its_oracle_where_it_stops_deciding() {
        let edges = [2039u64 * 2039, 2053 * 2053].map(|sq| sq - 4_000..sq + 4_000);
        for n in (0..5_000).chain(edges.into_iter().flatten()) {
            decides_alike(&BigUint::from(n));
        }
    }

    #[test]
    fn the_runs_cover_the_small_primes_in_order() {
        let runs = prime_runs();
        let flat: Vec<u64> = runs
            .iter()
            .flat_map(|&(_, run)| run.iter().copied())
            .collect();
        assert_eq!(flat, small_primes());
        assert_eq!(runs[0].1.last(), Some(&47));
        for &(product, run) in runs {
            assert_eq!(run.iter().product::<u64>(), product);
        }
    }

    /// `gen_prime(1024)` on three seeds: the primes the generator gave
    /// before trial division ran on words, digit for digit. Trial division
    /// draws nothing from the stream, so these move only if a decision or
    /// the Miller–Rabin draws do.
    #[test]
    fn gen_prime_1024_is_pinned() {
        for (seed, hex) in PINNED_1024 {
            let p = gen_prime(1024, &mut StdRng::seed_from_u64(seed));
            assert_eq!(format!("{p:x}"), hex.concat(), "seed {seed}");
        }
    }

    /// `gen_prime(1024, seed)` for seeds 1–3, in hex.
    const PINNED_1024: [(u64, [&str; 4]); 3] = [
        (
            1,
            [
                "c8af6abe16625759ff5e25bc41695a8c2b98066c65632d06a56125fa7a1afdd8",
                "a9d195c5b35e30a3be12bff331dab9e47715acf33c26eece606c8088c7661660",
                "1098bf67aa003927ae984e694764eb14d976378e122d821fb066b8d1bce20e84",
                "6dd77109c9428026192b82b9241b858d8b4012de28b842d852d42ad695bc794f",
            ],
        ),
        (
            2,
            [
                "f880f17d4b0a0397ac7e7ae79e037922cfc16d7111aebcbb4b30ba492d39d32a",
                "9d160fed651fc69b0c781a2a1a9146d7fd4edd781a1c9c678eab389faff57067",
                "345786a22de5a3fbefc209cb951dbcb4c1b7ef1f02270abb9dc028aa59e80d89",
                "472e382c5ab182040a62bcff6451909100887fcd58e117a953c4d5ae4ab46bab",
            ],
        ),
        (
            3,
            [
                "f1a778952adfe99d91462d82733d884a91d90f96d84e79fb415c6e50a34193d9",
                "bf1bd0281439ece1fb9552c8d9c489c693eda952c90b66c7144e94829697ca93",
                "253ddc1cbd5110698d6926904394f1a8946c48ab20a45ac120ad2578e9834408",
                "fe49199ba08b4c8a53a5d283fccb98497283a52decf37db01b02c3ea723e4bbf",
            ],
        ),
    ];

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
