//! Encryption and decryption: the core Damgård-Jurik algorithms.

use crate::{Ciphertext, PrivateKey, PublicKey};
use cs_bigint::rng::random_unit;
use cs_bigint::BigUint;
use rand::Rng;

impl PublicKey {
    /// Encrypts `m ∈ [0, n^s)`: `c = (1+n)^m · r^(n^s) mod n^(s+1)` with a
    /// fresh uniform unit `r ∈ Z*_n`.
    ///
    /// Panics if `m >= n^s`; use [`PublicKey::check_plaintext`] to validate
    /// untrusted inputs first.
    pub fn encrypt<R: Rng + ?Sized>(&self, m: &BigUint, rng: &mut R) -> Ciphertext {
        assert!(m < self.n_s(), "plaintext out of range");
        let r = random_unit(rng, self.n());
        self.encrypt_with_randomness(m, &r)
    }

    /// Deterministic encryption with caller-provided randomness `r ∈ Z*_n`.
    fn encrypt_with_randomness(&self, m: &BigUint, r: &BigUint) -> Ciphertext {
        let g_m = self.one_plus_n_pow(m);
        let r_ns = self.mont().pow_mod(r, self.n_s());
        Ciphertext(self.mont().mul_mod(&g_m, &r_ns))
    }

    /// `(1+n)^m mod n^(s+1)` by binomial expansion:
    /// `Σ_{k=0}^{s} C(m,k)·n^k`, where `C(m,k)` is computed mod `n^(s+1)`
    /// (valid because `k!` is a unit — `n` has no small factors).
    ///
    /// For `s = 1` this is just `1 + m·n`: one multiplication instead of a
    /// full modular exponentiation, the classic Paillier trick.
    pub(crate) fn one_plus_n_pow(&self, m: &BigUint) -> BigUint {
        let n_s1 = self.n_s1();
        let mut acc = BigUint::one();
        // term_k = C(m,k) · n^k mod n^(s+1), built incrementally:
        // C(m,k) = C(m,k-1)·(m-k+1)/k.
        let mut binom_num = BigUint::one(); // m·(m-1)···(m-k+1) mod n^(s+1)
        let mut n_pow = BigUint::one(); // n^k
        let mut k_fact = BigUint::one(); // k!
        for k in 1..=self.s() as u64 {
            // (m - k + 1) mod n^(s+1); m < n^s < n^(s+1) so mod_sub is safe.
            let factor = m.mod_sub(&BigUint::from(k - 1), n_s1);
            binom_num = binom_num.mod_mul(&factor, n_s1);
            n_pow = &n_pow * self.n();
            k_fact = k_fact.mul_u64(k);
            let k_fact_inv = k_fact.mod_inverse(n_s1).expect("k! is a unit mod n^(s+1)");
            let term = binom_num.mod_mul(&k_fact_inv, n_s1).mod_mul(&n_pow, n_s1);
            acc = acc.mod_add(&term, n_s1);
        }
        acc
    }

    /// Extracts `i mod n^s` from `b = (1+n)^i mod n^(s+1)`.
    ///
    /// This is the Damgård-Jurik discrete-log algorithm: the function
    /// `L(u) = (u-1)/n` recovers `i` plus higher binomial terms at each
    /// precision level `n^j`, which are peeled off with the previous level's
    /// estimate.
    pub(crate) fn dlog_one_plus_n(&self, b: &BigUint) -> BigUint {
        let n = self.n();
        let s = self.s() as usize;
        // Precompute n^1..n^(s+1).
        let mut n_pows = Vec::with_capacity(s + 2);
        n_pows.push(BigUint::one());
        for j in 1..=s + 1 {
            let next = &n_pows[j - 1] * n;
            n_pows.push(next);
        }

        let mut i = BigUint::zero();
        for j in 1..=s {
            let n_j = &n_pows[j];
            let n_j1 = &n_pows[j + 1];
            let b_j = b % n_j1;
            // L(b_j): exact division since b_j ≡ 1 (mod n).
            let t1 = &b_j.sub_u64(1) / n;
            let mut t1 = &t1 % n_j;
            let mut t2 = i.clone();
            let mut i_run = i.clone();
            let mut k_fact = BigUint::one();
            for k in 2..=j as u64 {
                i_run = i_run.mod_sub(&BigUint::one(), n_j);
                t2 = t2.mod_mul(&i_run, n_j);
                k_fact = k_fact.mul_u64(k);
                let k_fact_inv = k_fact.mod_inverse(n_j).expect("k! unit mod n^j");
                let term = t2
                    .mod_mul(&n_pows[(k - 1) as usize], n_j)
                    .mod_mul(&k_fact_inv, n_j);
                t1 = t1.mod_sub(&term, n_j);
            }
            i = t1;
        }
        i
    }
}

impl PrivateKey {
    /// Decrypts a ciphertext to its plaintext in `[0, n^s)`.
    ///
    /// `c^d = (1+n)^(m·d) · r^(n^s·d) = (1+n)^m mod n^(s+1)` because
    /// `d ≡ 1 (mod n^s)` kills the exponent on the `(1+n)` component and
    /// `d ≡ 0 (mod λ)` kills the random component entirely.
    ///
    /// The exponentiation runs through the CRT fast path (two half-width
    /// chains mod `p^(s+1)` and `q^(s+1)` with group-order-reduced
    /// exponents, Garner recombination) whenever the key carries its CRT
    /// context — always, for locally generated keys. A copy made by
    /// [`Self::without_crt`] keeps the pre-CRT full-width path as the
    /// differential oracle.
    pub fn decrypt(&self, c: &Ciphertext) -> BigUint {
        let pk = self.public();
        let b = self.pow_d(&c.0);
        pk.dlog_one_plus_n(&b)
    }
}

#[cfg(test)]
mod tests {
    use crate::{KeyGenOptions, KeyPair};
    use cs_bigint::rng::random_below;
    use cs_bigint::BigUint;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn test_keypair(seed: u64, s: u32) -> KeyPair {
        let mut rng = StdRng::seed_from_u64(seed);
        KeyPair::generate(&KeyGenOptions::insecure_test_size_s(s), &mut rng)
    }

    #[test]
    fn roundtrip_small_values_s1() {
        let kp = test_keypair(10, 1);
        let mut rng = StdRng::seed_from_u64(11);
        for v in [0u64, 1, 2, 42, 1_000_000, u64::MAX] {
            let m = BigUint::from(v);
            let c = kp.public().encrypt(&m, &mut rng);
            assert_eq!(kp.private().decrypt(&c), m, "value {v}");
        }
    }

    #[test]
    fn roundtrip_random_values_s1() {
        let kp = test_keypair(12, 1);
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..20 {
            let m = random_below(&mut rng, kp.public().n_s());
            let c = kp.public().encrypt(&m, &mut rng);
            assert_eq!(kp.private().decrypt(&c), m);
        }
    }

    #[test]
    fn roundtrip_s2_and_s3() {
        for s in [2u32, 3] {
            let kp = test_keypair(14 + s as u64, s);
            let mut rng = StdRng::seed_from_u64(20 + s as u64);
            for _ in 0..10 {
                let m = random_below(&mut rng, kp.public().n_s());
                let c = kp.public().encrypt(&m, &mut rng);
                assert_eq!(kp.private().decrypt(&c), m, "degree {s}");
            }
        }
    }

    #[test]
    fn plaintext_larger_than_n_works_for_s2() {
        // The whole point of s >= 2: messages exceeding n.
        let kp = test_keypair(30, 2);
        let mut rng = StdRng::seed_from_u64(31);
        let m = kp.public().n().add_u64(12345); // > n, < n²
        let c = kp.public().encrypt(&m, &mut rng);
        assert_eq!(kp.private().decrypt(&c), m);
    }

    #[test]
    fn encryption_is_probabilistic() {
        let kp = test_keypair(40, 1);
        let mut rng = StdRng::seed_from_u64(41);
        let m = BigUint::from(7u64);
        let c1 = kp.public().encrypt(&m, &mut rng);
        let c2 = kp.public().encrypt(&m, &mut rng);
        assert_ne!(c1, c2, "fresh randomness must differ");
        assert_eq!(kp.private().decrypt(&c1), kp.private().decrypt(&c2));
    }

    #[test]
    fn one_plus_n_pow_matches_modpow() {
        let kp = test_keypair(50, 2);
        let pk = kp.public();
        let mut rng = StdRng::seed_from_u64(51);
        for _ in 0..5 {
            let m = random_below(&mut rng, pk.n_s());
            let fast = pk.one_plus_n_pow(&m);
            let slow = pk.n().add_u64(1).mod_pow(&m, pk.n_s1());
            assert_eq!(fast, slow);
        }
    }

    #[test]
    fn dlog_inverts_one_plus_n_pow() {
        let kp = test_keypair(60, 3);
        let pk = kp.public();
        let mut rng = StdRng::seed_from_u64(61);
        for _ in 0..5 {
            let m = random_below(&mut rng, pk.n_s());
            let b = pk.one_plus_n_pow(&m);
            assert_eq!(pk.dlog_one_plus_n(&b), m);
        }
    }

    #[test]
    fn crt_decrypt_matches_slow_path() {
        for s in [1u32, 2, 3] {
            let kp = test_keypair(80 + s as u64, s);
            assert!(kp.private().has_crt(), "generated keys carry CRT");
            let no_crt = kp.private().without_crt();
            assert!(!no_crt.has_crt());
            let mut rng = StdRng::seed_from_u64(90 + s as u64);
            for _ in 0..8 {
                let m = random_below(&mut rng, kp.public().n_s());
                let c = kp.public().encrypt(&m, &mut rng);
                assert_eq!(kp.private().decrypt(&c), m, "CRT path, s={s}");
                assert_eq!(
                    kp.private().without_crt().decrypt(&c),
                    m,
                    "slow path, s={s}"
                );
                assert_eq!(no_crt.decrypt(&c), m, "stripped key, s={s}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "plaintext out of range")]
    fn oversized_plaintext_panics() {
        let kp = test_keypair(70, 1);
        let mut rng = StdRng::seed_from_u64(71);
        let _ = kp.public().encrypt(kp.public().n_s(), &mut rng);
    }
}
