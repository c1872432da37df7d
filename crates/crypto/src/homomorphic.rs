//! Homomorphic operations on ciphertexts.
//!
//! Everything the Chiaroscuro computation step needs: addition of encrypted
//! means and noise shares, scalar multiplication (notably by powers of two
//! for the push-sum denominator alignment), negation, plaintext addition,
//! and re-randomization of forwarded ciphertexts.

use crate::{Ciphertext, PublicKey};
use cs_bigint::rng::random_unit;
use cs_bigint::BigUint;
use rand::Rng;

impl PublicKey {
    /// Homomorphic addition: `Dec(add(c1, c2)) = Dec(c1) + Dec(c2) mod n^s`.
    pub fn add(&self, c1: &Ciphertext, c2: &Ciphertext) -> Ciphertext {
        Ciphertext(self.mont().mul_mod(&c1.0, &c2.0))
    }

    /// Adds a plaintext constant: `Dec(add_plain(c, k)) = Dec(c) + k mod n^s`.
    ///
    /// Cheaper than `add(c, encrypt(k))` — no randomness, no `r^(n^s)`.
    pub fn add_plain(&self, c: &Ciphertext, k: &BigUint) -> Ciphertext {
        let g_k = self.one_plus_n_pow(&(k % self.n_s()));
        Ciphertext(self.mont().mul_mod(&c.0, &g_k))
    }

    /// Scalar multiplication: `Dec(scalar_mul(c, k)) = k·Dec(c) mod n^s`.
    pub fn scalar_mul(&self, c: &Ciphertext, k: &BigUint) -> Ciphertext {
        Ciphertext(self.mont().pow_mod(&c.0, k))
    }

    /// Multiplies the plaintext by `2^j` — the homomorphic push-sum's
    /// denominator alignment (`j` is small: at most the number of gossip
    /// cycles). `c^(2^j)` is `j` straight squarings, so this skips the
    /// generic path's window-table build entirely.
    pub fn scalar_mul_pow2(&self, c: &Ciphertext, j: u32) -> Ciphertext {
        if j == 0 {
            return c.clone();
        }
        Ciphertext(self.mont().pow_mod_pow2(&c.0, j))
    }

    /// Homomorphic negation: `Dec(neg(c)) = n^s - Dec(c) mod n^s`.
    ///
    /// Computed as the group inverse of the ciphertext, which exists because
    /// ciphertexts are units mod `n^(s+1)`.
    pub fn neg(&self, c: &Ciphertext) -> Ciphertext {
        Ciphertext(
            c.0.mod_inverse(self.n_s1())
                .expect("ciphertexts are units mod n^(s+1)"),
        )
    }

    /// Homomorphic subtraction: `Dec(sub(c1, c2)) = Dec(c1) - Dec(c2) mod n^s`.
    pub fn sub(&self, c1: &Ciphertext, c2: &Ciphertext) -> Ciphertext {
        self.add(c1, &self.neg(c2))
    }

    /// Re-randomizes a ciphertext: same plaintext, fresh randomness.
    ///
    /// Chiaroscuro participants re-randomize before forwarding so an
    /// eavesdropper cannot link a forwarded ciphertext to the exchange it
    /// came from.
    pub fn rerandomize<R: Rng + ?Sized>(&self, c: &Ciphertext, rng: &mut R) -> Ciphertext {
        let r = random_unit(rng, self.n());
        let blind = self.mont().pow_mod(&r, self.n_s());
        Ciphertext(self.mont().mul_mod(&c.0, &blind))
    }

    /// An encryption of zero with fixed randomness `r = 1`.
    ///
    /// The assignment step initializes every non-selected cluster's mean
    /// with "encryptions of zero-valued time-series"; using the trivial
    /// randomness keeps that free (the gossip layer re-randomizes on the
    /// first forward).
    pub fn trivial_zero(&self) -> Ciphertext {
        Ciphertext(BigUint::one())
    }
}

#[cfg(test)]
mod tests {
    use crate::{KeyGenOptions, KeyPair};
    use cs_bigint::rng::random_below;
    use cs_bigint::BigUint;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(seed: u64) -> (KeyPair, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let kp = KeyPair::generate(&KeyGenOptions::insecure_test_size(), &mut rng);
        (kp, rng)
    }

    #[test]
    fn addition_homomorphism() {
        let (kp, mut rng) = setup(100);
        let (pk, sk) = (kp.public(), kp.private());
        for _ in 0..10 {
            let a = random_below(&mut rng, pk.n_s());
            let b = random_below(&mut rng, pk.n_s());
            let ca = pk.encrypt(&a, &mut rng);
            let cb = pk.encrypt(&b, &mut rng);
            let sum = pk.add(&ca, &cb);
            assert_eq!(sk.decrypt(&sum), a.mod_add(&b, pk.n_s()));
        }
    }

    #[test]
    fn add_plain_matches_add_encrypted() {
        let (kp, mut rng) = setup(101);
        let (pk, sk) = (kp.public(), kp.private());
        let a = BigUint::from(1000u64);
        let k = BigUint::from(234u64);
        let ca = pk.encrypt(&a, &mut rng);
        assert_eq!(sk.decrypt(&pk.add_plain(&ca, &k)), BigUint::from(1234u64));
    }

    #[test]
    fn scalar_multiplication() {
        let (kp, mut rng) = setup(102);
        let (pk, sk) = (kp.public(), kp.private());
        let a = BigUint::from(37u64);
        let ca = pk.encrypt(&a, &mut rng);
        let c3a = pk.scalar_mul(&ca, &BigUint::from(3u64));
        assert_eq!(sk.decrypt(&c3a), BigUint::from(111u64));
    }

    #[test]
    fn scalar_mul_pow2_matches_shift() {
        let (kp, mut rng) = setup(103);
        let (pk, sk) = (kp.public(), kp.private());
        let a = BigUint::from(5u64);
        let ca = pk.encrypt(&a, &mut rng);
        for j in [0u32, 1, 7, 20] {
            let c = pk.scalar_mul_pow2(&ca, j);
            assert_eq!(sk.decrypt(&c), BigUint::from(5u64) << j as usize, "j={j}");
        }
    }

    #[test]
    fn negation_and_subtraction() {
        let (kp, mut rng) = setup(104);
        let (pk, sk) = (kp.public(), kp.private());
        let a = BigUint::from(100u64);
        let b = BigUint::from(58u64);
        let ca = pk.encrypt(&a, &mut rng);
        let cb = pk.encrypt(&b, &mut rng);
        assert_eq!(sk.decrypt(&pk.sub(&ca, &cb)), BigUint::from(42u64));
        // a - b where b > a wraps mod n^s:
        let wrapped = sk.decrypt(&pk.sub(&cb, &ca));
        assert_eq!(wrapped, pk.n_s().sub_u64(42));
    }

    #[test]
    fn rerandomize_preserves_plaintext_changes_ciphertext() {
        let (kp, mut rng) = setup(105);
        let (pk, sk) = (kp.public(), kp.private());
        let a = BigUint::from(777u64);
        let c = pk.encrypt(&a, &mut rng);
        let c2 = pk.rerandomize(&c, &mut rng);
        assert_ne!(c, c2);
        assert_eq!(sk.decrypt(&c2), a);
    }

    #[test]
    fn trivial_zero_decrypts_to_zero_and_is_additive_identity() {
        let (kp, mut rng) = setup(106);
        let (pk, sk) = (kp.public(), kp.private());
        let z = pk.trivial_zero();
        assert!(sk.decrypt(&z).is_zero());
        let a = BigUint::from(9u64);
        let ca = pk.encrypt(&a, &mut rng);
        assert_eq!(sk.decrypt(&pk.add(&ca, &z)), a);
    }

    #[test]
    fn long_homomorphic_sum_chain() {
        // Sum 50 encrypted values — the shape of a gossip aggregation.
        let (kp, mut rng) = setup(107);
        let (pk, sk) = (kp.public(), kp.private());
        let mut acc = pk.trivial_zero();
        let mut expect = 0u64;
        for i in 1..=50u64 {
            let c = pk.encrypt(&BigUint::from(i), &mut rng);
            acc = pk.add(&acc, &c);
            expect += i;
        }
        assert_eq!(sk.decrypt(&acc), BigUint::from(expect));
    }
}
