//! Fast encryption: fixed-base randomizers and a reusable randomness pool.
//!
//! The dominant cost of `Enc(m) = (1+n)^m · r^(n^s) mod n^(s+1)` is the
//! randomizer `r^(n^s)` — a full modular exponentiation per ciphertext
//! (`(1+n)^m` is nearly free thanks to the binomial shortcut, which is
//! itself why no window table is kept for the `(1+n)` generator: the
//! closed form beats any precomputation). [`FastEncryptor`] removes the
//! per-ciphertext exponentiation with the short-randomness variant of
//! Damgård, Jurik and Nielsen (*A generalization of Paillier's public-key
//! system with applications to electronic voting*, Int. J. Inf. Secur. 9,
//! 2010, §4.2):
//!
//! 1. pick one random unit `x ∈ Z*_n` at setup, set `h = −x² mod n`, and
//!    pay a single generic exponentiation for `H = h^(n^s) mod n^(s+1)`;
//! 2. build a [`FixedBaseExp`] comb table for `H` with 8 teeth;
//! 3. a fresh randomizer is `H^t` for `t` uniform in `[0, 2^⌈|n|/2⌉)` —
//!    with the table that is one Montgomery multiplication per non-zero
//!    8-bit digit of `t` (at most `⌈|n|/16⌉`) plus `rows − 1` squarings,
//!    and it equals `r^(n^s)` for `r = h^t`.
//!
//! The exponent length is derived from the key and nothing else: half the
//! bits of `n`, so half the products and half the table of a full-length
//! exponent. The comb's row count follows from the table's size in turn
//! (one row — the plain window table, no squarings — at a 256-bit key, 8 at
//! 2048 bits): a device keeps at most ≈ 2 MiB resident, where the one-row
//! table of a 2048-bit key is 16 MiB, and the hot loop multiplies out of a
//! table the cache holds (135 operations at 2048 bits against the one-row
//! table's 128, and still the shorter exponentiation).
//!
//! [`RandomizerPool`] adds batch amortization on top: refill off the hot
//! path, pop on it. No host builds one: a refill moves exponentiations into
//! time the rest of the step waits for rather than saving them
//! (`docs/architecture.md`, "No host precomputes randomizers").
//!
//! **Scope note** (honest-but-curious model, as in the paper): `H^t` is
//! always an `n^s`-th power, so correctness and the additive homomorphism
//! hold for every key. *Hiding* is computational, not statistical: `h^t`
//! for a half-length `t` is indistinguishable from a uniform element of
//! `⟨h⟩` under the assumption the construction's authors state, for keys
//! with `p ≡ q ≡ 3 (mod 4)` and `gcd(p−1, q−1) = 2` — which safe-prime
//! keys ([`crate::KeyGenOptions::secure_default`]) satisfy and
//! `safe_primes: false` test and benchmark keys in general do not.
//! `docs/architecture.md` ("Half-length randomizers") carries the
//! statement and its preconditions. Randomizers range over the `n^s`-th
//! powers of `⟨h⟩` — the Jacobi-symbol-1 half of the units for such keys —
//! rather than of all of `Z*_n`; deployments needing full-entropy
//! randomizers can keep [`crate::PublicKey::encrypt`] on cold paths.

use crate::{Ciphertext, PublicKey};
use cs_bigint::rng::{random_below_pow2, random_unit};
use cs_bigint::{BigUint, FixedBaseExp};
use rand::Rng;
use std::sync::Arc;

/// Precomputed fast-encryption state for one public key.
#[derive(Clone, Debug)]
pub struct FastEncryptor {
    pk: Arc<PublicKey>,
    /// Fixed-base table for `H = h^(n^s) mod n^(s+1)`.
    h_ns: FixedBaseExp,
    /// Bit length of the random exponent `t`: `⌈|n|/2⌉`.
    exp_bits: usize,
}

impl FastEncryptor {
    /// Builds the fixed-base table for `pk` (one generic exponentiation +
    /// the comb-table fill; amortized after a handful of encryptions).
    pub fn new<R: Rng + ?Sized>(pk: Arc<PublicKey>, rng: &mut R) -> Self {
        let n = pk.n();
        let x = random_unit(rng, n);
        // x is a unit, so x² mod n is non-zero and h lands in [1, n).
        let h = n - &(&x.square() % n);
        let h_ns_val = pk.mont().pow_mod(&h, pk.n_s());
        let exp_bits = n.bit_len().div_ceil(2);
        // 8 teeth: the table serves every encryption and re-randomization
        // of a run (thousands per gossip step), so the build cost over the
        // default 4-bit table amortizes immediately and each randomizer
        // drops to ⌈bits/8⌉ multiplications — half the 4-bit count.
        let h_ns = FixedBaseExp::with_window(pk.mont(), &h_ns_val, exp_bits, 8);
        FastEncryptor { pk, h_ns, exp_bits }
    }

    /// Bit length of the random exponent `t`: `⌈|n|/2⌉`.
    pub fn exp_bits(&self) -> usize {
        self.exp_bits
    }

    /// The fixed-base table for `H = h^(n^s) mod n^(s+1)` (its
    /// [`FixedBaseExp::max_exp_bits`] covers [`Self::exp_bits`]; its
    /// [`FixedBaseExp::table_bytes`] is what a device keeps resident).
    pub fn table(&self) -> &FixedBaseExp {
        &self.h_ns
    }

    /// A fresh randomizer `r^(n^s) mod n^(s+1)` (for `r = h^t`).
    pub fn randomizer<R: Rng + ?Sized>(&self, rng: &mut R) -> BigUint {
        let t = random_below_pow2(rng, self.exp_bits);
        self.h_ns.pow_mod(&t)
    }

    /// Encrypts `m ∈ [0, n^s)` using a fixed-base randomizer.
    ///
    /// Panics if `m >= n^s` (mirrors [`PublicKey::encrypt`]); use
    /// [`PublicKey::check_plaintext`] for untrusted inputs.
    pub fn encrypt<R: Rng + ?Sized>(&self, m: &BigUint, rng: &mut R) -> Ciphertext {
        let blind = self.randomizer(rng);
        assert!(m < self.pk.n_s(), "plaintext out of range");
        let g_m = self.pk.one_plus_n_pow(m);
        Ciphertext::from_biguint(self.pk.mont().mul_mod(&g_m, &blind))
    }

    /// Re-randomizes a ciphertext with a fixed-base randomizer: same
    /// plaintext, fresh blinding — the forwarding hot path of the gossip
    /// layer.
    pub fn rerandomize<R: Rng + ?Sized>(&self, c: &Ciphertext, rng: &mut R) -> Ciphertext {
        Ciphertext::from_biguint(
            self.pk
                .mont()
                .mul_mod(c.as_biguint(), &self.randomizer(rng)),
        )
    }
}

/// A pool of precomputed randomizers: refill in bulk off the hot path, pop
/// per forward re-randomization. Falls back to fresh fixed-base generation
/// when empty — exactly [`FastEncryptor::randomizer`] from the caller's RNG,
/// so an empty pool re-randomizes like [`FastEncryptor::rerandomize`] — and
/// never blocks.
#[derive(Clone, Debug)]
pub struct RandomizerPool {
    enc: Arc<FastEncryptor>,
    pool: Vec<BigUint>,
}

impl RandomizerPool {
    /// Creates an empty pool over `enc`.
    pub fn new(enc: Arc<FastEncryptor>) -> Self {
        RandomizerPool {
            enc,
            pool: Vec::new(),
        }
    }

    /// Precomputes `count` additional randomizers.
    pub fn refill<R: Rng + ?Sized>(&mut self, count: usize, rng: &mut R) {
        self.pool.reserve(count);
        for _ in 0..count {
            self.pool.push(self.enc.randomizer(rng));
        }
    }

    /// Randomizers currently pooled.
    pub fn len(&self) -> usize {
        self.pool.len()
    }

    /// `true` when no randomizer is pooled.
    pub fn is_empty(&self) -> bool {
        self.pool.is_empty()
    }

    /// Pops a pooled randomizer, or generates one if the pool ran dry.
    pub fn next<R: Rng + ?Sized>(&mut self, rng: &mut R) -> BigUint {
        self.pool.pop().unwrap_or_else(|| self.enc.randomizer(rng))
    }

    /// Re-randomizes a ciphertext with a pooled randomizer — the gossip
    /// forwarding hot path. Falls back to fresh fixed-base generation
    /// (drawing from `rng`) when the pool ran dry, like [`Self::next`].
    pub fn rerandomize<R: Rng + ?Sized>(&mut self, c: &Ciphertext, rng: &mut R) -> Ciphertext {
        let blind = self.next(rng);
        Ciphertext::from_biguint(self.enc.pk.mont().mul_mod(c.as_biguint(), &blind))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{KeyGenOptions, KeyPair};
    use cs_bigint::rng::random_below;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn setup(seed: u64) -> (KeyPair, Arc<FastEncryptor>, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let kp = KeyPair::generate(&KeyGenOptions::insecure_test_size(), &mut rng);
        let enc = Arc::new(FastEncryptor::new(Arc::new(kp.public().clone()), &mut rng));
        (kp, enc, rng)
    }

    #[test]
    fn fast_encrypt_decrypts_like_plain_encrypt() {
        let (kp, enc, mut rng) = setup(1);
        for _ in 0..10 {
            let m = random_below(&mut rng, kp.public().n_s());
            let c = enc.encrypt(&m, &mut rng);
            assert_eq!(kp.private().decrypt(&c), m);
        }
    }

    #[test]
    fn fast_ciphertexts_are_probabilistic_and_homomorphic() {
        let (kp, enc, mut rng) = setup(2);
        let m = BigUint::from(21u64);
        let c1 = enc.encrypt(&m, &mut rng);
        let c2 = enc.encrypt(&m, &mut rng);
        assert_ne!(c1, c2);
        let sum = kp.public().add(&c1, &c2);
        assert_eq!(kp.private().decrypt(&sum), BigUint::from(42u64));
    }

    #[test]
    fn fast_rerandomize_preserves_plaintext() {
        let (kp, enc, mut rng) = setup(3);
        let m = BigUint::from(777u64);
        let c = kp.public().encrypt(&m, &mut rng);
        let c2 = enc.rerandomize(&c, &mut rng);
        assert_ne!(c, c2);
        assert_eq!(kp.private().decrypt(&c2), m);
    }

    #[test]
    fn randomizer_is_an_encryption_of_zero() {
        let (kp, enc, mut rng) = setup(4);
        let r = enc.randomizer(&mut rng);
        assert!(kp.private().decrypt(&Ciphertext::from_biguint(r)).is_zero());
    }

    #[test]
    fn pool_refills_pops_and_falls_back() {
        let (kp, enc, mut rng) = setup(5);
        let mut pool = RandomizerPool::new(enc);
        assert!(pool.is_empty());
        pool.refill(3, &mut rng);
        assert_eq!(pool.len(), 3);
        for _ in 0..5 {
            // Two of these five randomizers exercise the dry-pool fallback.
            let r = pool.next(&mut rng);
            assert!(kp.private().decrypt(&Ciphertext::from_biguint(r)).is_zero());
        }
        assert!(pool.is_empty());
    }

    #[test]
    fn an_empty_pool_rerandomizes_like_the_encryptor() {
        let (kp, enc, mut rng) = setup(8);
        let c = kp.public().encrypt(&BigUint::from(55u64), &mut rng);
        let mut pooled_rng = StdRng::seed_from_u64(81);
        let mut direct_rng = StdRng::seed_from_u64(81);
        let mut pool = RandomizerPool::new(enc.clone());
        let pooled = pool.rerandomize(&c, &mut pooled_rng);
        let direct = enc.rerandomize(&c, &mut direct_rng);
        assert_eq!(pooled, direct);
        assert_eq!(pooled_rng.next_u64(), direct_rng.next_u64());
    }

    #[test]
    fn pooled_rerandomize_preserves_plaintext_and_falls_back() {
        let (kp, enc, mut rng) = setup(7);
        let mut pool = RandomizerPool::new(enc);
        pool.refill(2, &mut rng);
        let m = BigUint::from(31u64);
        let c = kp.public().encrypt(&m, &mut rng);
        for _ in 0..4 {
            // Two pooled, two dry-fallback re-randomizations.
            let c2 = pool.rerandomize(&c, &mut rng);
            assert_ne!(c, c2);
            assert_eq!(kp.private().decrypt(&c2), m);
        }
    }

    #[test]
    fn oversized_plaintext_panics_like_plain_encrypt() {
        let (kp, enc, mut rng) = setup(6);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            enc.encrypt(kp.public().n_s(), &mut rng)
        }));
        assert!(result.is_err());
    }
}
