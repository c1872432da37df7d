//! Key material: generation, public keys with precomputed caches, private
//! keys.

use crate::CryptoError;
use cs_bigint::gcd::crt_pair;
use cs_bigint::prime::{gen_prime, gen_safe_prime};
use cs_bigint::{BigUint, MontgomeryCtx};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Parameters controlling key generation.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct KeyGenOptions {
    /// Bit length of the RSA modulus `n` (primes are `modulus_bits / 2`).
    pub modulus_bits: usize,
    /// Damgård-Jurik degree `s >= 1`; the plaintext space is `Z_{n^s}`.
    pub s: u32,
    /// Use safe primes (`p = 2p'+1`). Strengthens the threshold variant's
    /// security argument but slows generation; functionally optional (see
    /// DESIGN.md §3.2).
    pub safe_primes: bool,
}

impl KeyGenOptions {
    /// Production-leaning defaults: 2048-bit modulus, `s = 1`, safe primes.
    pub fn secure_default() -> Self {
        KeyGenOptions {
            modulus_bits: 2048,
            s: 1,
            safe_primes: true,
        }
    }

    /// Small parameters for tests: **cryptographically insecure** (256-bit
    /// modulus) but byte-for-byte the same code paths.
    pub fn insecure_test_size() -> Self {
        KeyGenOptions {
            modulus_bits: 256,
            s: 1,
            safe_primes: false,
        }
    }

    /// Test-size parameters with a custom degree `s`.
    pub fn insecure_test_size_s(s: u32) -> Self {
        KeyGenOptions {
            s,
            ..Self::insecure_test_size()
        }
    }
}

/// Damgård-Jurik public key with precomputed moduli and Montgomery context.
#[derive(Clone, Debug)]
pub struct PublicKey {
    n: BigUint,
    s: u32,
    n_s: BigUint,
    n_s1: BigUint,
    half_n_s: BigUint,
    mont: MontgomeryCtx,
}

impl PublicKey {
    /// Rebuilds a public key (and its caches) from the wire form `(n, s)`.
    pub fn from_parts(n: BigUint, s: u32) -> Self {
        assert!(s >= 1, "Damgård-Jurik degree must be >= 1");
        let mut n_s = n.clone();
        for _ in 1..s {
            n_s = &n_s * &n;
        }
        let n_s1 = &n_s * &n;
        let half_n_s = n_s.half();
        let mont = MontgomeryCtx::new(&n_s1);
        PublicKey {
            n,
            s,
            n_s,
            n_s1,
            half_n_s,
            mont,
        }
    }

    /// The RSA modulus `n`.
    pub fn n(&self) -> &BigUint {
        &self.n
    }

    /// The degree `s`.
    pub fn s(&self) -> u32 {
        self.s
    }

    /// The plaintext modulus `n^s`.
    pub fn n_s(&self) -> &BigUint {
        &self.n_s
    }

    /// `n^s / 2`, the signed-encoding pivot.
    pub fn half_n_s(&self) -> &BigUint {
        &self.half_n_s
    }

    /// The ciphertext modulus `n^(s+1)`.
    pub fn n_s1(&self) -> &BigUint {
        &self.n_s1
    }

    /// Montgomery context for the ciphertext modulus (shared by every
    /// homomorphic operation).
    pub(crate) fn mont(&self) -> &MontgomeryCtx {
        &self.mont
    }

    /// Size of one serialized ciphertext in bytes.
    pub fn ciphertext_bytes(&self) -> usize {
        self.n_s1.byte_len()
    }

    /// Validates a plaintext against the message space.
    pub fn check_plaintext(&self, m: &BigUint) -> Result<(), CryptoError> {
        if *m >= self.n_s {
            Err(CryptoError::PlaintextOutOfRange)
        } else {
            Ok(())
        }
    }
}

impl PartialEq for PublicKey {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.s == other.s
    }
}

impl Eq for PublicKey {}

impl Serialize for PublicKey {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        (&self.n, self.s).serialize(serializer)
    }
}

impl<'de> Deserialize<'de> for PublicKey {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        use serde::de::Error as _;
        let (n, s): (BigUint, u32) = Deserialize::deserialize(deserializer)?;
        // Reject wire garbage before the cache build: `from_parts` (and the
        // Montgomery context underneath) require an odd modulus > 1, and the
        // degree must be >= 1.
        if s < 1 {
            return Err(D::Error::custom("Damgård-Jurik degree must be >= 1"));
        }
        if !n.is_odd() || n.is_one() || n.is_zero() {
            return Err(D::Error::custom("RSA modulus must be odd and > 1"));
        }
        Ok(PublicKey::from_parts(n, s))
    }
}

/// CRT exponentiation context for a factored Damgård-Jurik modulus.
///
/// Holding one is **equivalent to knowing the factorization of `n`** —
/// whoever has it can decrypt unilaterally. So only a [`PrivateKey`] holds
/// one, and it never leaves the process: no key share carries one, whether
/// dealt in process or read from the wire, and every partial decryption is
/// one full-width exponentiation (a member with the factorisation could
/// decrypt alone).
///
/// **Scope note.** This matches the repository's honest-but-curious,
/// trusted-dealer model (see `fastenc` for the analogous trade on the
/// encryption side): the dealer knows everything by construction. A
/// deployment with a distributed key generation ceremony must not
/// construct these.
///
/// The speedup: exponentiation mod `n^(s+1)` splits into one chain mod
/// `p^(s+1)` and one mod `q^(s+1)` — half-width moduli quarter the cost of
/// each Montgomery multiplication — and the exponents reduce mod the unit
/// group orders `p^s(p−1)` / `q^s(q−1)`, roughly halving their length.
/// Garner's formula stitches the halves back together.
#[derive(Clone, Debug)]
pub struct CrtContext {
    /// `p^(s+1)` Montgomery context.
    mont_p: MontgomeryCtx,
    /// `q^(s+1)` Montgomery context.
    mont_q: MontgomeryCtx,
    /// `|Z*_{p^(s+1)}| = p^s(p−1)`: exponents reduce mod this on the p side.
    order_p: BigUint,
    /// `|Z*_{q^(s+1)}| = q^s(q−1)`.
    order_q: BigUint,
    /// `p^(s+1)`.
    p_s1: BigUint,
    /// `q^(s+1)`.
    q_s1: BigUint,
    /// `(q^(s+1))^{-1} mod p^(s+1)` — Garner's recombination coefficient.
    q_s1_inv: BigUint,
}

impl CrtContext {
    /// Builds the per-prime-power contexts for modulus `p·q` at degree `s`.
    pub(crate) fn new(p: &BigUint, q: &BigUint, s: u32) -> Self {
        let pow_s1 = |x: &BigUint| {
            let mut acc = x.clone();
            for _ in 0..s {
                acc = &acc * x;
            }
            acc
        };
        let p_s1 = pow_s1(p);
        let q_s1 = pow_s1(q);
        let order_p = &(&p_s1 / p) * &p.sub_u64(1);
        let order_q = &(&q_s1 / q) * &q.sub_u64(1);
        let mont_p = MontgomeryCtx::new(&p_s1);
        let mont_q = MontgomeryCtx::new(&q_s1);
        let q_s1_inv = (&q_s1 % &p_s1)
            .mod_inverse(&p_s1)
            .expect("distinct primes: q^(s+1) is a unit mod p^(s+1)");
        CrtContext {
            mont_p,
            mont_q,
            order_p,
            order_q,
            p_s1,
            q_s1,
            q_s1_inv,
        }
    }

    /// Reduces an exponent to its per-prime-power residues, for callers
    /// that exponentiate with the same exponent many times (the private
    /// key's `d`).
    pub(crate) fn reduce_exp(&self, exp: &BigUint) -> (BigUint, BigUint) {
        (exp % &self.order_p, exp % &self.order_q)
    }

    /// `base^exp mod n^(s+1)` for a **unit** base (every well-formed
    /// ciphertext is one), with the exponent already reduced per side by
    /// [`Self::reduce_exp`].
    pub(crate) fn pow_mod_reduced(
        &self,
        base: &BigUint,
        exp_p: &BigUint,
        exp_q: &BigUint,
    ) -> BigUint {
        let xp = self.mont_p.pow_mod(base, exp_p);
        let xq = self.mont_q.pow_mod(base, exp_q);
        // Garner: x = x_q + q^(s+1) · ((x_p − x_q)·(q^(s+1))^{-1} mod p^(s+1)).
        let xq_mod_p = &xq % &self.p_s1;
        let diff = if xp >= xq_mod_p {
            &xp - &xq_mod_p
        } else {
            &(&self.p_s1 - &xq_mod_p) + &xp
        };
        let h = self.mont_p.mul_mod(&diff, &self.q_s1_inv);
        &xq + &(&self.q_s1 * &h)
    }
}

/// Private key: the decryption exponent `d` with `d ≡ 1 (mod n^s)` and
/// `d ≡ 0 (mod λ(n))`.
#[derive(Clone, Debug)]
pub struct PrivateKey {
    pub(crate) d: BigUint,
    pub(crate) lambda: BigUint,
    /// CRT fast path: per-prime-power contexts plus `d` reduced per side.
    /// Always present for locally generated keys; never serialized.
    crt: Option<CrtContext>,
    pub(crate) d_p: BigUint,
    pub(crate) d_q: BigUint,
    pk: PublicKey,
}

impl PrivateKey {
    /// The associated public key.
    pub fn public(&self) -> &PublicKey {
        &self.pk
    }

    /// Carmichael's `λ(n) = lcm(p-1, q-1)`. Exposed for the threshold dealer.
    pub(crate) fn lambda(&self) -> &BigUint {
        &self.lambda
    }

    /// The decryption exponent (crate-internal; used by the threshold dealer).
    pub(crate) fn d(&self) -> &BigUint {
        &self.d
    }

    /// The CRT context (a test oracle for the shares' full-width path).
    #[cfg(test)]
    pub(crate) fn crt(&self) -> Option<&CrtContext> {
        self.crt.as_ref()
    }

    /// `c^d mod n^(s+1)` — through the CRT fast path when available.
    pub(crate) fn pow_d(&self, c: &BigUint) -> BigUint {
        match &self.crt {
            Some(crt) => crt.pow_mod_reduced(c, &self.d_p, &self.d_q),
            None => self.pk.mont().pow_mod(c, &self.d),
        }
    }

    /// Whether this key carries the CRT acceleration hint.
    pub fn has_crt(&self) -> bool {
        self.crt.is_some()
    }

    /// A copy of this key without the CRT hint — the differential oracle
    /// (decryption then takes exactly the pre-CRT full-width path).
    pub fn without_crt(&self) -> PrivateKey {
        PrivateKey {
            crt: None,
            ..self.clone()
        }
    }
}

/// A freshly generated key pair.
#[derive(Clone, Debug)]
pub struct KeyPair {
    public: PublicKey,
    private: PrivateKey,
}

impl KeyPair {
    /// Generates a key pair.
    ///
    /// Primes are `modulus_bits/2` each with the top two bits forced, so `n`
    /// has exactly `modulus_bits` bits.
    pub fn generate<R: Rng + ?Sized>(opts: &KeyGenOptions, rng: &mut R) -> KeyPair {
        assert!(opts.modulus_bits >= 16, "modulus too small");
        assert!(opts.s >= 1, "degree must be >= 1");
        let half = opts.modulus_bits / 2;
        loop {
            let (p, q) = if opts.safe_primes {
                (gen_safe_prime(half, rng), gen_safe_prime(half, rng))
            } else {
                (gen_prime(half, rng), gen_prime(half, rng))
            };
            if p == q {
                continue;
            }
            let n = &p * &q;
            if n.bit_len() != opts.modulus_bits {
                continue;
            }
            let lambda = p.sub_u64(1).lcm(&q.sub_u64(1));
            let public = PublicKey::from_parts(n, opts.s);
            // d ≡ 1 (mod n^s), d ≡ 0 (mod λ). n^s and λ are coprime for
            // balanced primes (see DESIGN.md §3.2), so CRT always succeeds.
            let d = crt_pair(&BigUint::one(), public.n_s(), &BigUint::zero(), &lambda)
                .expect("n^s and lambda are coprime for balanced primes");
            let crt = CrtContext::new(&p, &q, opts.s);
            let (d_p, d_q) = crt.reduce_exp(&d);
            let private = PrivateKey {
                d,
                lambda,
                crt: Some(crt),
                d_p,
                d_q,
                pk: public.clone(),
            };
            return KeyPair { public, private };
        }
    }

    /// The public half.
    pub fn public(&self) -> &PublicKey {
        &self.public
    }

    /// The private half.
    pub fn private(&self) -> &PrivateKey {
        &self.private
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The modulus of a 2048-bit key on a fixed seed, and of a 256-bit key
    /// of safe primes: the values key generation gave before its trial
    /// division ran on machine words, digit for digit.
    #[test]
    fn generated_moduli_are_pinned() {
        let n = |bits, safe_primes, seed| {
            let opts = KeyGenOptions {
                modulus_bits: bits,
                s: 1,
                safe_primes,
            };
            let kp = KeyPair::generate(&opts, &mut StdRng::seed_from_u64(seed));
            format!("{:x}", kp.public().n())
        };
        let n_2048 = [
            "d71dc20af910020d1f878c318d5e367b6d617f69391051d9c9d7389bff4ea42d",
            "57693f4de493cfbb5a864e0204ce9e26ad93ffacc5ba14debe08cf5e5ed52e90",
            "913984b887323c541493399ac4540dadfe173384b285784be5c8cea3ebe7abca",
            "4cd55b9919441008cd6b181a00ed35aa97c8b505981420ed6b91e4bc60a53339",
            "81ac6b8d3290ef8183b8bf0040672ef9263ff7aa1c2974877d3132036aa5c716",
            "01c97d91d26dcc4d4302d6dc4500aa0cd65ad03c73bd20aa0fe7e4bb5725162d",
            "a3c2dc606f74d84b2ae2c0785ee168ec0e4d139eb2c41381824e6bf7154f74f0",
            "68334a22b2c219024a9bec3c2deb640f36ab69aa2ee1f5b212e1bfe65f55a3bb",
        ];
        assert_eq!(n(2048, false, 7), n_2048.concat());
        assert_eq!(
            n(256, true, 3),
            "b6caeb670c5a85e4d9bad44c002422cfe1dcb53a105ba41cb339d2de44734921"
        );
    }

    #[test]
    fn keygen_produces_requested_modulus_size() {
        let mut rng = StdRng::seed_from_u64(1);
        let kp = KeyPair::generate(&KeyGenOptions::insecure_test_size(), &mut rng);
        assert_eq!(kp.public().n().bit_len(), 256);
        assert_eq!(kp.public().s(), 1);
        assert_eq!(kp.public().n_s(), kp.public().n());
        assert_eq!(*kp.public().n_s1(), kp.public().n().square());
    }

    #[test]
    fn d_satisfies_crt_conditions() {
        let mut rng = StdRng::seed_from_u64(2);
        let kp = KeyPair::generate(&KeyGenOptions::insecure_test_size(), &mut rng);
        let d = &kp.private().d;
        assert!((d % kp.public().n_s()).is_one());
        assert!((d % kp.private().lambda()).is_zero());
    }

    #[test]
    fn degree_two_moduli() {
        let mut rng = StdRng::seed_from_u64(3);
        let kp = KeyPair::generate(&KeyGenOptions::insecure_test_size_s(2), &mut rng);
        let n = kp.public().n();
        assert_eq!(*kp.public().n_s(), n.square());
        assert_eq!(*kp.public().n_s1(), &n.square() * n);
    }

    #[test]
    fn public_key_serde_roundtrip() {
        let mut rng = StdRng::seed_from_u64(4);
        let kp = KeyPair::generate(&KeyGenOptions::insecure_test_size(), &mut rng);
        let json = serde_json::to_string(kp.public()).unwrap();
        let back: PublicKey = serde_json::from_str(&json).unwrap();
        assert_eq!(&back, kp.public());
        assert_eq!(back.n_s1(), kp.public().n_s1(), "caches rebuilt");
    }

    #[test]
    fn plaintext_range_check() {
        let mut rng = StdRng::seed_from_u64(5);
        let kp = KeyPair::generate(&KeyGenOptions::insecure_test_size(), &mut rng);
        assert!(kp.public().check_plaintext(&BigUint::zero()).is_ok());
        assert!(kp
            .public()
            .check_plaintext(&kp.public().n_s().sub_u64(1))
            .is_ok());
        assert_eq!(
            kp.public().check_plaintext(kp.public().n_s()),
            Err(CryptoError::PlaintextOutOfRange)
        );
    }
}
