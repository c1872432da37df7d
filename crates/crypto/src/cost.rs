//! Measured per-operation crypto costs.
//!
//! The ICDE demo disables homomorphic operations during large simulations and
//! reports costs "based on actual average measures performed beforehand".
//! [`CryptoCostProfile::measure`] is that calibration pass: it times every
//! operation the protocol issues at the requested key size, on the path the
//! hosts run it. The engine only counts operations; a caller prices a run's
//! counts with a profile it measured (`chiaroscuro::cost::crypto_seconds`).

use crate::threshold::CombinePlanCache;
use crate::{FastEncryptor, KeyGenOptions, ThresholdKeyPair, ThresholdParams};
use cs_bigint::rng::random_below;
use cs_bigint::BigUint;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Instant;

/// Average wall-clock cost of each Damgård-Jurik operation, in microseconds.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CryptoCostProfile {
    /// Modulus size the profile was measured at.
    pub key_bits: usize,
    /// Damgård-Jurik degree.
    pub s: u32,
    /// Threshold used for the combine measurement.
    pub threshold: usize,
    /// Encryption of one plaintext.
    pub encrypt_us: f64,
    /// Homomorphic addition of two ciphertexts.
    pub add_us: f64,
    /// Scalar multiplication by a small power of two (push-sum rescale).
    pub scalar_pow2_us: f64,
    /// Re-randomization of one ciphertext.
    pub rerandomize_us: f64,
    /// One partial decryption, by a committee member's share as a member
    /// holds it: without the dealer's CRT hint, the full-width
    /// exponentiation a `csnoded` pays (`bench_crypto`'s
    /// `partial_decrypt_honest` row, not its hinted `partial_decrypt`).
    pub partial_decrypt_us: f64,
    /// Combination of `threshold` partial decryptions.
    pub combine_us: f64,
    /// Size of one serialized ciphertext in bytes.
    pub ciphertext_bytes: usize,
}

impl CryptoCostProfile {
    /// Measures a profile by running `reps` of each operation at the given
    /// parameters. Key generation, the fixed-base randomizer table and the
    /// first combine plan are one-time setup, and are excluded: encryption
    /// and re-randomization are timed through [`FastEncryptor`], combines
    /// through one [`CombinePlanCache`] reused across the reps.
    pub fn measure<R: Rng + ?Sized>(
        opts: &KeyGenOptions,
        threshold: ThresholdParams,
        reps: usize,
        rng: &mut R,
    ) -> CryptoCostProfile {
        assert!(reps >= 1);
        let tkp =
            ThresholdKeyPair::generate(opts, threshold, rng).expect("valid threshold parameters");
        let pk = tkp.public();
        let enc = FastEncryptor::new(Arc::new(pk.clone()), rng);

        let plaintexts: Vec<BigUint> = (0..reps).map(|_| random_below(rng, pk.n_s())).collect();

        let t0 = Instant::now();
        let cts: Vec<_> = plaintexts.iter().map(|m| enc.encrypt(m, rng)).collect();
        let encrypt_us = per_op_us(t0, reps);

        let t0 = Instant::now();
        for w in cts.windows(2) {
            let _ = pk.add(&w[0], &w[1]);
        }
        let add_us = per_op_us(t0, reps.saturating_sub(1).max(1));

        let t0 = Instant::now();
        for c in &cts {
            let _ = pk.scalar_mul_pow2(c, 16);
        }
        let scalar_pow2_us = per_op_us(t0, reps);

        let t0 = Instant::now();
        for c in &cts {
            let _ = enc.rerandomize(c, rng);
        }
        let rerandomize_us = per_op_us(t0, reps);

        // The dealer's share carries the factorisation hint; a member's,
        // deserialised from its bootstrap, does not.
        let share = tkp.shares()[0].without_crt();
        let t0 = Instant::now();
        for c in &cts {
            let _ = share.partial_decrypt(c);
        }
        let partial_decrypt_us = per_op_us(t0, reps);

        let c = &cts[0];
        let partials: Vec<_> = tkp.shares()[..threshold.threshold]
            .iter()
            .map(|sh| sh.partial_decrypt(c))
            .collect();
        let plans = CombinePlanCache::new();
        let combine = || {
            plans
                .combine(pk, tkp.params(), tkp.delta(), &partials)
                .expect("combine")
        };
        combine();
        let t0 = Instant::now();
        for _ in 0..reps {
            let _ = combine();
        }
        let combine_us = per_op_us(t0, reps);

        CryptoCostProfile {
            key_bits: opts.modulus_bits,
            s: opts.s,
            threshold: threshold.threshold,
            encrypt_us,
            add_us,
            scalar_pow2_us,
            rerandomize_us,
            partial_decrypt_us,
            combine_us,
            ciphertext_bytes: pk.ciphertext_bytes(),
        }
    }
}

fn per_op_us(start: Instant, ops: usize) -> f64 {
    start.elapsed().as_secs_f64() * 1e6 / ops as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn measured_profile_is_positive_and_ordered() {
        let mut rng = StdRng::seed_from_u64(300);
        let profile = CryptoCostProfile::measure(
            &KeyGenOptions::insecure_test_size(),
            ThresholdParams {
                threshold: 2,
                parties: 3,
            },
            3,
            &mut rng,
        );
        assert!(profile.encrypt_us > 0.0);
        assert!(profile.add_us > 0.0);
        assert!(
            profile.add_us < profile.encrypt_us,
            "one modular multiplication must beat a full encryption"
        );
        assert!(profile.ciphertext_bytes >= 64, "256-bit n ⇒ 512-bit n²");
    }

    #[test]
    fn profile_serde_roundtrip() {
        let mut rng = StdRng::seed_from_u64(301);
        let opts = KeyGenOptions::insecure_test_size();
        let t = ThresholdParams {
            threshold: 2,
            parties: 3,
        };
        let p = CryptoCostProfile::measure(&opts, t, 1, &mut rng);
        let json = serde_json::to_string(&p).unwrap();
        let back: CryptoCostProfile = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p);
    }
}
