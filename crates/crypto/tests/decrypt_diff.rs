//! Differential test suite for the decryption fast paths.
//!
//! PR "crypto hot path round two" rebuilt the entire decryption side on
//! fast paths — CRT-split exponentiation for private decryption and
//! partial-decryption shares, Straus multi-exponentiation behind cached
//! per-committee plans ([`CombinePlanCache`]) for share combination — and every one of
//! them keeps its slow predecessor in-tree as a differential oracle. This
//! suite pins the equivalences down under randomized inputs:
//!
//! * CRT decryption ≡ generic decryption, bit for bit;
//! * CRT partial decryption ≡ generic partial decryption, bit for bit;
//! * plan-based (multi-exp, batched-inverse) combination ≡ the naive
//!   per-share `pow_mod` combination, for every committee subset —
//!   including the subsets whose Lagrange coefficients go negative;
//! * the fast and naive paths reject malformed subsets (duplicates, out of
//!   range, too few shares) with the *same* typed errors.
//!
//! [`CombinePlanCache`]: cs_crypto::threshold::CombinePlanCache

use cs_bigint::rng::random_below;
use cs_bigint::BigUint;
use cs_crypto::threshold::{combine_partials_naive, CombinePlanCache};
use cs_crypto::{KeyGenOptions, ThresholdKeyPair, ThresholdParams};
use proptest::collection::vec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::OnceLock;

/// One 2-of-3 threshold key pair for the whole suite (keygen dominates).
fn tkp() -> &'static ThresholdKeyPair {
    static KEY: OnceLock<ThresholdKeyPair> = OnceLock::new();
    KEY.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0xC0FF_EE00);
        ThresholdKeyPair::generate(
            &KeyGenOptions::insecure_test_size(),
            ThresholdParams {
                threshold: 2,
                parties: 3,
            },
            &mut rng,
        )
        .expect("valid threshold params")
    })
}

/// A wider committee where more Lagrange numerators change sign: 3-of-5.
fn tkp_wide() -> &'static ThresholdKeyPair {
    static KEY: OnceLock<ThresholdKeyPair> = OnceLock::new();
    KEY.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0xC0FF_EE05);
        ThresholdKeyPair::generate(
            &KeyGenOptions::insecure_test_size(),
            ThresholdParams {
                threshold: 3,
                parties: 5,
            },
            &mut rng,
        )
        .expect("valid threshold params")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// CRT-split private decryption agrees with the generic single-modulus
    /// path on random plaintexts.
    #[test]
    fn crt_decrypt_equals_generic_decrypt(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let kp_rng = &mut StdRng::seed_from_u64(seed ^ 0xDEC0);
        let kp = cs_crypto::KeyPair::generate(&KeyGenOptions::insecure_test_size(), kp_rng);
        let m = random_below(&mut rng, kp.public().n_s());
        let c = kp.public().encrypt(&m, &mut rng);
        prop_assert!(kp.private().has_crt());
        prop_assert_eq!(kp.private().decrypt(&c), kp.private().decrypt_slow(&c));
        prop_assert_eq!(kp.private().without_crt().decrypt(&c), m);
    }

    /// CRT-split partial decryption produces bit-identical shares to the
    /// generic exponentiation, for every committee member.
    #[test]
    fn crt_partial_decrypt_equals_generic(seed in any::<u64>()) {
        let t = tkp();
        let mut rng = StdRng::seed_from_u64(seed);
        let m = random_below(&mut rng, t.public().n_s());
        let c = t.public().encrypt(&m, &mut rng);
        for share in t.shares() {
            prop_assert!(share.has_crt_hint());
            let fast = share.partial_decrypt(&c);
            let slow = share.partial_decrypt_slow(&c);
            let stripped = share.without_crt().partial_decrypt(&c);
            prop_assert_eq!(&fast, &slow);
            prop_assert_eq!(&fast, &stripped);
        }
    }

    /// Plan-based combination (Straus multi-exp + batched inversion) agrees
    /// with the naive per-share path for every subset and arrival order of
    /// a 3-of-5 committee — the sign pattern of the integer Lagrange
    /// coefficients varies across these subsets, so both the numerator and
    /// the inverted-denominator accumulators are exercised.
    #[test]
    fn plan_combine_equals_naive_combine(
        seed in any::<u64>(),
        subset_seed in any::<u64>(),
    ) {
        let t = tkp_wide();
        let params = t.params();
        let delta = t.delta().clone();
        let mut rng = StdRng::seed_from_u64(seed);
        let m = random_below(&mut rng, t.public().n_s());
        let c = t.public().encrypt(&m, &mut rng);

        // A random 3-subset in a random arrival order.
        let mut order: Vec<usize> = (0..params.parties).collect();
        let mut subset_rng = StdRng::seed_from_u64(subset_seed);
        for i in (1..order.len()).rev() {
            let j = (random_below(&mut subset_rng, &BigUint::from((i + 1) as u64)))
                .to_u64()
                .unwrap_or(0) as usize;
            order.swap(i, j);
        }
        let subset: Vec<_> = order[..params.threshold]
            .iter()
            .map(|&i| t.shares()[i].partial_decrypt(&c))
            .collect();

        let naive = combine_partials_naive(t.public(), params, &delta, &subset).unwrap();
        let cache = CombinePlanCache::new();
        let one = cache.combine(t.public(), params, &delta, &subset).unwrap();
        prop_assert_eq!(&one, &naive);
        prop_assert_eq!(&one, &m);

        // The cached plan's batch form reproduces the same result.
        let batch = cache
            .combine_batch(t.public(), params, &delta, &[subset.clone(), subset])
            .unwrap();
        prop_assert_eq!(&batch[0], &naive);
        prop_assert_eq!(&batch[1], &naive);
    }

    /// Batched combination over many ciphertexts (one shared Lagrange-
    /// denominator inversion, Montgomery's trick) decrypts each aggregate
    /// to the same plaintext as the one-shot path.
    #[test]
    fn combine_batch_equals_per_ciphertext_combine(
        plaintexts in vec(0u64..1u64 << 48, 1..6),
        seed in any::<u64>(),
    ) {
        let t = tkp();
        let params = t.params();
        let delta = t.delta().clone();
        let mut rng = StdRng::seed_from_u64(seed);
        let cts: Vec<_> = plaintexts
            .iter()
            .map(|&m| t.public().encrypt(&BigUint::from(m), &mut rng))
            .collect();
        let groups: Vec<Vec<_>> = cts
            .iter()
            .map(|c| vec![
                t.shares()[2].partial_decrypt(c),
                t.shares()[0].partial_decrypt(c),
            ])
            .collect();
        let cache = CombinePlanCache::new();
        let batch = cache
            .combine_batch(t.public(), params, &delta, &groups)
            .unwrap();
        for (raw, (group, &m)) in batch.iter().zip(groups.iter().zip(&plaintexts)) {
            prop_assert_eq!(raw, &combine_partials_naive(t.public(), params, &delta, group).unwrap());
            prop_assert_eq!(raw, &BigUint::from(m));
        }
    }

    /// Malformed subsets fail identically on the fast and naive paths: a
    /// duplicated share index is rejected, not silently mis-weighted.
    #[test]
    fn index_rejection_parity_under_random_duplicates(
        dup in 0usize..3,
        seed in any::<u64>(),
    ) {
        let t = tkp();
        let params = t.params();
        let delta = t.delta().clone();
        let mut rng = StdRng::seed_from_u64(seed);
        let c = t.public().encrypt(&BigUint::from(7u64), &mut rng);
        let p = t.shares()[dup].partial_decrypt(&c);
        let subset = vec![p.clone(), p];
        let naive = combine_partials_naive(t.public(), params, &delta, &subset).unwrap_err();
        let fast = CombinePlanCache::new().combine(t.public(), params, &delta, &subset).unwrap_err();
        prop_assert_eq!(format!("{naive:?}"), format!("{fast:?}"));
    }
}

/// Too few shares: the same typed error from both paths.
#[test]
fn short_subsets_are_rejected_everywhere() {
    let t = tkp();
    let params = t.params();
    let delta = t.delta().clone();
    let mut rng = StdRng::seed_from_u64(3);
    let c = t.public().encrypt(&BigUint::from(9u64), &mut rng);
    let subset = vec![t.shares()[1].partial_decrypt(&c)];
    let naive = combine_partials_naive(t.public(), params, &delta, &subset).unwrap_err();
    let fast = CombinePlanCache::new()
        .combine(t.public(), params, &delta, &subset)
        .unwrap_err();
    assert_eq!(format!("{naive:?}"), format!("{fast:?}"));
}

/// The same equivalences at a 1024-bit key: the CRT sides `p²`, `q²` are 16
/// limbs and `n²` is 32, so every exponentiation runs on the slice-based
/// Montgomery engine instead of the ≤ 8-limb kernels the 256-bit suite
/// above exercises. One key, a few ciphertexts, every committee pair.
#[test]
fn wide_key_fast_paths_equal_their_oracles() {
    let mut rng = StdRng::seed_from_u64(0xC0FF_EE10);
    let opts = KeyGenOptions {
        modulus_bits: 1024,
        s: 1,
        safe_primes: false,
    };
    let params = ThresholdParams {
        threshold: 2,
        parties: 3,
    };
    let t = ThresholdKeyPair::generate(&opts, params, &mut rng).expect("valid threshold params");
    assert_eq!(t.public().n_s1().limb_len(), 32);
    let delta = t.delta().clone();
    let cache = CombinePlanCache::new();
    for _ in 0..3 {
        let m = random_below(&mut rng, t.public().n_s());
        let c = t.public().encrypt(&m, &mut rng);
        let partials: Vec<_> = t
            .shares()
            .iter()
            .map(|share| {
                assert!(share.has_crt_hint());
                let fast = share.partial_decrypt(&c);
                assert_eq!(fast, share.partial_decrypt_slow(&c));
                assert_eq!(fast, share.without_crt().partial_decrypt(&c));
                fast
            })
            .collect();
        for (i, j) in [(0, 1), (2, 0), (1, 2)] {
            let subset = vec![partials[i].clone(), partials[j].clone()];
            let naive = combine_partials_naive(t.public(), params, &delta, &subset).unwrap();
            assert_eq!(naive, m);
            assert_eq!(
                CombinePlanCache::new()
                    .combine(t.public(), params, &delta, &subset)
                    .unwrap(),
                naive
            );
            assert_eq!(
                cache.combine(t.public(), params, &delta, &subset).unwrap(),
                naive
            );
        }
    }
}
