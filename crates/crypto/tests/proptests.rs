//! Property-based tests for the Damgård-Jurik implementation.
//!
//! Key generation is expensive, so a single (insecure, test-sized) key pair
//! and threshold setup are shared across all cases via `OnceLock`.

use cs_bigint::BigUint;
use cs_crypto::{FastEncryptor, KeyGenOptions, KeyPair, ThresholdKeyPair, ThresholdParams};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, OnceLock};

fn keypair() -> &'static KeyPair {
    static KP: OnceLock<KeyPair> = OnceLock::new();
    KP.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0xC0FFEE);
        KeyPair::generate(&KeyGenOptions::insecure_test_size(), &mut rng)
    })
}

fn fast_enc() -> &'static FastEncryptor {
    static ENC: OnceLock<FastEncryptor> = OnceLock::new();
    ENC.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0xFA57);
        FastEncryptor::new(Arc::new(keypair().public().clone()), &mut rng)
    })
}

fn threshold() -> &'static ThresholdKeyPair {
    static TKP: OnceLock<ThresholdKeyPair> = OnceLock::new();
    TKP.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0xBEEF);
        ThresholdKeyPair::deal_from_keypair(
            keypair().clone(),
            ThresholdParams {
                threshold: 3,
                parties: 5,
            },
            &mut rng,
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn roundtrip_any_u128(m in any::<u128>(), seed in any::<u64>()) {
        let kp = keypair();
        let mut rng = StdRng::seed_from_u64(seed);
        let mb = BigUint::from(m);
        let c = kp.public().encrypt(&mb, &mut rng);
        prop_assert_eq!(kp.private().decrypt(&c), mb);
    }

    #[test]
    fn additive_homomorphism(a in any::<u64>(), b in any::<u64>(), seed in any::<u64>()) {
        let kp = keypair();
        let mut rng = StdRng::seed_from_u64(seed);
        let ca = kp.public().encrypt(&BigUint::from(a), &mut rng);
        let cb = kp.public().encrypt(&BigUint::from(b), &mut rng);
        let sum = kp.public().add(&ca, &cb);
        prop_assert_eq!(
            kp.private().decrypt(&sum),
            BigUint::from(a as u128 + b as u128)
        );
    }

    #[test]
    fn scalar_homomorphism(m in any::<u32>(), k in any::<u32>(), seed in any::<u64>()) {
        let kp = keypair();
        let mut rng = StdRng::seed_from_u64(seed);
        let c = kp.public().encrypt(&BigUint::from(m), &mut rng);
        let ck = kp.public().scalar_mul(&c, &BigUint::from(k));
        prop_assert_eq!(
            kp.private().decrypt(&ck),
            BigUint::from(m as u128 * k as u128)
        );
    }

    #[test]
    fn sub_then_add_is_identity(a in any::<u64>(), b in any::<u64>(), seed in any::<u64>()) {
        let kp = keypair();
        let mut rng = StdRng::seed_from_u64(seed);
        let ca = kp.public().encrypt(&BigUint::from(a), &mut rng);
        let cb = kp.public().encrypt(&BigUint::from(b), &mut rng);
        let back = kp.public().add(&kp.public().sub(&ca, &cb), &cb);
        prop_assert_eq!(kp.private().decrypt(&back), BigUint::from(a));
    }

    #[test]
    fn rerandomization_invariant(m in any::<u64>(), seed in any::<u64>(), hops in 1usize..6) {
        let kp = keypair();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut c = kp.public().encrypt(&BigUint::from(m), &mut rng);
        for _ in 0..hops {
            c = fast_enc().rerandomize(&c, &mut rng);
        }
        prop_assert_eq!(kp.private().decrypt(&c), BigUint::from(m));
    }

    #[test]
    fn threshold_any_three_of_five(m in any::<u64>(), seed in any::<u64>(),
                                   picks in proptest::sample::subsequence(vec![0usize,1,2,3,4], 3)) {
        let tkp = threshold();
        let mut rng = StdRng::seed_from_u64(seed);
        let mb = BigUint::from(m);
        let c = tkp.public().encrypt(&mb, &mut rng);
        let partials: Vec<_> = picks
            .iter()
            .map(|&i| tkp.shares()[i].partial_decrypt(&c))
            .collect();
        prop_assert_eq!(tkp.combine(&partials).unwrap(), mb);
    }

    #[test]
    fn pow2_rescaling_chain(m in 1u32..1000, j1 in 0u32..12, j2 in 0u32..12, seed in any::<u64>()) {
        // The homomorphic push-sum applies several pow2 rescalings; their
        // composition must match a single rescale by the sum.
        let kp = keypair();
        let mut rng = StdRng::seed_from_u64(seed);
        let c = kp.public().encrypt(&BigUint::from(m), &mut rng);
        let chained = kp.public().scalar_mul_pow2(&kp.public().scalar_mul_pow2(&c, j1), j2);
        let direct = kp.public().scalar_mul_pow2(&c, j1 + j2);
        prop_assert_eq!(
            kp.private().decrypt(&chained),
            kp.private().decrypt(&direct)
        );
    }

    #[test]
    fn ciphertext_serde_roundtrip(m in any::<u64>(), seed in any::<u64>()) {
        let kp = keypair();
        let mut rng = StdRng::seed_from_u64(seed);
        let c = kp.public().encrypt(&BigUint::from(m), &mut rng);
        let json = serde_json::to_string(&c).unwrap();
        let back: cs_crypto::Ciphertext = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(back, c);
    }

    #[test]
    fn public_key_serde_roundtrip_rebuilds_caches(_x in 0u8..4) {
        let pk = keypair().public();
        let json = serde_json::to_string(pk).unwrap();
        let back: cs_crypto::PublicKey = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(&back, pk);
        prop_assert_eq!(back.n_s1(), pk.n_s1());
        prop_assert_eq!(back.ciphertext_bytes(), pk.ciphertext_bytes());
    }

    #[test]
    fn key_share_serde_roundtrip_preserves_decryption(m in any::<u64>(), seed in any::<u64>(),
                                                      which in 0usize..5) {
        let tkp = threshold();
        let mut rng = StdRng::seed_from_u64(seed);
        let c = tkp.public().encrypt(&BigUint::from(m), &mut rng);
        let share = &tkp.shares()[which];
        let json = serde_json::to_string(share).unwrap();
        let back: cs_crypto::KeyShare = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(&back, share);
        // A rehydrated share must produce byte-identical partial decryptions.
        prop_assert_eq!(back.partial_decrypt(&c), share.partial_decrypt(&c));
    }

    #[test]
    fn partial_decryption_serde_roundtrip(m in any::<u64>(), seed in any::<u64>(),
                                          which in 0usize..5) {
        let tkp = threshold();
        let mut rng = StdRng::seed_from_u64(seed);
        let c = tkp.public().encrypt(&BigUint::from(m), &mut rng);
        let p = tkp.shares()[which].partial_decrypt(&c);
        let json = serde_json::to_string(&p).unwrap();
        let back: cs_crypto::PartialDecryption = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(&back, &p);
        prop_assert_eq!(back.index(), p.index());
        prop_assert_eq!(back.value(), p.value());
    }

    #[test]
    fn corrupt_key_share_json_rejected(garbage in any::<u64>()) {
        // Structurally broken documents must error, never panic: a bare
        // string where the (index, value, exponent, pk) tuple belongs, and a
        // zero share index.
        prop_assert!(serde_json::from_str::<cs_crypto::KeyShare>(&format!("\"g{garbage}\"")).is_err());
        let zero_index = r#"[0, [1], [2], [[1], 1]]"#;
        prop_assert!(serde_json::from_str::<cs_crypto::KeyShare>(zero_index).is_err());
    }

    #[test]
    fn fixed_point_roundtrip_through_encryption(v in -1e6f64..1e6, seed in any::<u64>()) {
        let kp = keypair();
        let codec = cs_crypto::FixedPointCodec::new(20);
        let mut rng = StdRng::seed_from_u64(seed);
        let n_s = kp.public().n_s();
        let enc = codec.encode(v, n_s).unwrap();
        let c = kp.public().encrypt(&enc, &mut rng);
        let dec = codec.decode(&kp.private().decrypt(&c), n_s, 0);
        prop_assert!((dec - v).abs() < 2.0 / codec.scale());
    }
}
