//! Differential test suite for the packed crypto fast path.
//!
//! The packed pipeline (pack → encrypt → homomorphic aggregation →
//! threshold-decrypt → unpack) must agree **exactly**, on the fixed-point
//! integer grid, with the per-bucket unpacked pipeline running the same
//! aggregation — for random bucket counts, populations, denominator
//! schedules, and signed values. Both pipelines compute the same integer
//! `Σ_i c_i · (x_i + y_i)` per bucket (`c_i = 2^(K − k_i)` the push-sum
//! alignment coefficients, `y_i` a noise share folded onto the data in
//! cleartext before packing, as the protocol does), so every lane holds one
//! biased vector per contribution — `bias_count = 1`, the only count the
//! headroom rule budgets for — and the comparison is `assert_eq!` on
//! `i128`, not an epsilon.
//!
//! Lane-carry saturation is a *typed* failure: boundary tests pin down that
//! packing a too-large value returns [`CryptoError::LaneOverflow`] and that
//! an aggregate whose carry multiplier exceeds the planned headroom returns
//! [`CryptoError::LaneHeadroomExceeded`] — never silently wrapped lanes.

use cs_bigint::BigUint;
use cs_crypto::{
    CryptoError, FastEncryptor, FixedPointCodec, KeyGenOptions, PackedCodec, RandomizerPool,
    ThresholdKeyPair, ThresholdParams,
};
use proptest::collection::vec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, OnceLock};

/// One threshold key pair for the whole suite (keygen dominates wall-clock).
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

fn fast_enc() -> Arc<FastEncryptor> {
    static ENC: OnceLock<Arc<FastEncryptor>> = OnceLock::new();
    ENC.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0xFA57);
        Arc::new(FastEncryptor::new(
            Arc::new(tkp().public().clone()),
            &mut rng,
        ))
    })
    .clone()
}

/// Threshold-decrypts one ciphertext with shares 0 and 2.
fn threshold_decrypt(c: &cs_crypto::Ciphertext) -> BigUint {
    let t = tkp();
    let partials = vec![
        t.shares()[0].partial_decrypt(c),
        t.shares()[2].partial_decrypt(c),
    ];
    t.combine(&partials).expect("enough shares")
}

/// The aggregation schedule both pipelines replay: per participant, a
/// coefficient `2^(max_k − k_i)` (push-sum denominator alignment) applied
/// homomorphically before summation.
struct Schedule {
    /// Per-participant denominator exponents `k_i ≤ max_k`.
    ks: Vec<u32>,
    max_k: u32,
}

impl Schedule {
    fn new(ks: Vec<u32>) -> Self {
        let max_k = ks.iter().copied().max().unwrap_or(0);
        Schedule { ks, max_k }
    }

    /// The cleartext push-sum weight `Σ 2^−k_i` of the aggregate.
    fn weight(&self) -> f64 {
        self.ks.iter().map(|&k| (-(k as f64)).exp2()).sum()
    }
}

/// One participant's contribution: its data with its noise share folded
/// in, bucket by bucket.
fn contribution(data: &[f64], noise: &[f64]) -> Vec<f64> {
    data.iter().zip(noise).map(|(d, n)| d + n).collect()
}

/// Runs the packed pipeline: pack each participant's contribution, encrypt
/// with the fixed-base encryptor, align + sum homomorphically,
/// threshold-decrypt, unpack. Returns per-bucket integers.
fn packed_pipeline(
    codec: &PackedCodec,
    data: &[Vec<f64>],
    noise: &[Vec<f64>],
    sched: &Schedule,
    rng: &mut StdRng,
) -> Result<Vec<i128>, CryptoError> {
    let pk = tkp().public();
    let enc = fast_enc();
    let buckets = data[0].len();
    let mut acc = vec![pk.trivial_zero(); codec.ciphertexts_for(buckets)];
    for (i, (d, n)) in data.iter().zip(noise).enumerate() {
        let shift = sched.max_k - sched.ks[i];
        for (j, pt) in codec.pack(&contribution(d, n))?.iter().enumerate() {
            let c = pk.scalar_mul_pow2(&enc.encrypt(pt, rng), shift);
            acc[j] = pk.add(&acc[j], &c);
        }
    }
    let raws: Vec<BigUint> = acc.iter().map(threshold_decrypt).collect();
    codec.unpack_integers(&raws, buckets, sched.max_k, sched.weight(), 1)
}

/// Runs the reference unpacked pipeline bucket by bucket with the plain
/// encryptor and the signed fixed-point residue codec.
fn unpacked_pipeline(
    fp: &FixedPointCodec,
    data: &[Vec<f64>],
    noise: &[Vec<f64>],
    sched: &Schedule,
    rng: &mut StdRng,
) -> Vec<i128> {
    let pk = tkp().public();
    let n_s = pk.n_s();
    let buckets = data[0].len();
    let mut out = Vec::with_capacity(buckets);
    for b in 0..buckets {
        let mut acc = pk.trivial_zero();
        for (i, (d, n)) in data.iter().zip(noise).enumerate() {
            let shift = sched.max_k - sched.ks[i];
            let v = contribution(d, n)[b];
            let m = fp.encode(v, n_s).expect("value fits the residue space");
            let c = pk.scalar_mul_pow2(&pk.encrypt(&m, rng), shift);
            acc = pk.add(&acc, &c);
        }
        let raw = threshold_decrypt(&acc);
        out.push(
            fp.decode_integer(&raw, n_s)
                .expect("aggregate fits the integer grid"),
        );
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The headline differential property: packed ≡ unpacked, exactly, on
    /// the fixed-point grid — random bucket counts, populations,
    /// denominator schedules, and signed (incl. negative) values.
    #[test]
    fn packed_equals_unpacked_pipeline(
        buckets in 1usize..10,
        population in 2usize..5,
        ks in vec(0u32..4, 2..5),
        seed in any::<u64>(),
        magnitudes in vec(-40.0f64..40.0, 1..10),
    ) {
        let population = population.min(ks.len());
        let sched = Schedule::new(ks[..population].to_vec());
        let fp = FixedPointCodec::new(8);
        let codec = PackedCodec::plan(fp, 64.0, population, 8, tkp().public().n_s().bit_len()).unwrap();

        // Signed data and noise vectors, recycled from the sampled pool.
        let value = |i: usize, b: usize, flip: f64| -> f64 {
            let v = magnitudes[(i * 7 + b) % magnitudes.len()];
            if (i + b).is_multiple_of(2) { v * flip } else { -v * flip }
        };
        let data: Vec<Vec<f64>> = (0..population)
            .map(|i| (0..buckets).map(|b| value(i, b, 1.0)).collect())
            .collect();
        let noise: Vec<Vec<f64>> = (0..population)
            .map(|i| (0..buckets).map(|b| value(i, b, 0.25)).collect())
            .collect();

        let mut rng_a = StdRng::seed_from_u64(seed);
        let mut rng_b = StdRng::seed_from_u64(seed ^ 0x5EED);
        let packed = packed_pipeline(&codec, &data, &noise, &sched, &mut rng_a).unwrap();
        let unpacked = unpacked_pipeline(&fp, &data, &noise, &sched, &mut rng_b);
        prop_assert_eq!(packed, unpacked);
    }

    /// Re-randomization (the forwarding hot path) must be invisible to the
    /// differential: fixed-base re-randomized ciphertexts decrypt and
    /// unpack to the same integers.
    #[test]
    fn rerandomization_is_transparent_to_unpacking(
        buckets in 1usize..8,
        seed in any::<u64>(),
    ) {
        let fp = FixedPointCodec::new(8);
        let codec = PackedCodec::plan(fp, 64.0, 4, 8, tkp().public().n_s().bit_len()).unwrap();
        let enc = fast_enc();
        let values: Vec<f64> = (0..buckets).map(|b| b as f64 * 1.5 - 3.0).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let cts: Vec<_> = codec
            .pack(&values)
            .unwrap()
            .iter()
            .map(|m| enc.encrypt(m, &mut rng))
            .collect();
        let rerand: Vec<_> = cts.iter().map(|c| enc.rerandomize(c, &mut rng)).collect();
        for (a, b) in cts.iter().zip(&rerand) {
            prop_assert!(a != b, "re-randomization must change the ciphertext");
        }
        let raws: Vec<BigUint> = rerand.iter().map(threshold_decrypt).collect();
        let ints = codec.unpack_integers(&raws, buckets, 0, 1.0, 1).unwrap();
        let expect: Vec<i128> = values
            .iter()
            .map(|v| (v * fp.scale()).round() as i128)
            .collect();
        prop_assert_eq!(ints, expect);
    }
}

// ---------------------------------------------------------------------------
// Boundary cases at lane-carry saturation: typed errors, no silent wrap.
// ---------------------------------------------------------------------------

/// A deliberately tight codec: tiny headroom, tiny value range.
fn tight_codec() -> PackedCodec {
    PackedCodec::from_parts(FixedPointCodec::new(0), 6, 3, 4).unwrap()
}

#[test]
fn pack_at_exact_lane_capacity_roundtrips() {
    let c = tight_codec();
    let cap = c.value_capacity() as f64; // bias − 1 on an integer grid
    let pts = c.pack(&[cap, -(c.bias() as f64)]).unwrap();
    let ints = c.unpack_integers(&pts, 2, 0, 1.0, 1).unwrap();
    assert_eq!(ints, vec![cap as i128, -c.bias()]);
}

#[test]
fn pack_one_past_capacity_is_lane_overflow() {
    let c = tight_codec();
    let too_big = c.value_capacity() as f64 + 1.0;
    assert_eq!(
        c.pack(&[too_big]).unwrap_err(),
        CryptoError::LaneOverflow { slot: 0 }
    );
    let too_small = -(c.bias() as f64) - 1.0;
    assert_eq!(
        c.pack(&[0.0, 0.0, too_small]).unwrap_err(),
        CryptoError::LaneOverflow { slot: 2 }
    );
}

#[test]
fn aggregate_beyond_headroom_is_typed_not_wrapped() {
    // headroom 3 bits → carry budget 2^3 = 8. A carry multiplier of 8 with
    // bias_count 1 is the exact boundary (allowed); 16 exceeds it.
    let c = tight_codec();
    let pts = c.pack(&[1.0]).unwrap();
    assert!(
        c.unpack_integers(&pts, 1, 3, 1.0, 1).is_ok(),
        "2^3 at budget"
    );
    assert_eq!(
        c.unpack_integers(&pts, 1, 4, 1.0, 1).unwrap_err(),
        CryptoError::LaneHeadroomExceeded
    );
}

#[test]
fn homomorphic_saturation_is_caught_by_the_headroom_check() {
    // Sum 16 weight-1 encryptions of the same packed vector through the
    // real homomorphic path — more mass than the 3-bit headroom admits.
    // The unpack must refuse with the typed error instead of returning
    // neighbour-corrupted lanes.
    let c = tight_codec();
    let pk = tkp().public();
    let enc = fast_enc();
    let mut rng = StdRng::seed_from_u64(77);
    let pts = c.pack(&[3.0, -2.0]).unwrap();
    let mut acc = vec![pk.trivial_zero(); pts.len()];
    for _ in 0..16 {
        for (a, m) in acc.iter_mut().zip(&pts) {
            *a = pk.add(a, &enc.encrypt(m, &mut rng));
        }
    }
    let raws: Vec<BigUint> = acc.iter().map(threshold_decrypt).collect();
    assert_eq!(
        c.unpack_integers(&raws, 2, 0, 16.0, 1).unwrap_err(),
        CryptoError::LaneHeadroomExceeded
    );
}

#[test]
fn weight_zero_aggregate_is_rejected() {
    let c = tight_codec();
    let pts = c.pack(&[1.0]).unwrap();
    assert!(matches!(
        c.unpack_integers(&pts, 1, 0, 0.0, 1).unwrap_err(),
        CryptoError::InvalidParameters(_)
    ));
}

/// The encryption fast paths at a 1024-bit key (32-limb `n²`: fixed-base
/// table, pool and CRT decryption all on the slice-based Montgomery
/// engine): ciphertexts from [`FastEncryptor`] and [`RandomizerPool`],
/// fresh or re-randomized, decrypt like [`PublicKey::encrypt`] ones.
///
/// [`PublicKey::encrypt`]: cs_crypto::PublicKey::encrypt
#[test]
fn wide_key_fast_ciphertexts_decrypt_like_plain_ones() {
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
    let decrypt = |c: &cs_crypto::Ciphertext| {
        let partials = vec![
            t.shares()[2].partial_decrypt(c),
            t.shares()[1].partial_decrypt(c),
        ];
        t.combine(&partials).expect("enough shares")
    };
    let enc = Arc::new(FastEncryptor::new(Arc::new(t.public().clone()), &mut rng));
    // One pooled randomizer per plaintext: `encrypt` pops it, `rerandomize`
    // then takes the run-dry fallback.
    let mut pool = RandomizerPool::new(enc.clone());
    let codec = PackedCodec::plan(
        FixedPointCodec::new(8),
        64.0,
        4,
        8,
        t.public().n_s().bit_len(),
    )
    .unwrap();
    let values = [1.5, -2.25, 40.0, -39.5, 0.0];
    for m in codec.pack(&values).unwrap() {
        pool.refill(1, &mut rng);
        let plain = t.public().encrypt(&m, &mut rng);
        let fast = enc.encrypt(&m, &mut rng);
        let pooled = pool.encrypt(&m, &mut rng);
        let rerandomized = enc.rerandomize(&plain, &mut rng);
        let pool_rerandomized = pool.rerandomize(&fast, &mut rng);
        assert!(rerandomized != plain && pool_rerandomized != fast);
        for c in [&plain, &fast, &pooled, &rerandomized, &pool_rerandomized] {
            assert_eq!(decrypt(c), m);
        }
    }
}
