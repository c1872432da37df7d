//! Threshold decryption across the crypto + gossip stack: gossip-aggregated
//! ciphertexts must decrypt collaboratively to the same values a trusted
//! decryptor would see — with fewer-than-threshold shares revealing nothing.

use cs_bigint::BigUint;
use cs_crypto::{FastEncryptor, FixedPointCodec, KeyGenOptions, ThresholdKeyPair, ThresholdParams};
use cs_gossip::homomorphic_pushsum::HePushSumNode;
use cs_gossip::{FailureModel, Network, Overlay};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn setup(t: usize, l: usize, seed: u64) -> (ThresholdKeyPair, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let tkp = ThresholdKeyPair::generate(
        &KeyGenOptions::insecure_test_size(),
        ThresholdParams {
            threshold: t,
            parties: l,
        },
        &mut rng,
    )
    .unwrap();
    (tkp, rng)
}

#[test]
fn gossip_aggregate_threshold_decrypts_to_ratio_estimate() {
    let (tkp, mut rng) = setup(3, 6, 1);
    let pk = Arc::new(tkp.public().clone());
    let codec = FixedPointCodec::new(20);

    // 10 nodes hold [value, 1.0] — sum-and-count shape.
    let n = 10;
    let nodes: Vec<HePushSumNode> = (0..n)
        .map(|i| {
            HePushSumNode::from_values(
                pk.clone(),
                &codec,
                &[(i as f64) * 2.0, 1.0],
                1.0,
                false,
                &mut rng,
            )
        })
        .collect();
    let mut net = Network::new(nodes, Overlay::Full, FailureModel::none(), 2);
    net.run_cycles(20);

    // Decrypt node 0's estimate collaboratively.
    let node = &net.nodes()[0];
    let mut decoded = Vec::new();
    for ct in node.ciphertexts() {
        let partials: Vec<_> = tkp.shares()[..3]
            .iter()
            .map(|sh| sh.partial_decrypt(ct))
            .collect();
        let raw = tkp.combine(&partials).unwrap();
        decoded.push(codec.decode(&raw, tkp.public().n_s(), node.denominator_exp()));
    }
    let ratio = decoded[0] / decoded[1];
    // True mean of 0,2,4,…,18 = 9.
    assert!((ratio - 9.0).abs() < 0.05, "ratio {ratio}");
}

#[test]
fn threshold_matches_trusted_decryptor_on_gossiped_ciphertext() {
    let (tkp, mut rng) = setup(2, 4, 3);
    let pk = Arc::new(tkp.public().clone());
    let codec = FixedPointCodec::new(16);
    let enc = Arc::new(FastEncryptor::new(pk.clone(), &mut rng));
    let nodes: Vec<HePushSumNode> = (0..6)
        .map(|i| {
            HePushSumNode::from_values(pk.clone(), &codec, &[i as f64 - 2.5], 1.0, true, &mut rng)
                .with_encryptor(enc.clone())
        })
        .collect();
    let mut net = Network::new(nodes, Overlay::Full, FailureModel::none(), 4);
    net.run_cycles(15);

    for node in net.nodes() {
        let ct = &node.ciphertexts()[0];
        let partials: Vec<_> = tkp.shares()[1..3]
            .iter()
            .map(|sh| sh.partial_decrypt(ct))
            .collect();
        let threshold_raw = tkp.combine(&partials).unwrap();
        let trusted_raw = tkp.as_keypair().private().decrypt(ct);
        assert_eq!(threshold_raw, trusted_raw);
    }
}

#[test]
fn share_values_are_not_the_secret() {
    // Sanity on the secrecy structure: no single share equals the secret
    // exponent, and a single partial decryption does not decode to the
    // plaintext.
    let (tkp, mut rng) = setup(3, 5, 5);
    let pk = tkp.public();
    let m = BigUint::from(123456u64);
    let ct = pk.encrypt(&m, &mut rng);
    for share in tkp.shares() {
        let partial = share.partial_decrypt(&ct);
        // Feeding a single partial through the combiner must fail (below
        // threshold)…
        assert!(tkp.combine(std::slice::from_ref(&partial)).is_err());
    }
}

#[test]
fn combination_rejects_mixed_ciphertext_partials() {
    // Partials computed over *different* ciphertexts combine into garbage,
    // never silently into either plaintext (integrity sanity check).
    let (tkp, mut rng) = setup(2, 3, 6);
    let pk = tkp.public();
    let m1 = BigUint::from(1111u64);
    let m2 = BigUint::from(2222u64);
    let c1 = pk.encrypt(&m1, &mut rng);
    let c2 = pk.encrypt(&m2, &mut rng);
    let p1 = tkp.shares()[0].partial_decrypt(&c1);
    let p2 = tkp.shares()[1].partial_decrypt(&c2);
    let mixed = tkp.combine(&[p1, p2]).unwrap();
    assert_ne!(mixed, m1);
    assert_ne!(mixed, m2);
}

#[test]
fn committee_subsets_agree_through_rerandomized_gossip() {
    let (tkp, mut rng) = setup(3, 7, 7);
    let pk = Arc::new(tkp.public().clone());
    let codec = FixedPointCodec::new(12);
    let enc = Arc::new(FastEncryptor::new(pk.clone(), &mut rng));
    let nodes: Vec<HePushSumNode> = (0..5)
        .map(|i| {
            HePushSumNode::from_values(pk.clone(), &codec, &[i as f64], 1.0, true, &mut rng)
                .with_encryptor(enc.clone())
        })
        .collect();
    let mut net = Network::new(nodes, Overlay::Full, FailureModel::none(), 8);
    net.run_cycles(12);

    let ct = &net.nodes()[2].ciphertexts()[0];
    let all: Vec<_> = tkp
        .shares()
        .iter()
        .map(|sh| sh.partial_decrypt(ct))
        .collect();
    let a = tkp
        .combine(&[all[0].clone(), all[3].clone(), all[6].clone()])
        .unwrap();
    let b = tkp
        .combine(&[all[1].clone(), all[2].clone(), all[4].clone()])
        .unwrap();
    assert_eq!(a, b, "any committee subset must decrypt identically");
}
