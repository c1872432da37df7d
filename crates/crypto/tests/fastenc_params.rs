//! Parameter derivation of the half-length randomizer construction.
//!
//! [`FastEncryptor`] draws its fixed-base exponent from `⌈|n|/2⌉` bits
//! (Damgård–Jurik–Nielsen; `docs/architecture.md`, "Half-length
//! randomizers"). Every parameter is a function of the key alone, and this
//! suite pins each one at the key sizes the repository runs — 256 bits
//! (tests, most csbench workloads), 1024 and 2048 (the wide-key rows,
//! `sharded_packed_2048b`): the exponent length, that the comb table
//! covers it, how many rows the comb folds the table into, the table's base
//! `H = (−x²)^(n^s)` for a unit `x`, and that what comes out is a
//! randomizer — an encryption of zero, different every time.

use cs_bigint::prime::gen_prime;
use cs_bigint::rng::random_unit;
use cs_bigint::{BigUint, MontgomeryCtx};
use cs_crypto::{Ciphertext, FastEncryptor, KeyGenOptions, KeyPair, PublicKey};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Builds the encryptor for `pk` and checks everything that can be checked
/// from the public key alone.
fn derive_and_check(pk: &PublicKey, rng: &mut StdRng) -> FastEncryptor {
    // The constructor's first draw is the unit `x`; replaying it from a
    // copy of the generator recovers `x` without the encryptor storing it.
    let mut replay = rng.clone();
    let enc = FastEncryptor::new(Arc::new(pk.clone()), rng);
    let n = pk.n();

    assert_eq!(enc.exp_bits(), n.bit_len().div_ceil(2));
    let table = enc.table();
    assert_eq!(table.window_bits(), 8);
    // The comb's rows follow from the size of the one-row table — one
    // 255-entry window per exponent byte — and nothing else: that size over
    // 2 MiB, rounded up. An entry is one residue of the Montgomery engine
    // the key's `n^(s+1)` runs on.
    let entry_bytes = table.entry_bytes();
    let one_row_bytes = enc.exp_bits().div_ceil(8) * 255 * entry_bytes;
    assert_eq!(table.rows(), one_row_bytes.div_ceil(2 << 20));
    // Covered, and by no more than the one partly used column: an exponent
    // never takes `FixedBaseExp::pow_mod`'s generic fallback, and the table
    // holds nothing a half-length exponent cannot reach.
    assert!(table.max_exp_bits() >= enc.exp_bits());
    assert!(table.max_exp_bits() < enc.exp_bits() + 8 * table.rows());
    let entries = enc.exp_bits().div_ceil(8 * table.rows()) * 255;
    assert_eq!(table.table_bytes(), entries * entry_bytes);

    let x = random_unit(&mut replay, n);
    assert!(x.gcd(n).is_one());
    let h = n - &(&x.square() % n);
    let big_h = MontgomeryCtx::new(pk.n_s1()).pow_mod(&h, pk.n_s());
    assert_eq!(
        table.pow_mod(&BigUint::one()),
        big_h,
        "the table's base is not (-x^2)^(n^s)"
    );
    enc
}

fn key(bits: usize, s: u32, rng: &mut StdRng) -> KeyPair {
    let opts = KeyGenOptions {
        modulus_bits: bits,
        s,
        safe_primes: false,
    };
    KeyPair::generate(&opts, rng)
}

fn randomizers_decrypt_to_zero(kp: &KeyPair, enc: &FastEncryptor, count: usize, rng: &mut StdRng) {
    for _ in 0..count {
        let r = Ciphertext::from_biguint(enc.randomizer(rng));
        assert!(kp.private().decrypt(&r).is_zero());
    }
}

#[test]
fn parameters_follow_from_the_key_at_256_1024_and_2048_bits() {
    let mut rng = StdRng::seed_from_u64(0xD1_5EED);
    // What the derivation comes to, as `(rows, bytes)` on the scalar engine
    // and on the IFMA engine: one row at 256 bits on both (the plain window
    // table, 255 KiB; `n²` is 8 limbs, below the IFMA engine's width), two
    // at 1024 bits and eight at 2048 on the scalar engine — 2 088 960 B
    // resident where the one-row table was 16 711 680 — and three and ten
    // on the IFMA engine, whose 40- and 80-word residues are 25 % wider.
    for (bits, scalar, ifma, draws) in [
        (256usize, (1usize, 261_120usize), (1, 261_120), 64usize),
        (1024, (2, 2_088_960), (3, 1_795_200), 8),
        (2048, (8, 2_088_960), (10, 2_121_600), 4),
    ] {
        let kp = key(bits, 1, &mut rng);
        assert_eq!(kp.public().n().bit_len(), bits);
        let enc = derive_and_check(kp.public(), &mut rng);
        assert_eq!(enc.exp_bits(), bits / 2);
        let engine = MontgomeryCtx::new(kp.public().n_s1()).engine();
        let (rows, table_bytes) = if engine == "ifma" { ifma } else { scalar };
        assert_eq!(enc.table().rows(), rows, "{bits}-bit key, {engine} engine");
        assert_eq!(enc.table().table_bytes(), table_bytes);
        randomizers_decrypt_to_zero(&kp, &enc, draws, &mut rng);
    }
}

/// The exponent length follows `|n|`, not the plaintext modulus `n^s`, and
/// rounds up.
#[test]
fn exponent_length_ignores_the_degree_and_rounds_up() {
    let mut rng = StdRng::seed_from_u64(0xD1_5EEE);
    let kp = key(256, 2, &mut rng);
    let enc = derive_and_check(kp.public(), &mut rng);
    assert_eq!(enc.exp_bits(), 128);
    randomizers_decrypt_to_zero(&kp, &enc, 16, &mut rng);

    // Key generation only yields even lengths; an odd-length modulus pins
    // the ceiling.
    let n = loop {
        let n = &gen_prime(64, &mut rng) * &gen_prime(63, &mut rng);
        if n.bit_len() == 127 {
            break n;
        }
    };
    let enc = derive_and_check(&PublicKey::from_parts(n, 1), &mut rng);
    assert_eq!(enc.exp_bits(), 64);
}

#[test]
fn ten_thousand_randomizers_at_256_bits_are_pairwise_distinct() {
    let mut rng = StdRng::seed_from_u64(0xD1_5EEF);
    let kp = key(256, 1, &mut rng);
    let enc = FastEncryptor::new(Arc::new(kp.public().clone()), &mut rng);
    let mut drawn: Vec<BigUint> = (0..10_000).map(|_| enc.randomizer(&mut rng)).collect();
    drawn.sort();
    assert!(drawn.windows(2).all(|w| w[0] != w[1]));
}
