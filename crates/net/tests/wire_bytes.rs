//! Bytes on the wire to the digit. On an honest, loss-free sharded packed
//! step, every gossip and decryption byte the executor accounts is a closed
//! form in public inputs: per frame, its header plus its element count
//! times the key width `byte_len(n^(s+1))`. No ciphertext value enters the
//! sum — the element counts come from the nodes' reports (pushes sent, the
//! ciphertexts the leader's snapshot folded to), the width from the
//! key; a release is the layout's values, 8 bytes each.
//! A decryption frame names the key width; a push names none and travels
//! at its widest ciphertext's length, which is the key width unless every
//! ciphertext of that push is a byte short — so the gossip sum holds on
//! these steps, and would show it if one ever were.

use chiaroscuro::config::ChiaroscuroConfig;
use chiaroscuro::noise::SlotLayout;
use chiaroscuro::rounds::CryptoContext;
use chiaroscuro::CryptoMode;
use cs_crypto::KeyGenOptions;
use cs_net::{run_step_sharded, ShardedConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

const NODES: usize = 16;
const LAYOUT: SlotLayout = SlotLayout {
    k: 2,
    series_len: 5,
};

/// Length prefix, version, tag and a cleared trace flag.
const HEADER: u64 = 4 + 1 + 1 + 1;
/// A block's `count u32 | width u16`, before its values.
const BLOCK: u64 = 4 + 2;

/// Runs one step under a fresh `modulus_bits` key and holds the executor's
/// per-class byte counts to the closed form.
fn bytes_are_a_closed_form(modulus_bits: usize, key_width: u64) {
    let keygen = KeyGenOptions {
        modulus_bits,
        ..KeyGenOptions::insecure_test_size()
    };
    let config = ChiaroscuroConfig {
        k: LAYOUT.k,
        gossip_cycles: 6,
        epsilon: 1e5,
        crypto: CryptoMode::Real { keygen },
        ..ChiaroscuroConfig::test_real()
    };
    let crypto = CryptoContext::from_config(&config, &mut StdRng::seed_from_u64(3)).unwrap();
    let CryptoContext::Real { pk, .. } = &crypto else {
        unreachable!("a real-crypto config deals a key");
    };
    assert_eq!(pk.n_s1().byte_len() as u64, key_width);
    let cipher = crypto.step_cipher(&config, &LAYOUT, NODES).unwrap();
    let ciphertexts = cipher
        .expect("a real-crypto step plans a cipher")
        .ciphertexts() as u64;
    let contributions: Vec<_> = (0..NODES)
        .map(|i| Some(vec![(i % 5) as f64 * 0.5; LAYOUT.total()]))
        .collect();
    let sharded = ShardedConfig {
        shards: 4,
        ..ShardedConfig::default()
    };
    let run = run_step_sharded(&config, &LAYOUT, &contributions, &crypto, 7, &sharded, &[]);
    let run = run.unwrap();
    assert!(run.outcome.estimates.iter().all(Option::is_some));
    assert_eq!(run.snapshot.dropped(), 0);

    // A push: iteration, denominator exponent, weight, bucket count, then
    // one block of the step's ciphertexts.
    let push = HEADER + 8 + 4 + 8 + 4 + BLOCK + ciphertexts * key_width;
    let pushes: u64 = run.reports.iter().map(|r| r.pushes_sent as u64).sum();
    assert!(pushes > 0);
    assert_eq!(run.snapshot.gossip.messages, pushes);
    assert_eq!(
        run.snapshot.gossip.bytes,
        pushes * push,
        "{modulus_bits}-bit key"
    );

    // The leader, member 0, asks `threshold − 1` other members for its
    // folded snapshot of `w` ciphertexts; each answers `w` partials under
    // its share index. Every other node asks one member for its release and
    // gets the layout's values back, 8 bytes each.
    let params = config.threshold;
    let release_request = HEADER + 8;
    let release = HEADER + 8 + 8 + 4 + 8 * LAYOUT.total() as u64;
    let (mut frames, mut bytes) = (0, 0);
    for report in &run.reports {
        if report.id != 0 {
            frames += 2;
            bytes += release_request + release;
            continue;
        }
        let w = report.decrypt_ops.combinations;
        let asked = (params.threshold - 1) as u64;
        let request = HEADER + 8 + BLOCK + w * key_width;
        let reply = HEADER + 8 + 8 + BLOCK + w * key_width;
        frames += 2 * asked;
        bytes += asked * (request + reply);
    }
    assert!(frames > 0);
    assert_eq!(run.snapshot.decrypt.messages, frames);
    assert_eq!(run.snapshot.decrypt.bytes, bytes, "{modulus_bits}-bit key");
}

#[test]
fn packed_bytes_are_header_plus_count_times_key_width_at_256_bits() {
    bytes_are_a_closed_form(256, 64);
}

#[test]
fn packed_bytes_are_header_plus_count_times_key_width_at_512_bits() {
    bytes_are_a_closed_form(512, 128);
}
