//! End-to-end run of the crypto fast path: a full engine iteration with
//! real Damgård-Jurik crypto and **packed** payloads over the `cs_net`
//! TCP loopback — including one node crashing mid-gossip — must match
//! the *unpacked* in-process simulator's centroids within tolerance. The
//! unpacked reference is the simulated-crypto engine, which carries one
//! plaintext value per slot and never touches a lane.
//!
//! This is the whole-stack differential: packing touches the bigint
//! exponentiation, the crypto codec, the gossip payloads, the wire format,
//! and the decryption round; if any lane leaks into a neighbour or a bias
//! term goes unaccounted, the centroids drift and this test fails.
//! (`tests/net_e2e.rs` pins the same runtime against the real-crypto cycle
//! simulator, which packs too.)

use chiaroscuro::{ChiaroscuroConfig, CryptoMode, Engine};
use cs_crypto::CryptoCostProfile;
use cs_net::{ChurnSchedule, NetBackend, NetConfig};
use cs_timeseries::datasets::blobs::{generate_with_centers, BlobsConfig};
use cs_timeseries::TimeSeries;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn dataset(count: usize, seed: u64) -> (Vec<TimeSeries>, Vec<usize>) {
    let (ds, _) = generate_with_centers(
        &BlobsConfig {
            count,
            clusters: 2,
            len: 5,
            noise: 0.2,
            center_amplitude: 3.0,
            ..Default::default()
        },
        &mut StdRng::seed_from_u64(seed),
    );
    (ds.series, ds.labels)
}

fn max_centroid_gap(a: &[TimeSeries], b: &[TimeSeries]) -> f64 {
    a.iter()
        .zip(b)
        .flat_map(|(x, y)| {
            x.values()
                .iter()
                .zip(y.values())
                .map(|(u, v)| (u - v).abs())
        })
        .fold(0.0f64, f64::max)
}

/// 16 participants, real crypto, one full iteration end-to-end over the
/// TCP loopback with packed payloads and a mid-gossip crash — the
/// decrypted perturbed centroids still match the unpacked simulator run.
#[test]
fn packed_net_run_with_crash_matches_unpacked_simulator() {
    let (series, labels) = dataset(16, 31);
    let mut cfg = ChiaroscuroConfig::test_real();
    cfg.k = 2;
    cfg.max_iterations = 1;
    cfg.gossip_cycles = 14;
    // Noise made negligible so the comparison isolates the protocol path.
    cfg.epsilon = 1e5;
    cfg.value_bound = 8.0;

    // Reference: the same configuration, *unpacked*, on the in-process
    // cycle simulator with plaintext slots.
    let mut unpacked = cfg.clone();
    unpacked.crypto = CryptoMode::Simulated {
        cost_profile: CryptoCostProfile::nominal_2048(),
    };
    let sim = Engine::new(unpacked).unwrap().run(&series).unwrap();

    // The run under test: packed real crypto over the TCP loopback, with
    // node 7 silently crashing mid-gossip (~75% through its push quota).
    // The packed push is cheap enough that a modest pacing suffices even
    // in debug builds.
    let engine = Engine::new(cfg).unwrap();
    let push_ms: u64 = if cfg!(debug_assertions) { 60 } else { 15 };
    let churn = ChurnSchedule::none().crash(0, Duration::from_millis(push_ms * 14 * 3 / 4), 7);
    let mut backend = NetBackend::tcp(NetConfig {
        churn,
        push_interval: Duration::from_millis(push_ms),
        ..NetConfig::default()
    });
    let net = engine.run_with_backend(&series, &mut backend).unwrap();

    let step = backend.last_step().expect("one step ran");
    assert!(!step.outcome.alive_after[7], "node 7 stayed down");
    assert!(step.outcome.estimates[7].is_none());
    assert!(
        step.reports[7].pushes_sent < 14,
        "node 7 crashed before finishing its gossip quota ({} pushes)",
        step.reports[7].pushes_sent
    );
    assert!(
        step.snapshot.gossip.bytes > 0 && step.snapshot.decrypt.bytes > 0,
        "both gossip and decryption traffic crossed the wire"
    );
    assert!(
        step.reports.iter().all(|r| r.bad_frames == 0),
        "packed frames decode cleanly"
    );

    // Packing must shrink the gossip payload: one ciphertext per slot
    // would be layout.total() = 12 of them (~64 B each at test keys).
    let per_push = step.snapshot.gossip.bytes as f64 / step.snapshot.gossip.messages as f64;
    assert!(
        per_push < 12.0 * 64.0 * 0.6,
        "packed push of {per_push} B is not materially smaller"
    );

    // Decrypted perturbed centroids agree with the unpacked simulated run.
    let gap = max_centroid_gap(&sim.centroids, &net.centroids);
    assert!(
        gap < 0.35,
        "packed-net vs unpacked-sim centroid gap too large: {gap} \
         (sim {:?} vs net {:?})",
        sim.centroids
            .iter()
            .map(|c| c.values().to_vec())
            .collect::<Vec<_>>(),
        net.centroids
            .iter()
            .map(|c| c.values().to_vec())
            .collect::<Vec<_>>(),
    );

    // And the clustering itself is faithful to the ground truth.
    let ari = cs_kmeans::adjusted_rand_index(&net.assignment, &labels);
    assert!(ari > 0.6, "packed net-run clustering degraded: ARI {ari}");
}
