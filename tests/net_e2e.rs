//! End-to-end runs over the `cs_net` thread-per-node TCP host: the same
//! engine, the same protocol state machines, but every exchange crosses a
//! loopback socket as a length-prefixed frame between concurrently running
//! node threads — including one node crashing mid-gossip.
//!
//! The decisive check: the runtime's decrypted perturbed centroids must
//! match the in-process simulator's run of the identical configuration
//! within a small tolerance (gossip truncation error + fixed-point
//! granularity; the DP noise is made negligible with a huge ε so the
//! comparison isolates protocol correctness).

use chiaroscuro::{ChiaroscuroConfig, Engine};
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

fn fast_net() -> NetConfig {
    NetConfig {
        push_interval: Duration::from_micros(250),
        ..NetConfig::default()
    }
}

/// The acceptance scenario: 16 participants, real Damgård-Jurik crypto, a
/// full Chiaroscuro iteration end-to-end over the TCP loopback with one
/// node crashing mid-gossip — and the result still matches the
/// simulated run.
#[test]
fn real_crypto_net_run_with_crash_matches_simulator() {
    let (series, labels) = dataset(16, 31);
    let mut cfg = ChiaroscuroConfig::test_real();
    cfg.k = 2;
    cfg.max_iterations = 1;
    cfg.gossip_cycles = 14;
    // Noise made negligible so the comparison isolates the protocol path.
    cfg.epsilon = 1e5;
    cfg.value_bound = 8.0;
    let engine = Engine::new(cfg).unwrap();

    // Reference: the same configuration on the in-process cycle simulator.
    let sim = engine.run(&series).unwrap();

    // The runtime run, with node 7 silently crashing mid-gossip. The push
    // pacing is set well above the per-push crypto cost (which is ~25× more
    // expensive without optimizations, hence the profile split) so the
    // gossip phase has a predictable span; the crash at ~75% of it lands
    // after ~10 of 14 pushes, destroying mass that is already well mixed —
    // the loss push-sum's sum/weight ratio tolerates — while the node
    // verifiably dies before finishing its quota.
    let push_ms: u64 = if cfg!(debug_assertions) { 250 } else { 30 };
    let churn = ChurnSchedule::none().crash(0, Duration::from_millis(push_ms * 14 * 3 / 4), 7);
    let mut backend = NetBackend::tcp(NetConfig {
        churn,
        push_interval: Duration::from_millis(push_ms),
        ..fast_net()
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
    // Packing shrinks the gossip payload: one ciphertext per slot would be
    // layout.total() = 12 of them (~64 B each at test keys).
    let per_push = step.snapshot.gossip.bytes as f64 / step.snapshot.gossip.messages as f64;
    assert!(
        per_push < 12.0 * 64.0 * 0.6,
        "packed push of {per_push} B is not materially smaller"
    );

    // Decrypted perturbed centroids agree with the simulator's run.
    let gap = max_centroid_gap(&sim.centroids, &net.centroids);
    assert!(
        gap < 0.35,
        "net-vs-simulator centroid gap too large: {gap} \
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
    assert!(ari > 0.6, "net-run clustering degraded: ARI {ari}");
}

/// Fault-free and loss-free, the committee computes exactly the partial
/// decryptions the combines read — `threshold` vectors per requester, each
/// as wide as that requester's snapshot folds to — which is what the
/// in-process simulator performs on its own snapshots and the analytical
/// cost model charges for the same configuration.
#[test]
fn decrypt_round_count_parity_threaded_vs_simulator() {
    let n = 8;
    let (series, _) = dataset(n, 41);
    let mut cfg = ChiaroscuroConfig::test_real();
    cfg.k = 2;
    cfg.max_iterations = 1;
    cfg.gossip_cycles = 8;
    cfg.epsilon = 1e5;
    cfg.value_bound = 8.0;
    let threshold = cfg.threshold.threshold;
    let engine = Engine::new(cfg).unwrap();

    let sim = engine.run(&series).unwrap();

    // The retry interval (50 pushes) stays far above the committee's
    // service time: a retry that fired on a merely slow member would widen
    // the ask and show up here as extra partial decryptions.
    let push_ms: u64 = if cfg!(debug_assertions) { 20 } else { 4 };
    let mut backend = NetBackend::tcp(NetConfig {
        push_interval: Duration::from_millis(push_ms),
        ..fast_net()
    });
    engine.run_with_backend(&series, &mut backend).unwrap();

    let step = backend.last_step().expect("one step ran");
    assert!(step.outcome.estimates.iter().all(|e| e.is_some()));
    // A requester combines one plaintext per ciphertext it had decrypted:
    // its folded width wᵢ, somewhere on the grid ⌈ciphertexts/g⌉.
    let ciphertexts = step.reports[0].ops.encryptions as usize;
    let widths: Vec<usize> = step
        .reports
        .iter()
        .map(|r| r.decrypt_ops.combinations as usize)
        .collect();
    for (id, &w) in widths.iter().enumerate() {
        assert!(
            (1..=ciphertexts).any(|g| ciphertexts.div_ceil(g) == w),
            "node {id} asked for {w} of {ciphertexts} ciphertexts"
        );
    }
    let ops = &step.outcome.decrypt_ops;
    assert_eq!(
        ops.partial_decryptions,
        chiaroscuro::cost::synthesize_decrypt_ops(&widths, threshold, 0).partial_decryptions,
        "the cost model's Σ wᵢ·t"
    );
    let sim_ops = &sim.log.records[0].cost.decrypt_ops;
    assert_eq!(
        sim_ops.partial_decryptions,
        threshold as u64 * sim_ops.combinations,
        "the simulator's committee[..t], over its own folded snapshots"
    );
    // The gossip side of the same parity: a node encrypts, and on every
    // push re-randomizes, exactly the ciphertexts it later has decrypted.
    for r in &step.reports {
        assert_eq!(r.ops.encryptions, ciphertexts as u64, "node {}", r.id);
        assert_eq!(
            r.ops.rerandomizations,
            (r.pushes_sent * ciphertexts) as u64,
            "node {}",
            r.id
        );
    }
}

/// Simulated-crypto mode over the runtime: larger population, two full
/// iterations, still matching the cycle simulator.
#[test]
fn plain_net_run_matches_simulator_over_two_iterations() {
    let (series, _) = dataset(24, 37);
    let mut cfg = ChiaroscuroConfig::demo_simulated();
    cfg.k = 2;
    cfg.max_iterations = 2;
    cfg.gossip_cycles = 30;
    cfg.epsilon = 1e5;
    cfg.value_bound = 8.0;
    cfg.smoothing = cs_timeseries::smooth::Smoothing::None;
    let engine = Engine::new(cfg).unwrap();

    let sim = engine.run(&series).unwrap();
    let mut backend = NetBackend::tcp(fast_net());
    let net = engine.run_with_backend(&series, &mut backend).unwrap();

    assert_eq!(backend.steps_run(), 2);
    let gap = max_centroid_gap(&sim.centroids, &net.centroids);
    assert!(gap < 0.35, "centroid gap {gap}");
    // The runtime measured real bytes-on-wire for its gossip traffic.
    for r in &net.log.records {
        assert!(r.cost.gossip_bytes > 0);
    }
}
