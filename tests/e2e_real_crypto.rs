//! End-to-end runs with the *real* Damgård-Jurik pipeline: encryption,
//! homomorphic push-sum, encrypted noise, threshold decryption — no
//! simulation shortcuts. Population and key sizes are small so the suite
//! stays fast; the code paths are exactly the production ones. Real crypto
//! runs in process on the sharded executor (the cycle simulator runs
//! simulated crypto only).

mod common;

use chiaroscuro::{ChiaroscuroConfig, Engine, RunOutput};
use common::blobs;
use cs_net::{LinkConfig, NetBackend, ShardedConfig};
use cs_timeseries::{Distance, TimeSeries};

fn real_config() -> ChiaroscuroConfig {
    let mut cfg = ChiaroscuroConfig::test_real();
    cfg.k = 2;
    cfg.max_iterations = 3;
    cfg.gossip_cycles = 10;
    cfg.epsilon = 200.0; // small population → rescaled budget (demo rule)
    cfg.value_bound = 8.0;
    cfg
}

fn run_on(cfg: ChiaroscuroConfig, series: &[TimeSeries], sharded: ShardedConfig) -> RunOutput {
    let mut backend = NetBackend::sharded(sharded);
    Engine::new(cfg)
        .unwrap()
        .run_with_backend(series, &mut backend)
        .unwrap()
}

fn run(cfg: ChiaroscuroConfig, series: &[TimeSeries]) -> RunOutput {
    run_on(cfg, series, ShardedConfig::default())
}

#[test]
fn real_crypto_run_recovers_clusters() {
    let (series, labels) = blobs(16, 5, 1);
    let out = run(real_config(), &series);
    assert_eq!(out.centroids.len(), 2);
    let ari = cs_kmeans::adjusted_rand_index(&out.assignment, &labels);
    assert!(
        ari > 0.6,
        "real-crypto run should broadly recover the two blobs: ARI {ari}"
    );
}

#[test]
fn real_crypto_budget_and_log_consistent() {
    let (series, _) = blobs(16, 5, 2);
    let cfg = real_config();
    let eps = cfg.epsilon;
    let out = run(cfg, &series);
    assert!(out.accountant.spent() <= eps + 1e-6);
    assert_eq!(out.log.records.len(), out.iterations);
    for r in &out.log.records {
        // Real mode must report *measured* homomorphic work.
        assert!(
            r.cost.ops.additions > 0,
            "iteration {} had no adds",
            r.iteration
        );
        assert!(
            r.cost.decrypt_ops.partial_decryptions > 0,
            "iteration {} had no partial decryptions",
            r.iteration
        );
        assert!(r.cost.gossip_bytes > 0);
    }
}

#[test]
fn real_crypto_deterministic_given_seed() {
    let (series, _) = blobs(16, 5, 3);
    let run = || run(real_config(), &series);
    let a = run();
    let b = run();
    assert_eq!(a.assignment, b.assignment);
    for (x, y) in a.centroids.iter().zip(&b.centroids) {
        assert_eq!(x.values(), y.values());
    }
}

#[test]
fn real_crypto_with_degree_two() {
    // Damgård-Jurik with s = 2: larger message space, same protocol.
    let (series, _) = blobs(16, 5, 4);
    let mut cfg = real_config();
    cfg.crypto = chiaroscuro::CryptoMode::Real {
        keygen: cs_crypto::KeyGenOptions::insecure_test_size_s(2),
    };
    cfg.max_iterations = 2;
    let out = run(cfg, &series);
    assert_eq!(out.iterations, 2);
    assert_eq!(out.centroids.len(), 2);
}

#[test]
fn real_crypto_survives_message_loss() {
    let (series, _) = blobs(16, 5, 5);
    let lossy = ShardedConfig {
        link: LinkConfig {
            loss: 0.15,
            ..LinkConfig::ideal()
        },
        ..ShardedConfig::default()
    };
    let out = run_on(real_config(), &series, lossy);
    assert!(out.iterations >= 1);
    // Some estimate must still have been produced every iteration.
    for r in &out.log.records {
        assert!(r.alive > 0);
    }
}

#[test]
fn final_centroids_are_usable_for_matching() {
    // The E6 pipeline on real crypto output: subsequence matching over the
    // decrypted perturbed profiles.
    let (series, _) = blobs(16, 5, 6);
    let out = run(real_config(), &series);
    let query = series[0].window(1, 3);
    let matches = cs_timeseries::subsequence::closest_profiles(
        &query,
        &out.centroids,
        cs_timeseries::subsequence::MatchMeasure::Pointwise(Distance::Euclidean),
    );
    assert_eq!(matches.len(), 2);
    assert!(matches[0].distance <= matches[1].distance);
}

/// A cluster's step metrics carry its worst node and its distinct
/// releases, booked by the coordinator over the daemons' reports (a
/// maximum or a count is no sum of the daemons' deltas): only the leader
/// and the member it asks decrypt, so the worst node is a committee
/// member, and every daemon ends with the leader's release.
#[test]
fn decrypt_round_worst_node_is_booked_by_the_cluster() {
    let (series, _) = blobs(5, 3, 21);
    let engine = Engine::new(ChiaroscuroConfig {
        k: 2,
        max_iterations: 1,
        gossip_cycles: 6,
        epsilon: 1e5,
        ..ChiaroscuroConfig::test_real()
    })
    .unwrap();
    let push_us = if cfg!(debug_assertions) {
        50_000
    } else {
        2_000
    };
    let (daemons, mut backend) = common::in_threads(5, common::paced(push_us, 10_000, 30_000));
    engine.run_with_backend(&series, &mut backend).unwrap();
    let reports = backend.last_reports().expect("a step ran");
    let worst = |of: fn(&chiaroscuro::cost::DecryptionOps) -> u64| {
        reports.iter().map(|r| of(&r.decrypt_ops)).max().unwrap() as i64
    };
    let metrics = backend.last_metrics().expect("a step ran");
    let partials = metrics.gauge("crypto.partials_max");
    assert_eq!(partials, worst(|d| d.partial_decryptions));
    assert_eq!(
        metrics.gauge("crypto.combines_max"),
        worst(|d| d.combinations)
    );
    assert!(partials > 0);
    assert_eq!(metrics.gauge("crypto.releases_distinct"), 1);
    assert!(reports[3..]
        .iter()
        .all(|r| r.decrypt_ops == Default::default()));
    common::stop(backend, daemons);
}
