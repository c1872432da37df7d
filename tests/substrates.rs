//! The substrate table's in-process columns: each row of
//! `tests/common/mod.rs` on the sharded executor, the TCP loopback (one
//! thread per node, every frame through a kernel socket) and an
//! in-process `csnoded` cluster (daemon threads). The process columns are
//! in `tests/tcp_e2e.rs`.

mod common;

use chiaroscuro::{ChiaroscuroConfig, CryptoMode, Engine, RunOutput};
use common::*;
use cs_net::{ChurnSchedule, NetBackend, NetConfig, ShardedConfig};
use cs_timeseries::TimeSeries;
use std::time::Duration;

/// 16 nodes over the TCP loopback, node 7 down mid-gossip, against the
/// same-seed failure-free run on the sharded executor.
#[test]
fn crash_mid_gossip_over_tcp() {
    let (series, labels) = blobs(16, 5, 31);
    let engine = real_engine(14);
    let mut sharded = NetBackend::sharded(Default::default());
    let (sharded, _) = run(&engine, &series, &mut sharded);
    crash_over_tcp(&engine, &series, &labels, ("sharded", &sharded, 0.35));
}

/// The same crash run against the same configuration with simulated
/// crypto on the cycle simulator: plaintext slots that never touch a lane,
/// so a lane leaking into a neighbour or an unaccounted bias term shows as
/// drift.
#[test]
fn crash_mid_gossip_over_tcp_matches_simulated_crypto() {
    let (series, labels) = blobs(16, 5, 31);
    let engine = real_engine(14);
    let simulated = ChiaroscuroConfig {
        crypto: CryptoMode::Simulated {
            modulus_bits: 2048,
            s: 1,
        },
        ..engine.config().clone()
    };
    let simulated = Engine::new(simulated).unwrap().run(&series).unwrap();
    crash_over_tcp(&engine, &series, &labels, ("simulated", &simulated, 0.35));
}

/// The pacing keeps the gossip span predictable: well above a push's
/// crypto cost, which is ~25× higher without optimizations.
fn crash_over_tcp(
    engine: &Engine,
    series: &[TimeSeries],
    labels: &[usize],
    reference: (&str, &RunOutput, f64),
) {
    let push = Duration::from_millis(if cfg!(debug_assertions) { 60 } else { 15 });
    let mut tcp = NetBackend::tcp(NetConfig {
        churn: ChurnSchedule::none().crash(0, three_quarters(push, 14), 7),
        push_interval: push,
        ..NetConfig::default()
    });
    crash_mid_gossip(engine, series, labels, &mut tcp, &[reference]);
}

/// Two-point series keep the vector at 6 slots, which the lane plan
/// carries in 2 ciphertexts of 3 wide lanes — headroom a fold can use.
#[test]
fn decrypt_round_count_parity_on_sharded() {
    let (series, _) = blobs(12, 2, 73);
    let mut sharded = NetBackend::sharded(ShardedConfig {
        shards: 4,
        ..ShardedConfig::default()
    });
    let (_, view, ciphertexts, width) =
        decrypt_round_count_parity(&real_engine(6), &series, &mut sharded);
    assert!(width < ciphertexts, "6 pushes leave headroom to fold into");
    // Every `PackedPush` carries `ciphertexts`: each delivered push is
    // absorbed with one addition per ciphertext, and one of any other
    // width is a bad frame.
    let additions: u64 = view.reports.iter().map(|r| r.ops.additions).sum();
    assert_eq!(
        additions,
        view.snapshot.gossip.messages * ciphertexts as u64
    );
}

/// The retry interval (50 pushes) stays far above the committee's service
/// time: a retry that fired on a merely slow member would widen the ask
/// and show up here as extra partial decryptions.
#[test]
fn decrypt_round_count_parity_over_tcp() {
    let (series, _) = blobs(8, 5, 41);
    let mut tcp = NetBackend::tcp(NetConfig {
        push_interval: Duration::from_millis(if cfg!(debug_assertions) { 20 } else { 4 }),
        ..NetConfig::default()
    });
    decrypt_round_count_parity(&real_engine(8), &series, &mut tcp);
}

/// The daemons get their key shares over the control channel. The debug
/// pacing gives real crypto air and keeps the retry interval far above
/// the committee's service time.
#[test]
fn decrypt_round_count_parity_on_cluster_threads() {
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
    let (daemons, mut backend) = in_threads(5, paced(push_us, 10_000, 30_000));
    let (out, view, ..) = decrypt_round_count_parity(&engine, &series, &mut backend);
    assert_eq!(view.steps_run, 1);
    assert_eq!(out.centroids.len(), 2);
    assert!(
        view.snapshot.decrypt.bytes > 0,
        "decrypt frames crossed the sockets"
    );
    stop(backend, daemons);
}

#[test]
fn plain_matches_the_simulator_over_tcp() {
    let (series, _) = blobs(24, 5, 37);
    let engine = Engine::new(config(ChiaroscuroConfig::demo_simulated(), 2, 30)).unwrap();
    let mut tcp = NetBackend::tcp(NetConfig {
        push_interval: Duration::from_micros(250),
        ..NetConfig::default()
    });
    plain_matches_the_simulator(&engine, &series, &mut tcp);
}

/// The multi-step control plane (Step/Done/StepEnd/Report twice over the
/// same sockets) at unit-test speed.
#[test]
fn plain_matches_the_simulator_on_cluster_threads() {
    let n = 8;
    let (series, _) = blobs(n, 4, 11);
    let engine = Engine::new(ChiaroscuroConfig {
        k: 2,
        max_iterations: 2,
        gossip_cycles: 20,
        epsilon: 1000.0,
        ..ChiaroscuroConfig::demo_simulated()
    })
    .unwrap();
    let (daemons, mut backend) = in_threads(n, paced(200, 10_000, 30_000));
    let (out, view) = plain_matches_the_simulator(&engine, &series, &mut backend);
    assert_eq!(out.iterations, 2);
    assert_eq!(out.centroids.len(), 2);
    assert!(out.log.records.iter().all(|r| r.cost.gossip_messages > 0));
    assert!(
        view.snapshot.gossip.bytes > 0,
        "gossip bytes crossed the sockets"
    );
    // Completion is the coordinator's to see (one `Done` per daemon on the
    // control channel): the data plane carries pushes and nothing else.
    assert_eq!(
        view.snapshot.control,
        Default::default(),
        "no control frames"
    );
    assert_eq!(
        view.snapshot.gossip.messages,
        (n * 20) as u64,
        "one push per cycle"
    );
    assert!(
        view.reports.iter().all(|r| r.bad_frames == 0),
        "clean decode across the cluster"
    );
    assert!(
        view.reports.iter().all(|r| r.peer_failures == 0),
        "no connection toward a peer failed"
    );
    stop(backend, daemons);
}
