//! The multi-process e2e: Chiaroscuro across real OS processes — the
//! process columns of the substrate table (`tests/common/mod.rs`).
//!
//! A supervisor spawns one `csnoded` per participant; the coordinator
//! bootstraps them (population manifest + key shares) and the engine runs
//! through [`cs_node::ClusterBackend`] — every gossip push and decryption
//! frame crosses a real localhost TCP socket between processes. The acceptance scenario
//! kills one process with SIGKILL mid-gossip and checks the surviving
//! centroids against the same-seed in-process sharded run.
//!
//! Requires the `csnoded` binary in the cargo target directory — `cargo
//! test` builds it automatically (`cs_node` is a workspace default
//! member); when running this file in isolation, `cargo build -p cs_node`
//! first.

mod common;

use chiaroscuro::{ChiaroscuroConfig, Engine};
use common::*;
use cs_net::{ChurnSchedule, NetBackend, ShardedConfig};
use cs_node::Supervisor;
use std::path::PathBuf;
use std::time::Duration;

/// The acceptance scenario: 16 real processes, real Damgård-Jurik crypto,
/// one process SIGKILLed mid-gossip — and the surviving centroids still
/// match the same-seed in-process sharded run.
#[test]
fn sixteen_process_real_crypto_cluster_survives_a_kill_and_matches_sharded() {
    let n = 16;
    let (series, labels) = blobs(n, 5, 31);
    let engine = real_engine(20);

    // Reference: the identical configuration (same master seed, so same
    // initial centroids, contributions, and noise shares) on the
    // in-process sharded executor — with the *same* scenario: node 7
    // crashes at ~75% of the gossip span (virtual time there, wall-clock
    // in the cluster).
    let sharded_cfg = ShardedConfig::default();
    let churn = ChurnSchedule::none().crash(0, three_quarters(sharded_cfg.push_interval, 20), 7);
    let mut sharded = NetBackend::sharded(ShardedConfig {
        churn,
        ..sharded_cfg
    });
    let (reference, view) = run(&engine, &series, &mut sharded);
    assert!(!view.alive_after[7], "reference run crashed node 7 too");

    // The cluster run. Pacing keeps the gossip phase's span predictable —
    // it must clear the *aggregate* per-interval crypto cost (16 processes
    // share one core in CI, and a debug-mode push re-randomizes its
    // ciphertexts), or nodes snapshot under-mixed estimates; 250 ms is
    // what this population needed in debug when a push carried one
    // ciphertext per slot. The kill at ~75% of the span lands mid-gossip,
    // after the victim's mass is well mixed.
    let push = Duration::from_millis(if cfg!(debug_assertions) { 250 } else { 20 });
    let logs = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("tcp_e2e_kill_logs");
    std::fs::create_dir_all(&logs).expect("daemon log directory");
    let cfg = paced(push.as_micros() as u64, 20_000, 120_000);
    let (supervisor, backend) = in_processes(n, cfg, |bin, addr, n| {
        Supervisor::spawn_logged(bin, addr, n, &logs)
    });
    let kills = vec![(0, three_quarters(push, 20), 7)];
    let mut backend = backend.with_kills(supervisor.clone(), kills);
    // The tolerance covers gossip truncation error across two differently
    // timed substrates (virtual-time executor vs wall-clock processes)
    // plus fixed-point granularity; the DP noise is negligible at ε=1e5.
    let references = [("sharded", &reference, 0.45)];
    let (_, view) = crash_mid_gossip(&engine, &series, &labels, &mut backend, &references);
    let survivors_with_estimates = view.reports.iter().filter(|r| r.estimate.is_some()).count();
    assert!(
        survivors_with_estimates >= n - 4,
        "survivors finish the step: {survivors_with_estimates}/{n}"
    );

    // Flight-recorder forensics: scrape every survivor's ring, merge them
    // with the coordinator's own trace (node id `n`), and reconstruct the
    // round. The SIGKILLed process cannot answer a scrape — its last
    // moments live in its stderr dump and its neighbors' rings.
    let cluster_trace = backend.cluster_trace(Duration::from_secs(10));
    let traced: Vec<u64> = cluster_trace.traces.iter().map(|t| t.node).collect();
    assert!(!traced.contains(&7), "a dead process answered a scrape?");
    assert!(
        cluster_trace.traces.len() >= n - 3,
        "survivors + coordinator report traces: {traced:?}"
    );
    assert!(
        cluster_trace
            .traces
            .iter()
            .any(|t| t.events.iter().any(|e| e.name == "recv")),
        "deliveries were traced across real sockets"
    );
    let rounds = cs_obs::critical::analyze(&cluster_trace);
    assert!(
        !rounds.is_empty(),
        "the merged trace reconstructs the round"
    );
    let round = &rounds[0];
    assert!(
        (round.straggler as usize) <= n,
        "the round names its straggler"
    );
    assert!(
        matches!(round.dominant_phase.as_str(), "gossip" | "decrypt" | "died"),
        "unexpected dominant phase {:?}",
        round.dominant_phase
    );
    // Leave the merged timeline where CI's `cstrace` smoke test loads it.
    let dump = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("tcp_cluster_trace.json");
    std::fs::write(&dump, serde_json::to_string(&cluster_trace).unwrap())
        .expect("write trace dump");

    // The death is a fail-stop, not a breach: no survivor's frame audit
    // fires over the frames it lost to the dead peer.
    let scraped = backend.scrape_metrics(Duration::from_secs(10));
    for (id, metrics) in scraped.iter().enumerate() {
        if let Some(metrics) = metrics {
            let alerts = metrics.counter("obs.alert.traffic_accounting");
            assert_eq!(alerts, 0, "survivor {id} raised a traffic-accounting alert");
        }
    }

    backend.shutdown();
    let clean = supervisor.wait_all(Duration::from_secs(20));
    assert!(
        clean >= n - 1,
        "surviving daemons exit cleanly on Shutdown: {clean}/{}",
        n - 1
    );
    // A SIGKILLed process says nothing, so the survivors have to notice on
    // their own: at least one saw a connection toward node 7 fail or close
    // during the step and left its flight recorder behind.
    let noticed: Vec<usize> = (0..n)
        .filter(|&id| id != 7)
        .filter(|id| {
            let log = std::fs::read_to_string(logs.join(format!("csnoded-{id}.log")));
            log.is_ok_and(|log| log.contains("flight-recorder (peer death detected)"))
        })
        .collect();
    assert!(!noticed.is_empty(), "no survivor detected node 7's death");
}

/// Simulated-crypto mode across 8 processes, two full iterations — the
/// multi-step control-plane path (Step/Done/StepEnd/Report twice over the
/// same sockets) against the cycle simulator.
#[test]
fn eight_process_plain_cluster_matches_simulator_over_two_iterations() {
    let n = 8;
    let (series, _) = blobs(n, 5, 37);
    let engine = Engine::new(config(ChiaroscuroConfig::demo_simulated(), 2, 30)).unwrap();
    let (supervisor, mut backend) = in_processes(n, paced(500, 10_000, 60_000), Supervisor::spawn);
    plain_matches_the_simulator(&engine, &series, &mut backend);
    backend.shutdown();
    assert_eq!(supervisor.wait_all(Duration::from_secs(20)), n);
}

/// The crypto fast path across processes: a small packed real-crypto
/// cluster, every daemon deriving the identical lane plan from public
/// inputs alone, holds the decryption round's counts like the in-process
/// hosts.
#[test]
fn decrypt_round_count_parity_across_processes() {
    let n = 5;
    let (series, _) = blobs(n, 5, 41);
    let push_us = if cfg!(debug_assertions) {
        30_000
    } else {
        2_000
    };
    let (supervisor, mut backend) =
        in_processes(n, paced(push_us, 20_000, 60_000), Supervisor::spawn);
    let (out, view, ..) = decrypt_round_count_parity(&real_engine(8), &series, &mut backend);
    assert_eq!(out.centroids.len(), 2);
    packed_pushes_are_small(&view);
    backend.shutdown();
    assert_eq!(supervisor.wait_all(Duration::from_secs(20)), n);
}
