//! The multi-process e2e: Chiaroscuro across real OS processes.
//!
//! A supervisor spawns one `csnoded` per participant; the coordinator
//! bootstraps them (population manifest + key shares) and the engine runs
//! through [`cs_node::ClusterBackend`] — every gossip push and decryption
//! frame crosses a real localhost TCP socket between processes. The acceptance scenario kills one process with
//! SIGKILL mid-gossip and checks the surviving centroids against the
//! same-seed in-process sharded run.
//!
//! Requires the `csnoded` binary in the cargo target directory — `cargo
//! test` builds it automatically (`cs_node` is a workspace default
//! member); when running this file in isolation, `cargo build -p cs_node`
//! first.

use chiaroscuro::{ChiaroscuroConfig, Engine};
use cs_net::{NetBackend, ShardedConfig};
use cs_node::{ClusterBackend, ClusterConfig, Coordinator, Supervisor, TimingSpec};
use cs_timeseries::datasets::blobs::{generate_with_centers, BlobsConfig};
use cs_timeseries::TimeSeries;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

fn csnoded() -> PathBuf {
    cs_node::find_csnoded().expect(
        "csnoded binary not found near the test executable — \
         run `cargo build -p cs_node --bin csnoded` (same profile) first",
    )
}

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

/// Spawns a supervised cluster and returns (supervisor, backend). With
/// `logs`, each daemon's stderr goes to a file there.
fn launch(n: usize, timing: TimingSpec, logs: Option<&Path>) -> (Arc<Supervisor>, ClusterBackend) {
    let coordinator = Coordinator::bind().expect("bind coordinator");
    let addr = coordinator.addr().expect("coordinator addr").to_string();
    let supervisor = match logs {
        Some(dir) => Supervisor::spawn_logged(&csnoded(), &addr, n, dir),
        None => Supervisor::spawn(&csnoded(), &addr, n),
    };
    let supervisor = Arc::new(supervisor.expect("spawn csnoded cluster"));
    let cluster = coordinator
        .accept_cluster(n, Duration::from_secs(60))
        .expect("all daemons connect");
    let backend = ClusterBackend::new(
        cluster,
        ClusterConfig {
            timing,
            ..ClusterConfig::default()
        },
    );
    (supervisor, backend)
}

/// The acceptance scenario: 16 real processes, real Damgård-Jurik crypto,
/// one process SIGKILLed mid-gossip — and the surviving centroids still
/// match the same-seed in-process sharded run.
#[test]
fn sixteen_process_real_crypto_cluster_survives_a_kill_and_matches_sharded() {
    let n = 16;
    let (series, labels) = dataset(n, 31);
    let mut cfg = ChiaroscuroConfig::test_real();
    cfg.k = 2;
    cfg.max_iterations = 1;
    cfg.gossip_cycles = 20;
    // Noise made negligible so the comparison isolates the protocol path.
    cfg.epsilon = 1e5;
    cfg.value_bound = 8.0;
    let engine = Engine::new(cfg).unwrap();

    // Reference: the identical configuration (same master seed, so same
    // initial centroids, contributions, and noise shares) on the
    // in-process sharded executor — with the *same* scenario: node 7
    // crashes at ~75% of the gossip span (virtual time there, wall-clock
    // in the cluster).
    let sharded_cfg = ShardedConfig::default();
    let sharded_crash_at = sharded_cfg.push_interval * 20 * 3 / 4;
    let mut sharded = NetBackend::sharded(ShardedConfig {
        churn: cs_net::ChurnSchedule::none().crash(0, sharded_crash_at, 7),
        ..sharded_cfg
    });
    let reference = engine.run_with_backend(&series, &mut sharded).unwrap();
    assert!(
        !sharded.last_step().unwrap().outcome.alive_after[7],
        "reference run crashed node 7 too"
    );

    // The cluster run. Pacing keeps the gossip phase's span predictable —
    // it must clear the *aggregate* per-interval crypto cost (16 processes
    // share one core in CI, and a debug-mode push re-randomizes 24
    // ciphertexts), or nodes snapshot under-mixed estimates; 250 ms is the
    // figure tests/net_e2e.rs settled on for the same population in debug.
    // The kill at ~75% of the span lands mid-gossip, after the victim's
    // mass is well mixed.
    let push_ms: u64 = if cfg!(debug_assertions) { 250 } else { 20 };
    let timing = TimingSpec {
        push_interval_us: push_ms * 1000,
        decrypt_deadline_ms: 20_000,
        step_timeout_ms: 120_000,
    };
    let logs = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("tcp_e2e_kill_logs");
    std::fs::create_dir_all(&logs).expect("daemon log directory");
    let (supervisor, backend) = launch(n, timing, Some(&logs));
    let mut backend = backend.with_kills(
        supervisor.clone(),
        vec![(0, Duration::from_millis(push_ms * 20 * 3 / 4), 7)],
    );
    let out = engine.run_with_backend(&series, &mut backend).unwrap();

    // The kill really happened, at the process level.
    assert!(!backend.alive()[7], "node 7's process is gone");
    let reports = backend.last_reports().unwrap();
    assert!(
        reports[7].estimate.is_none(),
        "a SIGKILLed process reports nothing"
    );
    let survivors_with_estimates = reports.iter().filter(|r| r.estimate.is_some()).count();
    assert!(
        survivors_with_estimates >= n - 4,
        "survivors finish the step: {survivors_with_estimates}/{n}"
    );
    let snap = backend.last_snapshot().unwrap();
    assert!(
        snap.gossip.bytes > 0 && snap.decrypt.bytes > 0,
        "gossip and decryption traffic crossed real sockets: {snap:?}"
    );

    // Decrypted perturbed centroids agree with the same-seed sharded run.
    // The tolerance covers gossip truncation error across two differently
    // timed substrates (virtual-time executor vs wall-clock processes)
    // plus fixed-point granularity; the DP noise is negligible at ε=1e5.
    let gap = max_centroid_gap(&reference.centroids, &out.centroids);
    assert!(
        gap < 0.45,
        "cluster-vs-sharded centroid gap too large: {gap} \
         (sharded {:?} vs cluster {:?})",
        reference
            .centroids
            .iter()
            .map(|c| c.values().to_vec())
            .collect::<Vec<_>>(),
        out.centroids
            .iter()
            .map(|c| c.values().to_vec())
            .collect::<Vec<_>>(),
    );

    // And the clustering itself stays faithful to the ground truth.
    let ari = cs_kmeans::adjusted_rand_index(&out.assignment, &labels);
    assert!(ari > 0.6, "cluster-run clustering degraded: ARI {ari}");

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
    let (series, _) = dataset(n, 37);
    let mut cfg = ChiaroscuroConfig::demo_simulated();
    cfg.k = 2;
    cfg.max_iterations = 2;
    cfg.gossip_cycles = 30;
    cfg.epsilon = 1e5;
    cfg.value_bound = 8.0;
    cfg.smoothing = cs_timeseries::smooth::Smoothing::None;
    let engine = Engine::new(cfg).unwrap();

    let sim = engine.run(&series).unwrap();

    let timing = TimingSpec {
        push_interval_us: 500,
        decrypt_deadline_ms: 10_000,
        step_timeout_ms: 60_000,
    };
    let (supervisor, mut backend) = launch(n, timing, None);
    let out = engine.run_with_backend(&series, &mut backend).unwrap();

    assert_eq!(backend.steps_run(), 2);
    let gap = max_centroid_gap(&sim.centroids, &out.centroids);
    assert!(gap < 0.35, "centroid gap {gap}");
    for r in &out.log.records {
        assert!(r.cost.gossip_bytes > 0, "real bytes-on-wire in the log");
    }

    backend.shutdown();
    assert_eq!(supervisor.wait_all(Duration::from_secs(20)), n);
}

/// The crypto fast path across processes: a small packed real-crypto
/// cluster, every daemon deriving the identical lane plan from public
/// inputs alone.
#[test]
fn packed_real_crypto_cluster_runs_across_processes() {
    let n = 5;
    let (series, _) = dataset(n, 41);
    let mut cfg = ChiaroscuroConfig::test_real();
    cfg.k = 2;
    cfg.max_iterations = 1;
    cfg.gossip_cycles = 8;
    cfg.epsilon = 1e5;
    cfg.value_bound = 8.0;
    let engine = Engine::new(cfg).unwrap();

    let timing = TimingSpec {
        push_interval_us: if cfg!(debug_assertions) {
            30_000
        } else {
            2_000
        },
        decrypt_deadline_ms: 20_000,
        step_timeout_ms: 60_000,
    };
    let (supervisor, mut backend) = launch(n, timing, None);
    let out = engine.run_with_backend(&series, &mut backend).unwrap();

    assert_eq!(out.centroids.len(), 2);
    let reports = backend.last_reports().unwrap();
    assert!(
        reports.iter().filter(|r| r.estimate.is_some()).count() > n / 2,
        "packed cluster decrypts estimates"
    );
    assert!(
        reports.iter().all(|r| r.bad_frames == 0),
        "identical lane plans: packed frames decode everywhere"
    );
    // Packed pushes ship ⌈buckets/lanes⌉ ciphertexts instead of one per
    // bucket: the per-push payload must be materially below one ciphertext
    // per bucket (k·(series_len+1) = 12 buckets × ~64 B at test keys).
    let snap = backend.last_snapshot().unwrap();
    let per_push = snap.gossip.bytes as f64 / snap.gossip.messages.max(1) as f64;
    let one_per_bucket = (2 * (5 + 1) * 64) as f64;
    assert!(
        per_push < one_per_bucket * 0.6,
        "packed push of {per_push} B is not smaller than {one_per_bucket} B"
    );

    backend.shutdown();
    assert_eq!(supervisor.wait_all(Duration::from_secs(20)), n);
}
