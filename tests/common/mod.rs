//! What the end-to-end suites share: the blob datasets, the centroid gap,
//! one view of a step per host, the two cluster launchers (daemon threads,
//! `csnoded` processes) and the rows of the substrate table.
//!
//! The table holds one protocol state machine to the same answer on every
//! host. Each row is a differential run and its checks; each host it runs
//! on is a column, a test of its own with its own population, cycles and
//! pacing. In-process columns live in `tests/substrates.rs`, process
//! columns in `tests/tcp_e2e.rs`.

#![allow(dead_code)]

use chiaroscuro::{ChiaroscuroConfig, ComputationBackend, Engine, RunOutput};
use cs_net::node::NodeReport;
use cs_net::transport::TrafficSnapshot;
use cs_net::NetBackend;
use cs_node::{ClusterBackend, ClusterConfig, Coordinator, DaemonOpts, Supervisor, TimingSpec};
use cs_timeseries::datasets::blobs::{generate, BlobsConfig};
use cs_timeseries::TimeSeries;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// `count` two-cluster blob series of length `len`, and their labels.
pub fn blobs(count: usize, len: usize, seed: u64) -> (Vec<TimeSeries>, Vec<usize>) {
    let config = BlobsConfig {
        count,
        clusters: 2,
        len,
        noise: 0.2,
        ..Default::default()
    };
    let ds = generate(&config, &mut StdRng::seed_from_u64(seed));
    (ds.series, ds.labels)
}

pub fn max_centroid_gap(a: &[TimeSeries], b: &[TimeSeries]) -> f64 {
    let pairs = a
        .iter()
        .zip(b)
        .flat_map(|(x, y)| x.values().iter().zip(y.values()));
    pairs.map(|(u, v)| (u - v).abs()).fold(0.0, f64::max)
}

/// `base` at `k = 2` for `iterations` × `cycles`, with the noise made
/// negligible (ε = 1e5) so a comparison isolates the protocol path.
pub fn config(base: ChiaroscuroConfig, iterations: usize, cycles: usize) -> ChiaroscuroConfig {
    ChiaroscuroConfig {
        k: 2,
        max_iterations: iterations,
        gossip_cycles: cycles,
        epsilon: 1e5,
        value_bound: 8.0,
        smoothing: cs_timeseries::smooth::Smoothing::None,
        ..base
    }
}

/// One iteration of real packed crypto at test keys.
pub fn real_engine(cycles: usize) -> Engine {
    Engine::new(config(ChiaroscuroConfig::test_real(), 1, cycles)).unwrap()
}

/// Three quarters of a gossip span: where the crash rows take node 7 down.
pub fn three_quarters(push_interval: Duration, cycles: usize) -> Duration {
    push_interval * cycles as u32 * 3 / 4
}

/// A host's last step, whichever host ran it.
pub struct View {
    pub steps_run: usize,
    pub alive_after: Vec<bool>,
    pub reports: Vec<NodeReport>,
    pub snapshot: TrafficSnapshot,
}

/// A backend the table can read a [`View`] from.
pub trait Host: ComputationBackend {
    fn view(&self) -> View;
}

impl Host for NetBackend {
    fn view(&self) -> View {
        let step = self.last_step().expect("a step ran");
        View {
            steps_run: self.steps_run(),
            alive_after: step.outcome.alive_after.clone(),
            reports: step.reports.clone(),
            snapshot: step.snapshot,
        }
    }
}

impl Host for ClusterBackend {
    fn view(&self) -> View {
        View {
            steps_run: self.steps_run(),
            alive_after: self.alive().to_vec(),
            reports: self.last_reports().expect("a step ran").to_vec(),
            snapshot: *self.last_snapshot().expect("a step ran"),
        }
    }
}

pub fn run(engine: &Engine, series: &[TimeSeries], host: &mut impl Host) -> (RunOutput, View) {
    let out = engine.run_with_backend(series, host).unwrap();
    (out, host.view())
}

/// A cluster's clocks.
pub fn paced(
    push_interval_us: u64,
    decrypt_deadline_ms: u64,
    step_timeout_ms: u64,
) -> ClusterConfig {
    let timing = TimingSpec {
        push_interval_us,
        decrypt_deadline_ms,
        step_timeout_ms,
    };
    ClusterConfig {
        timing,
        ..ClusterConfig::default()
    }
}

/// Binds a coordinator, starts `n` daemons against its address with
/// `start`, and wraps the cluster they form in a backend.
pub fn launch<D>(
    n: usize,
    cfg: ClusterConfig,
    start: impl FnOnce(&str) -> D,
) -> (D, ClusterBackend) {
    let coordinator = Coordinator::bind().expect("bind coordinator");
    let daemons = start(&coordinator.addr().expect("coordinator addr").to_string());
    let cluster = coordinator
        .accept_cluster(n, Duration::from_secs(60))
        .expect("all daemons connect");
    (daemons, ClusterBackend::new(cluster, cfg))
}

/// Daemons `ids` as threads of the test process: the daemon body
/// (`cs_node::daemon::run`) is a plain function.
pub fn daemon_threads(ids: Range<usize>, coordinator: &str) -> Vec<JoinHandle<()>> {
    ids.map(|id| {
        let opts = DaemonOpts::new(id, coordinator.to_string());
        thread::Builder::new()
            .name(format!("inproc-daemon-{id}"))
            .spawn(move || {
                cs_node::daemon::run(&opts).unwrap_or_else(|e| panic!("daemon {id}: {e}"))
            })
            .expect("spawn daemon thread")
    })
    .collect()
}

/// An `n`-daemon cluster in threads of the test process.
pub fn in_threads(n: usize, cfg: ClusterConfig) -> (Vec<JoinHandle<()>>, ClusterBackend) {
    launch(n, cfg, |addr| daemon_threads(0..n, addr))
}

/// Shuts a threads cluster down; every daemon exits cleanly.
pub fn stop(mut backend: ClusterBackend, daemons: Vec<JoinHandle<()>>) {
    backend.shutdown();
    for d in daemons {
        d.join().expect("daemon thread exits cleanly");
    }
}

/// An `n`-process `csnoded` cluster under a supervisor; `spawn` is one of
/// `Supervisor::{spawn, spawn_logged, spawn_with_obs}`. Needs the binary
/// beside the test executable — `cargo test` builds it; `cargo build -p
/// cs_node --bins` (same profile) does for a file run in isolation.
pub fn in_processes(
    n: usize,
    cfg: ClusterConfig,
    spawn: impl FnOnce(&Path, &str, usize) -> std::io::Result<Supervisor>,
) -> (Arc<Supervisor>, ClusterBackend) {
    let csnoded = cs_node::find_csnoded().expect("csnoded beside the test executable");
    launch(n, cfg, |addr| {
        Arc::new(spawn(&csnoded, addr, n).expect("spawn csnoded cluster"))
    })
}

fn values(centroids: &[TimeSeries]) -> Vec<Vec<f64>> {
    centroids.iter().map(|c| c.values().to_vec()).collect()
}

/// Packing shrinks the gossip payload: one ciphertext per slot would be
/// `k·(series_len+1)` = 12 of them, ~64 B each at test keys.
pub fn packed_pushes_are_small(view: &View) {
    let per_push = view.snapshot.gossip.bytes as f64 / view.snapshot.gossip.messages as f64;
    assert!(
        per_push < 12.0 * 64.0 * 0.6,
        "packed push of {per_push} B is not materially smaller"
    );
}

/// Row `crash_mid_gossip`: one iteration of real packed crypto during
/// which node 7 went down at [`three_quarters`] of the gossip span — after
/// its mass is well mixed, before it finishes its quota. The decrypted
/// centroids stay within each `(name, run, tolerance)` reference.
pub fn crash_mid_gossip(
    engine: &Engine,
    series: &[TimeSeries],
    labels: &[usize],
    host: &mut impl Host,
    references: &[(&str, &RunOutput, f64)],
) -> (RunOutput, View) {
    let (out, view) = run(engine, series, host);
    assert!(!view.alive_after[7], "node 7 stayed down");
    assert!(
        view.reports[7].estimate.is_none(),
        "node 7 reports no estimate"
    );
    let pushes = view.reports[7].pushes_sent;
    assert!(
        pushes < engine.config().gossip_cycles,
        "node 7 crashed before finishing its gossip quota ({pushes} pushes)"
    );
    let snap = &view.snapshot;
    assert!(
        snap.gossip.bytes > 0 && snap.decrypt.bytes > 0,
        "gossip and decryption traffic crossed the wire: {snap:?}"
    );
    assert!(
        view.reports.iter().all(|r| r.bad_frames == 0),
        "packed frames decode cleanly"
    );
    packed_pushes_are_small(&view);
    for &(name, reference, tolerance) in references {
        let gap = max_centroid_gap(&reference.centroids, &out.centroids);
        assert!(
            gap < tolerance,
            "centroid gap to the {name} run too large: {gap} ({:?} vs {:?})",
            values(&reference.centroids),
            values(&out.centroids)
        );
    }
    let ari = cs_kmeans::adjusted_rand_index(&out.assignment, labels);
    assert!(ari > 0.6, "clustering degraded: ARI {ari}");
    (out, view)
}

/// Row `decrypt_round_count_parity`: fault-free on an ideal link, one node
/// decrypts — the leader, node 0 — and the committee computes exactly the
/// partial decryptions its combine reads: `threshold` vectors as wide as
/// its snapshot folds to, the cost model's `w·t`, none wider on any node;
/// nobody else combines, and every node ends with the leader's release. A
/// node encrypts, and re-randomizes on every push, exactly its
/// contribution's ciphertexts. Returns the run, the push's ciphertexts,
/// the leader's width.
pub fn decrypt_round_count_parity(
    engine: &Engine,
    series: &[TimeSeries],
    host: &mut impl Host,
) -> (RunOutput, View, usize, usize) {
    let (out, view) = run(engine, series, host);
    // The leader combines one plaintext per ciphertext it had decrypted:
    // its folded width w, somewhere on the grid ⌈ciphertexts/g⌉; it and the
    // t − 1 members it asks compute w partials each.
    let ciphertexts = view.reports[0].ops.encryptions as usize;
    let parties = engine.config().threshold.parties.min(view.reports.len());
    let width = view.reports[0].decrypt_ops.combinations as usize;
    let on_grid = (1..=ciphertexts).any(|g| ciphertexts.div_ceil(g) == width);
    let decoded = view.reports[0].estimate.is_some();
    assert!(on_grid && decoded, "leader: {width} of {ciphertexts}");
    let mut partials = 0;
    for r in &view.reports {
        let (id, ops) = (r.id, r.decrypt_ops);
        let most = if id < parties { width as u64 } else { 0 };
        assert!(ops.partial_decryptions <= most, "node {id}: {ops:?}");
        assert_eq!(ops.combinations, if id == 0 { width as u64 } else { 0 });
        partials += ops.partial_decryptions;
        let estimate = r.estimate.as_ref().filter(|_| view.alive_after[id]);
        assert_eq!(estimate, view.reports[0].estimate.as_ref(), "node {id}");
        assert_eq!(r.ops.encryptions, ciphertexts as u64, "node {id}");
        let rerandomized = (r.pushes_sent * ciphertexts) as u64;
        assert_eq!(r.ops.rerandomizations, rerandomized, "node {id}");
        assert_eq!(r.bad_frames, 0, "node {id}");
    }
    let t = engine.config().threshold.threshold;
    let model = chiaroscuro::cost::synthesize_decrypt_ops(Some(width), t, 0, 0, 0);
    assert_eq!(partials, model.partial_decryptions, "w·t");
    (out, view, ciphertexts, width)
}

/// Row `plain_matches_the_simulator`: two iterations of simulated crypto
/// match the cycle simulator's run of the same engine, and every
/// iteration logs real bytes on the wire.
pub fn plain_matches_the_simulator(
    engine: &Engine,
    series: &[TimeSeries],
    host: &mut impl Host,
) -> (RunOutput, View) {
    let simulated = engine.run(series).unwrap();
    let (out, view) = run(engine, series, host);
    assert_eq!(view.steps_run, 2);
    let gap = max_centroid_gap(&simulated.centroids, &out.centroids);
    assert!(gap < 0.35, "centroid gap to the cycle simulator: {gap}");
    for r in &out.log.records {
        assert!(r.cost.gossip_bytes > 0, "real bytes-on-wire in the log");
    }
    (out, view)
}
