//! A full Chiaroscuro run over the `cs_net` message-passing runtime: every
//! participant on its own thread, every exchange a length-prefixed wire
//! frame through a loopback socket with loss and latency shimmed on — and
//! one participant crashing mid-gossip, then rejoining for the next
//! iteration. Then the same protocol again at 1024 participants on the
//! sharded event-loop executor, where nodes are virtual and the timeline
//! is deterministic. Act three
//! leaves the process entirely: a supervised cluster of `csnoded` daemons
//! runs the engine across real OS processes over localhost TCP.
//!
//! ```sh
//! cargo build --release -p cs_node   # the csnoded binary for act three
//! cargo run --release --example net_runtime
//! ```

use chiaroscuro::{ChiaroscuroConfig, Engine};
use cs_net::{ChurnSchedule, LinkConfig, NetBackend, NetConfig, ShardedConfig};
use cs_timeseries::datasets::blobs::{generate, BlobsConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn main() {
    // A small population of synthetic daily profiles.
    let data = generate(
        &BlobsConfig {
            count: 24,
            clusters: 3,
            len: 8,
            noise: 0.25,
            ..Default::default()
        },
        &mut StdRng::seed_from_u64(7),
    );

    let mut config = ChiaroscuroConfig::demo_simulated();
    config.k = 3;
    config.max_iterations = 3;
    config.gossip_cycles = 30;
    config.epsilon = 50.0;
    let engine = Engine::new(config).expect("valid config");

    // An imperfect network: 200 µs latency, some jitter, 2% loss — and
    // node 5 crashes 2 ms into the first computation step, rejoining 6 ms
    // later (crash-recovery, like a phone dropping off Wi-Fi).
    let net = NetConfig {
        link: LinkConfig {
            latency: Duration::from_micros(200),
            jitter: Duration::from_micros(100),
            loss: 0.02,
            bandwidth_bytes_per_sec: Some(50_000_000),
        },
        churn: ChurnSchedule::none()
            .crash(0, Duration::from_millis(2), 5)
            .rejoin(0, Duration::from_millis(8), 5),
        ..NetConfig::default()
    };
    let mut backend = NetBackend::tcp(net);

    let output = engine
        .run_with_backend(&data.series, &mut backend)
        .expect("run completes");

    println!(
        "net runtime: {} iterations over {} computation steps, converged: {}",
        output.iterations,
        backend.steps_run(),
        output.converged
    );
    if let Some(step) = backend.last_step() {
        println!(
            "last step: {} gossip frames ({} B), {} decrypt frames ({} B), \
             {} control frames, {} dropped, {:.1} ms wall-clock",
            step.snapshot.gossip.messages,
            step.snapshot.gossip.bytes,
            step.snapshot.decrypt.messages,
            step.snapshot.decrypt.bytes,
            step.snapshot.control.messages,
            step.snapshot.dropped(),
            step.elapsed.as_secs_f64() * 1e3,
        );
    }

    // The runtime feeds the same structured execution log as the
    // simulators — print the JSON form (the satellite of every experiment).
    println!("{}", output.log.to_json());

    // Act two: the same protocol at 1024 participants — far beyond what
    // thread-per-node can carry — on the sharded event-loop executor. The
    // churn offsets are *virtual time* here, so this run is bit-for-bit
    // reproducible.
    let big = generate(
        &BlobsConfig {
            count: 1024,
            clusters: 3,
            len: 8,
            noise: 0.25,
            ..Default::default()
        },
        &mut StdRng::seed_from_u64(11),
    );
    let mut config = ChiaroscuroConfig::demo_simulated();
    config.k = 3;
    config.max_iterations = 2;
    config.gossip_cycles = 25;
    config.epsilon = 50.0;
    let engine = Engine::new(config).expect("valid config");
    // The executor ends a step when its event queues drain; no node tells
    // anyone it is done. Control frames are membership only — node 5's
    // `Join`s in the first step — so the last step below carries none.
    let mut sharded = NetBackend::sharded(ShardedConfig {
        churn: ChurnSchedule::none()
            .crash(0, Duration::from_millis(2), 5)
            .rejoin(0, Duration::from_millis(8), 5),
        ..ShardedConfig::default()
    });
    let wall = std::time::Instant::now();
    let output = engine
        .run_with_backend(&big.series, &mut sharded)
        .expect("run completes");
    println!(
        "sharded executor: 1024 virtual nodes, {} iterations, converged: {}, \
         {:.1} ms wall-clock",
        output.iterations,
        output.converged,
        wall.elapsed().as_secs_f64() * 1e3,
    );
    if let Some(step) = sharded.last_step() {
        println!(
            "last step: {} gossip frames ({} B), {} control frames, \
             {:.1} ms wall-clock",
            step.snapshot.gossip.messages,
            step.snapshot.gossip.bytes,
            step.snapshot.control.messages,
            step.elapsed.as_secs_f64() * 1e3,
        );
    }

    // Act three: out of the process. A supervisor launches one `csnoded`
    // per participant, the coordinator bootstraps them (manifest + key
    // shares), and the engine runs across real OS processes over
    // localhost TCP — the paper's "massively distributed devices" setting
    // in miniature (see docs/deployment.md).
    let Some(binary) = cs_node::find_csnoded() else {
        println!(
            "cluster act skipped: csnoded not built \
             (run `cargo build --release -p cs_node` first)"
        );
        return;
    };
    let n = 8;
    let small = generate(
        &BlobsConfig {
            count: n,
            clusters: 2,
            len: 6,
            noise: 0.25,
            ..Default::default()
        },
        &mut StdRng::seed_from_u64(13),
    );
    let mut config = ChiaroscuroConfig::demo_simulated();
    config.k = 2;
    config.max_iterations = 2;
    config.gossip_cycles = 25;
    config.epsilon = 50.0;
    let engine = Engine::new(config).expect("valid config");

    let coordinator = cs_node::Coordinator::bind().expect("bind coordinator");
    let addr = coordinator.addr().expect("coordinator addr").to_string();
    let supervisor = cs_node::Supervisor::spawn(&binary, &addr, n).expect("spawn csnoded cluster");
    let cluster = coordinator
        .accept_cluster(n, Duration::from_secs(30))
        .expect("daemons connect");
    let mut backend = cs_node::ClusterBackend::new(cluster, cs_node::ClusterConfig::default());

    let wall = std::time::Instant::now();
    let output = engine
        .run_with_backend(&small.series, &mut backend)
        .expect("cluster run completes");
    println!(
        "csnoded cluster: {n} OS processes, {} iterations, converged: {}, \
         {:.1} ms wall-clock",
        output.iterations,
        output.converged,
        wall.elapsed().as_secs_f64() * 1e3,
    );
    if let Some(snap) = backend.last_snapshot() {
        println!(
            "last step: {} gossip frames ({} B) and {} decrypt frames \
             between processes",
            snap.gossip.messages, snap.gossip.bytes, snap.decrypt.messages,
        );
    }
    backend.shutdown();
    let clean = supervisor.wait_all(Duration::from_secs(15));
    println!("cluster shutdown: {clean}/{n} daemons exited cleanly");
}
