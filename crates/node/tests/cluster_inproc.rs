//! In-process cluster tests: the daemon body (`cs_node::daemon::run`) is a
//! plain function, so a whole cluster can run as threads of the test
//! process — same control protocol, same TCP data plane, no process
//! spawning. These tests keep the handshake's refusal and the metrics
//! and obs surfaces honest at unit-test speed; the engine-level rows of
//! the substrate table run such a cluster from `tests/substrates.rs`, and
//! on real processes from `tests/tcp_e2e.rs`.

#[path = "../../../tests/common/mod.rs"]
mod common;

use chiaroscuro::{ChiaroscuroConfig, Engine};
use common::*;
use cs_node::Coordinator;
use std::time::Duration;

/// The handshake refuses a daemon of the previous control protocol — v8
/// still read the committee, the link-draw seed and the fixed-point scale
/// from the `Bootstrap` — with a typed error naming both versions, before
/// any `Bootstrap` is sent.
#[test]
fn a_previous_proto_daemon_is_refused_at_the_handshake() {
    use cs_node::proto::write_msg;
    use cs_node::{ControlMsg, PROTO_VERSION};

    assert_eq!(PROTO_VERSION, 9);
    let coordinator = Coordinator::bind().unwrap();
    let mut daemon = std::net::TcpStream::connect(coordinator.addr().unwrap()).unwrap();
    let hello = ControlMsg::Hello {
        node: 0,
        wire_version: cs_net::wire::WIRE_VERSION,
        proto_version: 8,
        data_addr: "127.0.0.1:1".into(),
        obs_addr: None,
    };
    write_msg(&mut daemon, &hello).unwrap();
    let err = match coordinator.accept_cluster(1, Duration::from_secs(10)) {
        Ok(_) => panic!("a v8 daemon joined a v9 cluster"),
        Err(err) => err,
    };
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    let msg = err.to_string();
    assert!(msg.contains("proto 8 (want 9)"), "{msg}");
}

#[test]
fn metrics_scrape_reconciles_with_coordinator_deltas() {
    let n = 6;
    let (series, _) = blobs(n, 4, 31);
    let engine = Engine::new(ChiaroscuroConfig {
        k: 2,
        max_iterations: 2,
        gossip_cycles: 15,
        epsilon: 1000.0,
        ..ChiaroscuroConfig::demo_simulated()
    })
    .unwrap();
    let (daemons, mut backend) = in_threads(n, paced(200, 10_000, 30_000));

    engine.run_with_backend(&series, &mut backend).unwrap();
    assert_eq!(backend.steps_run(), 2);

    // Report-carried deltas reconcile with the traffic snapshot: the
    // default cluster link is ideal, so nothing is dropped and the
    // send-attempt counters equal the delivered counts.
    let last = backend.last_metrics().unwrap().clone();
    let snap = *backend.last_snapshot().unwrap();
    for (class, counts) in [
        ("gossip", &snap.gossip),
        ("decrypt", &snap.decrypt),
        ("control", &snap.control),
    ] {
        assert_eq!(
            last.counter(&format!("net.{class}.dropped")),
            0,
            "ideal links drop nothing ({class})"
        );
        assert_eq!(
            last.counter(&format!("net.{class}.sent.messages")),
            counts.messages,
            "sent == delivered on ideal links ({class})"
        );
        assert_eq!(
            last.counter(&format!("net.{class}.sent.bytes")),
            counts.bytes,
            "byte accounting matches ({class})"
        );
    }
    assert!(last.counter("net.gossip.sent.messages") > 0);

    // Phase profiling rode the same delta discipline.
    let total = backend.metrics_total().clone();
    assert!(total.counter("phase.gossip.ns") > 0, "gossip phase timed");

    // Live scrape between steps: each daemon reports its cumulative
    // snapshot, and the cluster sum is exactly the coordinator's
    // accumulated per-step deltas — the delta/cumulative books agree.
    let scraped = backend.scrape_metrics(Duration::from_secs(10));
    assert!(
        scraped.iter().all(|s| s.is_some()),
        "every daemon answered the scrape"
    );
    let scrape_sum = scraped
        .iter()
        .flatten()
        .fold(cs_obs::MetricsSnapshot::default(), |acc, m| acc.plus(m));
    assert_eq!(scrape_sum, total, "scrape reconciles with summed deltas");
    stop(backend, daemons);
}

/// Drives the `--obs-addr` surface end-to-end: node 0 runs as a real
/// `csnoded` process with the HTTP endpoint enabled, the rest as threads.
/// After an engine run, both paths are probed over a plain `TcpStream`
/// (no HTTP client dependency): `/metrics` must speak Prometheus text,
/// `/trace` must return the node's flight-recorder ring as JSON.
#[test]
fn obs_endpoint_serves_metrics_and_trace_from_a_live_daemon() {
    use std::io::{BufRead, BufReader, Read as _, Write as _};
    use std::process::{Command, Stdio};

    let Some(binary) = cs_node::find_csnoded() else {
        eprintln!("skipping: csnoded binary not built alongside this test");
        return;
    };

    let n = 4;
    let (series, _) = blobs(n, 4, 47);
    let engine = Engine::new(ChiaroscuroConfig {
        k: 2,
        max_iterations: 1,
        gossip_cycles: 15,
        epsilon: 1000.0,
        ..ChiaroscuroConfig::demo_simulated()
    })
    .unwrap();
    let ((mut child, daemons), mut backend) = launch(n, paced(200, 10_000, 30_000), |addr| {
        let child = Command::new(&binary)
            .args(["--id", "0", "--coordinator", addr])
            .args(["--obs-addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn csnoded");
        (child, daemon_threads(1..n, addr))
    });
    engine.run_with_backend(&series, &mut backend).unwrap();

    // The daemon announced its ephemeral endpoint on stderr right after
    // bootstrap, so the line is already buffered in the pipe by now.
    let mut stderr = BufReader::new(child.stderr.take().unwrap());
    let obs_addr = loop {
        let mut line = String::new();
        assert_ne!(
            stderr.read_line(&mut line).unwrap(),
            0,
            "daemon stderr EOF before the obs endpoint announcement"
        );
        if let Some(rest) = line.trim_end().split("obs endpoint on ").nth(1) {
            break rest.to_string();
        }
    };

    let probe = |path: &str| -> String {
        let mut stream = std::net::TcpStream::connect(&obs_addr).unwrap();
        write!(stream, "GET {path} HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response
    };

    let metrics = probe("/metrics");
    assert!(metrics.starts_with("HTTP/1.1 200"), "{metrics}");
    assert!(
        metrics.contains("# TYPE net_gossip_sent_messages counter"),
        "Prometheus text with sanitized names:\n{metrics}"
    );
    let trace = probe("/trace");
    assert!(trace.starts_with("HTTP/1.1 200"), "{trace}");
    let body = trace.split("\r\n\r\n").nth(1).unwrap();
    let node_trace: cs_obs::NodeTrace = serde_json::from_str(body).unwrap();
    assert_eq!(node_trace.node, 0);
    assert!(
        node_trace.events.iter().any(|e| e.name == "step.start"),
        "flight recorder holds the step's causal events"
    );

    stop(backend, daemons);
    assert!(child.wait().unwrap().success(), "csnoded exits cleanly");
}
