//! Inject-and-detect drills for the cluster health monitor.
//!
//! The invariant auditor runs unconditionally at the end of every
//! computation step, on every substrate. These tests lock in the two
//! sides of that bargain:
//!
//! 1. **Clean runs are untouched** — with monitoring always on, two
//!    same-seed honest runs stay byte-identical, no alert fires, and no
//!    `obs.alert.*` counter moves.
//! 2. **Corruption is caught** — a node whose partial decryptions are
//!    silently corrupted ([`cs_net::FaultSpec::CorruptPartials`]: the
//!    combine still succeeds, it just decodes garbage) trips the
//!    mass-conservation audit on the sharded executor, on the TCP
//!    loopback, and across a real multi-process cluster — where the
//!    verdict also surfaces through the `/health` route and fails
//!    `cswatch --once --check`.
//! 3. **Churn is not a violation** — a SIGKILLed daemon makes `cswatch`
//!    flag the node UNREACHABLE without failing the check.
//!
//! The real-crypto drills run packed, the one ciphertext layout there is:
//! a corrupted partial decryption combines into a random plaintext, and the
//! lane decode — whose only checks are on the cleartext push-sum metadata —
//! reads garbage mass out of it, the silent shape the auditor exists for.

mod common;

use chiaroscuro::{ChiaroscuroConfig, Engine};
use common::*;
use cs_net::{FaultSpec, NetBackend, NetConfig, ShardedConfig};
use cs_obs::{Alert, AlertKind, HealthStatus};
use std::time::Duration;

fn mass_alerts(alerts: &[Alert]) -> usize {
    alerts
        .iter()
        .filter(|a| a.kind == AlertKind::MassConservation)
        .count()
}

/// Claim 1: the always-on audit is a pure observer. Two same-seed honest
/// sharded runs stay byte-identical, raise nothing, and mint nothing —
/// and an honest TCP-loopback run reconciles its frame accounting
/// exactly (`delivered == sent − dropped` per class), so the traffic
/// monitor stays silent on real sockets too.
#[test]
fn honest_runs_stay_byte_identical_and_alert_free_with_monitoring_on() {
    let (series, _) = blobs(64, 5, 47);
    let mut cfg = ChiaroscuroConfig::demo_simulated();
    cfg.k = 2;
    cfg.max_iterations = 2;
    cfg.gossip_cycles = 20;
    cfg.epsilon = 50.0;
    let engine = Engine::new(cfg).unwrap();

    let run = || {
        let mut backend = NetBackend::sharded(ShardedConfig {
            shards: 8,
            ..ShardedConfig::default()
        });
        let out = engine.run_with_backend(&series, &mut backend).unwrap();
        let step = backend.last_step().expect("a step ran");
        let minted: Vec<u64> = AlertKind::ALL
            .iter()
            .map(|k| step.metrics.counter(&k.counter_name()))
            .collect();
        (out.log.to_json(), step.alerts.clone(), minted)
    };
    let (log_a, alerts_a, minted_a) = run();
    let (log_b, alerts_b, minted_b) = run();
    assert_eq!(
        log_a, log_b,
        "monitoring must not perturb a deterministic run"
    );
    for (alerts, minted) in [(&alerts_a, &minted_a), (&alerts_b, &minted_b)] {
        assert!(alerts.is_empty(), "honest run alerted: {alerts:?}");
        assert!(
            minted.iter().all(|&c| c == 0),
            "honest run minted obs.alert counters: {minted:?}"
        );
    }

    // The TCP loopback adds the frame-accounting dimension: send-attempt
    // counters exist there, so TrafficAccounting actually compares.
    let (series, _) = blobs(8, 5, 48);
    let mut cfg = ChiaroscuroConfig::demo_simulated();
    cfg.k = 2;
    cfg.max_iterations = 1;
    cfg.gossip_cycles = 15;
    cfg.epsilon = 50.0;
    let engine = Engine::new(cfg).unwrap();
    let mut backend = NetBackend::tcp(NetConfig {
        push_interval: Duration::from_micros(300),
        ..NetConfig::default()
    });
    engine.run_with_backend(&series, &mut backend).unwrap();
    let step = backend.last_step().expect("a step ran");
    assert!(
        step.alerts.is_empty(),
        "honest tcp-loopback run alerted: {:?}",
        step.alerts
    );
    assert!(
        step.metrics.counter("net.gossip.sent.messages") > 0,
        "the loopback exports send-attempt counters"
    );
}

/// Claim 2, sharded: corrupt one committee member's partial decryptions
/// and the mass audit names the garbage — deterministically, twice.
#[test]
fn corrupted_partials_trip_the_mass_audit_on_the_sharded_executor() {
    let (series, _) = blobs(8, 5, 51);
    let engine = real_engine(10);

    let run = || {
        let mut backend = NetBackend::sharded(ShardedConfig {
            shards: 4,
            fault: Some(FaultSpec::CorruptPartials { node: 1 }),
            ..ShardedConfig::default()
        });
        // Garbage estimates may upset engine postprocessing; the audit
        // verdict lives in the step record either way.
        let _ = engine.run_with_backend(&series, &mut backend);
        let step = backend.last_step().expect("the step itself completed");
        (
            step.alerts.clone(),
            step.metrics.counter("obs.alert.mass_conservation"),
        )
    };

    let (alerts, minted) = run();
    let hits = mass_alerts(&alerts);
    assert!(hits >= 1, "corruption went undetected: alerts {alerts:?}");
    assert_eq!(
        minted, hits as u64,
        "every violation is minted as a counter"
    );

    // Deterministic substrate ⇒ deterministic verdict.
    let (again, _) = run();
    assert_eq!(alerts, again, "the audit must be deterministic");
}

/// Claim 2, TCP loopback: the same silent corruption is caught when every
/// frame crosses a real kernel socket.
#[test]
fn corrupted_partials_trip_the_mass_audit_over_the_tcp_loopback() {
    let (series, _) = blobs(8, 5, 53);
    let engine = real_engine(8);

    let push_us: u64 = if cfg!(debug_assertions) {
        40_000
    } else {
        5_000
    };
    let mut backend = NetBackend::tcp(NetConfig {
        push_interval: Duration::from_micros(push_us),
        fault: Some(FaultSpec::CorruptPartials { node: 1 }),
        ..NetConfig::default()
    });
    let _ = engine.run_with_backend(&series, &mut backend);
    let step = backend.last_step().expect("the step itself completed");
    assert!(
        mass_alerts(&step.alerts) >= 1,
        "corruption went undetected over tcp: alerts {:?}",
        step.alerts
    );
    assert!(
        step.metrics.counter("obs.alert.mass_conservation") >= 1,
        "the counter rode along"
    );
}

/// Spawns a supervised obs-serving cluster and returns its handles.
fn launch_cluster(
    n: usize,
    fault: Option<FaultSpec>,
) -> (std::sync::Arc<cs_node::Supervisor>, cs_node::ClusterBackend) {
    let push_ms: u64 = if cfg!(debug_assertions) { 150 } else { 10 };
    let cfg = cs_node::ClusterConfig {
        fault,
        ..paced(push_ms * 1000, 20_000, 120_000)
    };
    in_processes(n, cfg, cs_node::Supervisor::spawn_with_obs)
}

/// Runs `cswatch --once --check` against the given scrape addresses and
/// returns (exit success, stdout).
fn cswatch_once_check(addrs: &[String]) -> (bool, String) {
    let cswatch = cs_node::find_bin("cswatch").expect(
        "cswatch binary not found near the test executable — \
         run `cargo build -p cs_node --bins` (same profile) first",
    );
    let out = std::process::Command::new(cswatch)
        .arg("--once")
        .arg("--check")
        .args(addrs)
        .output()
        .expect("run cswatch");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

/// Claim 2, multi-process: the corruption crosses real process
/// boundaries, the daemons' own auditors degrade their `/health` routes,
/// the coordinator's cluster verdict concurs, and `cswatch --once
/// --check` exits nonzero.
#[test]
fn cluster_corruption_degrades_health_routes_and_fails_the_watchdog() {
    let n = 5;
    let (series, _) = blobs(n, 5, 57);
    let engine = real_engine(8);

    // Node 0 sits on the 3-member decryption committee; every combine
    // that uses its share decodes garbage.
    let (supervisor, mut backend) = launch_cluster(n, Some(FaultSpec::CorruptPartials { node: 0 }));
    let _ = engine.run_with_backend(&series, &mut backend);

    // The coordinator's cluster verdict: per-daemon reports merged with
    // its own cluster-level audit.
    let verdict = backend.cluster_health(Duration::from_secs(10));
    assert_eq!(
        verdict.status,
        HealthStatus::Degraded,
        "cluster verdict: {verdict:?}"
    );
    assert!(
        verdict.count(AlertKind::MassConservation) >= 1,
        "mass audit tallied: {verdict:?}"
    );

    // Every daemon advertised a scrape endpoint in its Hello.
    let addrs: Vec<String> = backend
        .obs_addrs()
        .into_iter()
        .map(|a| a.expect("daemon advertised its obs endpoint"))
        .collect();
    assert_eq!(addrs.len(), n);

    // At least one daemon saw the garbage first-hand and degraded its
    // own `/health`.
    let probes = cs_node::watch::probe_all(&addrs, Duration::from_secs(5));
    assert!(
        probes.iter().all(cs_node::watch::NodeProbe::reachable),
        "all daemons answer their routes: {probes:?}"
    );
    assert!(
        cs_node::watch::slo_breached(&probes),
        "no daemon's /health degraded: {probes:?}"
    );

    // And the operator-facing verdict: the watchdog binary fails.
    let (ok, stdout) = cswatch_once_check(&addrs);
    assert!(!ok, "cswatch --check must exit nonzero on a breach");
    assert!(
        stdout.contains("DEGRADED"),
        "dashboard names the verdict:\n{stdout}"
    );

    backend.shutdown();
    supervisor.wait_all(Duration::from_secs(20));
}

/// Claims 1 and 3, multi-process: an honest cluster scrapes healthy, and
/// a SIGKILLed daemon is flagged UNREACHABLE by the watchdog *without*
/// failing the check — churn is fail-stop, not an SLO breach.
#[test]
fn honest_cluster_is_healthy_and_a_sigkilled_daemon_only_flags_churn() {
    let n = 5;
    let (series, _) = blobs(n, 5, 59);
    let engine = real_engine(8);

    let (supervisor, mut backend) = launch_cluster(n, None);
    engine
        .run_with_backend(&series, &mut backend)
        .expect("honest cluster run completes");

    let verdict = backend.cluster_health(Duration::from_secs(10));
    assert_eq!(
        verdict.status,
        HealthStatus::Healthy,
        "honest cluster verdict: {verdict:?}"
    );
    assert_eq!(verdict.alerts_total, 0, "no alert fired: {verdict:?}");

    let addrs: Vec<String> = backend
        .obs_addrs()
        .into_iter()
        .map(|a| a.expect("daemon advertised its obs endpoint"))
        .collect();
    let (ok, stdout) = cswatch_once_check(&addrs);
    assert!(
        ok,
        "cswatch --check must exit 0 on a healthy cluster:\n{stdout}"
    );
    assert!(
        stdout.contains("cluster healthy"),
        "dashboard names the verdict:\n{stdout}"
    );

    // SIGKILL one daemon between steps: its routes go dark, and the
    // watchdog must treat that as churn (flagged) — not as a breach.
    assert!(supervisor.kill(2), "SIGKILL daemon 2");
    std::thread::sleep(Duration::from_millis(200));
    let (ok, stdout) = cswatch_once_check(&addrs);
    assert!(ok, "an unreachable daemon must not fail --check:\n{stdout}");
    assert!(
        stdout.contains("UNREACHABLE"),
        "the dead daemon is flagged:\n{stdout}"
    );

    backend.shutdown();
    supervisor.wait_all(Duration::from_secs(20));
}
