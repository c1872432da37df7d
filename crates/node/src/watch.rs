//! The `cswatch` watchdog's engine: poll a live cluster's observability
//! endpoints, judge the SLO, and render a terminal dashboard.
//!
//! A daemon started with `--obs-addr` serves five HTTP routes (see
//! [`cs_obs::http`]); this module consumes three of them per poll:
//! `/healthz` (liveness facts — uptime, protocol versions, build),
//! `/health` (the cumulative invariant-audit verdict, 503 once degraded),
//! and `/series` (per-step rate and quantile telemetry). Everything rides
//! plain `std::net::TcpStream` HTTP — the watchdog stays as dependency-free
//! as the endpoint it watches.
//!
//! The SLO judgment is deliberately narrow: **a breach is an invariant
//! violation** — any daemon whose `/health` verdict is degraded (or
//! carries a nonzero alert tally). An *unreachable* daemon is churn, not a
//! breach: nodes legitimately die mid-run in this protocol's fault model,
//! and the audit layer (not the watchdog) decides whether the survivors'
//! ledgers still balance. `cswatch --check` therefore exits nonzero only
//! on violations, while flagging churn in its output — which is exactly
//! what a CI smoke wants after a SIGKILL drill.

use cs_obs::{HealthReport, HealthStatus, Liveness, SeriesView};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// One HTTP GET over a raw `TcpStream`: returns `(status_code, body)`.
/// The obs server answers one request per connection and closes, so the
/// response is simply read to EOF.
pub fn http_get(addr: &str, path: &str, timeout: Duration) -> io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    stream.write_all(
        format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n").as_bytes(),
    )?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    // Status line: "HTTP/1.1 200 OK".
    let status = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed status line"))?;
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

/// Everything one poll learned about one daemon. `None` fields mean the
/// route was unreachable or unparsable; `error` carries the first failure.
#[derive(Debug, Default)]
pub struct NodeProbe {
    /// The obs address polled.
    pub addr: String,
    /// `/healthz` liveness facts, if reachable.
    pub liveness: Option<Liveness>,
    /// `/health` verdict, if reachable (parsed from both 200 and 503
    /// bodies — the status line and the JSON agree by construction).
    pub health: Option<HealthReport>,
    /// `/series` telemetry, if reachable.
    pub series: Option<SeriesView>,
    /// First transport/parse failure, for the churn feed.
    pub error: Option<String>,
}

impl NodeProbe {
    /// `true` when every route answered and parsed.
    pub fn reachable(&self) -> bool {
        self.error.is_none()
    }

    /// `true` when this daemon's verdict violates the SLO: a degraded
    /// status or any recorded alert. Unreachability is *not* a violation.
    pub fn breached(&self) -> bool {
        self.health
            .as_ref()
            .is_some_and(|h| h.status == HealthStatus::Degraded || h.alerts_total > 0)
    }
}

/// Polls one daemon's `/healthz`, `/health`, and `/series`.
pub fn probe(addr: &str, timeout: Duration) -> NodeProbe {
    let mut out = NodeProbe {
        addr: addr.to_string(),
        ..NodeProbe::default()
    };
    fn fetch(addr: &str, path: &str, timeout: Duration) -> Result<String, String> {
        match http_get(addr, path, timeout) {
            Ok((status, body)) if status == 200 || status == 503 => Ok(body),
            Ok((status, _)) => Err(format!("{path}: HTTP {status}")),
            Err(e) => Err(format!("{path}: {e}")),
        }
    }
    fn parse<T: serde::DeserializeOwned>(
        path: &str,
        body: Result<String, String>,
    ) -> Result<T, String> {
        let body = body?;
        serde_json::from_str(&body).map_err(|e| format!("{path} parse: {e}"))
    }
    match parse("/healthz", fetch(addr, "/healthz", timeout)) {
        Ok(l) => out.liveness = Some(l),
        Err(e) => out.error = out.error.take().or(Some(e)),
    }
    match parse("/health", fetch(addr, "/health", timeout)) {
        Ok(h) => out.health = Some(h),
        Err(e) => out.error = out.error.take().or(Some(e)),
    }
    match parse("/series", fetch(addr, "/series", timeout)) {
        Ok(s) => out.series = Some(s),
        Err(e) => out.error = out.error.take().or(Some(e)),
    }
    out
}

/// Polls every address in order.
pub fn probe_all(addrs: &[String], timeout: Duration) -> Vec<NodeProbe> {
    addrs.iter().map(|a| probe(a, timeout)).collect()
}

/// The cluster-level SLO verdict: breached iff *any* reachable daemon
/// reports an invariant violation.
pub fn slo_breached(probes: &[NodeProbe]) -> bool {
    probes.iter().any(NodeProbe::breached)
}

/// Unicode sparkline of a rate series (empty input renders empty).
fn spark(values: &[u64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = values.iter().copied().max().unwrap_or(0);
    values
        .iter()
        .map(|&v| {
            if max == 0 {
                BARS[0]
            } else {
                BARS[((v * 7).div_ceil(max)) as usize]
            }
        })
        .collect()
}

/// A fixed-width fill bar for a share in `[0, 1]`.
fn bar(share: f64, width: usize) -> String {
    let filled = ((share * width as f64).round() as usize).min(width);
    let mut s = String::with_capacity(width);
    for i in 0..width {
        s.push(if i < filled { '█' } else { '░' });
    }
    s
}

/// Renders one poll of the cluster as a plain-text dashboard: a status
/// line per node (liveness, verdict, gossip-rate sparkline), per-phase
/// time-share bars from the step-phase profile, and a feed of the most
/// recent alerts plus unreachable nodes.
pub fn render(probes: &[NodeProbe]) -> String {
    let mut out = String::new();
    let breached = slo_breached(probes);
    let reachable = probes.iter().filter(|p| p.reachable()).count();
    out.push_str(&format!(
        "cswatch — {} node(s), {} reachable — cluster {}\n",
        probes.len(),
        reachable,
        if breached { "DEGRADED" } else { "healthy" }
    ));
    for p in probes {
        let who = p
            .liveness
            .as_ref()
            .map(|l| format!("node {}", l.node))
            .unwrap_or_else(|| "node ?".into());
        if !p.reachable() {
            out.push_str(&format!(
                "  {who:<8} {:<21} UNREACHABLE ({})\n",
                p.addr,
                p.error.as_deref().unwrap_or("no answer")
            ));
            continue;
        }
        let uptime = p
            .liveness
            .as_ref()
            .map(|l| format!("up {:>4}s", l.uptime_seconds))
            .unwrap_or_default();
        let verdict = match &p.health {
            Some(h) if p.breached() => format!("ALERTS {:>3}", h.alerts_total),
            Some(_) => "ok".into(),
            None => "?".into(),
        };
        let gossip = p
            .series
            .as_ref()
            .and_then(|s| {
                s.counters
                    .iter()
                    .find(|c| c.name == "net.gossip.sent.messages")
            })
            .map(|c| {
                let tail_start = c.rates.len().saturating_sub(16);
                format!("gossip {} {}", spark(&c.rates[tail_start..]), c.total)
            })
            .unwrap_or_default();
        out.push_str(&format!(
            "  {who:<8} {:<21} {uptime:<8} {verdict:<10} {gossip}\n",
            p.addr
        ));
        // Phase time-share bars over the series window, from the
        // `phase.<name>.ns` counters every substrate folds per step.
        if let Some(series) = &p.series {
            let phases: Vec<(&str, u64)> = series
                .counters
                .iter()
                .filter(|c| c.name.starts_with("phase.") && c.name.ends_with(".ns"))
                .map(|c| {
                    let name = &c.name["phase.".len()..c.name.len() - ".ns".len()];
                    (name, c.rates.iter().sum::<u64>())
                })
                .collect();
            let total: u64 = phases.iter().map(|(_, ns)| ns).sum();
            if total > 0 {
                for (name, ns) in phases {
                    let share = ns as f64 / total as f64;
                    out.push_str(&format!(
                        "           {name:<12} {} {:>5.1}%\n",
                        bar(share, 20),
                        share * 100.0
                    ));
                }
            }
        }
    }
    // Alert feed: newest alerts across the cluster, one line each.
    let mut alert_lines = Vec::new();
    for p in probes {
        if let Some(h) = &p.health {
            for a in &h.recent {
                let node = a.node.map_or("-".to_string(), |n| n.to_string());
                alert_lines.push(format!(
                    "  [{}] step {} node {} — {} (measured {:.4}, limit {:.4})",
                    a.kind.as_str(),
                    a.step,
                    node,
                    a.detail,
                    a.measured,
                    a.limit
                ));
            }
        }
    }
    if !alert_lines.is_empty() {
        out.push_str("alerts:\n");
        for l in alert_lines.iter().rev().take(16) {
            out.push_str(l);
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_obs::http::{ObsProviders, ObsServer};
    use cs_obs::{
        Alert, HealthState, MetricsSnapshot, NodeTrace, Registry, SeriesRing, Tracer, VirtualClock,
    };
    use std::sync::{Arc, Mutex};

    fn test_server(degraded: bool) -> ObsServer {
        let registry = Arc::new(Registry::new());
        registry.counter("net.gossip.sent.messages").add(10);
        registry.counter("phase.gossip.ns").add(900);
        registry.counter("phase.decrypt.ns").add(100);
        let ring = Arc::new(Mutex::new(SeriesRing::new(8)));
        ring.lock().unwrap().record(0, MetricsSnapshot::default());
        ring.lock().unwrap().record(1, registry.snapshot());
        let state = Arc::new(HealthState::new());
        if degraded {
            state.raise(Alert {
                kind: cs_obs::AlertKind::MassConservation,
                node: Some(2),
                step: 1,
                measured: 9.0,
                limit: 0.5,
                detail: "drill".into(),
            });
        }
        let reg = registry.clone();
        let tracer = Arc::new(Tracer::ring(Arc::new(VirtualClock::new()), 8));
        let (st, ri) = (state.clone(), ring.clone());
        ObsServer::serve(
            "127.0.0.1:0",
            ObsProviders {
                metrics: Box::new(move || reg.snapshot()),
                trace: Box::new(move || NodeTrace::capture(2, &tracer)),
                series: Box::new(move || ri.lock().unwrap().view()),
                health: Box::new(move || st.report()),
                healthz: Box::new(|| Liveness {
                    node: 2,
                    uptime_seconds: 7,
                    proto_version: crate::proto::PROTO_VERSION as u32,
                    wire_version: cs_net::wire::WIRE_VERSION as u32,
                    build: "test".into(),
                }),
            },
        )
        .unwrap()
    }

    #[test]
    fn probe_parses_all_three_routes_and_judges_the_slo() {
        let server = test_server(false);
        let addr = server.addr().to_string();
        let p = probe(&addr, Duration::from_secs(2));
        assert!(p.reachable(), "{:?}", p.error);
        assert!(!p.breached());
        assert_eq!(p.liveness.as_ref().unwrap().node, 2);
        assert_eq!(p.health.as_ref().unwrap().alerts_total, 0);
        let series = p.series.as_ref().unwrap();
        let gossip = series
            .counters
            .iter()
            .find(|c| c.name == "net.gossip.sent.messages")
            .unwrap();
        assert_eq!((gossip.total, gossip.rates.as_slice()), (10, &[10u64][..]));
        assert!(!slo_breached(std::slice::from_ref(&p)));
        let dash = render(std::slice::from_ref(&p));
        assert!(dash.contains("cluster healthy"), "{dash}");
        assert!(dash.contains("gossip"), "{dash}");
    }

    #[test]
    fn a_degraded_daemon_breaches_and_an_unreachable_one_does_not() {
        let server = test_server(true);
        let addr = server.addr().to_string();
        let degraded = probe(&addr, Duration::from_secs(2));
        assert!(degraded.breached());
        drop(server); // port now closed → unreachable, not a breach
        let gone = probe(&addr, Duration::from_millis(300));
        assert!(!gone.reachable());
        assert!(!gone.breached());
        assert!(slo_breached(&[degraded, gone]));
        let lone = probe(&addr, Duration::from_millis(300));
        assert!(!slo_breached(std::slice::from_ref(&lone)));
        let dash = render(std::slice::from_ref(&lone));
        assert!(dash.contains("UNREACHABLE"), "{dash}");
    }

    #[test]
    fn dashboard_surfaces_alert_feed_and_phase_bars() {
        let server = test_server(true);
        let addr = server.addr().to_string();
        let p = probe(&addr, Duration::from_secs(2));
        let dash = render(std::slice::from_ref(&p));
        assert!(dash.contains("cluster DEGRADED"), "{dash}");
        assert!(dash.contains("[mass_conservation]"), "{dash}");
        assert!(dash.contains("drill"), "{dash}");
        assert!(dash.contains("gossip"), "{dash}");
        assert!(dash.contains('%'), "phase bars render: {dash}");
    }

    #[test]
    fn sparkline_and_bar_handle_edges() {
        assert_eq!(spark(&[]), "");
        assert_eq!(spark(&[0, 0]), "▁▁");
        let s = spark(&[1, 4, 8]);
        assert_eq!(s.chars().count(), 3);
        assert!(s.ends_with('█'));
        assert_eq!(bar(0.0, 4), "░░░░");
        assert_eq!(bar(1.0, 4), "████");
        assert_eq!(bar(2.0, 4), "████", "overfull share clamps");
    }
}
