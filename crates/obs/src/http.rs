//! Zero-dependency HTTP exposition over `std::net`: `/metrics` in the
//! Prometheus text format, `/trace` as the flight recorder's JSON, plus
//! the health-monitor family — `/series` (time-series telemetry),
//! `/health` (invariant verdict; 503 when degraded), and `/healthz`
//! (liveness: the answer itself is the signal).
//!
//! One background thread, a non-blocking accept loop, one request per
//! connection — deliberately the smallest thing that a Prometheus scraper
//! or a `curl`-less `TcpStream` probe can talk to. The server owns no
//! metric state: it snapshots through caller-supplied provider closures
//! at request time, so a scrape always sees live values.

use crate::health::{HealthReport, HealthStatus, Liveness};
use crate::metrics::MetricsSnapshot;
use crate::prom::encode_text;
use crate::series::SeriesView;
use crate::trace::NodeTrace;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// The state providers an [`ObsServer`] snapshots per request, one per
/// route.
pub struct ObsProviders {
    /// Produces the cumulative metrics snapshot served at `/metrics`.
    pub metrics: Box<dyn Fn() -> MetricsSnapshot + Send + Sync>,
    /// Produces the flight-recorder capture served at `/trace`.
    pub trace: Box<dyn Fn() -> NodeTrace + Send + Sync>,
    /// Produces the time-series view served at `/series`.
    pub series: Box<dyn Fn() -> SeriesView + Send + Sync>,
    /// Produces the invariant verdict served at `/health` (HTTP 200 when
    /// healthy, 503 when degraded — probes can route on the status line).
    pub health: Box<dyn Fn() -> HealthReport + Send + Sync>,
    /// Produces the liveness facts served at `/healthz` (always 200).
    pub healthz: Box<dyn Fn() -> Liveness + Send + Sync>,
}

/// A running exposition endpoint; shuts down when dropped.
pub struct ObsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl ObsServer {
    /// Binds `addr` (e.g. `127.0.0.1:0`) and serves until dropped.
    pub fn serve(addr: &str, providers: ObsProviders) -> io::Result<ObsServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = stop.clone();
        let handle = thread::Builder::new()
            .name("obs-http".into())
            .spawn(move || {
                while !stop_flag.load(Ordering::Acquire) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            // Serve inline: scrapes are rare and tiny, a
                            // slow client only delays the next scrape.
                            let _ = handle_connection(stream, &providers);
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            thread::sleep(Duration::from_millis(20));
                        }
                        Err(_) => break,
                    }
                }
            })
            .expect("spawn obs-http");
        Ok(ObsServer {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for ObsServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn handle_connection(mut stream: TcpStream, providers: &ObsProviders) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    // Read up to the end of the request head; the request line is all we
    // route on.
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() > 8192 {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let head = String::from_utf8_lossy(&buf);
    let mut parts = head.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let (status, content_type, body) = if method != "GET" {
        (
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "method not allowed\n".to_string(),
        )
    } else {
        let json = |body: String| ("200 OK", "application/json", body);
        match path {
            "/metrics" => (
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                encode_text(&(providers.metrics)()),
            ),
            "/trace" => (
                "200 OK",
                "application/json",
                serde_json::to_string(&(providers.trace)()).unwrap_or_else(|_| "{}".into()),
            ),
            "/series" => {
                json(serde_json::to_string(&(providers.series)()).unwrap_or_else(|_| "{}".into()))
            }
            "/health" => {
                let report = (providers.health)();
                let status = if report.status == HealthStatus::Degraded {
                    "503 Service Unavailable"
                } else {
                    "200 OK"
                };
                (
                    status,
                    "application/json",
                    serde_json::to_string(&report).unwrap_or_else(|_| "{}".into()),
                )
            }
            "/healthz" => {
                json(serde_json::to_string(&(providers.healthz)()).unwrap_or_else(|_| "{}".into()))
            }
            _ => (
                "404 Not Found",
                "text/plain; charset=utf-8",
                "not found (try /metrics, /trace, /series, /health, or /healthz)\n".to_string(),
            ),
        }
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    );
    stream.write_all(response.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;
    use crate::trace::{Tracer, VirtualClock};

    fn probe(addr: SocketAddr, request: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect to obs server");
        stream.write_all(request.as_bytes()).unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn serves_metrics_trace_and_404_over_plain_tcp() {
        let registry = Arc::new(Registry::new());
        registry.counter("probe.hits").add(3);
        let tracer = Arc::new(Tracer::ring(Arc::new(VirtualClock::new()), 16));
        tracer.event("boot", &[]);
        let reg = registry.clone();
        let tr = tracer.clone();
        let server = ObsServer::serve(
            "127.0.0.1:0",
            ObsProviders {
                metrics: Box::new(move || reg.snapshot()),
                trace: Box::new(move || NodeTrace::capture(5, &tr)),
                series: Box::new(|| crate::series::SeriesRing::new(1).view()),
                health: Box::new(|| crate::health::HealthState::new().report()),
                healthz: Box::new(|| Liveness {
                    node: 5,
                    uptime_seconds: 0,
                    proto_version: 4,
                    wire_version: 3,
                    build: "test".into(),
                }),
            },
        )
        .unwrap();
        let addr = server.addr();

        let metrics = probe(addr, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(metrics.starts_with("HTTP/1.1 200 OK"), "{metrics}");
        assert!(metrics.contains("probe_hits 3"), "{metrics}");

        registry.counter("probe.hits").inc();
        let metrics = probe(addr, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(
            metrics.contains("probe_hits 4"),
            "scrapes are live: {metrics}"
        );

        let trace = probe(addr, "GET /trace HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(trace.contains("application/json"), "{trace}");
        assert!(trace.contains("\"boot\""), "{trace}");

        let missing = probe(addr, "GET /nope HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");

        drop(server); // clean shutdown joins the accept loop
    }

    #[test]
    fn health_family_routes_serve_json_and_degrade_to_503() {
        use crate::health::{Alert, AlertKind, HealthState};
        use crate::series::SeriesRing;
        use std::sync::Mutex;

        let registry = Arc::new(Registry::new());
        registry.counter("step.ticks").add(1);
        let tracer = Arc::new(Tracer::ring(Arc::new(VirtualClock::new()), 16));
        let state = Arc::new(HealthState::new());
        let ring = Arc::new(Mutex::new(SeriesRing::new(8)));
        ring.lock().unwrap().record(0, registry.snapshot());
        registry.counter("step.ticks").add(2);
        ring.lock().unwrap().record(1, registry.snapshot());

        let reg = registry.clone();
        let tr = tracer.clone();
        let st = state.clone();
        let ri = ring.clone();
        let server = ObsServer::serve(
            "127.0.0.1:0",
            ObsProviders {
                metrics: Box::new(move || reg.snapshot()),
                trace: Box::new(move || NodeTrace::capture(5, &tr)),
                series: Box::new(move || ri.lock().unwrap().view()),
                health: Box::new(move || st.report()),
                healthz: Box::new(|| Liveness {
                    node: 5,
                    uptime_seconds: 42,
                    proto_version: 4,
                    wire_version: 3,
                    build: "test".into(),
                }),
            },
        )
        .unwrap();
        let addr = server.addr();

        let series = probe(addr, "GET /series HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(series.starts_with("HTTP/1.1 200 OK"), "{series}");
        assert!(series.contains("\"step.ticks\""), "{series}");
        assert!(series.contains("\"rates\":[2]"), "{series}");

        let healthz = probe(addr, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(healthz.starts_with("HTTP/1.1 200 OK"), "{healthz}");
        assert!(healthz.contains("\"uptime_seconds\":42"), "{healthz}");
        assert!(healthz.contains("\"proto_version\":4"), "{healthz}");

        let health = probe(addr, "GET /health HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(health.starts_with("HTTP/1.1 200 OK"), "{health}");
        assert!(health.contains("\"Healthy\""), "{health}");

        state.raise(Alert {
            kind: AlertKind::MassConservation,
            node: Some(3),
            step: 1,
            measured: 99.0,
            limit: 0.5,
            detail: "test".into(),
        });
        let health = probe(addr, "GET /health HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(
            health.starts_with("HTTP/1.1 503"),
            "a raised alert flips the status line: {health}"
        );
        assert!(health.contains("\"Degraded\""), "{health}");
        assert!(health.contains("MassConservation"), "{health}");
    }
}
