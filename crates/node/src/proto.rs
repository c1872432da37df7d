//! The control-plane protocol between a coordinator and its `csnoded`
//! daemons.
//!
//! The *data plane* — gossip pushes, decryption traffic — runs
//! peer-to-peer over [`cs_net::tcp::TcpTransport`] and never touches the
//! coordinator. The control plane is the thin bootstrap-and-orchestration
//! layer around it:
//!
//! ```text
//! daemon → coordinator   Hello     (id, wire/proto version, data address)
//! coordinator → daemon   Bootstrap (config, population manifest, key share)
//! coordinator → daemon   Step      (per-iteration seed + contribution)
//! daemon → coordinator   Ready     (node constructed — ready to gossip)
//! coordinator → daemon   Go        (everyone is ready — start gossiping)
//! daemon → coordinator   Done      (own part of the step finished)
//! coordinator → daemon   StepEnd   (everyone is done — stop serving)
//! daemon → coordinator   Report    (estimate, op counts, traffic delta)
//! coordinator → daemon   Shutdown
//! ```
//!
//! Between steps a coordinator may also send `Metrics` (a live scrape
//! request); the daemon answers with `MetricsReport`, a cumulative
//! [`cs_obs::MetricsSnapshot`] of its transport and step-phase counters.
//! Likewise `Trace` / `TraceReport` scrape the daemon's flight recorder —
//! a bounded ring of causal trace events ([`cs_obs::NodeTrace`]) the
//! coordinator merges into one cluster timeline — and `Health` /
//! `HealthReport` scrape the daemon's invariant-audit verdict
//! ([`cs_obs::HealthReport`]), which the coordinator folds into one
//! cluster health verdict.
//!
//! Control messages are serde-JSON documents behind a `u32` length prefix —
//! they are low-rate (a handful per step), so readability beats compactness;
//! the latency-critical path is the wire codec, not this. Both sides check
//! [`PROTO_VERSION`] and [`cs_net::wire::WIRE_VERSION`] during the
//! handshake, so a mixed-version cluster fails at bootstrap instead of
//! corrupting a run.

use chiaroscuro::noise::SlotLayout;
use chiaroscuro::ChiaroscuroConfig;
use cs_crypto::{KeyShare, PublicKey};
use cs_net::node::NodeReport;
use cs_net::transport::{LinkConfig, TrafficSnapshot};
use serde::{Deserialize, Serialize};
use std::io::{self, Read, Write};
use std::time::Duration;

/// Control-plane protocol version; both sides must match exactly.
/// v2 added the `Metrics` / `MetricsReport` scrape pair and the
/// metrics snapshot carried by `Report`; v3 added the `Trace` /
/// `TraceReport` flight-recorder scrape pair and the trace context
/// carried by `Step`; v4 added the `Health` / `HealthReport` scrape
/// pair, the observability address carried by `Hello`, and the fault
/// spec carried by `Bootstrap`; v5 dropped the post-completion wait from
/// the `Bootstrap`'s [`TimingSpec`] along with the termination votes it
/// waited for; v6 dropped the `overlay` field from the config `Bootstrap`
/// carries; v7 dropped its `failure` model; v8 its simulated price list;
/// v9 its fixed-point scale (a constant), and the `Bootstrap`'s committee
/// and link-draw seed, which a daemon derives from the config and the
/// manifest.
pub const PROTO_VERSION: u8 = 9;

/// Upper bound on one control message (guards the length-prefix read).
const MAX_CONTROL_BYTES: usize = 64 << 20;

/// A [`LinkConfig`] in wire-friendly units (the vendored serde stand-in has
/// no `Duration` impl, and explicit microseconds are unambiguous anyway).
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct LinkSpec {
    /// Fixed one-way delivery delay, microseconds.
    pub latency_us: u64,
    /// Additional uniformly-random delay in `[0, jitter]`, microseconds.
    pub jitter_us: u64,
    /// Per-frame loss probability.
    pub loss: f64,
    /// Link bandwidth in bytes/second; `None` = infinitely fast.
    pub bandwidth_bytes_per_sec: Option<u64>,
}

impl LinkSpec {
    /// A perfect link (the right default for a real TCP cluster — the
    /// kernel provides the genuine article).
    pub fn ideal() -> Self {
        LinkSpec::default()
    }

    /// Converts to the transport's native form.
    pub fn to_link_config(self) -> LinkConfig {
        LinkConfig {
            latency: Duration::from_micros(self.latency_us),
            jitter: Duration::from_micros(self.jitter_us),
            loss: self.loss,
            bandwidth_bytes_per_sec: self.bandwidth_bytes_per_sec,
        }
    }
}

/// Per-node event-loop timing, in wire-friendly units (see
/// [`cs_net::runtime::NetConfig`] for the semantics of each knob).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimingSpec {
    /// Pacing between a node's gossip pushes, microseconds.
    pub push_interval_us: u64,
    /// Decryption-round give-up deadline, milliseconds.
    pub decrypt_deadline_ms: u64,
    /// Hard per-step deadline, milliseconds.
    pub step_timeout_ms: u64,
}

impl Default for TimingSpec {
    fn default() -> Self {
        TimingSpec {
            push_interval_us: 300,
            decrypt_deadline_ms: 10_000,
            step_timeout_ms: 60_000,
        }
    }
}

/// Everything that ever crosses a control connection, in either direction.
// Control messages are low-rate (a handful per step); the Bootstrap
// variant's size gap to StepEnd/Shutdown is irrelevant next to the key
// material it carries.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum ControlMsg {
    /// Daemon → coordinator: first message after connecting.
    Hello {
        /// The daemon's node id (assigned by the supervisor's command line).
        node: usize,
        /// The daemon's data-plane wire codec version.
        wire_version: u8,
        /// The daemon's control-plane protocol version.
        proto_version: u8,
        /// The address the daemon's data-plane listener is bound to.
        data_addr: String,
        /// The address the daemon's observability HTTP server is bound
        /// to, if one was requested (`--obs-addr`). Lets the coordinator
        /// hand a live cluster's scrape endpoints to tools like `cswatch`
        /// without out-of-band discovery.
        obs_addr: Option<String>,
    },
    /// Coordinator → daemon: the full run context. Sent once, before the
    /// first step.
    Bootstrap {
        /// The engine configuration (the daemon derives the fixed-point
        /// codec, packing plan, and pacing defaults from it).
        config: ChiaroscuroConfig,
        /// Aggregate-vector slot layout of the run.
        layout: SlotLayout,
        /// The population manifest: `population[i]` is node `i`'s
        /// data-plane listener address. With a key, its first
        /// `config.threshold.parties` nodes are the decryption committee
        /// (`chiaroscuro::rounds::committee`).
        population: Vec<String>,
        /// The shared public key (`None` in simulated-crypto mode).
        pk: Option<PublicKey>,
        /// This daemon's key share, if it sits on the committee.
        share: Option<KeyShare>,
        /// Link shims for the data-plane transport.
        link: LinkSpec,
        /// Event-loop timing.
        timing: TimingSpec,
        /// Scripted fault injection for monitoring drills (`None` on
        /// honest runs). The daemon named by the spec corrupts its own
        /// partial decryptions; the invariant audit must catch it.
        fault: Option<cs_net::FaultSpec>,
    },
    /// Coordinator → daemon: run one computation step.
    Step {
        /// 0-based step index.
        step: usize,
        /// The engine's per-iteration seed (tags every frame, seeds the
        /// node's RNG — identical across the cluster).
        step_seed: u64,
        /// This node's cleartext contribution vector, or `None` if it is
        /// down at step start (it then stays dark for the whole step).
        contribution: Option<Vec<f64>>,
        /// The coordinator's causal trace context for this step: every
        /// daemon's `step.start` span parents onto the coordinator's
        /// `Step` send, linking the whole cluster timeline to one root.
        /// `NONE` when the coordinator runs untraced.
        ctx: cs_obs::TraceContext,
    },
    /// Daemon → coordinator: step context received and the protocol node
    /// constructed (contribution encrypted) — ready to gossip. The
    /// coordinator's `Go` barrier makes churn offsets mean "into the
    /// *gossip* phase" on every machine, exactly like the in-process TCP
    /// host's start gate.
    Ready {
        /// The step being acknowledged.
        step: usize,
        /// The reporting node.
        node: usize,
    },
    /// Coordinator → daemon: every living daemon is ready — start
    /// gossiping.
    Go {
        /// The step being released.
        step: usize,
    },
    /// Daemon → coordinator: own part of the step finished (estimate
    /// obtained or given up); still serving committee duties.
    Done {
        /// The step being announced — the coordinator drops stale
        /// announcements from a previous step's stragglers.
        step: usize,
        /// The reporting node.
        node: usize,
    },
    /// Coordinator → daemon: the whole population is done — stop the step
    /// loop and report.
    StepEnd,
    /// Daemon → coordinator: the step's outcome.
    Report {
        /// The step being reported — a straggler report from an earlier
        /// step must never be attributed to the current one.
        step: usize,
        /// The node's protocol report.
        report: NodeReport,
        /// This step's data-plane traffic (already delta'd against the
        /// previous step — summing across daemons gives cluster totals).
        snapshot: TrafficSnapshot,
        /// This step's metrics delta (same delta discipline as `snapshot`;
        /// summing across daemons with [`cs_obs::MetricsSnapshot::plus`]
        /// gives cluster totals).
        metrics: cs_obs::MetricsSnapshot,
    },
    /// Coordinator → daemon: scrape the daemon's cumulative metrics.
    /// Answered with [`ControlMsg::MetricsReport`]; valid between steps
    /// (inside a step the daemon is in its step loop and will answer after
    /// reporting).
    Metrics,
    /// Daemon → coordinator: the cumulative [`cs_obs::MetricsSnapshot`]
    /// since daemon start — **not** delta'd, unlike the per-step `Report`.
    MetricsReport {
        /// The reporting node.
        node: usize,
        /// Everything the daemon's registry has accumulated: `net.*` and
        /// `tcp.*` transport counters plus the per-step phase profiles
        /// folded into `phase.<name>.ns` counters.
        metrics: cs_obs::MetricsSnapshot,
    },
    /// Coordinator → daemon: scrape the daemon's flight recorder.
    /// Answered with [`ControlMsg::TraceReport`]; like `Metrics`, valid
    /// between steps.
    Trace,
    /// Daemon → coordinator: everything currently in the daemon's bounded
    /// flight-recorder ring — cumulative across steps until the ring
    /// evicts, **not** cleared by the scrape.
    TraceReport {
        /// The reporting node.
        node: usize,
        /// The flight-recorder capture.
        trace: cs_obs::NodeTrace,
    },
    /// Coordinator → daemon: scrape the daemon's health verdict.
    /// Answered with [`ControlMsg::HealthReport`]; like `Metrics`, valid
    /// between steps.
    Health,
    /// Daemon → coordinator: the daemon's cumulative invariant-audit
    /// verdict — degraded as soon as any alert has fired since start.
    HealthReport {
        /// The reporting node.
        node: usize,
        /// The health verdict with per-kind alert counts and the most
        /// recent alerts.
        report: cs_obs::HealthReport,
        /// Seconds since the daemon process started (liveness signal —
        /// a freshly restarted daemon resets to zero).
        uptime_seconds: u64,
    },
    /// Coordinator → daemon: exit cleanly.
    Shutdown,
}

/// Writes one length-prefixed control message.
pub fn write_msg<W: Write>(w: &mut W, msg: &ControlMsg) -> io::Result<()> {
    let json = serde_json::to_string(msg).map_err(|e| bad_data(e.to_string()))?;
    let bytes = json.as_bytes();
    w.write_all(&(bytes.len() as u32).to_le_bytes())?;
    w.write_all(bytes)?;
    w.flush()
}

/// Reads one length-prefixed control message (blocking).
pub fn read_msg<R: Read>(r: &mut R) -> io::Result<ControlMsg> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_CONTROL_BYTES {
        let msg = format!("control message of {len} bytes exceeds the cap");
        return Err(bad_data(msg));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    let json = std::str::from_utf8(&buf).map_err(|e| bad_data(e.to_string()))?;
    serde_json::from_str(json).map_err(|e| bad_data(e.to_string()))
}

/// The error of anything malformed on a control channel.
pub(crate) fn bad_data(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_messages_roundtrip_through_the_framing() {
        let msgs = vec![
            ControlMsg::Hello {
                node: 3,
                wire_version: cs_net::wire::WIRE_VERSION,
                proto_version: PROTO_VERSION,
                data_addr: "127.0.0.1:4567".into(),
                obs_addr: Some("127.0.0.1:9100".into()),
            },
            ControlMsg::Step {
                step: 1,
                step_seed: 42,
                contribution: Some(vec![1.0, -2.5, 0.0]),
                ctx: cs_obs::TraceContext {
                    trace_id: 42,
                    span_id: 0x11,
                    parent_id: 0,
                },
            },
            ControlMsg::Step {
                step: 2,
                step_seed: 43,
                contribution: None,
                ctx: cs_obs::TraceContext::NONE,
            },
            ControlMsg::Ready { step: 1, node: 7 },
            ControlMsg::Go { step: 1 },
            ControlMsg::Done { step: 1, node: 7 },
            ControlMsg::StepEnd,
            ControlMsg::Report {
                step: 1,
                report: NodeReport::dead(7),
                snapshot: TrafficSnapshot::default(),
                metrics: Default::default(),
            },
            ControlMsg::Metrics,
            ControlMsg::MetricsReport {
                node: 7,
                metrics: Default::default(),
            },
            ControlMsg::Health,
            ControlMsg::HealthReport {
                node: 7,
                report: {
                    let state = cs_obs::HealthState::new();
                    state.raise(cs_obs::Alert {
                        kind: cs_obs::AlertKind::MassConservation,
                        node: Some(7),
                        step: 1,
                        measured: 3.5,
                        limit: 0.5,
                        detail: "drill".into(),
                    });
                    state.report()
                },
                uptime_seconds: 12,
            },
            ControlMsg::Trace,
            ControlMsg::TraceReport {
                node: 7,
                trace: cs_obs::NodeTrace {
                    node: 7,
                    dropped: 1,
                    events: vec![],
                },
            },
            ControlMsg::Shutdown,
        ];
        let mut buf = Vec::new();
        for m in &msgs {
            write_msg(&mut buf, m).unwrap();
        }
        let mut cursor = std::io::Cursor::new(buf);
        for m in &msgs {
            let back = read_msg(&mut cursor).unwrap();
            assert_eq!(
                serde_json::to_string(&back).unwrap(),
                serde_json::to_string(m).unwrap()
            );
        }
    }

    #[test]
    fn bootstrap_roundtrips_with_key_material() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let config = ChiaroscuroConfig::test_real();
        let tkp = cs_crypto::ThresholdKeyPair::generate(
            &cs_crypto::KeyGenOptions::insecure_test_size(),
            config.threshold,
            &mut rng,
        )
        .unwrap();
        let msg = ControlMsg::Bootstrap {
            config,
            layout: SlotLayout {
                k: 2,
                series_len: 3,
            },
            population: vec!["127.0.0.1:1000".into(), "127.0.0.1:1001".into()],
            pk: Some(tkp.public().clone()),
            share: Some(tkp.shares()[0].clone()),
            link: LinkSpec::ideal(),
            timing: TimingSpec::default(),
            fault: Some(cs_net::FaultSpec::CorruptPartials { node: 1 }),
        };
        let mut buf = Vec::new();
        write_msg(&mut buf, &msg).unwrap();
        let back = read_msg(&mut std::io::Cursor::new(buf)).unwrap();
        let ControlMsg::Bootstrap { pk, share, .. } = back else {
            panic!("wrong variant");
        };
        assert_eq!(pk.as_ref(), Some(tkp.public()));
        assert_eq!(share.as_ref(), Some(&tkp.shares()[0]));
    }

    #[test]
    fn oversized_control_frames_are_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        buf.extend_from_slice(b"garbage");
        assert!(read_msg(&mut std::io::Cursor::new(buf)).is_err());
    }
}
