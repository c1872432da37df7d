//! The `csnoded` daemon: one Chiaroscuro participant per OS process.
//!
//! Lifecycle: bind the data-plane listener (ephemeral port), connect to the
//! coordinator, introduce yourself (`Hello` — node id, wire + control
//! protocol versions, data address), receive the `Bootstrap` (engine
//! configuration, population manifest, key share if on the committee), and
//! then serve `Step` commands until `Shutdown`: each step drives one
//! [`ProtocolNode`] — the *same* sans-IO state machine every other
//! substrate runs, under the same [`NodeDriver`] and the same wall-clock
//! [`pump`] as the in-process TCP host — over a [`TcpTransport`] whose peers
//! are other processes, announces `Done` when its own part completes,
//! keeps serving committee duties until `StepEnd`, and ships its
//! [`cs_net::node::NodeReport`] plus the step's traffic delta back up the
//! control channel.
//!
//! The daemon is deliberately boring: protocol behavior lives in
//! `cs_net::node`, timing in `cs_net::driver`, transport in `cs_net::tcp`;
//! this module only sequences bootstrap and steps. If the control connection
//! dies the daemon exits: the coordinator *is* the experiment.
//!
//! For forensics every daemon keeps a *flight recorder*: a bounded
//! DropOld ring of causal trace events fed by each step's
//! [`cs_obs::CausalTracer`]. The ring is scraped live (`Trace` on the
//! control plane, `/trace` on the optional `--obs-addr` HTTP endpoint)
//! and dumped to stderr as one JSON line on panic, on orphaning, on a
//! mid-step control error, and after any step that observed a peer
//! failure — so a node that dies (or watches a neighbor die) leaves its
//! last moments behind even when no scraper ever arrives.
//!
//! On top of that sits the *health monitor*: after every step the daemon
//! runs the [`cs_net::audit`] invariant checks over its own report and
//! traffic delta, feeding a cumulative [`cs_obs::HealthState`] (scraped
//! via `Health` on the control plane, `/health` over HTTP — 503 once
//! degraded) and a [`cs_obs::SeriesRing`] of per-step metric scrapes
//! (`/series`), with `/healthz` answering liveness facts uncondition-
//! ally. The `cswatch` binary polls exactly these routes.

use crate::proto::{bad_data, read_msg, write_msg, ControlMsg, TimingSpec, PROTO_VERSION};
use chiaroscuro::config::CryptoMode;
use chiaroscuro::noise::SlotLayout;
use chiaroscuro::rounds::{self, StepCipher};
use chiaroscuro::ChiaroscuroConfig;
use cs_crypto::threshold::CombinePlanCache;
use cs_crypto::{FastEncryptor, KeyShare};
use cs_net::driver::{NodeDriver, Timing};
use cs_net::node::{NodeCrypto, NodeParams, ProtocolNode};
use cs_net::runtime::pump;
use cs_net::tcp::{PeerDirectory, TcpEndpoint, TcpTransport};
use cs_net::transport::{NodeId, TrafficSnapshot};
use cs_net::wire::WIRE_VERSION;
use cs_obs::http::{ObsProviders, ObsServer};
use cs_obs::{
    CausalTracer, Clock, HealthState, Liveness, NodeTrace, Registry, SeriesRing, TraceContext,
    Tracer, WallClock,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Command-line surface of the daemon.
#[derive(Clone, Debug)]
pub struct DaemonOpts {
    /// This participant's node id (its index in the population manifest).
    pub id: usize,
    /// The coordinator's control address, `host:port`.
    pub coordinator: String,
    /// Data-plane bind address; the default takes an ephemeral local port.
    pub bind: String,
    /// Address peers should connect to, when it differs from the bind
    /// address — required for wildcard binds (`0.0.0.0:PORT` would
    /// otherwise enter the manifest verbatim and route every peer to its
    /// own localhost). A bare `HOST` inherits the bound port.
    pub advertise: Option<String>,
    /// Address for the HTTP exposition endpoint (`/metrics` Prometheus
    /// text, `/trace` flight-recorder JSON, `/series` time-series
    /// telemetry, `/health` invariant verdict, `/healthz` liveness);
    /// `None` disables it.
    pub obs_addr: Option<String>,
}

impl DaemonOpts {
    /// Default options for `id` against `coordinator`.
    pub fn new(id: usize, coordinator: impl Into<String>) -> Self {
        DaemonOpts {
            id,
            coordinator: coordinator.into(),
            bind: "127.0.0.1:0".into(),
            advertise: None,
            obs_addr: None,
        }
    }
}

/// Flight-recorder capacity, in events. A 16-node step produces a few
/// hundred events per node, so 8k of DropOld history holds the last
/// several steps — enough context around any crash.
const FLIGHT_RECORDER_EVENTS: usize = 8192;

/// Time-series ring capacity, in per-step scrapes. One sample lands per
/// step, so this is the horizon (in steps) of the `/series` rate and
/// windowed-quantile views.
const SERIES_SAMPLES: usize = 64;

/// Daemon-lifetime health-monitor state, shared between the step loop
/// (which feeds it after every step) and the obs HTTP endpoint plus the
/// control-plane `Health` scrape (which serve it).
struct Monitor {
    /// Cumulative invariant-audit verdict: healthy until the first alert.
    health: HealthState,
    /// Ring of per-step cumulative metric scrapes behind `/series`.
    series: Mutex<SeriesRing>,
    /// Process start, for the uptime signal on `/healthz` and the
    /// `obs.uptime.seconds` gauge.
    start: Instant,
}

impl Monitor {
    fn new() -> Monitor {
        Monitor {
            health: HealthState::new(),
            series: Mutex::new(SeriesRing::new(SERIES_SAMPLES)),
            start: Instant::now(),
        }
    }

    fn uptime_seconds(&self) -> u64 {
        self.start.elapsed().as_secs()
    }
}

/// Dumps the flight recorder to stderr as one JSON line — crash forensics
/// of last resort when no coordinator is left to scrape it. The marker
/// prefix keeps the line greppable in a supervisor's interleaved log.
fn dump_flight(node: u64, flight: &Tracer, why: &str) {
    let trace = NodeTrace::capture(node, flight);
    match serde_json::to_string(&trace) {
        Ok(json) => eprintln!("csnoded[{node}] flight-recorder ({why}): {json}"),
        Err(e) => eprintln!("csnoded[{node}] flight-recorder ({why}): serialize failed: {e}"),
    }
}

/// The daemon's per-run context, assembled from the `Bootstrap` message.
struct RunContext {
    config: ChiaroscuroConfig,
    layout: SlotLayout,
    committee: Vec<usize>,
    /// The run's ciphertext layout, `None` in simulated-crypto mode. Planned
    /// once, at bootstrap, from public inputs only — so every daemon agrees
    /// on it without coordination — around a fixed-base encryptor whose
    /// comb table is likewise built once per run, not per step.
    cipher: Option<StepCipher>,
    share: Option<KeyShare>,
    timing: TimingSpec,
    transport: Arc<TcpTransport>,
    /// Per-committee-subset combine plans, cached across every step this
    /// daemon serves (the subset only changes when the responder set does).
    plans: Arc<CombinePlanCache>,
    /// The Bootstrap's fault spec. When it names *this* daemon, every
    /// partial decryption it emits gets its value bytes corrupted — a
    /// scripted drill the invariant audit must catch.
    fault: Option<cs_net::FaultSpec>,
}

impl RunContext {
    /// Builds the context from the coordinator's answer to the `Hello`:
    /// the population manifest wires `endpoint` into the data-plane
    /// transport; key material and config arrive alongside. Everything in
    /// it is outside input — a malformed one is an error, never a panic.
    fn bootstrap(
        id: NodeId,
        endpoint: TcpEndpoint,
        registry: &Registry,
        boot: ControlMsg,
    ) -> io::Result<RunContext> {
        let ControlMsg::Bootstrap {
            config,
            layout,
            population,
            pk,
            share,
            link,
            timing,
            fault,
        } = boot
        else {
            return Err(bad_data("expected Bootstrap after Hello"));
        };
        config.validate().map_err(|e| bad_data(e.to_string()))?;
        let n = population.len();
        if id >= n || n < 2 {
            let msg = format!("node id {id} in a population of {n} — need at least two nodes");
            return Err(bad_data(msg));
        }
        let link = link.to_link_config();
        link.validate().map_err(|e| bad_data(e.to_string()))?;
        let cipher = match pk {
            Some(_) if !matches!(config.crypto, CryptoMode::Real { .. }) => {
                return Err(bad_data("public key shipped for a simulated-crypto run"));
            }
            Some(pk) => {
                let pk = Arc::new(pk);
                // Encryption randomness is private per daemon — only the
                // layout must match across the cluster.
                let mut enc_rng =
                    StdRng::seed_from_u64(config.seed ^ 0x5EED_DAE0 ^ (id as u64) << 32);
                let enc = Arc::new(FastEncryptor::new(pk.clone(), &mut enc_rng));
                Some(
                    StepCipher::plan(&config, &pk, &enc, &layout, n)
                        .map_err(|e| bad_data(format!("step cipher: {e}")))?,
                )
            }
            None => None,
        };
        // The coordinator's own rule, from the same public inputs: a keyed
        // run's first `parties` nodes hold the shares.
        let committee = if cipher.is_some() {
            rounds::committee(config.threshold.parties, n)
        } else {
            Vec::new()
        };
        let directory: Vec<SocketAddr> = population
            .iter()
            .map(|a| {
                a.parse()
                    .map_err(|e| bad_data(format!("bad address {a:?}: {e}")))
            })
            .collect::<io::Result<_>>()?;
        // The link shims draw from the run seed, one stream per daemon.
        let transport = Arc::new(endpoint.into_transport(
            &[id],
            PeerDirectory::new(directory),
            link,
            config.seed ^ (id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            Some(registry),
        ));
        Ok(RunContext {
            config,
            layout,
            committee,
            cipher,
            share,
            timing,
            transport,
            plans: Arc::new(CombinePlanCache::new()),
            fault,
        })
    }
}

/// Runs the daemon to completion (clean `Shutdown` or control-channel
/// death). This is the body of the `csnoded` binary; tests can call it
/// in-process as well.
pub fn run(opts: &DaemonOpts) -> io::Result<()> {
    // Bind first: the ephemeral data-plane port is part of our Hello.
    let endpoint = TcpEndpoint::bind(&opts.bind)?;
    let bound = endpoint.local_addr()?;
    // What enters the population manifest. A wildcard bind is unroutable
    // for peers, so it demands an explicit advertise address.
    let data_addr = match &opts.advertise {
        Some(adv) if adv.contains(':') => adv.clone(),
        Some(host) => format!("{host}:{}", bound.port()),
        None if bound.ip().is_unspecified() => {
            return Err(bad_data(format!(
                "bound to wildcard {bound} — peers cannot route to it; \
                 pass --advertise <HOST[:PORT]>"
            )));
        }
        None => bound.to_string(),
    };

    // Daemon-lifetime registry: transport counters accumulate across every
    // step this process runs, so a live `Metrics` scrape sees cumulative
    // totals while per-step `Report`s carry `since()` deltas.
    let registry = Arc::new(Registry::new());
    // Daemon-lifetime flight recorder: a bounded DropOld ring of causal
    // trace events (a crash wants the *last* moments, not the first).
    // Every step's tracer appends here; the ring is dumped on panic or
    // control-channel death and scraped via `Trace` / `/trace`.
    let flight = Arc::new(Tracer::ring(
        Arc::new(WallClock::new()) as Arc<dyn Clock>,
        FLIGHT_RECORDER_EVENTS,
    ));
    flight.count_drops_in(&registry);
    // Crash forensics: a panicking daemon dumps its ring to stderr after
    // the default hook has printed the panic itself.
    {
        let flight = flight.clone();
        let node = opts.id as u64;
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            default_hook(info);
            dump_flight(node, &flight, "panic");
        }));
    }
    let monitor = Arc::new(Monitor::new());

    // The optional HTTP exposition endpoint, bound *before* the Hello so
    // the coordinator learns the scrape address (an ephemeral `:0` port is
    // unknowable otherwise). Held for the daemon's lifetime; dropping it
    // joins the accept loop.
    let _obs = match &opts.obs_addr {
        Some(addr) => {
            let node = opts.id as u64;
            let server = {
                let reg = registry.clone();
                let mon = monitor.clone();
                let fl = flight.clone();
                let (mon_s, mon_h, mon_z) = (monitor.clone(), monitor.clone(), monitor.clone());
                ObsServer::serve(
                    addr,
                    ObsProviders {
                        metrics: Box::new(move || {
                            // The uptime gauge is refreshed at scrape time,
                            // so a watchdog always reads current liveness.
                            reg.gauge("obs.uptime.seconds")
                                .set(mon.uptime_seconds() as i64);
                            reg.snapshot()
                        }),
                        trace: Box::new(move || NodeTrace::capture(node, &fl)),
                        series: Box::new(move || mon_s.series.lock().expect("series lock").view()),
                        health: Box::new(move || mon_h.health.report()),
                        healthz: Box::new(move || Liveness {
                            node,
                            uptime_seconds: mon_z.uptime_seconds(),
                            proto_version: PROTO_VERSION as u32,
                            wire_version: WIRE_VERSION as u32,
                            build: env!("CARGO_PKG_VERSION").into(),
                        }),
                    },
                )?
            };
            eprintln!("csnoded[{}] obs endpoint on {}", opts.id, server.addr());
            Some(server)
        }
        None => None,
    };
    let obs_addr = _obs.as_ref().map(|s| s.addr().to_string());

    let mut control = TcpStream::connect(&opts.coordinator)?;
    control.set_nodelay(true)?;
    write_msg(
        &mut control,
        &ControlMsg::Hello {
            node: opts.id,
            wire_version: WIRE_VERSION,
            proto_version: PROTO_VERSION,
            data_addr,
            obs_addr,
        },
    )?;

    let ctx = RunContext::bootstrap(opts.id, endpoint, &registry, read_msg(&mut control)?)?;

    // Control reader thread: turns the blocking stream into a channel the
    // step loop can poll without stalling the protocol. EOF becomes a
    // Shutdown sentinel — an orphaned daemon exits — with `control_died`
    // distinguishing it from a clean coordinator-sent Shutdown.
    let control_died = Arc::new(AtomicBool::new(false));
    let (tx, rx) = mpsc::channel::<ControlMsg>();
    let mut reader = control.try_clone()?;
    let died_flag = control_died.clone();
    thread::Builder::new()
        .name("csnoded-control".into())
        .spawn(move || loop {
            match read_msg(&mut reader) {
                Ok(msg) => {
                    if tx.send(msg).is_err() {
                        return;
                    }
                }
                Err(_) => {
                    died_flag.store(true, Ordering::Release);
                    let _ = tx.send(ControlMsg::Shutdown);
                    return;
                }
            }
        })
        .expect("spawn control reader");

    let result = serve_steps(
        opts,
        &ctx,
        &registry,
        &flight,
        &monitor,
        &control_died,
        &rx,
        &mut control,
    );
    if result.is_err() {
        // A mid-step control death propagates as an error; leave the last
        // moments behind before the process exits.
        dump_flight(opts.id as u64, &flight, "exiting on error");
    }
    result
}

/// The daemon's command loop: serve `Step` / `Metrics` / `Trace` /
/// `Health` until `Shutdown` (or the control channel dies).
#[allow(clippy::too_many_arguments)] // one call site; daemon-lifetime state
fn serve_steps(
    opts: &DaemonOpts,
    ctx: &RunContext,
    registry: &Registry,
    flight: &Arc<Tracer>,
    monitor: &Monitor,
    control_died: &AtomicBool,
    rx: &mpsc::Receiver<ControlMsg>,
    control: &mut TcpStream,
) -> io::Result<()> {
    let mut last_snapshot = TrafficSnapshot::default();
    let mut last_metrics = cs_obs::MetricsSnapshot::default();
    loop {
        match rx.recv() {
            Ok(ControlMsg::Step {
                step,
                step_seed,
                contribution,
                ctx: step_ctx,
            }) => {
                let mut report = run_step(
                    ctx,
                    opts.id,
                    step,
                    step_seed,
                    step_ctx,
                    contribution,
                    flight,
                    rx,
                    control,
                )?;
                // Fold the step's phase profile and capped pushes into the
                // registry *before* snapshotting, so `phase.<name>.ns` and
                // `gossip.pushes_capped` ride the same delta discipline as
                // the transport counters.
                registry
                    .counter("gossip.pushes_capped")
                    .add(report.pushes_capped);
                for phase in cs_obs::StepPhase::ALL {
                    let ns = report.profile.get(phase);
                    if ns > 0 {
                        registry
                            .counter(&format!("phase.{}.ns", phase.name()))
                            .add(ns);
                    }
                }
                let now = ctx.transport.snapshot();
                let delta = now.since(&last_snapshot);
                last_snapshot = now;
                // Invariant audit over this step's own report and traffic
                // delta, *before* the final snapshot so any freshly minted
                // `obs.alert.<kind>` counter rides this step's Report
                // delta. Violations land in the flight recorder and flip
                // the cumulative health verdict behind `/health`.
                let pre_audit = registry.snapshot().since(&last_metrics);
                // A SIGKILLed peer says nothing. What shows its death is
                // this step's own transport evidence — a connect or write
                // toward a peer that failed, a peer's connection that
                // closed — read *after* the traffic snapshot, so a loss
                // reclassified between the two reads is always covered.
                let failed = [
                    "tcp.connect.retries",
                    "tcp.write.retries",
                    "tcp.inbound.closed",
                ];
                report.peer_failures = failed.iter().map(|name| pre_audit.counter(name)).sum();
                if report.peer_failures > 0 {
                    // The forensic window around the death, while the ring
                    // still holds it.
                    dump_flight(opts.id as u64, flight, "peer death detected");
                }
                let mut evidence = cs_net::audit::distill(
                    step as u64,
                    std::slice::from_ref(&report),
                    &delta,
                    &pre_audit,
                );
                // A step that watched a peer die leaves frames mid-
                // reclassification (sent-then-lost against the dead peer),
                // racing the two snapshots above. Churn is fail-stop, not
                // an invariant violation — skip the frame-conservation
                // check for this step; mass and share discipline still run.
                if report.peer_failures > 0 {
                    evidence.traffic.clear();
                }
                cs_obs::health::audit(&evidence, registry, Some(flight), Some(&monitor.health));
                registry
                    .gauge("obs.uptime.seconds")
                    .set(monitor.uptime_seconds() as i64);
                let metrics_now = registry.snapshot();
                let metrics_delta = metrics_now.since(&last_metrics);
                // One `/series` sample per step, tagged with the step
                // index; rates and windowed quantiles derive from these.
                monitor
                    .series
                    .lock()
                    .expect("series lock")
                    .record(step as u64, metrics_now.clone());
                last_metrics = metrics_now;
                write_msg(
                    control,
                    &ControlMsg::Report {
                        step,
                        report,
                        snapshot: delta,
                        metrics: metrics_delta,
                    },
                )?;
            }
            // Live scrape: cumulative since daemon start, not delta'd.
            Ok(ControlMsg::Metrics) => {
                registry
                    .gauge("obs.uptime.seconds")
                    .set(monitor.uptime_seconds() as i64);
                write_msg(
                    control,
                    &ControlMsg::MetricsReport {
                        node: opts.id,
                        metrics: registry.snapshot(),
                    },
                )?;
            }
            // Health scrape: the cumulative invariant-audit verdict since
            // daemon start (degraded stays degraded — alerts never clear).
            Ok(ControlMsg::Health) => {
                write_msg(
                    control,
                    &ControlMsg::HealthReport {
                        node: opts.id,
                        report: monitor.health.report(),
                        uptime_seconds: monitor.uptime_seconds(),
                    },
                )?;
            }
            // Flight-recorder scrape: capture without draining, so a later
            // crash dump still has the history.
            Ok(ControlMsg::Trace) => {
                write_msg(
                    control,
                    &ControlMsg::TraceReport {
                        node: opts.id,
                        trace: NodeTrace::capture(opts.id as u64, flight),
                    },
                )?;
            }
            Ok(ControlMsg::Shutdown) | Err(_) => {
                if control_died.load(Ordering::Acquire) {
                    // Orphaned (coordinator gone without a Shutdown): exit
                    // cleanly but leave the forensic record behind.
                    dump_flight(opts.id as u64, flight, "control connection lost");
                }
                return Ok(());
            }
            // A late `Go` or `StepEnd` of a step this daemon already left
            // is harmless, so ignore anything that is neither work nor a
            // shutdown.
            Ok(_) => {}
        }
    }
}

/// Polls the control channel mid-step: `Break` once the coordinator ends
/// the step, an error once the channel is dead.
fn poll_control(rx: &mpsc::Receiver<ControlMsg>) -> io::Result<ControlFlow<()>> {
    match rx.try_recv() {
        Ok(ControlMsg::StepEnd) => Ok(ControlFlow::Break(())),
        Ok(ControlMsg::Shutdown) | Err(TryRecvError::Disconnected) => {
            Err(bad_data("control channel died mid-step"))
        }
        // Late duplicates are harmless.
        Ok(_) | Err(TryRecvError::Empty) => Ok(ControlFlow::Continue(())),
    }
}

/// A `Step`'s contribution comes off the control socket. One of the wrong
/// length (a coordinator on another contribution layout), with a
/// non-finite value, or with a finite one outside what the run's cipher
/// can encrypt would trip an assertion in [`ProtocolNode::new`] and panic
/// the daemon; this fails the step with an error instead.
fn check_contribution(
    layout: &SlotLayout,
    cipher: Option<&StepCipher>,
    contribution: &[f64],
) -> io::Result<()> {
    if contribution.len() != layout.total() {
        return Err(bad_data(format!(
            "step contribution has {} values, this run's layout has {} slots",
            contribution.len(),
            layout.total(),
        )));
    }
    if let Some(slot) = contribution.iter().position(|v| !v.is_finite()) {
        return Err(bad_data(format!("contribution slot {slot} is not finite")));
    }
    if let Some(cipher) = cipher {
        cipher
            .admits(contribution)
            .map_err(|e| bad_data(format!("contribution outside the envelope: {e}")))?;
    }
    Ok(())
}

/// Drives one computation step: the node's event loop is the same
/// [`pump`] the in-process TCP host's node threads run, hosted differently —
/// completion is *announced* to the coordinator instead of ringing a shared
/// bell, and the loop ends on `StepEnd` instead of a shutdown flag. A
/// `None` contribution is a node down at step start, built and driven the
/// way every other host builds and drives one: it holds its slot, loses
/// everything addressed to it and announces `Done` on its first turn.
#[allow(clippy::too_many_arguments)] // one call site; mirrors the Step fields
fn run_step(
    ctx: &RunContext,
    id: NodeId,
    step: usize,
    step_seed: u64,
    step_ctx: TraceContext,
    contribution: Option<Vec<f64>>,
    flight: &Arc<Tracer>,
    rx: &mpsc::Receiver<ControlMsg>,
    control: &mut TcpStream,
) -> io::Result<cs_net::node::NodeReport> {
    let transport = ctx.transport.as_ref();
    let timing = Timing {
        push_interval: Duration::from_micros(ctx.timing.push_interval_us.max(1)),
        decrypt_deadline: Duration::from_millis(ctx.timing.decrypt_deadline_ms),
        step_timeout: Duration::from_millis(ctx.timing.step_timeout_ms),
    };
    if let Some(contribution) = &contribution {
        check_contribution(&ctx.layout, ctx.cipher.as_ref(), contribution)?;
    }
    let params = NodeParams::for_step(
        id,
        transport.node_count(),
        step_seed,
        ctx.config.gossip_cycles,
        ctx.committee.clone(),
        ctx.fault,
    );
    let node_crypto = match &ctx.cipher {
        Some(cipher) => {
            NodeCrypto::real(cipher, ctx.share.clone(), ctx.config.threshold, &ctx.plans)
        }
        None => NodeCrypto::Plain,
    };
    let node = ProtocolNode::new(params, ctx.layout, node_crypto, contribution.as_deref());
    let alive = contribution.is_some();
    let mut driver = NodeDriver::new(node, &timing, alive, Vec::new());

    // Start barrier, mirroring the in-process host's start gate: node
    // construction (contribution encryption — the expensive part in
    // real-crypto mode) happens on every daemon before anyone gossips, so
    // the coordinator's scripted kill offsets mean "into the gossip
    // phase", not "into the encryption stampede".
    write_msg(control, &ControlMsg::Ready { step, node: id })?;
    let barrier = Instant::now();
    let go = loop {
        match rx.recv_timeout(Duration::from_millis(50)) {
            Ok(ControlMsg::Go { step: s }) if s == step => break Instant::now(),
            // A coordinator that timed out collecting Readys may skip
            // straight to ending the step.
            Ok(ControlMsg::StepEnd) => return Ok(driver.finish()),
            Ok(ControlMsg::Shutdown) => return Err(bad_data("shutdown mid-step")),
            Ok(_) => {}
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if barrier.elapsed() >= timing.step_timeout {
                    return Err(bad_data("no Go from the coordinator"));
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                return Err(bad_data("control channel died at the start barrier"));
            }
        }
    };

    // The tracer attaches after the Go barrier (like the in-process
    // host's post-gate attach) so the `step.start` span marks the start
    // of *gossip*, not of the encryption stampede before the barrier. Its
    // causal parent is the coordinator's `Step` send.
    driver = driver.with_tracer(CausalTracer::new(
        flight.clone(),
        step_seed,
        id as u64,
        step_ctx,
    ));

    // This deployment scripts no churn: a daemon's node keeps the liveness
    // it started the step with until the coordinator ends the step (a
    // SIGKILL needs no bookkeeping).
    let announce = || write_msg(control, &ControlMsg::Done { step, node: id });
    pump(&mut driver, transport, go, || poll_control(rx), announce)?;
    Ok(driver.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::LinkSpec;
    use chiaroscuro::rounds::CryptoContext;

    const LAYOUT: SlotLayout = SlotLayout {
        k: 2,
        series_len: 3,
    };

    /// Four nodes of [`LAYOUT`] contributing 0.5 everywhere, but node 2
    /// contributing `values`.
    fn four_nodes(values: &[f64]) -> Vec<Option<Vec<f64>>> {
        let mut contributions = vec![Some(vec![0.5; 8]); 4];
        contributions[2] = Some(values.to_vec());
        contributions
    }

    /// `test_real` at k = 2, its test-size key and the key's public half.
    fn test_real_crypto() -> (ChiaroscuroConfig, CryptoContext, cs_crypto::PublicKey) {
        let config = ChiaroscuroConfig {
            k: 2,
            ..ChiaroscuroConfig::test_real()
        };
        let crypto = CryptoContext::from_config(&config, &mut StdRng::seed_from_u64(7)).unwrap();
        let CryptoContext::Real { pk, .. } = &crypto else {
            unreachable!("test_real is real crypto");
        };
        let pk = pk.as_ref().clone();
        (config, crypto, pk)
    }

    /// One step of `contributions` on each in-process host, over `link`s.
    fn on_both_hosts(
        config: &ChiaroscuroConfig,
        crypto: &CryptoContext,
        layout: &SlotLayout,
        contributions: &[Option<Vec<f64>>],
        link: cs_net::LinkConfig,
    ) -> [Result<cs_net::StepRun, chiaroscuro::ChiaroscuroError>; 2] {
        let sharded = cs_net::ShardedConfig {
            link: link.clone(),
            ..Default::default()
        };
        let net = cs_net::NetConfig {
            link,
            ..Default::default()
        };
        [
            cs_net::run_step_sharded(config, layout, contributions, crypto, 9, &sharded, &[]),
            cs_net::run_step_over_tcp(config, layout, contributions, crypto, 9, &net, &[]),
        ]
    }

    /// A daemon down at step start runs the one node path: its node is
    /// built with no contribution under a driver that starts down, passes
    /// the start barrier, announces `Done` on its first turn and reports
    /// what its driver holds — so the step ends at the live nodes' pace.
    #[test]
    fn a_daemon_down_at_step_start_is_driven_like_any_node() {
        use crate::coordinator::{ClusterBackend, ClusterConfig, Coordinator};
        use chiaroscuro::ComputationBackend;
        let config = ChiaroscuroConfig {
            k: 2,
            gossip_cycles: 15,
            ..ChiaroscuroConfig::demo_simulated()
        };
        let crypto = CryptoContext::from_config(&config, &mut StdRng::seed_from_u64(7)).unwrap();
        let coordinator = Coordinator::bind().unwrap();
        let addr = coordinator.addr().unwrap().to_string();
        let daemons: Vec<_> = (0..4)
            .map(|id| {
                let opts = DaemonOpts::new(id, addr.clone());
                thread::spawn(move || run(&opts).unwrap())
            })
            .collect();
        let cluster = coordinator
            .accept_cluster(4, Duration::from_secs(60))
            .unwrap();
        let timing = TimingSpec {
            push_interval_us: 200,
            decrypt_deadline_ms: 10_000,
            step_timeout_ms: 30_000,
        };
        let cfg = ClusterConfig {
            timing,
            ..ClusterConfig::default()
        };
        let mut backend = ClusterBackend::new(cluster, cfg);
        let mut contributions = four_nodes(&[0.5; 8]);
        contributions[1] = None;
        let started = Instant::now();
        let rng = &mut StdRng::seed_from_u64(9);
        let outcome = backend
            .run_step(&config, &LAYOUT, &contributions, &crypto, 9, rng)
            .unwrap();
        let took = started.elapsed();
        assert!(took < Duration::from_secs(10), "step took {took:?}");
        assert!(outcome.estimates[1].is_none() && !outcome.alive_after[1]);
        assert!([0, 2, 3].iter().all(|&i| outcome.estimates[i].is_some()));
        // Not `NodeReport::dead`: the pump booked the down node's turns.
        let report = &backend.last_reports().unwrap()[1];
        assert_eq!((report.id, report.pushes_sent), (1, 0));
        assert!(report.profile.gossip_ns > 0, "{report:?}");
        backend.shutdown();
        for daemon in daemons {
            daemon.join().unwrap();
        }
    }

    #[test]
    fn malformed_step_contributions_are_typed_errors() {
        let layout = LAYOUT;
        assert!(check_contribution(&layout, None, &[0.5; 8]).is_ok());
        // What a coordinator on the old two-block layout would send.
        let err = check_contribution(&layout, None, &[0.5; 16]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(
            msg.contains("16 values") && msg.contains("8 slots"),
            "{msg}"
        );
        for bad in [f64::NAN, f64::INFINITY] {
            let mut values = [0.5; 8];
            values[5] = bad;
            let err = check_contribution(&layout, None, &values).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("slot 5"), "{err}");
        }

        // A finite value no lane can hold. Nothing but a cipher can tell:
        // a plaintext run gossips it like any other number.
        let mut values = [0.5; 8];
        values[5] = 1e30;
        assert!(check_contribution(&layout, None, &values).is_ok());
        let (config, crypto, _) = test_real_crypto();
        let cipher = crypto.step_cipher(&config, &layout, 4).unwrap().unwrap();
        assert!(check_contribution(&layout, Some(&cipher), &[0.5; 8]).is_ok());
        let err = check_contribution(&layout, Some(&cipher), &values).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("bucket 5"), "{err}");

        // The same vector handed to the in-process hosts fails the step
        // with the same typed error — before a worker or node thread exists
        // to unwind.
        let ideal = cs_net::LinkConfig::ideal();
        for run in on_both_hosts(&config, &crypto, &layout, &four_nodes(&values), ideal) {
            let lane = cs_crypto::CryptoError::LaneOverflow { slot: 5 };
            match run {
                Err(chiaroscuro::ChiaroscuroError::Crypto(e)) => assert_eq!(e, lane),
                other => panic!("expected a typed lane overflow, got {other:?}"),
            }
        }
    }

    /// How the daemon takes a `Bootstrap` of `config` and `layout` for a
    /// population of `population` addresses, carrying `link` and `pk`.
    fn bootstrapped_with(
        config: ChiaroscuroConfig,
        layout: SlotLayout,
        pk: Option<cs_crypto::PublicKey>,
        link: LinkSpec,
        population: usize,
    ) -> io::Result<()> {
        let boot = ControlMsg::Bootstrap {
            config,
            layout,
            population: (1..=population).map(|i| format!("127.0.0.1:{i}")).collect(),
            pk,
            share: None,
            link,
            timing: TimingSpec::default(),
            fault: None,
        };
        let endpoint = TcpEndpoint::bind("127.0.0.1:0")?;
        RunContext::bootstrap(0, endpoint, &Registry::new(), boot).map(|_| ())
    }

    #[test]
    fn malformed_bootstraps_are_typed_errors() {
        let ideal = LinkSpec::ideal();
        let starved = LinkSpec {
            bandwidth_bytes_per_sec: Some(0),
            ..ideal
        };
        let lossy = |loss: f64| LinkSpec { loss, ..ideal };
        let nan = lossy(f64::NAN);
        // A config `validate` refuses, before anything is built from it: no
        // cycles.
        let demo = ChiaroscuroConfig::demo_simulated();
        let mut idle = demo.clone();
        idle.gossip_cycles = 0;
        let cases = [
            (demo.clone(), lossy(1.5), 2, "loss"),
            (demo.clone(), nan, 2, "loss"),
            (demo.clone(), starved, 2, "bandwidth"),
            (demo.clone(), ideal, 1, "at least two nodes"),
            (idle, ideal, 2, "gossip_cycles"),
        ];
        for (config, link, population, what) in cases {
            let err = bootstrapped_with(config, LAYOUT, None, link, population).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
            assert!(err.to_string().contains(what), "{err}");
        }
        assert!(bootstrapped_with(demo, LAYOUT, None, ideal, 2).is_ok());

        // The same link values fail a step on both in-process hosts, with
        // a typed error too.
        let config = ChiaroscuroConfig {
            k: 2,
            ..ChiaroscuroConfig::demo_simulated()
        };
        let crypto = CryptoContext::from_config(&config, &mut StdRng::seed_from_u64(7)).unwrap();
        for link in [lossy(1.5), nan, starved].map(LinkSpec::to_link_config) {
            for run in on_both_hosts(&config, &crypto, &LAYOUT, &four_nodes(&[0.5; 8]), link) {
                let typed = matches!(run, Err(chiaroscuro::ChiaroscuroError::InvalidConfig(_)));
                assert!(typed, "{run:?}");
            }
        }
    }

    /// The lane plan's limit, on every host that runs real crypto. Nothing
    /// but a longer schedule than a packed lane can carry separates these
    /// runs from a good one: 42 gossip cycles of the demo's 24-point series
    /// at `test_real`, eight nodes, one past where the plan stops
    /// (`lane_plan_is_feasible_on_the_default_real_config`). Each in-process
    /// host refuses it with the typed error from the plan — before a worker
    /// or node thread exists to unwind — and the daemon refuses a
    /// `Bootstrap` carrying it.
    #[test]
    fn an_over_long_schedule_is_a_typed_error_on_every_host() {
        use chiaroscuro::ChiaroscuroError;
        let (mut config, crypto, pk) = test_real_crypto();
        config.gossip_cycles = 42;
        let layout = SlotLayout {
            k: 2,
            series_len: 24,
        };
        let contributions = vec![Some(vec![0.5; layout.total()]); 8];
        let refused = |run: Result<(), ChiaroscuroError>, host: &str| match run {
            Err(ChiaroscuroError::Crypto(cs_crypto::CryptoError::InvalidParameters(_))) => {}
            other => panic!("{host}: expected the lane plan's refusal, got {other:?}"),
        };
        let ideal = cs_net::LinkConfig::ideal();
        let hosts = on_both_hosts(&config, &crypto, &layout, &contributions, ideal);
        for (run, host) in hosts.into_iter().zip(["sharded executor", "tcp host"]) {
            refused(run.map(drop), host);
        }

        let err =
            bootstrapped_with(config, layout, Some(pk), LinkSpec::ideal(), 8).expect_err("refused");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().starts_with("step cipher: "), "{err}");
    }
}
