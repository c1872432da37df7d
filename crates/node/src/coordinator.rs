//! The cluster coordinator: bootstrap, per-step orchestration, and the
//! [`ClusterBackend`] that plugs a multi-process cluster into
//! `chiaroscuro::Engine::run_with_backend`.
//!
//! The coordinator models the paper's *initialization* role, not a trusted
//! aggregator: it deals key shares (the dealer of `cs_crypto::threshold`),
//! distributes the population manifest, and paces steps — but the gossip
//! aggregation of the noise-carrying contributions and the collaborative
//! decryption run entirely between the daemons, and all the coordinator
//! ever learns back are the *DP-perturbed* aggregate estimates the
//! protocol discloses anyway.
//!
//! Orchestration per step mirrors the in-process TCP host's driver: hand
//! every live daemon its `Step`, wait until each announces `Done` (or its process
//! dies — a connection EOF is the fail-stop signal), broadcast `StepEnd`,
//! collect `Report`s, and fold them with `cs_net::runtime::assemble_outcome`
//! so the engine sees exactly the same outcome shape as on every other
//! substrate.

use crate::proto::{
    bad_data, read_msg, write_msg, ControlMsg, LinkSpec, TimingSpec, PROTO_VERSION,
};
use crate::supervisor::Supervisor;
use chiaroscuro::backend::ComputationBackend;
use chiaroscuro::config::ChiaroscuroConfig;
use chiaroscuro::noise::SlotLayout;
use chiaroscuro::rounds::{ComputationOutcome, CryptoContext};
use chiaroscuro::ChiaroscuroError;
use cs_net::node::NodeReport;
use cs_net::runtime::{assemble_outcome, book_worst_node};
use cs_net::transport::TrafficSnapshot;
use cs_net::wire::WIRE_VERSION;
use cs_obs::{
    CausalTracer, Clock, ClusterTrace, MetricsSnapshot, NodeTrace, TraceContext, Tracer, WallClock,
};
use rand::rngs::StdRng;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Cluster-level knobs (the per-node timing travels to the daemons in the
/// `Bootstrap`).
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Data-plane link shims (keep [`LinkSpec::ideal`] for a real cluster —
    /// localhost TCP is the genuine article).
    pub link: LinkSpec,
    /// Per-node event-loop timing.
    pub timing: TimingSpec,
    /// Scripted fault injection shipped to the daemons in the `Bootstrap`
    /// (`None` on honest runs): the named daemon corrupts its partial
    /// decryptions, and the invariant audit must catch it.
    pub fault: Option<cs_net::FaultSpec>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            link: LinkSpec::ideal(),
            timing: TimingSpec::default(),
            fault: None,
        }
    }
}

/// How long the coordinator waits for straggler `Report`s after `StepEnd`.
const REPORT_WAIT: Duration = Duration::from_secs(20);

fn transport_err(msg: impl Into<String>) -> ChiaroscuroError {
    ChiaroscuroError::Transport(msg.into())
}

/// The `kind` recorded for control-plane `Step` sends in the coordinator's
/// trace; data-plane kinds are wire tags (0–7), so control traffic gets a
/// value far outside that range.
const CONTROL_STEP_KIND: u64 = 100;

/// A bound control-plane listener, waiting for daemons.
pub struct Coordinator {
    listener: TcpListener,
}

// Events are one-per-step-per-daemon — the Bootstrap-sized variant's
// footprint is irrelevant at that rate.
#[allow(clippy::large_enum_variant)]
enum Event {
    Msg(ControlMsg),
    Gone,
}

struct Member {
    /// Write half of the control connection; `None` once the daemon died.
    writer: Option<TcpStream>,
    data_addr: String,
    /// The daemon's observability HTTP address, if it serves one — handed
    /// to scrape tooling like `cswatch` via [`Cluster::obs_addrs`].
    obs_addr: Option<String>,
}

impl Coordinator {
    /// Binds the control listener on an ephemeral localhost port.
    pub fn bind() -> io::Result<Coordinator> {
        Ok(Coordinator {
            listener: TcpListener::bind("127.0.0.1:0")?,
        })
    }

    /// The control address to hand to `csnoded --coordinator`.
    pub fn addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Accepts exactly `n` daemons (validating their `Hello`s) within
    /// `timeout`, and returns the assembled cluster. Every daemon must
    /// speak the same wire and control-protocol versions and claim a
    /// distinct id in `0..n`.
    pub fn accept_cluster(self, n: usize, timeout: Duration) -> io::Result<Cluster> {
        let deadline = Instant::now() + timeout;
        self.listener.set_nonblocking(true)?;
        let (tx, events) = mpsc::channel::<(usize, Event)>();
        let mut members: Vec<Option<Member>> = (0..n).map(|_| None).collect();
        let mut joined = 0usize;
        while joined < n {
            match self.listener.accept() {
                Ok((mut stream, _)) => {
                    stream.set_nodelay(true)?;
                    // The Hello must arrive promptly; afterwards the reader
                    // thread owns the (blocking) stream.
                    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
                    let hello = read_msg(&mut stream)?;
                    let ControlMsg::Hello {
                        node,
                        wire_version,
                        proto_version,
                        data_addr,
                        obs_addr,
                    } = hello
                    else {
                        return Err(bad_data("expected Hello"));
                    };
                    if wire_version != WIRE_VERSION || proto_version != PROTO_VERSION {
                        return Err(bad_data(format!(
                            "version mismatch from node {node}: wire {wire_version} \
                             (want {WIRE_VERSION}), proto {proto_version} (want {PROTO_VERSION})"
                        )));
                    }
                    if node >= n || members[node].is_some() {
                        return Err(bad_data(format!(
                            "duplicate or out-of-range node id {node}"
                        )));
                    }
                    stream.set_read_timeout(None)?;
                    let writer = stream.try_clone()?;
                    let reader_tx = tx.clone();
                    let mut reader = stream;
                    thread::Builder::new()
                        .name(format!("coord-reader-{node}"))
                        .spawn(move || loop {
                            match read_msg(&mut reader) {
                                Ok(msg) => {
                                    if reader_tx.send((node, Event::Msg(msg))).is_err() {
                                        return;
                                    }
                                }
                                Err(_) => {
                                    let _ = reader_tx.send((node, Event::Gone));
                                    return;
                                }
                            }
                        })
                        .expect("spawn coordinator reader");
                    members[node] = Some(Member {
                        writer: Some(writer),
                        data_addr,
                        obs_addr,
                    });
                    joined += 1;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            format!("only {joined}/{n} daemons connected in time"),
                        ));
                    }
                    thread::sleep(Duration::from_millis(10));
                }
                Err(e) => return Err(e),
            }
        }
        Ok(Cluster {
            members: members.into_iter().map(Option::unwrap).collect(),
            events,
            alive: vec![true; n],
        })
    }
}

/// An accepted, not-yet-bootstrapped cluster of daemon control channels.
pub struct Cluster {
    members: Vec<Member>,
    events: Receiver<(usize, Event)>,
    alive: Vec<bool>,
}

impl Cluster {
    /// Population size.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// `true` iff the cluster is empty.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Per-daemon connection liveness.
    pub fn alive(&self) -> &[bool] {
        &self.alive
    }

    /// Per-daemon observability HTTP addresses, in node-id order (`None`
    /// where a daemon runs without `--obs-addr`). The address list a
    /// `cswatch` invocation wants.
    pub fn obs_addrs(&self) -> Vec<Option<String>> {
        self.members.iter().map(|m| m.obs_addr.clone()).collect()
    }

    fn mark_dead(&mut self, node: usize) {
        self.alive[node] = false;
        self.members[node].writer = None;
    }

    fn send(&mut self, node: usize, msg: &ControlMsg) {
        if let Some(w) = self.members[node].writer.as_mut() {
            if write_msg(w, msg).is_err() {
                self.mark_dead(node);
            }
        }
    }

    /// The one way the coordinator waits on its daemons: receives control
    /// messages until every living daemon has `answered` or `deadline`
    /// passes. `on_msg` sees each message with its sender and says whether
    /// it was that daemon's answer; a dead connection excuses its daemon —
    /// that is the fail-stop signal. An error means every control channel
    /// is gone: fatal to a step, while a scrape just keeps what it has.
    fn gather(
        &mut self,
        deadline: Instant,
        answered: &mut [bool],
        mut on_msg: impl FnMut(usize, ControlMsg) -> bool,
    ) -> Result<(), ChiaroscuroError> {
        loop {
            let outstanding = (0..self.len()).any(|i| self.alive[i] && !answered[i]);
            let now = Instant::now();
            if !outstanding || now >= deadline {
                return Ok(());
            }
            match self.events.recv_timeout(deadline - now) {
                Ok((i, Event::Msg(msg))) => answered[i] |= on_msg(i, msg),
                Ok((i, Event::Gone)) => self.mark_dead(i),
                Err(RecvTimeoutError::Timeout) => return Ok(()),
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(transport_err("all control channels died"));
                }
            }
        }
    }
}

/// A [`ComputationBackend`] that executes every computation step across the
/// daemons of a [`Cluster`] — real processes, real sockets, real crypto.
///
/// Bootstrap is lazy: the engine builds its `CryptoContext` (the dealer)
/// inside `run_with_backend`, so the backend ships key material on the
/// first `run_step` call, when it first sees it.
pub struct ClusterBackend {
    cluster: Cluster,
    cfg: ClusterConfig,
    bootstrapped: bool,
    steps_run: usize,
    kills: Vec<(usize, Duration, usize)>,
    supervisor: Option<Arc<Supervisor>>,
    /// The step just run: its reports, summed traffic and metrics delta.
    last: Option<(Vec<NodeReport>, TrafficSnapshot, MetricsSnapshot)>,
    metrics_total: MetricsSnapshot,
    /// The coordinator's own flight recorder: every `Step` send is traced
    /// here, so each daemon's `step.start` span has a causal parent in the
    /// merged cluster timeline.
    tracer: Arc<Tracer>,
    /// Coordinator-side metrics: `obs.alert.<kind>` counters minted by the
    /// cluster-level invariant audit land here.
    registry: cs_obs::Registry,
    /// Cumulative verdict of the cluster-level audit (global mass and
    /// frame conservation over the summed per-daemon deltas).
    health: cs_obs::HealthState,
}

impl ClusterBackend {
    /// Wraps an accepted cluster.
    pub fn new(cluster: Cluster, cfg: ClusterConfig) -> Self {
        ClusterBackend {
            cluster,
            cfg,
            bootstrapped: false,
            steps_run: 0,
            kills: Vec::new(),
            supervisor: None,
            last: None,
            metrics_total: MetricsSnapshot::default(),
            tracer: Arc::new(Tracer::ring(
                Arc::new(WallClock::new()) as Arc<dyn Clock>,
                4096,
            )),
            registry: cs_obs::Registry::new(),
            health: cs_obs::HealthState::new(),
        }
    }

    /// Scripts process kills: `(step, offset, node)` — `offset` after the
    /// step's `Step` broadcast, `node` is SIGKILLed through `supervisor`.
    /// The multi-process analogue of [`cs_net::ChurnSchedule`]'s crashes.
    pub fn with_kills(
        mut self,
        supervisor: Arc<Supervisor>,
        kills: Vec<(usize, Duration, usize)>,
    ) -> Self {
        self.supervisor = Some(supervisor);
        self.kills = kills;
        self
    }

    /// Computation steps executed so far.
    pub fn steps_run(&self) -> usize {
        self.steps_run
    }

    /// Per-node reports of the step just run: released when the next step
    /// begins, `None` after a failed step (so are the two below).
    pub fn last_reports(&self) -> Option<&[NodeReport]> {
        self.last.as_ref().map(|last| &last.0[..])
    }

    /// Cluster-summed per-class traffic of the most recent step.
    pub fn last_snapshot(&self) -> Option<&TrafficSnapshot> {
        self.last.as_ref().map(|last| &last.1)
    }

    /// Cluster-summed metrics delta of the most recent step, with the
    /// step's worst node (`crypto.partials_max`, `crypto.combines_max`) and
    /// its distinct estimates (`crypto.releases_distinct`).
    pub fn last_metrics(&self) -> Option<&MetricsSnapshot> {
        self.last.as_ref().map(|last| &last.2)
    }

    /// Cluster-summed metrics accumulated over every step run so far —
    /// the coordinator-side mirror of what a live scrape should report.
    pub fn metrics_total(&self) -> &MetricsSnapshot {
        &self.metrics_total
    }

    /// Sends `request` to every daemon and collects what `pick` extracts
    /// from each one's reply. Slots that died or missed the deadline stay
    /// `None`.
    fn scrape<T>(
        &mut self,
        request: &ControlMsg,
        timeout: Duration,
        mut pick: impl FnMut(ControlMsg) -> Option<T>,
    ) -> Vec<Option<T>> {
        let n = self.cluster.len();
        for i in 0..n {
            self.cluster.send(i, request);
        }
        let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
        let _ = self
            .cluster
            .gather(Instant::now() + timeout, &mut vec![false; n], |i, msg| {
                pick(msg).map(|reply| out[i] = Some(reply)).is_some()
            });
        out
    }

    /// Live scrape: sends [`ControlMsg::Metrics`] to every daemon and
    /// collects the cumulative per-daemon snapshots. Only valid *between*
    /// steps — a scrape racing a step would interleave with the step's
    /// control traffic. Slots that died or missed the deadline stay `None`.
    pub fn scrape_metrics(&mut self, timeout: Duration) -> Vec<Option<MetricsSnapshot>> {
        self.scrape(&ControlMsg::Metrics, timeout, |msg| match msg {
            ControlMsg::MetricsReport { metrics, .. } => Some(metrics),
            _ => None,
        })
    }

    /// Scrapes every daemon's flight recorder ([`ControlMsg::Trace`]; only
    /// valid *between* steps, like [`ClusterBackend::scrape_metrics`]) and
    /// merges the captures — plus the coordinator's own ring, as node id
    /// `n` — into one cluster timeline in node-id order: the shape
    /// `cstrace` loads. Daemons that
    /// died (a SIGKILLed peer cannot answer a scrape; its last moments
    /// survive only in its stderr dump and in its neighbors' rings) are
    /// simply absent. Per-node timestamps come from unsynchronized wall
    /// clocks, so cross-node analysis must use intra-node deltas — which
    /// is exactly what the critical-path analyzer does.
    pub fn cluster_trace(&mut self, timeout: Duration) -> ClusterTrace {
        let per_node = self.scrape(&ControlMsg::Trace, timeout, |msg| match msg {
            ControlMsg::TraceReport { trace, .. } => Some(trace),
            _ => None,
        });
        let mut traces: Vec<NodeTrace> = per_node.into_iter().flatten().collect();
        traces.push(NodeTrace::capture(self.cluster.len() as u64, &self.tracer));
        traces.sort_by_key(|t| t.node);
        ClusterTrace { traces }
    }

    /// Scrapes every daemon's health verdict ([`ControlMsg::Health`]; only
    /// valid *between* steps, like [`ClusterBackend::scrape_metrics`]) and
    /// folds them — together with the coordinator's own cluster-level
    /// audit state — into one cluster verdict: the worst status wins and
    /// per-kind tallies sum.
    /// Daemons that died or missed the deadline simply contribute nothing;
    /// their absence shows up in [`ClusterBackend::alive`], not here.
    pub fn cluster_health(&mut self, timeout: Duration) -> cs_obs::HealthReport {
        let per_node = self.scrape(&ControlMsg::Health, timeout, |msg| match msg {
            ControlMsg::HealthReport { report, .. } => Some(report),
            _ => None,
        });
        let mut folded = self.health.report();
        for report in per_node.into_iter().flatten() {
            folded = folded.plus(&report);
        }
        folded
    }

    /// Per-daemon observability HTTP addresses, in node-id order.
    pub fn obs_addrs(&self) -> Vec<Option<String>> {
        self.cluster.obs_addrs()
    }

    /// Per-daemon connection liveness.
    pub fn alive(&self) -> &[bool] {
        self.cluster.alive()
    }

    /// Sends `Shutdown` to every living daemon (they exit cleanly).
    pub fn shutdown(&mut self) {
        for i in 0..self.cluster.len() {
            self.cluster.send(i, &ControlMsg::Shutdown);
        }
    }

    fn bootstrap(
        &mut self,
        config: &ChiaroscuroConfig,
        layout: &SlotLayout,
        population: usize,
        crypto: &CryptoContext,
    ) -> Result<(), ChiaroscuroError> {
        let n = self.cluster.len();
        if population != n {
            return Err(transport_err(format!(
                "engine population {population} != cluster size {n}"
            )));
        }
        let manifest: Vec<String> = self
            .cluster
            .members
            .iter()
            .map(|m| m.data_addr.clone())
            .collect();
        let committee = crypto.committee(n);
        for i in 0..n {
            let (pk, share) = match crypto {
                CryptoContext::Real { tkp, pk, .. } => (
                    Some(pk.as_ref().clone()),
                    committee.contains(&i).then(|| tkp.shares()[i].clone()),
                ),
                CryptoContext::Simulated { .. } => (None, None),
            };
            let msg = ControlMsg::Bootstrap {
                config: config.clone(),
                layout: *layout,
                population: manifest.clone(),
                pk,
                share,
                link: self.cfg.link,
                timing: self.cfg.timing,
                fault: self.cfg.fault,
            };
            self.cluster.send(i, &msg);
        }
        self.bootstrapped = true;
        Ok(())
    }
}

impl ComputationBackend for ClusterBackend {
    fn label(&self) -> &'static str {
        "tcp-cluster"
    }

    fn run_step(
        &mut self,
        config: &ChiaroscuroConfig,
        layout: &SlotLayout,
        contributions: &[Option<Vec<f64>>],
        crypto: &CryptoContext,
        step_seed: u64,
        _rng: &mut StdRng,
    ) -> Result<ComputationOutcome, ChiaroscuroError> {
        // One step's artifacts at a time: the last step's go first.
        self.last = None;
        let n = contributions.len();
        if !self.bootstrapped {
            self.bootstrap(config, layout, n, crypto)?;
        }
        let step = self.steps_run;

        // One causal root per step: the coordinator's `step.start` (actor
        // `n`, trace id = step seed), with every daemon's `Step` send as a
        // child span — each daemon parents its own `step.start` onto the
        // ctx stamped here, rooting the whole cluster timeline.
        let mut causal =
            CausalTracer::new(self.tracer.clone(), step_seed, n as u64, TraceContext::NONE);
        for (i, contribution) in contributions.iter().enumerate() {
            let ctx = causal.on_send(i as u64, CONTROL_STEP_KIND);
            self.cluster.send(
                i,
                &ControlMsg::Step {
                    step,
                    step_seed,
                    contribution: contribution.clone(),
                    ctx,
                },
            );
        }

        let step_deadline = Instant::now()
            + Duration::from_millis(self.cfg.timing.step_timeout_ms)
            + Duration::from_secs(5);
        let mut ready = vec![false; n];
        let mut done = vec![false; n];
        let mut reported = vec![false; n];
        let mut reports: Vec<Option<NodeReport>> = (0..n).map(|_| None).collect();
        let mut snapshots: Vec<TrafficSnapshot> = vec![TrafficSnapshot::default(); n];
        let mut metric_deltas: Vec<MetricsSnapshot> = vec![MetricsSnapshot::default(); n];
        // Every message below is step-tagged, so a straggler announcement
        // or report from a previous step can never satisfy (or poison)
        // this one.
        let mut keep_report = |i: usize, msg: ControlMsg| match msg {
            ControlMsg::Report {
                step: s,
                report,
                snapshot,
                metrics,
            } if s == step => {
                snapshots[i] = snapshot;
                metric_deltas[i] = metrics;
                reports[i] = Some(report);
                true
            }
            _ => false,
        };

        // Phase 0 — the start barrier: every living daemon constructs its
        // node (contribution encryption included) and acknowledges Ready
        // before anyone gossips, mirroring the in-process TCP host's start
        // gate. No daemon announces Done before its Go. On the deadline,
        // release whoever is ready rather than deadlock.
        self.cluster.gather(
            step_deadline,
            &mut ready,
            |_, msg| matches!(msg, ControlMsg::Ready { step: s, .. } if s == step),
        )?;
        for i in 0..n {
            self.cluster.send(i, &ControlMsg::Go { step });
        }

        // Scripted process kills, offset from the Go broadcast — i.e. from
        // the start of the *gossip* phase, the same anchor every other
        // substrate's churn clock uses. The fence scopes them to this
        // step: churn events belong to their step on every substrate, so
        // a timer still pending when run_step returns (step finished
        // early, or errored) is cancelled rather than firing into a later
        // step or after the run.
        struct KillFence(Arc<std::sync::atomic::AtomicBool>);
        impl Drop for KillFence {
            fn drop(&mut self) {
                self.0.store(true, std::sync::atomic::Ordering::Release);
            }
        }
        let fence = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let _fence_guard = KillFence(fence.clone());
        for &(kill_step, after, node) in &self.kills {
            if kill_step != step {
                continue;
            }
            let Some(sup) = self.supervisor.clone() else {
                return Err(transport_err("kill schedule without a supervisor"));
            };
            let fence = fence.clone();
            thread::Builder::new()
                .name(format!("cluster-kill-{node}"))
                .spawn(move || {
                    thread::sleep(after);
                    if !fence.load(std::sync::atomic::Ordering::Acquire) {
                        sup.kill(node);
                    }
                })
                .map_err(|e| transport_err(format!("spawn kill timer: {e}")))?;
        }

        // Phase 1: every living daemon announces Done (its own part of the
        // step finished; committee service continues until StepEnd). A
        // dead connection excuses its daemon — that is the fail-stop.
        self.cluster
            .gather(step_deadline, &mut done, |i, msg| match msg {
                ControlMsg::Done { step: s, .. } if s == step => true,
                early_report => {
                    reported[i] |= keep_report(i, early_report);
                    false
                }
            })?;

        // Phase 2: stop the population and collect reports.
        for i in 0..n {
            self.cluster.send(i, &ControlMsg::StepEnd);
        }
        let report_deadline = Instant::now() + REPORT_WAIT;
        self.cluster
            .gather(report_deadline, &mut reported, &mut keep_report)?;

        // Fold. A daemon that never reported (killed, or hopelessly late)
        // contributes a dead report; cluster traffic is the sum of the
        // per-daemon deltas — accounting is send-side, so nothing is
        // double-counted.
        let all_reported = reports.iter().all(Option::is_some);
        let reports: Vec<NodeReport> = reports
            .into_iter()
            .enumerate()
            .map(|(i, r)| r.unwrap_or_else(|| NodeReport::dead(i)))
            .collect();
        let alive_after: Vec<bool> = (0..n)
            .map(|i| self.cluster.alive[i] && contributions[i].is_some())
            .collect();
        let total = snapshots
            .iter()
            .fold(TrafficSnapshot::default(), |acc, s| acc.plus(s));
        let metrics_step = metric_deltas
            .iter()
            .fold(MetricsSnapshot::default(), |acc, m| acc.plus(m));
        // Cluster-level invariant audit over the summed deltas: the global
        // mass and frame-conservation ledger the per-daemon audits cannot
        // see (each daemon only knows its own sends). Skipped whenever a
        // daemon died or withheld its report — churn legitimately breaks
        // frame conservation and is not an invariant violation.
        if all_reported && alive_after.iter().all(|&a| a) {
            let evidence = cs_net::audit::distill(step as u64, &reports, &total, &metrics_step);
            cs_obs::health::audit(
                &evidence,
                &self.registry,
                Some(&self.tracer),
                Some(&self.health),
            );
        }
        let outcome = assemble_outcome(&reports, alive_after, &total);
        self.steps_run += 1;
        self.metrics_total = self.metrics_total.plus(&metrics_step);
        // The worst node and the distinct releases are a maximum and a
        // count over the reports, not sums: booked here, into the step's
        // metrics only (a scrape sums to the total).
        let worst = cs_obs::Registry::new();
        book_worst_node(&reports, &outcome.estimates, &worst);
        let metrics_step = metrics_step.plus(&worst.snapshot());
        self.last = Some((reports, total, metrics_step));
        Ok(outcome)
    }
}

impl Drop for ClusterBackend {
    fn drop(&mut self) {
        self.shutdown();
    }
}
