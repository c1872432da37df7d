//! The thread-per-node TCP host and the engine backend over `cs_net`'s
//! in-process substrates.
//!
//! [`run_step_over_tcp`] executes one Chiaroscuro computation step (paper
//! steps 2a–2d) as real concurrency: every participant runs its own event
//! loop — [`pump`], the one wall-clock way of feeding a [`NodeDriver`] — on
//! its own OS thread, exchanging wire-encoded frames over loopback sockets
//! ([`TcpTransport::loopback`]): no global synchronization, no shared
//! protocol state. [`NetBackend`] plugs that, or the sharded executor, into
//! `chiaroscuro::Engine::run_with_backend`, so the full iteration sequence
//! (assignment → computation → convergence) runs end-to-end over real
//! messages.

use crate::churn::ChurnSchedule;
use crate::driver::{NodeDriver, Timer, Timing};
use crate::executor::ShardedConfig;
use crate::node::{FaultSpec, NodeCrypto, NodeParams, NodeReport, Outbound, ProtocolNode};
use crate::tcp::TcpTransport;
use crate::transport::{LinkConfig, NodeId, TrafficSnapshot};
use crate::wire::{decode_frame_traced, encode_frame_traced, TraceContext};
use chiaroscuro::backend::ComputationBackend;
use chiaroscuro::config::ChiaroscuroConfig;
use chiaroscuro::cost::DecryptionOps;
use chiaroscuro::noise::SlotLayout;
use chiaroscuro::rounds::{ComputationOutcome, CryptoContext, PerturbedAggregates, StepCipher};
use chiaroscuro::ChiaroscuroError;
use cs_gossip::homomorphic_pushsum::HomomorphicOpCounts;
use cs_gossip::TrafficStats;
use cs_obs::health::Alert;
use cs_obs::{CausalTracer, NodeTrace, StepPhase, Tracer, WallClock};
use std::convert::Infallible;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Barrier, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

/// Per-step crypto state shared by every node of an in-process substrate:
/// the committee and the step's ciphertext layout. Both substrates
/// (thread-per-node and sharded event loop) derive identical per-node
/// [`NodeCrypto`] values from this, so swapping the substrate can never
/// change what the protocol computes.
pub(crate) struct StepCrypto<'a> {
    /// Nodes holding key shares, in share order.
    pub committee: Vec<NodeId>,
    crypto: &'a CryptoContext,
    /// `None` in simulated mode.
    cipher: Option<StepCipher>,
}

impl<'a> StepCrypto<'a> {
    /// Derives the shared step state from the crypto context. The layout
    /// is planned from public inputs only (the same ones every `csnoded`
    /// uses), so every node independently agrees on it. A
    /// schedule the lane plan cannot hold, or a contribution the layout
    /// cannot encrypt, fails the step here, before any worker or node
    /// thread exists to unwind.
    pub fn prepare(
        config: &ChiaroscuroConfig,
        layout: &SlotLayout,
        contributions: &[Option<Vec<f64>>],
        crypto: &'a CryptoContext,
    ) -> Result<Self, ChiaroscuroError> {
        let population = contributions.len();
        let cipher = crypto.step_cipher(config, layout, population)?;
        if let Some(cipher) = &cipher {
            for contribution in contributions.iter().flatten() {
                cipher.admits(contribution)?;
            }
        }
        Ok(StepCrypto {
            committee: crypto.committee(population),
            crypto,
            cipher,
        })
    }

    /// The crypto substrate node `i` runs with. A forward re-randomizes
    /// inside the gossip phase that pays for it, drawing from the node's
    /// own crypto stream — which no substrate, worker or thread can change.
    pub fn node_crypto(&self, i: usize) -> NodeCrypto {
        let (Some(cipher), CryptoContext::Real { tkp, plans, .. }) = (&self.cipher, self.crypto)
        else {
            return NodeCrypto::Plain;
        };
        let share = self.committee.contains(&i).then(|| tkp.shares()[i].clone());
        NodeCrypto::real(cipher, share, tkp.params(), plans)
    }
}

/// Folds per-node reports and the transport's per-class accounting into the
/// engine-facing [`ComputationOutcome`] — gossip + control frames feed the
/// gossip traffic bucket, decryption frames the decryption bucket, the same
/// split the simulator's synthesized accounting uses. Shared by every
/// substrate (sharded, TCP loopback, and the `cs_node` multi-process
/// coordinator) so their outcomes are structurally identical.
pub fn assemble_outcome(
    reports: &[NodeReport],
    alive_after: Vec<bool>,
    snapshot: &TrafficSnapshot,
) -> ComputationOutcome {
    let mut traffic = TrafficStats::new();
    traffic.messages = snapshot.gossip.messages + snapshot.control.messages;
    traffic.bytes = snapshot.gossip.bytes + snapshot.control.bytes;
    traffic.dropped = snapshot.dropped();

    let mut ops = HomomorphicOpCounts::default();
    let mut decrypt_ops = DecryptionOps::default();
    let mut phases = cs_obs::PhaseProfile::default();
    let mut pushes_capped = 0;
    for r in reports {
        ops.merge(&r.ops);
        decrypt_ops.merge(&r.decrypt_ops);
        phases = phases.plus(&r.profile);
        pushes_capped += r.pushes_capped;
    }
    decrypt_ops.messages += snapshot.decrypt.messages;
    decrypt_ops.bytes += snapshot.decrypt.bytes;

    let estimates = reports
        .iter()
        .zip(&alive_after)
        .map(|(r, &alive)| if alive { r.estimate.clone() } else { None })
        .collect();

    ComputationOutcome {
        estimates,
        ops,
        decrypt_ops,
        traffic,
        pushes_capped,
        alive_after,
        phases,
    }
}

/// Books the step's worst node — the most partial decryptions and combines
/// any one node computed, the committee's load that a population mean
/// hides — as the `crypto.partials_max` and `crypto.combines_max` gauges,
/// and how many different estimates the live nodes ended with (distinct bit
/// patterns; one when every node holds the leader's release) as
/// `crypto.releases_distinct`.
pub fn book_worst_node(
    reports: &[NodeReport],
    estimates: &[Option<PerturbedAggregates>],
    registry: &cs_obs::Registry,
) {
    let max = |of: fn(&DecryptionOps) -> u64| reports.iter().map(|r| of(&r.decrypt_ops)).max();
    // Sorted in place: a plain host's n estimates all differ, and a copy
    // of their bits cost a 4 096-node step ≈ 8 MB of peak memory.
    fn bits(est: &PerturbedAggregates) -> impl Iterator<Item = u64> + '_ {
        let values = est.sums.iter().flatten().chain(&est.counts);
        values.map(|v| v.to_bits())
    }
    let mut distinct: Vec<&PerturbedAggregates> = estimates.iter().flatten().collect();
    distinct.sort_unstable_by(|a, b| bits(a).cmp(bits(b)));
    distinct.dedup_by(|a, b| bits(a).eq(bits(b)));
    for (name, value) in [
        ("crypto.partials_max", max(|d| d.partial_decryptions)),
        ("crypto.combines_max", max(|d| d.combinations)),
        ("crypto.releases_distinct", Some(distinct.len() as u64)),
    ] {
        registry.gauge(name).set(value.unwrap_or(0) as i64);
    }
}

/// Tuning knobs of the thread-per-node TCP host.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Link shims (loss, latency, jitter, bandwidth) applied on top of the
    /// loopback sockets.
    pub link: LinkConfig,
    /// Pacing between a node's gossip pushes.
    pub push_interval: Duration,
    /// Ignored. It was how long a finished node waited for its peers'
    /// termination votes; the votes are gone and the host observes the
    /// step's end itself (a node announces once its own part is done). Kept
    /// only because csbench's frozen sources set it — ROADMAP item 5
    /// records that the next `[benchmark]` PR drops that use, then the
    /// field.
    pub quiesce: Duration,
    /// How long a node keeps waiting (and re-requesting) in the decryption
    /// round before giving up with no estimate — bounds the damage of a
    /// silently-crashed committee far below `step_timeout`.
    pub decrypt_deadline: Duration,
    /// Hard wall-clock deadline for one step.
    pub step_timeout: Duration,
    /// Scripted churn, applied per step by each node's own driver.
    pub churn: ChurnSchedule,
    /// Causal tracing: every node records its sends, receives, and phase
    /// markers on a shared wall clock, and [`StepRun::traces`] carries the
    /// captures home. Unlike the sharded executor's virtual-time traces,
    /// these timestamps are real wall-clock and vary run to run.
    pub trace: bool,
    /// Scripted fault injection (tests and chaos drills only); `None` is
    /// an honest run.
    pub fault: Option<FaultSpec>,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            link: LinkConfig::ideal(),
            push_interval: Duration::from_micros(300),
            quiesce: Duration::from_millis(400),
            decrypt_deadline: Duration::from_secs(5),
            step_timeout: Duration::from_secs(60),
            churn: ChurnSchedule::none(),
            trace: false,
            fault: None,
        }
    }
}

/// Everything one step hands back, beyond the engine-facing outcome.
#[derive(Debug)]
pub struct StepRun {
    /// The engine-facing outcome (estimates, ops, traffic, liveness). A
    /// run [`NetBackend`] keeps has moved its `estimates` to the engine.
    pub outcome: ComputationOutcome,
    /// Per-node reports (push counts, per-node ops, decode failures).
    pub reports: Vec<NodeReport>,
    /// The transport's per-class bytes-on-wire accounting.
    pub snapshot: crate::transport::TrafficSnapshot,
    /// The step's metrics-registry snapshot: the transport's `net.*` (and
    /// `tcp.*` / `exec.*`, substrate-depending) families. See
    /// `docs/observability.md` for the catalog.
    pub metrics: cs_obs::MetricsSnapshot,
    /// Per-node causal traces, in node-id order — empty unless the
    /// substrate ran with tracing on ([`NetConfig::trace`] /
    /// [`ShardedConfig::trace`]).
    pub traces: Vec<NodeTrace>,
    /// Invariant violations the end-of-step audit detected, in
    /// deterministic order (checks in [`cs_obs::health::AlertKind::ALL`]
    /// order, evidence in node-id order). Each is also minted as an
    /// `obs.alert.<kind>` counter in [`StepRun::metrics`]. Empty on an
    /// honest run.
    pub alerts: Vec<Alert>,
    /// Wall-clock the step took.
    pub elapsed: Duration,
}

impl StepRun {
    /// The tail both in-process step runners share once their nodes have
    /// reported — `nodes` holds each node's report, whether it ended the
    /// step alive, and its trace when tracing was on. Puts them in id
    /// order, counts the pushes skipped at the denominator cap
    /// (`gossip.pushes_capped`), distills the audit evidence from a
    /// pre-audit metrics reading, audits it (minting `obs.alert.<kind>`
    /// counters into `registry`), then takes the final metrics snapshot so
    /// the step's metrics include the verdict.
    pub(crate) fn conclude(
        step_seed: u64,
        registry: &cs_obs::Registry,
        started: Instant,
        mut nodes: Vec<(NodeReport, bool, Option<NodeTrace>)>,
        snapshot: TrafficSnapshot,
    ) -> StepRun {
        nodes.sort_by_key(|(report, _, _)| report.id);
        let mut reports = Vec::with_capacity(nodes.len());
        let mut alive_after = Vec::with_capacity(nodes.len());
        let mut traces = Vec::new();
        for (report, alive, trace) in nodes {
            reports.push(report);
            alive_after.push(alive);
            traces.extend(trace);
        }
        let outcome = assemble_outcome(&reports, alive_after, &snapshot);
        registry
            .counter("gossip.pushes_capped")
            .add(outcome.pushes_capped);
        book_worst_node(&reports, &outcome.estimates, registry);
        let evidence = crate::audit::distill(step_seed, &reports, &snapshot, &registry.snapshot());
        let alerts = cs_obs::health::audit(&evidence, registry, None, None);
        StepRun {
            outcome,
            reports,
            snapshot,
            metrics: registry.snapshot(),
            traces,
            alerts,
            elapsed: started.elapsed(),
        }
    }

    /// Node `id`'s estimate (`id` within the population), `None` if it
    /// ended the step down or without one: the report's own. Read
    /// estimates here — a run [`NetBackend::last_step`] keeps moved
    /// `outcome.estimates` on.
    pub fn estimate(&self, id: NodeId) -> Option<&PerturbedAggregates> {
        let alive = self.outcome.alive_after[id];
        self.reports[id].estimate.as_ref().filter(|_| alive)
    }
}

/// Runs one computation step on the thread-per-node substrate, over a
/// freshly bound [`TcpTransport::loopback`]: spawns one thread per node
/// against it, hands each its part of the scripted churn, and folds
/// reports + traffic into a [`StepRun`].
///
/// `contributions[i]` is `Some(vector)` for participants alive at step
/// start and `None` for crashed ones (they spawn fail-stopped and can be
/// revived by the churn schedule). `step_churn` lists this step's scripted
/// events at wall-clock offsets from the gossip start, an event for a node
/// past the population being a typed error.
pub fn run_step_over_tcp(
    config: &ChiaroscuroConfig,
    layout: &SlotLayout,
    contributions: &[Option<Vec<f64>>],
    crypto: &CryptoContext,
    step_seed: u64,
    net: &NetConfig,
    step_churn: &[crate::churn::ChurnEvent],
) -> Result<StepRun, ChiaroscuroError> {
    let n = contributions.len();
    if n < 2 {
        return Err(ChiaroscuroError::InvalidConfig(
            "the runtime needs at least two nodes".into(),
        ));
    }
    net.link.validate()?;
    // A contribution or a schedule the step's cipher refuses fails the step
    // here, before a socket is bound or a node thread exists.
    let step = StepCrypto::prepare(config, layout, contributions, crypto)?;
    let scripts = crate::churn::split(step_churn, n)?;
    let registry = cs_obs::Registry::new();
    let transport = Arc::new(
        TcpTransport::loopback(n, net.link.clone(), step_seed, Some(&registry))
            .map_err(|e| ChiaroscuroError::Transport(format!("tcp loopback bind: {e}")))?,
    );
    let started = Instant::now();

    let shutdown = Arc::new(AtomicBool::new(false));
    // Each node announces the end of its part of the step here.
    let (announce_tx, announced) = mpsc::channel::<()>();
    // Start barrier: every node finishes construction (contribution
    // encryption included) before anyone gossips. The first node past it
    // reads the gossip start for all of them: every node's clock — its
    // pacing and its scripted churn alike — counts from that one instant,
    // so "crash 16 ms in" means the same thing on every node and machine.
    let start_gate = Arc::new(Barrier::new(n));
    let gossip_start = Arc::new(OnceLock::new());

    // One wall clock shared by every node's tracer, so the per-node traces
    // merge onto a single step timeline.
    let trace_clock: Arc<dyn cs_obs::Clock> = Arc::new(WallClock::new());
    let tracers: Vec<Option<Arc<Tracer>>> = (0..n)
        .map(|_| {
            net.trace
                .then(|| Arc::new(Tracer::new(trace_clock.clone())))
        })
        .collect();
    let timing = Timing {
        push_interval: net.push_interval,
        decrypt_deadline: net.decrypt_deadline,
        step_timeout: net.step_timeout,
    };

    let mut handles = Vec::with_capacity(n);
    for (i, (contribution, script)) in contributions.iter().zip(scripts).enumerate() {
        let params = NodeParams::for_step(
            i,
            n,
            step_seed,
            config.gossip_cycles,
            step.committee.clone(),
            net.fault,
        );
        let node_crypto = step.node_crypto(i);
        let contribution = contribution.clone();
        let layout = *layout;
        let transport = transport.clone();
        let shutdown = shutdown.clone();
        let announce_tx = announce_tx.clone();
        let start_gate = start_gate.clone();
        let gossip_start = gossip_start.clone();
        let tracer = tracers[i].clone();
        handles.push(
            thread::Builder::new()
                .name(format!("cs-net-node-{i}"))
                .spawn(move || {
                    // Construct inside the thread: the contribution
                    // encryption (the expensive part in real-crypto mode)
                    // runs on all node threads concurrently. A node down at
                    // step start, exactly like the simulator's crashed
                    // nodes, holds its slot until its script revives it.
                    let node =
                        ProtocolNode::new(params, layout, node_crypto, contribution.as_deref());
                    let alive = contribution.is_some();
                    let mut driver = NodeDriver::new(node, &timing, alive, script);
                    start_gate.wait();
                    let epoch = *gossip_start.get_or_init(Instant::now);
                    if let Some(tracer) = tracer {
                        // Attached after the barrier, so every node's
                        // `step.start` lands at the shared gossip start.
                        driver = driver.with_tracer(CausalTracer::new(
                            tracer,
                            step_seed,
                            i as u64,
                            TraceContext::NONE,
                        ));
                    }
                    let turn = || match shutdown.load(Ordering::Acquire) {
                        true => Ok(ControlFlow::Break(())),
                        false => Ok(ControlFlow::Continue(())),
                    };
                    let announce = || {
                        // The host may have timed the step out.
                        let _ = announce_tx.send(());
                        Ok(())
                    };
                    let Ok(()) = pump::<Infallible>(&mut driver, &transport, epoch, turn, announce);
                    (driver.is_alive(), driver.finish())
                })
                .expect("spawn node thread"),
        );
    }

    // The step is over once every node has announced the end of its own
    // part (its script played out, and it is down, done or timed out), or
    // at the step timeout. The host parks on the channel meanwhile.
    for _ in 0..n {
        let left = net.step_timeout.saturating_sub(started.elapsed());
        if announced.recv_timeout(left).is_err() {
            break;
        }
    }
    shutdown.store(true, Ordering::Release);

    let nodes = handles
        .into_iter()
        .map(|handle| {
            let (alive, report) = handle.join().expect("node thread panicked");
            let id = report.id;
            let trace = tracers[id]
                .as_ref()
                .map(|tracer| NodeTrace::capture(id as u64, tracer));
            (report, alive, trace)
        })
        .collect();
    Ok(StepRun::conclude(
        step_seed,
        &registry,
        started,
        nodes,
        transport.snapshot(),
    ))
}

/// The wall-clock pump: one node's event loop on every substrate that runs
/// on real time — a node thread of [`run_step_over_tcp`], a `csnoded`
/// process. Each turn: ask the host whether to go on, wait briefly for
/// frames and decode them into the driver, let the driver fire what is
/// due, flush what it emitted (then fire a leader's [`Timer::Share`] and
/// flush again, without waiting), and announce completion once. All
/// protocol timing is the [`NodeDriver`]'s, scripted churn included; the
/// pump only supplies the clock — nanoseconds since `epoch`, the gossip
/// start, read once per delivered frame so a frame handed over after a
/// scripted crash is lost — and books the turn's message work as the
/// node's [`StepPhase::Gossip`].
///
/// The hosts differ in two closures. `turn` runs at the top of every turn:
/// `Break` ends the loop (shutdown flag, `StepEnd`). `announce` runs once,
/// when the node's part of the step is complete ([`NodeDriver::complete`]).
/// Either may fail; the error ends the pump.
pub fn pump<E>(
    driver: &mut NodeDriver,
    transport: &TcpTransport,
    epoch: Instant,
    mut turn: impl FnMut() -> Result<ControlFlow<()>, E>,
    mut announce: impl FnMut() -> Result<(), E>,
) -> Result<(), E> {
    let id = driver.id();
    let now = || epoch.elapsed().as_nanos() as u64;
    // A short receive wait keeps ticks and scripted events prompt.
    let wait = driver.push_interval().min(Duration::from_micros(500));
    let mut out: Vec<Outbound> = Vec::new();
    let mut announced = false;
    while turn()?.is_continue() {
        let mut next = transport.recv_timeout(id, wait);
        let arrived = now();
        let timed = driver.profile_mut().total_ns();
        while let Some(env) = next {
            // Corrupt frames are counted, never fatal.
            match decode_frame_traced(&env.frame) {
                Ok((msg, ctx)) => driver.deliver(env.from, msg, ctx, now(), &mut out),
                Err(_) => driver.note_bad_frame(now(), &mut out),
            }
            next = transport.try_recv(id);
        }
        driver.poll(now(), &mut out);
        // The turn's message work — decoding, absorbing, splitting — from
        // the frames' arrival to the end of the poll, net of the crypto the
        // node timed itself meanwhile.
        let polled = now();
        let profile = driver.profile_mut();
        let work = (polled - arrived).saturating_sub(profile.total_ns() - timed);
        profile.add(StepPhase::Gossip, work);
        flush(id, &mut out, transport);
        // The leader's own partials run once its request is out.
        if driver.fire(Timer::Share, polled, &mut out) {
            flush(id, &mut out, transport);
        }

        if !announced && driver.complete(polled) {
            announce()?;
            announced = true;
        }
    }
    Ok(())
}

fn flush(id: NodeId, out: &mut Vec<Outbound>, transport: &TcpTransport) {
    for (to, msg, ctx) in out.drain(..) {
        let class = msg.class();
        let frame = encode_frame_traced(&msg, ctx);
        // Sends to dead peers are indistinguishable from loss at this layer.
        let _ = transport.send(id, to, frame, class);
    }
}

/// The execution substrate a [`NetBackend`] drives each computation step on.
enum Flavor {
    /// Thread-per-node over localhost TCP sockets ([`run_step_over_tcp`]).
    Tcp(NetConfig),
    /// Sharded virtual-time event-loop executor (see [`crate::executor`]).
    Sharded(ShardedConfig),
}

/// A [`ComputationBackend`] that executes every computation step over a
/// `cs_net` runtime — `Engine::run_with_backend` drives a full Chiaroscuro
/// run end-to-end over real wire messages. Two substrates are available:
///
/// * [`NetBackend::tcp`] — one OS thread per participant, wall-clock
///   pacing, every frame through a kernel socket on `127.0.0.1`: the
///   protocol under genuine nondeterministic interleaving, and the
///   in-process twin of the `cs_node` multi-process cluster.
/// * [`NetBackend::sharded`] — the virtual-time sharded event-loop
///   executor: thousands of virtual nodes on a fixed worker pool, fully
///   deterministic under a seed.
pub struct NetBackend {
    flavor: Flavor,
    steps_run: usize,
    last: Option<StepRun>,
}

impl NetBackend {
    fn on(flavor: Flavor) -> Self {
        NetBackend {
            flavor,
            steps_run: 0,
            last: None,
        }
    }

    /// Creates the backend on the TCP loopback substrate — the one the
    /// `net_step_*_tcp` bench rows measure.
    pub fn tcp(net: NetConfig) -> Self {
        NetBackend::on(Flavor::Tcp(net))
    }

    /// Creates the backend on the sharded event-loop executor.
    pub fn sharded(cfg: ShardedConfig) -> Self {
        NetBackend::on(Flavor::Sharded(cfg))
    }

    /// Computation steps executed so far.
    pub fn steps_run(&self) -> usize {
        self.steps_run
    }

    /// Detailed run data of the step just run (reports, per-class
    /// bytes-on-wire, wall-clock). It is released when the next step
    /// begins, so a host holds one step's artifacts at a time, and it is
    /// `None` after a failed step. Its estimates went to the engine: read
    /// them with [`StepRun::estimate`].
    pub fn last_step(&self) -> Option<&StepRun> {
        self.last.as_ref()
    }
}

impl ComputationBackend for NetBackend {
    fn label(&self) -> &'static str {
        match self.flavor {
            Flavor::Tcp(_) => "tcp-loopback",
            Flavor::Sharded(_) => "sharded-executor",
        }
    }

    fn run_step(
        &mut self,
        config: &ChiaroscuroConfig,
        layout: &SlotLayout,
        contributions: &[Option<Vec<f64>>],
        crypto: &CryptoContext,
        step_seed: u64,
        _rng: &mut rand::rngs::StdRng,
    ) -> Result<ComputationOutcome, ChiaroscuroError> {
        // The previous step goes before this one allocates its own.
        self.last = None;
        let mut run = match &self.flavor {
            Flavor::Tcp(net) => run_step_over_tcp(
                config,
                layout,
                contributions,
                crypto,
                step_seed,
                net,
                &net.churn.for_step(self.steps_run),
            )?,
            Flavor::Sharded(cfg) => crate::executor::run_step_sharded(
                config,
                layout,
                contributions,
                crypto,
                step_seed,
                cfg,
                &cfg.churn.for_step(self.steps_run),
            )?,
        };
        self.steps_run += 1;
        let estimates = std::mem::take(&mut run.outcome.estimates);
        let outcome = ComputationOutcome {
            estimates,
            ..run.outcome.clone()
        };
        self.last = Some(run);
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{check_estimates, fast_net, layout, Crypto, Host, Step};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    crate::fixtures::scenario_tests!(Host::Tcp);

    #[test]
    fn plain_step_recovers_means_over_tcp_loopback() {
        let step = Step::new(Crypto::Simulated, 30, 12, [71, 72, 73]);
        let run = step.on_tcp(&fast_net(), &[]).unwrap();
        check_estimates(&run.outcome, 12, 0.35);
        assert!(run.outcome.traffic.messages > 0);
        assert!(run.snapshot.gossip.bytes > 0, "bytes crossed real sockets");
        assert!(
            run.reports.iter().all(|r| r.bad_frames == 0),
            "no decode failures over loopback TCP"
        );
        // No node timer runs on a plain step: the pump booked the gossip.
        assert!(run.reports.iter().all(|r| r.profile.gossip_ns > 0));
    }

    /// No node announces anything to its peers: an honest step on either
    /// in-process host — the sharded executor at its default config, the
    /// TCP host — puts one push per node per cycle on the wire and no
    /// control frame at all.
    #[test]
    fn an_honest_step_sends_no_control_frames() {
        let step = Step::new(Crypto::Simulated, 20, 32, [7, 8, 17]);
        let sharded = step.on_shards(&ShardedConfig::default(), &[]);
        for run in [sharded, step.on_tcp(&fast_net(), &[])] {
            let run = run.unwrap();
            assert!(run.outcome.estimates.iter().all(Option::is_some));
            assert_eq!(run.snapshot.control, Default::default());
            assert_eq!(run.snapshot.gossip.messages, 32 * 20);
        }
    }

    #[test]
    fn real_step_recovers_means_over_tcp_loopback() {
        let step = Step::new(Crypto::Packed, 10, 6, [81, 82, 83]);
        let run = step.on_tcp(&fast_net(), &[]).unwrap();
        check_estimates(&run.outcome, 6, 0.5);
        assert!(run.outcome.decrypt_ops.partial_decryptions > 0);
        assert!(run.outcome.decrypt_ops.messages > 0, "decrypt frames flew");
        assert!(run.outcome.ops.additions > 0);
        assert!(run.outcome.ops.encryptions > 0);
        assert!(
            run.snapshot.decrypt.bytes > 0,
            "decrypt frames flew via TCP"
        );
    }

    #[test]
    fn packed_real_step_recovers_means_over_threads() {
        let step = Step::new(Crypto::Packed, 12, 8, [61, 62, 63]);
        let run = step.on_tcp(&fast_net(), &[]).unwrap();
        check_estimates(&run.outcome, 8, 0.5);
        assert!(run.outcome.decrypt_ops.partial_decryptions > 0);
        assert!(run.outcome.ops.encryptions > 0);
        // The packed payload must be materially smaller than one ciphertext
        // per slot (layout.total() of them at ~64 B each).
        let per_push = run.snapshot.gossip.bytes as f64 / run.snapshot.gossip.messages as f64;
        let one_per_slot = (layout().total() * 64) as f64;
        assert!(
            per_push < one_per_slot * 0.6,
            "packed push of {per_push} B is not smaller than {one_per_slot} B"
        );
        assert!(
            run.reports.iter().all(|r| r.bad_frames == 0),
            "packed frames decode cleanly"
        );
    }

    #[test]
    fn engine_runs_end_to_end_over_the_tcp_backend() {
        use cs_timeseries::datasets::blobs::{generate, BlobsConfig};
        let data = generate(
            &BlobsConfig {
                count: 10,
                clusters: 2,
                len: 4,
                noise: 0.2,
                ..Default::default()
            },
            &mut StdRng::seed_from_u64(91),
        );
        let mut config = ChiaroscuroConfig::demo_simulated();
        config.k = 2;
        config.max_iterations = 2;
        config.gossip_cycles = 20;
        config.epsilon = 1000.0;
        let engine = chiaroscuro::Engine::new(config).unwrap();
        let mut backend = NetBackend::tcp(NetConfig {
            push_interval: Duration::from_micros(150),
            ..NetConfig::default()
        });
        assert_eq!(backend.label(), "tcp-loopback");
        let out = engine.run_with_backend(&data.series, &mut backend).unwrap();
        assert_eq!(out.iterations, 2);
        assert_eq!(backend.steps_run(), 2);
        assert_eq!(out.centroids.len(), 2);
        assert!(out.log.records.iter().all(|r| r.cost.gossip_messages > 0));
        assert!(backend.last_step().is_some());
    }
}
