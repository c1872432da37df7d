//! The sharded event-loop executor: 10k+ virtual nodes on a fixed worker
//! pool.
//!
//! The thread-per-node runtime ([`crate::runtime`]) buys real concurrency at
//! the price of one OS thread per participant — it tops out around a few
//! hundred nodes, three orders of magnitude short of the paper's "massively
//! distributed" population. This module is the scaling substrate: the same
//! sans-IO [`ProtocolNode`] state machines, but driven as *virtual nodes*
//! from per-shard event queues on a worker pool sized to the machine, in
//! **virtual time**.
//!
//! ## Architecture
//!
//! * The population is dealt into a fixed number of **shards** (seeded
//!   shuffle — machine-independent, part of the deterministic
//!   configuration). Each shard owns its nodes and a binary heap of
//!   scheduled events: message deliveries, pacing ticks, decryption
//!   retry/deadline timers, and scripted churn.
//! * A pool of **workers** (≈ the machine's cores) drives the shards in
//!   epochs of virtual time: each epoch, parked workers are woken through a
//!   condvar and claim shards from an atomic injector; a barrier closes the
//!   epoch. No per-node threads, no sleep-polling anywhere.
//! * **Messages move, bytes do not.** No frame is serialized in here:
//!   every delivery carries the message and its [`TraceContext`] by move
//!   and is accounted at the length its frame *would* have
//!   ([`traced_len`](crate::wire::Message::traced_len) — proptested equal
//!   to the encoder's output, and asserted against it on every cross-shard
//!   send in debug builds). The codec is exercised by the TCP and
//!   multi-process substrates, whose transport format it is.
//! * **In-shard delivery** is a direct queue push — no loss, no delay:
//!   same-shard pairs ride a perfect in-memory edge. **Cross-shard
//!   delivery** applies the link model (latency, jitter, loss, bandwidth)
//!   to the computed frame length and reaches the destination shard's
//!   mailbox in one batch per (source shard, destination shard, epoch),
//!   becoming visible at the next epoch boundary. With the default 64
//!   shards only `1/64` of the traffic takes the perfect edge; see
//!   [`ShardedConfig::link`] for when that matters.
//! * **Churn is executor-scheduled**: a [`crate::churn::ChurnEvent`]'s
//!   offset is a *virtual* timestamp here, so "node 7 crashes 3 ms into the
//!   step" happens at exactly the same protocol moment in every same-seed
//!   run — unlike the TCP host, where the offset is wall-clock and at the
//!   mercy of the OS scheduler.
//!
//! ## Determinism
//!
//! Every event carries a totally ordered key `(virtual time, class, actor,
//! sequence)` in which ties are impossible, and all executor-side
//! randomness (shard assignment, per-frame loss/jitter draws) derives from
//! the engine's per-step seed — itself drawn from `ChiaroscuroConfig`'s
//! master RNG. Cross-shard messages only take effect at epoch boundaries,
//! so the interleaving is independent of the worker count and of OS
//! scheduling: two same-seed runs produce identical `ExecutionLog`s,
//! byte for byte (asserted by `tests/sharded_e2e.rs`).
//!
//! Completion needs no termination votes: the executor observes global
//! quiescence (all event queues drained) directly, so
//! [`ShardedConfig::termination_votes`] may disable the `O(n²)`
//! control-plane broadcast at very large populations.

use crate::churn::{ChurnEvent, ChurnKind};
use crate::driver::{Armed, NodeDriver, Timer, Timing};
use crate::node::{FaultSpec, NodeParams, Outbound, ProtocolNode};
use crate::runtime::{StepCrypto, StepRun};
use crate::transport::{mix, unit_f64, ClassCounts, LinkConfig, NodeId, TrafficSnapshot};
use crate::wire::{FrameClass, TraceContext};
use chiaroscuro::config::ChiaroscuroConfig;
use chiaroscuro::noise::SlotLayout;
use chiaroscuro::rounds::CryptoContext;
use chiaroscuro::ChiaroscuroError;
use cs_obs::{CausalTracer, Counter, Histogram, NodeTrace, Registry, Tracer, VirtualClock};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// Tuning knobs of the sharded executor. All durations are **virtual
/// time** — they shape the simulated timeline, not wall-clock, and cost
/// nothing to skip over.
#[derive(Clone, Debug)]
pub struct ShardedConfig {
    /// Number of shards the population is dealt into. Fixed by
    /// configuration (not by the machine's core count) because the shard
    /// layout is part of the deterministic timeline: in-shard deliveries
    /// are instantaneous, cross-shard ones are epoch-aligned.
    pub shards: usize,
    /// Worker threads driving the shards; `0` picks
    /// `min(available_parallelism, shards)`. The worker count never affects
    /// results, only wall-clock.
    pub workers: usize,
    /// Cross-shard link characteristics (latency, jitter, loss, bandwidth),
    /// applied in virtual time. **Cross-shard only**: same-shard pairs (a
    /// seeded `1/shards` fraction of all traffic) exchange over a perfect
    /// in-memory edge — raise `shards` to shrink that fraction when a
    /// degraded-link experiment must touch (nearly) every pair, or use the
    /// TCP loopback host, which applies the model to every link.
    pub link: LinkConfig,
    /// Virtual pacing between a node's gossip pushes.
    pub push_interval: Duration,
    /// Virtual epoch quantum: cross-shard deliveries become visible at the
    /// next multiple of this. Smaller quanta interleave shards more finely
    /// at the cost of more barriers.
    pub epoch: Duration,
    /// How long (virtual) a node waits in the decryption round before
    /// giving up with no estimate.
    pub decrypt_deadline: Duration,
    /// Hard virtual-time deadline for one step.
    pub step_timeout: Duration,
    /// Whether nodes broadcast termination votes on completion. The
    /// executor detects completion by event-queue quiescence, so the
    /// `O(n²)` vote broadcast is optional realism — turn it off at very
    /// large populations.
    pub termination_votes: bool,
    /// Scripted churn, scheduled at virtual offsets.
    pub churn: crate::churn::ChurnSchedule,
    /// Causal tracing: every node records its sends, receives, and phase
    /// markers on a **virtual-time** clock, and [`StepRun::traces`] carries
    /// the captures home. Because every timestamp and span id derives from
    /// the deterministic timeline, a same-seed run produces a
    /// byte-identical trace regardless of the worker count (asserted by
    /// `tests/sharded_e2e.rs`). Off by default: traced frames carry 24
    /// extra bytes, which shifts bandwidth-delay arithmetic.
    pub trace: bool,
    /// Scripted fault injection (tests and chaos drills only); `None` is
    /// an honest run.
    pub fault: Option<FaultSpec>,
    /// Thresholds for the end-of-step invariant audit. The audit is a
    /// pure function of the deterministic timeline's evidence, so the
    /// executor's byte-identity contract holds with monitoring enabled.
    pub audit: cs_obs::AuditConfig,
}

impl Default for ShardedConfig {
    fn default() -> Self {
        ShardedConfig {
            shards: 64,
            workers: 0,
            link: LinkConfig::ideal(),
            push_interval: Duration::from_millis(1),
            epoch: Duration::from_micros(250),
            decrypt_deadline: Duration::from_secs(5),
            step_timeout: Duration::from_secs(60),
            termination_votes: true,
            churn: crate::churn::ChurnSchedule::none(),
            trace: false,
            fault: None,
            audit: cs_obs::AuditConfig::default(),
        }
    }
}

impl ShardedConfig {
    /// A preset for XL populations: vote broadcast off (completion is
    /// quiescence-detected), everything else default.
    pub fn large_population() -> Self {
        ShardedConfig {
            termination_votes: false,
            ..ShardedConfig::default()
        }
    }

    /// The node drivers' clocks, on virtual time. Completion is observed
    /// as event-queue quiescence, so `quiesce` is never consulted.
    fn timing(&self) -> Timing {
        Timing {
            push_interval: self.push_interval,
            quiesce: Duration::ZERO,
            decrypt_deadline: self.decrypt_deadline,
            step_timeout: self.step_timeout,
        }
    }

    fn validate(&self) -> Result<(), ChiaroscuroError> {
        let fail = |msg: &str| Err(ChiaroscuroError::InvalidConfig(msg.to_string()));
        if self.shards == 0 {
            return fail("sharded executor needs at least one shard");
        }
        if self.epoch.is_zero() {
            return fail("epoch quantum must be positive");
        }
        if self.push_interval.is_zero() {
            return fail("push_interval must be positive");
        }
        self.link.validate();
        Ok(())
    }
}

// Event classes, ordered: scripted churn fires before timers, timers before
// deliveries at the same virtual instant.
const CLASS_CHURN: u8 = 0;
const CLASS_TIMER: u8 = 1;
const CLASS_DELIVER: u8 = 2;

/// A timer event is scheduled when the node's [`NodeDriver`] arms the timer
/// and carries only which one. When it pops, the driver decides: a timer
/// it has since cleared (crash, leave, round over) or re-armed for later
/// does not fire, so a stale event is a no-op and a rejoin can neither
/// resurrect the pre-crash pacing chain (double push rate) nor fire a
/// decrypt deadline from the pre-crash clock.
enum EventKind {
    Churn(ChurnKind),
    Timer(Timer),
    /// A message in flight — the node's [`Outbound`] itself, moved (never
    /// serialized) on the in-shard and the cross-shard edge alike.
    Deliver(Outbound),
}

/// One scheduled event. The key `(at, class, actor, seq)` is unique and
/// deterministic: `actor` is the sender (deliveries) or the target node
/// (timers, churn); `seq` is a per-actor monotone counter (send sequence,
/// timer sequence, or churn-script index). Heap ordering therefore never
/// depends on insertion order — which is the whole determinism story, since
/// mailbox insertion order *does* vary across runs.
struct Event {
    at: u64,
    class: u8,
    actor: u32,
    seq: u64,
    kind: EventKind,
}

impl Event {
    fn key(&self) -> (u64, u8, u32, u64) {
        (self.at, self.class, self.actor, self.seq)
    }
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for Event {}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; reverse so the earliest key wins.
        other.key().cmp(&self.key())
    }
}

/// One virtual node: the driven protocol state machine plus the executor's
/// event-key bookkeeping.
struct Slot {
    driver: NodeDriver,
    /// Per-sender message sequence (deliveries' deterministic tiebreak and
    /// loss/jitter draw input).
    send_seq: u64,
    /// Per-node timer sequence.
    timer_seq: u64,
    /// This node's trace clock and buffer when tracing is on. The clock is
    /// jumped to the event timestamp before every activation, so trace
    /// timestamps are pure virtual time — identical across worker counts.
    trace: Option<(Arc<VirtualClock>, Arc<Tracer>)>,
}

/// Schedules an event for every timer `slot`'s driver has armed since
/// `before`, its armed set ahead of the input just handled.
fn schedule_armed(heap: &mut BinaryHeap<Event>, slot: &mut Slot, before: Armed) {
    for (timer, at) in slot.driver.armed().iter() {
        if before.at(timer) != Some(at) {
            slot.timer_seq += 1;
            heap.push(Event {
                at,
                class: CLASS_TIMER,
                actor: slot.driver.id() as u32,
                seq: slot.timer_seq,
                kind: EventKind::Timer(timer),
            });
        }
    }
}

/// A shard: the nodes it owns, their event queue, and local (unsynchronized)
/// traffic counters merged after the step.
struct Shard {
    heap: BinaryHeap<Event>,
    slots: Vec<Slot>,
    // [gossip, decrypt, control] × [messages, bytes, dropped]
    counters: [[u64; 3]; 3],
    /// Same-shard and cross-shard deliveries routed in the window being
    /// processed; added to the `exec.deliveries.*` counters once per window
    /// instead of one contended atomic per frame.
    in_shard: u64,
    cross_shard: u64,
    /// Cross-shard events produced in the window being processed, one
    /// outbox per destination shard, handed to the mailboxes when the
    /// window's events are drained.
    outboxes: Vec<Vec<Event>>,
    /// Reusable output buffer for node activations.
    scratch: Vec<Outbound>,
}

/// Cross-shard delivery queue. Items become visible to the owning shard at
/// the next epoch boundary; `earliest` feeds the global next-event-time
/// computation between epochs.
struct Mailbox {
    inner: Mutex<MailboxInner>,
}

struct MailboxInner {
    queue: Vec<Event>,
    earliest: u64,
}

impl Mailbox {
    fn new() -> Self {
        Mailbox {
            inner: Mutex::new(MailboxInner {
                queue: Vec::new(),
                earliest: u64::MAX,
            }),
        }
    }

    /// Takes everything in `outbox` under one lock.
    fn deliver(&self, outbox: &mut Vec<Event>) {
        let Some(earliest) = outbox.iter().map(|e| e.at).min() else {
            return;
        };
        let mut inner = self.inner.lock().expect("mailbox poisoned");
        inner.earliest = inner.earliest.min(earliest);
        inner.queue.append(outbox);
    }
}

/// Epoch coordination: the main loop publishes a window, parked workers
/// wake through `start`, claim shards from the injector, and the last one
/// out rings `done`. Node construction is the pool's first round: the
/// state starts with every worker still to check in, so one thread scope
/// serves the whole step.
struct Coord {
    state: Mutex<CoordState>,
    start: Condvar,
    done: Condvar,
}

struct CoordState {
    epoch: u64,
    window_end: u64,
    remaining: usize,
    shutdown: bool,
}

/// A worker's check-in at the barrier. It runs on drop so that a worker
/// whose shard work panicked still checks in — flagging shutdown — and the
/// driver wakes, stops, and re-raises the panic when it joins the pool
/// instead of waiting on a barrier that can no longer fill.
struct CheckIn<'a>(&'a Coord);

impl Drop for CheckIn<'_> {
    fn drop(&mut self) {
        let mut state = self.0.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.remaining -= 1;
        state.shutdown |= thread::panicking();
        if state.remaining == 0 || state.shutdown {
            self.0.done.notify_all();
        }
    }
}

/// A `[class][messages, bytes, dropped]` counter block as a snapshot.
fn snapshot_of(counters: &[[u64; 3]; 3]) -> TrafficSnapshot {
    let read = |ci: usize| ClassCounts {
        messages: counters[ci][0],
        bytes: counters[ci][1],
        dropped: counters[ci][2],
    };
    TrafficSnapshot {
        gossip: read(0),
        decrypt: read(1),
        control: read(2),
    }
}

fn class_index(class: FrameClass) -> usize {
    match class {
        FrameClass::Gossip => 0,
        FrameClass::Decrypt => 1,
        FrameClass::Control => 2,
    }
}

/// Resolved handles for the executor's metric names (`exec.*`). Everything
/// here except `exec.epoch.wait_ns` is **deterministic**: the values are
/// sums of per-shard quantities whose event sequences do not depend on the
/// worker count or scheduling, and counter/histogram increments commute —
/// locked in by the `metrics_are_deterministic_across_worker_counts` test.
struct ExecMetrics {
    /// Same-shard deliveries, which skip the link model
    /// (`exec.deliveries.in_shard`).
    in_shard: Arc<Counter>,
    /// Cross-shard deliveries through link model + epoch barrier
    /// (`exec.deliveries.cross_shard`).
    cross_shard: Arc<Counter>,
    /// Due-event backlog one shard drained in one epoch window
    /// (`exec.queue.depth`). Measured per (shard, window) — not per pop —
    /// because *when* a cross-shard event migrates from mailbox to heap
    /// depends on worker interleaving, but the set of events due in a
    /// window never does.
    queue_depth: Arc<Histogram>,
    /// Epoch windows driven to completion (`exec.epochs`).
    epochs: Arc<Counter>,
    /// Wall-clock the driver spent waiting on the epoch barrier — the one
    /// **non-deterministic** metric in the family (`exec.epoch.wait_ns`).
    epoch_wait: Arc<Histogram>,
}

impl ExecMetrics {
    fn new(registry: &Registry) -> Self {
        ExecMetrics {
            in_shard: registry.counter("exec.deliveries.in_shard"),
            cross_shard: registry.counter("exec.deliveries.cross_shard"),
            queue_depth: registry.histogram("exec.queue.depth"),
            epochs: registry.counter("exec.epochs"),
            epoch_wait: registry.histogram("exec.epoch.wait_ns"),
        }
    }
}

/// Everything the workers share while a step runs.
struct Exec<'a> {
    home: &'a [(u32, u32)],
    shards: &'a [Mutex<Shard>],
    mailboxes: &'a [Mailbox],
    injector: AtomicUsize,
    coord: Coord,
    metrics: ExecMetrics,
    step_seed: u64,
    loss: f64,
    latency: u64,
    jitter: u64,
    bandwidth: Option<u64>,
}

impl<'a> Exec<'a> {
    /// The shared state of one step. The pool starts inside its
    /// construction round: all `workers` are still to check in.
    fn new(
        home: &'a [(u32, u32)],
        shards: &'a [Mutex<Shard>],
        mailboxes: &'a [Mailbox],
        workers: usize,
        step_seed: u64,
        sharded: &ShardedConfig,
        registry: &Registry,
    ) -> Self {
        Exec {
            home,
            shards,
            mailboxes,
            injector: AtomicUsize::new(0),
            metrics: ExecMetrics::new(registry),
            coord: Coord {
                state: Mutex::new(CoordState {
                    epoch: 0,
                    window_end: 0,
                    remaining: workers,
                    shutdown: false,
                }),
                start: Condvar::new(),
                done: Condvar::new(),
            },
            step_seed,
            loss: sharded.link.loss,
            latency: sharded.link.latency.as_nanos() as u64,
            jitter: sharded.link.jitter.as_nanos() as u64,
            bandwidth: sharded.link.bandwidth_bytes_per_sec,
        }
    }

    /// Routes one activation's output messages. `from` owns its shard, so
    /// its send sequence lives behind the same lock.
    fn route(
        &self,
        shard: &mut Shard,
        shard_idx: usize,
        from: NodeId,
        now: u64,
        window_end: u64,
        out: &mut Vec<Outbound>,
    ) {
        let from_local = self.home[from].1 as usize;
        for outbound in out.drain(..) {
            let (to, msg, ctx) = &outbound;
            let class = msg.class();
            let ci = class_index(class);
            let seq = {
                let slot = &mut shard.slots[from_local];
                slot.send_seq += 1;
                slot.send_seq
            };
            // The message moves; what is accounted — and, cross-shard, fed
            // to the link model — is the length of the frame it *would*
            // occupy on a wire, trace block included, so both edges account
            // exactly like the substrates that do serialize.
            let len = msg.traced_len(*ctx);
            let target_shard = self.home[*to].0 as usize;
            if target_shard == shard_idx {
                // Direct queue push: same shard, same epoch, perfect edge.
                shard.in_shard += 1;
                shard.counters[ci][0] += 1;
                shard.counters[ci][1] += len as u64;
                shard.heap.push(Event {
                    at: now,
                    class: CLASS_DELIVER,
                    actor: from as u32,
                    seq,
                    kind: EventKind::Deliver(outbound),
                });
                continue;
            }
            // Cross-shard: through the link model. The draw is keyed by
            // (step seed, sender, sender sequence), so the loss and jitter
            // pattern is identical in every same-seed run.
            shard.cross_shard += 1;
            #[cfg(debug_assertions)]
            assert_eq!(
                crate::wire::encode_frame_traced(msg, *ctx).len(),
                len,
                "computed frame length diverged from the codec"
            );
            let draw = mix(self.step_seed
                ^ (from as u64).wrapping_mul(0xA076_1D64_78BD_642F)
                ^ seq.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            if self.loss > 0.0 && unit_f64(draw) < self.loss {
                shard.counters[ci][2] += 1;
                continue;
            }
            shard.counters[ci][0] += 1;
            shard.counters[ci][1] += len as u64;
            let mut delay = self.latency;
            if self.jitter > 0 {
                delay += (self.jitter as f64 * unit_f64(mix(draw))) as u64;
            }
            if let Some(bw) = self.bandwidth {
                delay += (len as f64 * 1e9 / bw as f64) as u64;
            }
            // Visible no earlier than the next epoch boundary — the barrier
            // that makes cross-shard interleaving schedule-independent.
            let at = (now + delay).max(window_end);
            shard.outboxes[target_shard].push(Event {
                at,
                class: CLASS_DELIVER,
                actor: from as u32,
                seq,
                kind: EventKind::Deliver(outbound),
            });
        }
    }

    /// One event: feed it to the target node's driver, schedule whatever
    /// timers that armed, route whatever it emitted.
    fn handle_event(&self, shard: &mut Shard, shard_idx: usize, event: Event, window_end: u64) {
        let now = event.at;
        let mut out = std::mem::take(&mut shard.scratch);
        // `actor` is the sender of a delivery, the target of anything else.
        let node = match &event.kind {
            EventKind::Deliver((to, _, _)) => *to,
            _ => event.actor as usize,
        };
        let slot = &mut shard.slots[self.home[node].1 as usize];
        if let Some((clock, _)) = &slot.trace {
            // Every trace timestamp a node records is the virtual time of
            // the event that activated it.
            clock.set_ns(now);
        }
        let before = slot.driver.armed();
        match event.kind {
            EventKind::Churn(ChurnKind::Crash) => slot.driver.crash(),
            EventKind::Churn(ChurnKind::Rejoin) => slot.driver.rejoin(now, &mut out),
            EventKind::Churn(ChurnKind::Leave) => slot.driver.leave(&mut out),
            EventKind::Timer(timer) => {
                slot.driver.fire(timer, now, &mut out);
            }
            EventKind::Deliver((_, msg, ctx)) => {
                let from = event.actor as usize;
                slot.driver.deliver(from, msg, ctx, now, &mut out);
            }
        }
        schedule_armed(&mut shard.heap, slot, before);
        self.route(shard, shard_idx, node, now, window_end, &mut out);
        out.clear();
        shard.scratch = out;
    }

    /// Drives one shard through the window `[·, window_end)`: drain the
    /// mailbox, pop events in key order until none are due, then hand the
    /// window's cross-shard output to the destination mailboxes.
    fn process_shard(&self, shard_idx: usize, window_end: u64) {
        let mut guard = self.shards[shard_idx].lock().expect("shard poisoned");
        let shard = &mut *guard;
        let mail = {
            let mut mail = self.mailboxes[shard_idx]
                .inner
                .lock()
                .expect("mailbox poisoned");
            mail.earliest = u64::MAX;
            std::mem::take(&mut mail.queue)
        };
        shard.heap.extend(mail);
        let mut drained = 0u64;
        while shard.heap.peek().is_some_and(|e| e.at < window_end) {
            let event = shard.heap.pop().unwrap();
            drained += 1;
            self.handle_event(shard, shard_idx, event, window_end);
        }
        for (mailbox, outbox) in self.mailboxes.iter().zip(&mut shard.outboxes) {
            mailbox.deliver(outbox);
        }
        self.metrics.queue_depth.record(drained);
        self.metrics
            .in_shard
            .add(std::mem::take(&mut shard.in_shard));
        self.metrics
            .cross_shard
            .add(std::mem::take(&mut shard.cross_shard));
    }

    /// Earliest pending event across all shards and mailboxes, or `None`
    /// when the system is fully quiescent (the step is over).
    fn next_event_time(&self) -> Option<u64> {
        let mut min = u64::MAX;
        for (shard, mailbox) in self.shards.iter().zip(self.mailboxes) {
            if let Some(top) = shard.lock().expect("shard poisoned").heap.peek() {
                min = min.min(top.at);
            }
            min = min.min(mailbox.inner.lock().expect("mailbox poisoned").earliest);
        }
        (min < u64::MAX).then_some(min)
    }

    /// Claims shards from the injector until none are left, then checks in
    /// at the barrier.
    fn claim_shards(&self, work: impl Fn(usize)) {
        let _check_in = CheckIn(&self.coord);
        loop {
            let shard_idx = self.injector.fetch_add(1, Ordering::SeqCst);
            if shard_idx >= self.shards.len() {
                break;
            }
            work(shard_idx);
        }
    }

    /// Waits until every worker has checked in; `false` when a worker
    /// panicked instead and the step must stop.
    fn await_workers(&self) -> bool {
        let mut state = self.coord.state.lock().expect("coord poisoned");
        while state.remaining > 0 && !state.shutdown {
            state = self.coord.done.wait(state).expect("coord poisoned");
        }
        !state.shutdown
    }

    /// One pool worker: builds shards in the construction round, then
    /// drives shards through every window the main loop publishes.
    fn worker_loop(&self, build_shard: impl Fn(usize)) {
        self.claim_shards(build_shard);
        let mut seen_epoch = 0u64;
        loop {
            let window_end = {
                let mut state = self.coord.state.lock().expect("coord poisoned");
                loop {
                    if state.shutdown {
                        return;
                    }
                    if state.epoch != seen_epoch {
                        seen_epoch = state.epoch;
                        break state.window_end;
                    }
                    state = self.coord.start.wait(state).expect("coord poisoned");
                }
            };
            self.claim_shards(|shard_idx| self.process_shard(shard_idx, window_end));
        }
    }
}

/// Runs one computation step on the sharded event-loop executor.
///
/// Mirrors [`crate::runtime::run_step_over_tcp`]: `contributions[i]`
/// is `Some(vector)` for participants alive at step start, `None` for
/// crashed ones (zero weight, revivable by churn); `step_churn` lists this
/// step's scripted events at *virtual* offsets. The returned [`StepRun`] is
/// structurally identical to the TCP host's, so everything
/// downstream (engine, benches, experiments) is substrate-agnostic.
pub fn run_step_sharded(
    config: &ChiaroscuroConfig,
    layout: &SlotLayout,
    contributions: &[Option<Vec<f64>>],
    crypto: &CryptoContext,
    step_seed: u64,
    sharded: &ShardedConfig,
    step_churn: &[ChurnEvent],
) -> Result<StepRun, ChiaroscuroError> {
    let n = contributions.len();
    if n < 2 {
        return Err(ChiaroscuroError::InvalidConfig(
            "the executor needs at least two nodes".into(),
        ));
    }
    sharded.validate()?;
    let started = Instant::now();

    let step = StepCrypto::prepare(config, layout, contributions, crypto, step_seed)?;
    let shard_count = sharded.shards.min(n);
    let workers = if sharded.workers == 0 {
        thread::available_parallelism()
            .map(|v| v.get())
            .unwrap_or(4)
            .min(shard_count)
    } else {
        sharded.workers.min(shard_count)
    };

    // Shard assignment: a seeded shuffle dealt round-robin. Derived from the
    // step seed (drawn from the engine's master RNG), so it is part of the
    // same fork discipline as every other random choice in a run.
    let mut order: Vec<NodeId> = (0..n).collect();
    let mut assign_rng = StdRng::seed_from_u64(mix(step_seed ^ 0x5AAD_ED5E_ED00_0001));
    order.shuffle(&mut assign_rng);
    let mut members: Vec<Vec<NodeId>> = vec![Vec::new(); shard_count];
    let mut home = vec![(0u32, 0u32); n];
    for (position, &node) in order.iter().enumerate() {
        let shard = position % shard_count;
        home[node] = (shard as u32, members[shard].len() as u32);
        members[shard].push(node);
    }

    let shards: Vec<Mutex<Shard>> = (0..shard_count)
        .map(|_| {
            Mutex::new(Shard {
                heap: BinaryHeap::new(),
                slots: Vec::new(),
                counters: [[0; 3]; 3],
                in_shard: 0,
                cross_shard: 0,
                outboxes: (0..shard_count).map(|_| Vec::new()).collect(),
                scratch: Vec::new(),
            })
        })
        .collect();
    let mailboxes: Vec<Mailbox> = (0..shard_count).map(|_| Mailbox::new()).collect();

    // Construction, one shard at a time per worker: contribution encryption
    // (the expensive part in real-crypto mode) runs on all workers
    // concurrently. Node state only depends on per-node seeds, so the build
    // order is irrelevant to determinism.
    let timing = sharded.timing();
    let build_shard = |shard_idx: usize| {
        let mut guard = shards[shard_idx].lock().expect("shard poisoned");
        let shard = &mut *guard;
        for &id in &members[shard_idx] {
            let params = NodeParams::for_step(
                id,
                n,
                step_seed,
                config.gossip_cycles,
                step.committee.clone(),
                sharded.termination_votes,
                sharded.fault,
            );
            let node_crypto = step.node_crypto(id);
            let contribution = contributions[id].as_deref();
            let mut node = ProtocolNode::new(params, *layout, node_crypto, contribution);
            let trace = sharded.trace.then(|| {
                let clock = Arc::new(VirtualClock::new());
                let tracer = Arc::new(Tracer::new(clock.clone() as Arc<dyn cs_obs::Clock>));
                (clock, tracer)
            });
            if let Some((_, tracer)) = &trace {
                // trace id = step seed: every node's trace of this step
                // carries the same id, which is what the critical-path
                // analyzer groups rounds by.
                node = node.with_tracer(CausalTracer::new(
                    tracer.clone(),
                    step_seed,
                    id as u64,
                    TraceContext::NONE,
                ));
            }
            let mut slot = Slot {
                driver: NodeDriver::new(node, &timing, contribution.is_some()),
                send_seq: 0,
                timer_seq: 0,
                trace,
            };
            // A node alive at step start has its first tick armed at 0.
            schedule_armed(&mut shard.heap, &mut slot, Armed::default());
            shard.slots.push(slot);
        }
    };

    // Scripted churn, scheduled into the owning shards at virtual offsets.
    for (index, event) in step_churn.iter().enumerate() {
        let shard_idx = home[event.node].0 as usize;
        shards[shard_idx]
            .lock()
            .expect("shard poisoned")
            .heap
            .push(Event {
                at: event.after.as_nanos() as u64,
                class: CLASS_CHURN,
                actor: event.node as u32,
                seq: index as u64,
                kind: EventKind::Churn(event.kind),
            });
    }

    let registry = Registry::new();
    let exec = Exec::new(
        &home, &shards, &mailboxes, workers, step_seed, sharded, &registry,
    );
    let quantum = sharded.epoch.as_nanos() as u64;
    let timeout = sharded.step_timeout.as_nanos() as u64;

    thread::scope(|scope| {
        let pool: Vec<_> = (0..workers)
            .map(|_| scope.spawn(|| exec.worker_loop(build_shard)))
            .collect();
        // The epoch loop: once the pool has built the shards, jump virtual
        // time to the next pending event, publish the window, let the pool
        // drain it, repeat until global quiescence (every node done, every
        // message delivered) or the virtual deadline.
        if exec.await_workers() {
            while let Some(next) = exec.next_event_time() {
                if next >= timeout {
                    break;
                }
                let window_start = next - next % quantum;
                let window_end = window_start + quantum;
                {
                    let mut state = exec.coord.state.lock().expect("coord poisoned");
                    exec.injector.store(0, Ordering::SeqCst);
                    state.epoch += 1;
                    state.window_end = window_end;
                    state.remaining = workers;
                }
                exec.coord.start.notify_all();
                let wait_started = Instant::now();
                if !exec.await_workers() {
                    break;
                }
                exec.metrics.epochs.inc();
                exec.metrics
                    .epoch_wait
                    .record(wait_started.elapsed().as_nanos() as u64);
            }
        }
        exec.coord.state.lock().expect("coord poisoned").shutdown = true;
        exec.coord.start.notify_all();
        // Joined by handle, not left to the scope: the scope only waits for
        // the workers' closures to return, a join waits for the OS threads
        // to be gone. A worker still exiting when the next step spawns its
        // pool makes the allocator open a fresh per-thread arena instead of
        // reusing the exited thread's, and resident memory creeps up by one
        // arena's footprint at scheduler-chosen moments.
        for worker in pool {
            if let Err(panic) = worker.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });

    // Deterministic collection: counters merged in shard order, nodes put
    // back into id order by `conclude`. The end-of-step audit runs after
    // it: the evidence — and therefore every alert and counter minted — is
    // a pure function of the virtual timeline.
    let mut nodes = Vec::with_capacity(n);
    let mut counters = [[0u64; 3]; 3];
    for shard in shards {
        let shard = shard.into_inner().expect("shard poisoned");
        for (ci, row) in counters.iter_mut().enumerate() {
            for (mi, cell) in row.iter_mut().enumerate() {
                *cell += shard.counters[ci][mi];
            }
        }
        for slot in shard.slots {
            let id = slot.driver.id() as u64;
            let trace = slot
                .trace
                .map(|(_, tracer)| NodeTrace::capture(id, &tracer));
            let alive = slot.driver.is_alive();
            nodes.push((slot.driver.finish().0, alive, trace));
        }
    }
    let snapshot = snapshot_of(&counters);
    Ok(StepRun::conclude(
        step_seed,
        &sharded.audit,
        &registry,
        started,
        nodes,
        snapshot,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::decrypt_retry_interval;
    use crate::fixtures::{check_estimates, layout, Crypto, Host, Step};
    use crate::wire::Message;

    crate::fixtures::scenario_tests!(Host::Sharded);

    fn small_sharded() -> ShardedConfig {
        ShardedConfig {
            shards: 8,
            ..ShardedConfig::default()
        }
    }

    fn four_shards() -> ShardedConfig {
        ShardedConfig {
            shards: 4,
            ..ShardedConfig::default()
        }
    }

    #[test]
    fn plain_step_recovers_means_on_the_executor() {
        let step = Step::new(Crypto::Simulated, 30, 64, [1, 2, 7]);
        let run = step.on_shards(&small_sharded(), &[]).unwrap();
        check_estimates(&run.outcome, 64, 0.35);
        assert!(run.outcome.traffic.messages > 0);
        assert!(run.snapshot.gossip.bytes > 0, "bytes-on-wire recorded");
        assert!(
            run.reports.iter().all(|r| r.bad_frames == 0),
            "no decode failures on a clean link"
        );
    }

    #[test]
    fn same_seed_same_step_bitwise() {
        let step = Step::new(Crypto::Simulated, 25, 48, [3, 4, 11]);
        let sharded = ShardedConfig {
            shards: 8,
            link: LinkConfig {
                latency: Duration::from_micros(200),
                jitter: Duration::from_micros(100),
                loss: 0.05,
                bandwidth_bytes_per_sec: Some(10_000_000),
            },
            ..ShardedConfig::default()
        };
        let run = |workers: usize| {
            let cfg = ShardedConfig {
                workers,
                ..sharded.clone()
            };
            step.on_shards(&cfg, &[]).unwrap()
        };
        let a = run(0);
        let b = run(0);
        // Bitwise-identical estimates and identical accounting…
        for (x, y) in a.outcome.estimates.iter().zip(&b.outcome.estimates) {
            match (x, y) {
                (Some(x), Some(y)) => {
                    assert_eq!(x.sums, y.sums);
                    assert_eq!(x.counts, y.counts);
                }
                (None, None) => {}
                _ => panic!("estimate presence diverged"),
            }
        }
        assert_eq!(a.snapshot, b.snapshot);
        // …including with a different worker count: parallelism never
        // changes results, only wall-clock.
        let c = run(1);
        assert_eq!(a.snapshot, c.snapshot);
        for (x, y) in a.outcome.estimates.iter().zip(&c.outcome.estimates) {
            if let (Some(x), Some(y)) = (x, y) {
                assert_eq!(x.sums, y.sums);
            }
        }
    }

    /// The deterministic slice of the `exec.*` metric family must be
    /// byte-identical across worker counts, exactly like the protocol
    /// results — instrumenting the executor must not (and cannot) perturb
    /// the timeline, and the metrics themselves must not depend on
    /// scheduling. Only `exec.epoch.wait_ns` (driver wall-clock) may vary.
    #[test]
    fn metrics_are_deterministic_across_worker_counts() {
        let step = Step::new(Crypto::Simulated, 25, 48, [3, 4, 11]);
        let run = |workers: usize| {
            let cfg = ShardedConfig {
                workers,
                ..small_sharded()
            };
            step.on_shards(&cfg, &[]).unwrap()
        };
        let a = run(1);
        let b = run(4);
        for name in [
            "exec.deliveries.in_shard",
            "exec.deliveries.cross_shard",
            "exec.epochs",
        ] {
            assert_eq!(a.metrics.counter(name), b.metrics.counter(name), "{name}");
            assert!(a.metrics.counter(name) > 0, "{name} must be populated");
        }
        assert_eq!(
            a.metrics.histogram("exec.queue.depth"),
            b.metrics.histogram("exec.queue.depth"),
            "queue-depth histogram is part of the deterministic timeline"
        );
        // The wall-clock metric exists but is allowed to differ.
        assert!(a.metrics.histogram("exec.epoch.wait_ns").is_some());
    }

    /// A traced `PackedPush` and a traced `DecryptShare`.
    fn traced_crypto_messages() -> ([Message; 2], TraceContext) {
        use cs_bigint::BigUint;
        use cs_crypto::{Ciphertext, PartialDecryption};

        let big = |bytes: usize| BigUint::from_bytes_le(&vec![0xA5; bytes]);
        let messages = [
            Message::PackedPush {
                iteration: 9,
                denom_exp: 3,
                weight: 0.5,
                buckets: 12,
                slots: vec![
                    Ciphertext::from_biguint(big(64)),
                    Ciphertext::from_biguint(big(63)),
                ],
            },
            Message::DecryptShare {
                iteration: 9,
                partials: vec![PartialDecryption::from_parts(2, big(61))],
            },
        ];
        let ctx = TraceContext {
            trace_id: 9,
            span_id: (1 << 32) | 7,
            parent_id: 0,
        };
        (messages, ctx)
    }

    /// Node 0 (shard 0) sends node 1 (shard 1) the two
    /// [`traced_crypto_messages`]. Returns the executor's accounting of the
    /// sends, how many of them node 1 received, and its `bad_frames`.
    fn cross_shard_sends(destination_alive: bool) -> (TrafficSnapshot, usize, u64) {
        use crate::node::NodeCrypto;

        let (messages, ctx) = traced_crypto_messages();
        let clock = Arc::new(VirtualClock::new());
        let tracer = Arc::new(Tracer::new(clock.clone() as Arc<dyn cs_obs::Clock>));
        let sharded = ShardedConfig {
            // A finite bandwidth, so the computed length also feeds the
            // delay arithmetic.
            link: LinkConfig {
                bandwidth_bytes_per_sec: Some(1_000_000),
                ..LinkConfig::ideal()
            },
            ..ShardedConfig::default()
        };
        let timing = sharded.timing();
        let shards: Vec<Mutex<Shard>> = (0..2)
            .map(|id| {
                let params = NodeParams {
                    id,
                    population: 2,
                    iteration: 9,
                    pushes: 1,
                    committee: Vec::new(),
                    seed: id as u64,
                    votes: false,
                    corrupt_partials: false,
                };
                let mut node = ProtocolNode::new(params, layout(), NodeCrypto::Plain, None);
                let mut trace = None;
                if id == 1 {
                    node = node.with_tracer(CausalTracer::new(
                        tracer.clone(),
                        9,
                        1,
                        TraceContext::NONE,
                    ));
                    trace = Some((clock.clone(), tracer.clone()));
                }
                Mutex::new(Shard {
                    heap: BinaryHeap::new(),
                    slots: vec![Slot {
                        driver: NodeDriver::new(node, &timing, id == 0 || destination_alive),
                        send_seq: 0,
                        timer_seq: 0,
                        trace,
                    }],
                    counters: [[0; 3]; 3],
                    in_shard: 0,
                    cross_shard: 0,
                    outboxes: vec![Vec::new(), Vec::new()],
                    scratch: Vec::new(),
                })
            })
            .collect();
        let mailboxes = [Mailbox::new(), Mailbox::new()];
        let home = [(0, 0), (1, 0)];
        let registry = Registry::new();
        let exec = Exec::new(&home, &shards, &mailboxes, 0, 1, &sharded, &registry);

        let mut out: Vec<Outbound> = messages.iter().map(|m| (1, m.clone(), ctx)).collect();
        let snapshot = {
            let mut shard = shards[0].lock().unwrap();
            exec.route(&mut shard, 0, 0, 0, 1_000, &mut out);
            snapshot_of(&shard.counters)
        };

        // Window one hands the outbox over; window two delivers it.
        exec.process_shard(0, 1_000);
        assert_eq!(mailboxes[1].inner.lock().unwrap().queue.len(), 2);
        exec.process_shard(1, u64::MAX);
        assert!(mailboxes[1].inner.lock().unwrap().queue.is_empty());
        assert_eq!(
            registry.snapshot().counter("exec.deliveries.cross_shard"),
            2
        );
        drop(exec);

        let shard = shards.into_iter().nth(1).unwrap().into_inner().unwrap();
        assert!(shard.heap.is_empty(), "both deliveries were consumed");
        let received = tracer
            .snapshot_events()
            .iter()
            .filter(|e| e.name == "recv")
            .count();
        let slot = shard.slots.into_iter().next().unwrap();
        (snapshot, received, slot.driver.finish().0.bad_frames)
    }

    #[test]
    fn cross_shard_sends_are_accounted_like_encoded_frames() {
        use crate::wire::encode_frame_traced;

        let (snapshot, received, bad_frames) = cross_shard_sends(true);
        assert_eq!(received, 2, "a live destination receives both messages");
        // Nothing is decoded here, so nothing fails to decode; the one bad
        // frame is the packed push, foreign to a plaintext node.
        assert_eq!(bad_frames, 1);

        // What a substrate that serializes would have put on the wire: one
        // frame per class, each at its encoded length.
        let (messages, ctx) = traced_crypto_messages();
        let [push, share] = messages.map(|msg| encode_frame_traced(&msg, ctx).len() as u64);
        assert_eq!((snapshot.gossip.messages, snapshot.gossip.bytes), (1, push));
        assert_eq!(
            (snapshot.decrypt.messages, snapshot.decrypt.bytes),
            (1, share)
        );
        assert_eq!(snapshot.control, Default::default());
        assert_eq!(snapshot.dropped(), 0);
    }

    #[test]
    fn crashed_destination_drops_cross_shard_deliveries_silently() {
        let (snapshot, received, bad_frames) = cross_shard_sends(false);
        // The sender cannot observe the crash: both frames were put on the
        // wire and accounted…
        assert_eq!(snapshot.messages(), 2);
        // …and the dead destination neither saw them nor counted them as
        // corrupt.
        assert_eq!(received, 0);
        assert_eq!(bad_frames, 0);
    }

    #[test]
    fn real_step_recovers_means_on_the_executor() {
        let step = Step::new(Crypto::PerSlot, 12, 8, [3, 4, 11]);
        let run = step.on_shards(&four_shards(), &[]).unwrap();
        check_estimates(&run.outcome, 8, 0.5);
        assert!(run.outcome.decrypt_ops.partial_decryptions > 0);
        assert!(run.outcome.ops.additions > 0);
        assert!(run.outcome.ops.encryptions > 0);
        assert!(run.snapshot.decrypt.bytes > 0);
    }

    #[test]
    fn packed_real_step_recovers_means_on_the_executor() {
        let step = Step::new(Crypto::Packed, 12, 8, [61, 62, 63]);
        let run = step.on_shards(&four_shards(), &[]).unwrap();
        check_estimates(&run.outcome, 8, 0.5);
        assert!(run.outcome.decrypt_ops.partial_decryptions > 0);
        let per_push = run.snapshot.gossip.bytes as f64 / run.snapshot.gossip.messages as f64;
        let unpacked_floor = (layout().total() * 64) as f64;
        assert!(
            per_push < unpacked_floor * 0.6,
            "packed push of {per_push} B is not smaller than unpacked {unpacked_floor} B"
        );
    }

    #[test]
    fn scripted_churn_fires_at_exact_virtual_offsets() {
        // Crash node 5 exactly 4 pushes into its schedule (virtual 4 ms at
        // the default 1 ms pacing), leave node 9 at 10 ms, rejoin node 5 at
        // 20 ms.
        let events = [
            ChurnEvent {
                step: 0,
                after: Duration::from_micros(4100),
                node: 5,
                kind: ChurnKind::Crash,
            },
            ChurnEvent {
                step: 0,
                after: Duration::from_millis(10),
                node: 9,
                kind: ChurnKind::Leave,
            },
            ChurnEvent {
                step: 0,
                after: Duration::from_millis(20),
                node: 5,
                kind: ChurnKind::Rejoin,
            },
        ];
        let step = Step::new(Crypto::Simulated, 30, 32, [5, 6, 13]);
        let run = || step.on_shards(&small_sharded(), &events).unwrap();
        let a = run();
        assert!(a.outcome.alive_after[5], "node 5 rejoined");
        assert!(!a.outcome.alive_after[9], "node 9 left for good");
        assert!(a.outcome.estimates[9].is_none());
        assert!(
            a.outcome.estimates[5].is_some(),
            "a rejoined node finishes the step"
        );
        // The crash window costs node 5 a deterministic number of pushes:
        // same-seed runs replay the exact same churn placement.
        let b = run();
        assert_eq!(
            a.reports[5].pushes_sent, b.reports[5].pushes_sent,
            "same-seed churn must replay identically"
        );
        assert!(
            a.snapshot.control.messages > 0,
            "Leave/Join announcements are control traffic"
        );
        check_estimates(&a.outcome, 32, 0.6);
    }

    #[test]
    fn votes_off_still_completes_by_quiescence() {
        let step = Step::new(Crypto::Simulated, 20, 32, [7, 8, 17]);
        let cfg = ShardedConfig {
            shards: 8,
            ..ShardedConfig::large_population()
        };
        let run = step.on_shards(&cfg, &[]).unwrap();
        check_estimates(&run.outcome, 32, 0.45);
        // No termination votes were broadcast; membership churn is the only
        // control traffic and none was scripted.
        assert_eq!(run.snapshot.control.messages, 0);
    }

    /// Virtual time a traced node spent in the decryption round.
    fn decrypt_round_time(trace: &NodeTrace) -> Duration {
        let at = |name: &str| {
            let event = trace.events.iter().find(|e| e.name == name);
            event.unwrap_or_else(|| panic!("node {} has no {name} marker", trace.node))
        };
        Duration::from_nanos(at("step.done").ts_ns - at("gossip.end").ts_ns)
    }

    /// Committee member 1 dies silently 1 ms into the gossip phase: nobody
    /// learns of it, so the requesters whose rotation reaches it — members
    /// 0 (asks 1) and non-members with `id % 3` of 0 (ask 0, 1) or 1 (ask
    /// 1, 2) — ask a dead node. Their first retry, one interval after the
    /// round started, reaches the member they held back, and they complete
    /// there: not at the decrypt deadline, and with a full-size combine.
    #[test]
    fn decrypt_round_hedges_past_a_silently_dead_asked_member() {
        let step = Step::new(Crypto::Packed, 8, 8, [81, 82, 83]);
        let events = [ChurnEvent {
            step: 0,
            after: Duration::from_millis(1),
            node: 1,
            kind: ChurnKind::Crash,
        }];
        let cfg = ShardedConfig {
            trace: true,
            ..four_shards()
        };
        let run = step.on_shards(&cfg, &events).unwrap();
        let retry = decrypt_retry_interval(cfg.push_interval);
        assert!(retry * 2 < cfg.decrypt_deadline);
        for (report, trace) in run.reports.iter().zip(&run.traces) {
            let id = report.id;
            if id == 1 {
                assert!(run.outcome.estimates[id].is_none(), "node 1 stayed down");
                continue;
            }
            assert!(
                run.outcome.estimates[id].is_some(),
                "node {id} must complete despite the dead member"
            );
            assert_eq!(report.decrypt_audit.undersized_combines, 0, "node {id}");
            let asked_the_dead = id == 0 || (id > 2 && id % 3 != 2);
            let took = decrypt_round_time(trace);
            if asked_the_dead {
                assert!(
                    took >= retry && took < retry + Duration::from_millis(5),
                    "node {id} should complete one retry interval into the round, took {took:?}"
                );
            } else {
                assert!(
                    took < Duration::from_millis(5),
                    "node {id} asked two live members, took {took:?}"
                );
            }
        }
    }

    /// A 5 % lossy cross-shard link: every node still ends with an
    /// estimate, and the committee computes more than `t` partial
    /// decryption vectors per requester only where a retry fired — each
    /// requester whose round outlived one retry interval widened to the
    /// `parties − t` members it had held back, nobody else did.
    #[test]
    fn decrypt_round_on_a_lossy_link_pays_only_for_the_hedges_that_fired() {
        let step = Step::new(Crypto::Packed, 8, 16, [91, 92, 93]);
        let cfg = ShardedConfig {
            shards: 8,
            trace: true,
            link: LinkConfig {
                loss: 0.05,
                ..LinkConfig::ideal()
            },
            ..ShardedConfig::default()
        };
        let run = step.on_shards(&cfg, &[]).unwrap();
        assert!(
            run.outcome.estimates.iter().all(|e| e.is_some()),
            "every node recovers from the lost frames"
        );
        assert!(
            run.snapshot.decrypt.dropped > 0,
            "the loss must hit the decryption round for this test to mean anything"
        );
        let ops = &run.outcome.decrypt_ops;
        // Requests are as wide as each snapshot folds to, never wider than
        // the vector a node encrypted.
        let ciphertexts = run.reports[0].ops.encryptions;
        let params = step.config.threshold;
        let asked = params.threshold as u64 * ops.combinations;
        let retry = decrypt_retry_interval(cfg.push_interval);
        let hedgers = run
            .traces
            .iter()
            .filter(|t| decrypt_round_time(t) >= retry)
            .count() as u64;
        assert!(hedgers > 0, "a lost decrypt frame stalls its requester");
        let hedged = ops.partial_decryptions - asked;
        let held_back = (params.parties - params.threshold) as u64;
        assert!(
            hedged > 0 && hedged <= hedgers * held_back * ciphertexts,
            "{hedged} partial decryptions beyond ask-t, {hedgers} hedgers"
        );
        assert!(run
            .reports
            .iter()
            .all(|r| r.decrypt_audit.undersized_combines == 0));
    }

    /// Fault-free, the committee computes exactly what the combines read —
    /// `threshold` vectors per requester, the count the in-process
    /// simulator and the analytical cost model charge — and the rotation
    /// spreads it: no member serves more than ⌈N·t/parties⌉ + 1 requesters
    /// (its own round included), where asking everyone made each serve N.
    #[test]
    fn decrypt_round_asks_exactly_threshold_and_spreads_the_load() {
        let n = 16u64;
        let step = Step::new(Crypto::Packed, 8, n as usize, [101, 102, 103]);
        let run = step.on_shards(&small_sharded(), &[]).unwrap();
        assert!(run.outcome.estimates.iter().all(|e| e.is_some()));
        let ops = &run.outcome.decrypt_ops;
        let (t, parties) = (
            step.config.threshold.threshold as u64,
            step.config.threshold.parties as u64,
        );
        // A requester combines what it asked for: its folded width.
        let widths: Vec<usize> = (run.reports.iter())
            .map(|r| r.decrypt_ops.combinations as usize)
            .collect();
        let model = chiaroscuro::cost::synthesize_decrypt_ops(&widths, t as usize, 0);
        assert_eq!(ops.partial_decryptions, model.partial_decryptions);
        let widest = *widths.iter().max().unwrap() as u64;
        // One request and one reply per vector that crossed the network:
        // everything but the committee members' own.
        assert_eq!(ops.messages, 2 * (t * n - parties));
        let ceiling = (n * t).div_ceil(parties) + 1;
        for member in 0..parties as usize {
            let served = run.reports[member].decrypt_ops.partial_decryptions;
            assert!(
                served <= ceiling * widest,
                "member {member} computed {served} partials, ceiling {ceiling} × {widest}"
            );
        }
    }

    /// Regression: a rejoin landing *before* a pre-crash timer fires must
    /// not resurrect the old pacing chain alongside the fresh one. The
    /// schedule is exactly countable: ticks at 0/1/2 ms (3 pushes), crash
    /// at 2.2 ms invalidates the pending 3 ms tick, rejoin at 2.4 ms starts
    /// one fresh chain at 3.4/4.4/…/7.4 ms (5 pushes), leave at 8.3 ms ends
    /// it — 8 pushes total. A duplicated chain would add ticks at
    /// 3/4/…/8 ms and overshoot.
    #[test]
    fn rejoin_does_not_resurrect_pre_crash_timers() {
        // 30 cycles: far above what the node can send before leaving.
        let step = Step::new(Crypto::Simulated, 30, 16, [71, 72, 73]);
        let events = [
            ChurnEvent {
                step: 0,
                after: Duration::from_micros(2_200),
                node: 2,
                kind: ChurnKind::Crash,
            },
            ChurnEvent {
                step: 0,
                after: Duration::from_micros(2_400),
                node: 2,
                kind: ChurnKind::Rejoin,
            },
            ChurnEvent {
                step: 0,
                after: Duration::from_micros(8_300),
                node: 2,
                kind: ChurnKind::Leave,
            },
        ];
        let run = step.on_shards(&small_sharded(), &events).unwrap();
        assert_eq!(
            run.reports[2].pushes_sent, 8,
            "exactly one pacing chain must survive the crash/rejoin window"
        );
        assert!(!run.outcome.alive_after[2]);
    }

    /// The headline scale claim: 16k virtual nodes through a full plain
    /// gossip step. Ignored by default (it is a multi-second release-mode
    /// run); `cargo test -p cs_net --release -- --ignored scale_16k` checks
    /// it manually.
    #[test]
    #[ignore = "manual scale check: 16k virtual nodes, release mode"]
    fn scale_16k_virtual_nodes_plain() {
        let step = Step::new(Crypto::Simulated, 20, 16_384, [91, 92, 93]);
        let run = step
            .on_shards(&ShardedConfig::large_population(), &[])
            .unwrap();
        check_estimates(&run.outcome, 16_384, 0.35);
        assert_eq!(
            run.outcome.estimates.iter().flatten().count(),
            16_384,
            "every virtual node finished the step"
        );
    }

    /// A worker that panics (here: a malformed contribution trips a
    /// `ProtocolNode::new` assertion during construction) must surface as a
    /// panic of the step — the worker's own, re-raised where the pool is
    /// joined — not park the driver on a barrier that can no longer fill.
    #[test]
    #[should_panic(expected = "contribution length")]
    fn worker_panic_surfaces_instead_of_hanging_the_step() {
        let mut step = Step::new(Crypto::Simulated, 30, 16, [1, 2, 7]);
        step.contributions[5].as_mut().unwrap().pop();
        let cfg = ShardedConfig {
            workers: 2,
            ..small_sharded()
        };
        let _ = step.on_shards(&cfg, &[]);
    }

    #[test]
    fn population_must_be_at_least_two() {
        let step = Step::new(Crypto::Simulated, 30, 1, [1, 2, 7]);
        assert!(step.on_shards(&ShardedConfig::default(), &[]).is_err());
    }
}
