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
//!   configuration). Each shard owns its nodes and a calendar queue of
//!   scheduled events — message deliveries, pacing ticks, decryption
//!   retry/deadline timers, and scripted churn: 32-byte entries in one
//!   bucket per epoch, each bucket sorted once when its window opens, the
//!   payloads waiting in a per-shard slab.
//! * A pool of **workers** (≈ the machine's cores) drives the shards in
//!   epochs of virtual time: each epoch the workers claim shards from an
//!   atomic injector, and the pool closes its own barrier — the last worker
//!   to check in finds every shard and mailbox at rest, jumps virtual time
//!   to the next pending event and publishes the next window (or ends the
//!   step); the others watch for it briefly, then park on a condvar. The
//!   thread that started the step only joins the pool. No per-node
//!   threads, no sleep-polling anywhere.
//! * **A push buffer is allocated at most once per node and freed by no
//!   one until the step ends** (plaintext pipeline): a node keeps the
//!   `Vec` of the push it absorbed last for its next split, and its shard
//!   banks the surplus — at most one more per node — for nodes that have
//!   none. Past the first cycles the message path does not touch the
//!   allocator, and no thread frees what another allocated.
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
//! * **Churn is a node timer**: each node's [`NodeDriver`] arms its next
//!   scripted event as [`Timer::Churn`], queued like any timer but ahead of
//!   every other event at its instant, so "node 7 crashes 3 ms into the
//!   step" happens at exactly the same protocol moment in every same-seed
//!   run.
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
//! Completion is observed, not announced: the step ends at global
//! quiescence (every event queue and mailbox drained) or the virtual
//! deadline, and no node tells anyone it is done.
//!
//! No clock is read per event: a worker reads it twice per (shard, window)
//! (`exec.worker.busy_ns`), and what the nodes' own crypto timers did not
//! book of that is the step's [`StepPhase::Gossip`]. Time closes per shard,
//! not per node — that would take the per-event read.

use crate::calendar::{Calendar, Key};
use crate::churn::ChurnEvent;
use crate::driver::{Armed, NodeDriver, Timer, Timing};
use crate::node::{FaultSpec, NodeParams, Outbound, ProtocolNode};
use crate::runtime::{StepCrypto, StepRun};
use crate::transport::{mix, unit_f64, LinkConfig, NodeId, TrafficSnapshot};
use crate::wire::{Message, TraceContext};
use chiaroscuro::config::ChiaroscuroConfig;
use chiaroscuro::noise::SlotLayout;
use chiaroscuro::rounds::CryptoContext;
use chiaroscuro::ChiaroscuroError;
use cs_obs::{
    CausalTracer, Counter, Histogram, NodeTrace, Registry, StepPhase, Tracer, VirtualClock,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// Virtual epoch quantum, nanoseconds: cross-shard deliveries become
/// visible at the next multiple of it. A smaller quantum would interleave
/// shards more finely at the cost of more barriers.
const EPOCH_NS: u64 = 250_000;

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
    /// How long (virtual) a node waits in the decryption round before
    /// giving up with no estimate.
    pub decrypt_deadline: Duration,
    /// Hard virtual-time deadline for one step.
    pub step_timeout: Duration,
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
}

impl Default for ShardedConfig {
    fn default() -> Self {
        ShardedConfig {
            shards: 64,
            workers: 0,
            link: LinkConfig::ideal(),
            push_interval: Duration::from_millis(1),
            decrypt_deadline: Duration::from_secs(5),
            step_timeout: Duration::from_secs(60),
            churn: crate::churn::ChurnSchedule::none(),
            trace: false,
            fault: None,
        }
    }
}

impl ShardedConfig {
    /// Equal to [`ShardedConfig::default`]. It was the preset that turned
    /// the `O(n²)` termination-vote broadcast off; the votes are gone at
    /// every population. Kept only because csbench's frozen sources name
    /// it.
    pub fn large_population() -> Self {
        ShardedConfig::default()
    }

    /// The node drivers' clocks, on virtual time.
    fn timing(&self) -> Timing {
        Timing {
            push_interval: self.push_interval,
            decrypt_deadline: self.decrypt_deadline,
            step_timeout: self.step_timeout,
        }
    }

    fn validate(&self, population: usize) -> Result<(), ChiaroscuroError> {
        let fail = |msg: &str| Err(ChiaroscuroError::InvalidConfig(msg.to_string()));
        if population < 2 {
            return fail("the executor needs at least two nodes");
        }
        if self.shards == 0 {
            return fail("sharded executor needs at least one shard");
        }
        if self.push_interval.is_zero() {
            return fail("push_interval must be positive");
        }
        self.link.validate()
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
    Timer(Timer),
    /// A message in flight — the node's [`Outbound`] itself, moved (never
    /// serialized) on the in-shard and the cross-shard edge alike.
    Deliver(Outbound),
}

/// A shard's events under their keys `(at, class, actor, seq)`, earliest
/// first. The key is unique and deterministic: `actor` is the sender
/// (deliveries) or the target node (timers); `seq` is a per-actor
/// monotone counter (send sequence or timer sequence). The order
/// therefore never depends on insertion order — which is
/// the whole determinism story, since mailbox insertion order *does* vary
/// across runs.
type Queue = Calendar<EventKind>;

/// An event in transit between shards: its key and its payload.
type Mail = (Key, EventKind);

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

impl Slot {
    fn new(driver: NodeDriver, trace: Option<(Arc<VirtualClock>, Arc<Tracer>)>) -> Self {
        Slot {
            driver,
            send_seq: 0,
            timer_seq: 0,
            trace,
        }
    }
}

/// Schedules an event for every timer `slot`'s driver has armed since
/// `before`, its armed set ahead of the input just handled. Scripted churn
/// keeps a class of its own. The leader's share is not queued here: its key
/// is returned, for the caller to queue once it knows when the request
/// first reaches an asked member ([`Exec::route`]), so that the two
/// exponentiations fall into one window, on two workers.
fn schedule_armed(queue: &mut Queue, slot: &mut Slot, before: Armed) -> Option<Key> {
    let mut share = None;
    for (timer, at) in slot.driver.armed().iter() {
        if before.at(timer) != Some(at) {
            slot.timer_seq += 1;
            let class = if timer == Timer::Churn {
                CLASS_CHURN
            } else {
                CLASS_TIMER
            };
            let key = (at, class, slot.driver.id() as u32, slot.timer_seq);
            match timer {
                Timer::Share => share = Some(key),
                _ => queue.push(key, EventKind::Timer(timer)),
            }
        }
    }
    share
}

/// A shard: the nodes it owns, their event queue, and local (unsynchronized)
/// traffic counters merged after the step.
struct Shard {
    queue: Queue,
    slots: Vec<Slot>,
    // [gossip, decrypt, control] × [messages, bytes, dropped]
    counters: [[u64; 3]; 3],
    /// Deliveries routed on the same-shard edge, which skips the link
    /// model, and through link model + epoch barrier: the
    /// `exec.deliveries.{in_shard, cross_shard}` counters, merged like
    /// `counters` after the step.
    in_shard: u64,
    cross_shard: u64,
    /// Cross-shard events produced in the window being processed, one
    /// outbox per destination shard, handed to the mailboxes when the
    /// window's events are drained; and the earliest of them.
    outboxes: Vec<Vec<Mail>>,
    earliest_out: u64,
    /// What the mailbox held when the window opened.
    inbox: Vec<Mail>,
    /// Spare plaintext push buffers, at most one per node of the shard:
    /// collected from whatever an absorb left behind, lent to the next
    /// node about to split. The shard's event order does not depend on
    /// which worker runs it, so neither does what is in here.
    pool: Vec<Vec<f64>>,
    /// Cleartext splits that had to allocate their push buffer — the node
    /// held no spare and the pool was empty (`exec.buffers.allocated`).
    buffers_allocated: u64,
    /// Wall-clock spent in [`Exec::process_shard`] on this shard, two clock
    /// reads per window (`exec.worker.busy_ns`).
    busy_ns: u64,
    /// Reusable output buffer for node activations.
    scratch: Vec<Outbound>,
}

impl Shard {
    /// A shard with no nodes yet, its calendar bucketed by the epoch
    /// quantum, so that a window is exactly one bucket.
    fn new(shard_count: usize) -> Self {
        Shard {
            queue: Calendar::new(EPOCH_NS),
            slots: Vec::new(),
            counters: [[0; 3]; 3],
            in_shard: 0,
            cross_shard: 0,
            outboxes: (0..shard_count).map(|_| Vec::new()).collect(),
            earliest_out: u64::MAX,
            inbox: Vec::new(),
            pool: Vec::new(),
            buffers_allocated: 0,
            busy_ns: 0,
            scratch: Vec::new(),
        }
    }
}

/// Cross-shard delivery queue. Items become visible to the owning shard at
/// the next epoch boundary, when they move into its calendar.
type Mailbox = Mutex<Vec<Mail>>;

/// Epoch coordination. Workers claim shards from the injector and check in
/// when it runs dry; the one whose check-in brings `remaining` to zero
/// closes the window and publishes the next one, the others wait on
/// `start`. Node construction is the pool's first round: the state starts
/// with every worker still to check in.
struct Coord {
    state: Mutex<CoordState>,
    start: Condvar,
    /// Mirror of `state.epoch` (`u64::MAX` once shut down) that a waiting
    /// worker may watch without the lock. Only a hint that `state` is worth
    /// looking at: written under the lock, and every decision is taken
    /// under the lock.
    epoch_hint: AtomicU64,
}

struct CoordState {
    epoch: u64,
    window_end: u64,
    remaining: usize,
    shutdown: bool,
    /// When the window being processed was published.
    published: Instant,
}

/// How many times a worker that checked in early looks at
/// [`Coord::epoch_hint`] before it parks: tens of microseconds, about what
/// the rest of a window takes mid-step — a futex sleep and wake-up costs
/// several times that — and short enough that a pool wider than the
/// machine gives its cores back.
const BARRIER_SPINS: u32 = 4_000;

/// Held by a worker for as long as it runs: one that unwinds flags
/// shutdown on its way out, so the others stop instead of waiting on a
/// barrier that can no longer fill, and the panic is re-raised where the
/// pool is joined.
struct CheckIn<'a>(&'a Coord);

impl Drop for CheckIn<'_> {
    fn drop(&mut self) {
        if thread::panicking() {
            let state = self.0.state.lock().unwrap_or_else(PoisonError::into_inner);
            self.0.shut_down(state);
        }
    }
}

impl Coord {
    /// Ends the step: everyone waiting wakes up and leaves.
    fn shut_down(&self, mut state: std::sync::MutexGuard<'_, CoordState>) {
        state.shutdown = true;
        self.epoch_hint.store(u64::MAX, Ordering::Release);
        drop(state);
        self.start.notify_all();
    }
}

/// Everything the workers share while a step runs.
struct Exec<'a> {
    home: &'a [(u32, u32)],
    shards: &'a [Mutex<Shard>],
    mailboxes: &'a [Mailbox],
    /// Earliest event handed to any mailbox since the last barrier: what
    /// is pending outside the shards' calendars when a window closes.
    mail_earliest: AtomicU64,
    injector: AtomicUsize,
    coord: Coord,
    workers: usize,
    /// Virtual step deadline, nanoseconds.
    timeout: u64,
    /// `exec.epochs`: epoch windows driven to completion. Like the
    /// counters the shards carry and `exec.queue.depth`, **deterministic**:
    /// sums of per-shard quantities whose event sequences do not depend on
    /// the worker count or scheduling, in increments that commute — locked
    /// in by the `metrics_are_deterministic_across_worker_counts` test.
    epochs: Arc<Counter>,
    /// `exec.queue.depth`: the due-event backlog one shard drained in one
    /// window. Per (shard, window), not per pop: *when* a cross-shard event
    /// migrates from mailbox to heap depends on worker interleaving, the
    /// set of events due in a window never does.
    queue_depth: Arc<Histogram>,
    /// `exec.epoch.wait_ns`: wall-clock from a window's publication to its
    /// last check-in. **Non-deterministic**, like `exec.worker.busy_ns`.
    epoch_wait: Arc<Histogram>,
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
            mail_earliest: AtomicU64::new(u64::MAX),
            injector: AtomicUsize::new(0),
            epochs: registry.counter("exec.epochs"),
            queue_depth: registry.histogram("exec.queue.depth"),
            epoch_wait: registry.histogram("exec.epoch.wait_ns"),
            coord: Coord {
                state: Mutex::new(CoordState {
                    epoch: 0,
                    window_end: 0,
                    remaining: workers,
                    shutdown: false,
                    published: Instant::now(),
                }),
                start: Condvar::new(),
                epoch_hint: AtomicU64::new(0),
            },
            workers,
            timeout: sharded.step_timeout.as_nanos() as u64,
            step_seed,
            loss: sharded.link.loss,
            latency: sharded.link.latency.as_nanos() as u64,
            jitter: sharded.link.jitter.as_nanos() as u64,
            bandwidth: sharded.link.bandwidth_bytes_per_sec,
        }
    }

    /// Routes one activation's output messages; returns the earliest
    /// instant a `DecryptRequest` among them is delivered. `from` owns its
    /// shard, so its send sequence lives behind the same lock.
    fn route(
        &self,
        shard: &mut Shard,
        shard_idx: usize,
        from: NodeId,
        now: u64,
        window_end: u64,
        out: &mut Vec<Outbound>,
    ) -> Option<u64> {
        let from_local = self.home[from].1 as usize;
        let mut requested = None;
        let mut request_at = |msg: &Message, at: u64| {
            if matches!(msg, Message::DecryptRequest { .. }) {
                requested = Some(requested.map_or(at, |r: u64| r.min(at)));
            }
        };
        for outbound in out.drain(..) {
            let (to, msg, ctx) = &outbound;
            let ci = msg.class() as usize;
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
                request_at(msg, now);
                let key = (now, CLASS_DELIVER, from as u32, seq);
                shard.queue.push(key, EventKind::Deliver(outbound));
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
            request_at(msg, at);
            shard.earliest_out = shard.earliest_out.min(at);
            let key = (at, CLASS_DELIVER, from as u32, seq);
            shard.outboxes[target_shard].push((key, EventKind::Deliver(outbound)));
        }
        requested
    }

    /// One event: feed it to the target node's driver, schedule whatever
    /// timers that armed, route whatever it emitted.
    fn handle_event(&self, shard: &mut Shard, shard_idx: usize, event: Mail, window_end: u64) {
        let ((now, _, actor, _), kind) = event;
        let mut out = std::mem::take(&mut shard.scratch);
        // `actor` is the sender of a delivery, the target of anything else.
        let node = match &kind {
            EventKind::Deliver((to, _, _)) => *to,
            _ => actor as usize,
        };
        let pool_cap = shard.slots.len();
        let slot = &mut shard.slots[self.home[node].1 as usize];
        if let Some((clock, _)) = &slot.trace {
            // Every trace timestamp a node records is the virtual time of
            // the event that activated it.
            clock.set_ns(now);
        }
        // A node about to tick with no spare borrows one from the shard's
        // pool — only when that is empty will a cleartext split allocate —
        // and a node about to receive banks the spare it holds, room
        // permitting, so that the buffer a push arrives in becomes its
        // spare instead of pushing the old one out to be freed.
        let spare = slot.driver.spare_buffer();
        match &kind {
            EventKind::Timer(Timer::Tick) if spare.is_none() => *spare = shard.pool.pop(),
            EventKind::Deliver(_) if shard.pool.len() < pool_cap => shard.pool.extend(spare.take()),
            _ => {}
        }
        let starved = spare.is_none();
        let before = slot.driver.armed();
        match kind {
            EventKind::Timer(timer) => {
                slot.driver.fire(timer, now, &mut out);
            }
            EventKind::Deliver((_, msg, ctx)) => {
                slot.driver.deliver(actor as usize, msg, ctx, now, &mut out);
            }
        }
        // A push is the first thing a tick emits; no other input makes one.
        if starved && matches!(out.first(), Some((_, Message::PlainPush { .. }, _))) {
            shard.buffers_allocated += 1;
        }
        let share = schedule_armed(&mut shard.queue, slot, before);
        let requested = self.route(shard, shard_idx, node, now, window_end, &mut out);
        if let Some((at, class, actor, seq)) = share {
            let key = (requested.unwrap_or(at), class, actor, seq);
            shard.queue.push(key, EventKind::Timer(Timer::Share));
        }
        out.clear();
        shard.scratch = out;
    }

    /// Drives one shard through the window `[·, window_end)`: move the
    /// mailbox into the calendar, pop events in key order until none are
    /// due, then hand the window's cross-shard output to the destination
    /// mailboxes. The window's two clock reads are the shard's only ones.
    fn process_shard(&self, shard_idx: usize, window_end: u64) {
        let started = Instant::now();
        let mut guard = self.shards[shard_idx].lock().expect("shard poisoned");
        let shard = &mut *guard;
        // Swapped, not taken: both queues keep their capacity.
        let mut mail = self.mailboxes[shard_idx].lock().expect("mailbox poisoned");
        std::mem::swap(&mut *mail, &mut shard.inbox);
        drop(mail);
        for (key, kind) in shard.inbox.drain(..) {
            shard.queue.push(key, kind);
        }
        let mut drained = 0u64;
        while let Some(event) = shard.queue.pop_before(window_end) {
            drained += 1;
            self.handle_event(shard, shard_idx, event, window_end);
        }
        let earliest_out = std::mem::replace(&mut shard.earliest_out, u64::MAX);
        self.mail_earliest.fetch_min(earliest_out, Ordering::SeqCst);
        for (mailbox, outbox) in self.mailboxes.iter().zip(&mut shard.outboxes) {
            if !outbox.is_empty() {
                mailbox.lock().expect("mailbox poisoned").append(outbox);
            }
        }
        self.queue_depth.record(drained);
        shard.busy_ns += started.elapsed().as_nanos() as u64;
    }

    /// Earliest pending event across all shards and mailboxes, or `None`
    /// when the system is fully quiescent (the step is over). Called with
    /// every shard at rest, between windows: the next one moves whatever
    /// the mailboxes hold into the calendars, so their watermark starts
    /// over.
    fn next_event_time(&self) -> Option<u64> {
        let mut min = self.mail_earliest.swap(u64::MAX, Ordering::SeqCst);
        for shard in self.shards {
            if let Some(at) = shard.lock().expect("shard poisoned").queue.next_at() {
                min = min.min(at);
            }
        }
        (min < u64::MAX).then_some(min)
    }

    /// Claims shards from the injector until none are left.
    fn claim_shards(&self, work: impl Fn(usize)) {
        loop {
            let shard_idx = self.injector.fetch_add(1, Ordering::SeqCst);
            if shard_idx >= self.shards.len() {
                break;
            }
            work(shard_idx);
        }
    }

    /// A worker's check-in at the barrier once the injector of window
    /// `seen_epoch` ran dry: returns the next window's end, or `None` when
    /// the step is over. The last worker in closes the window itself — at
    /// that instant every shard and mailbox is at rest — by jumping
    /// virtual time to the next pending event and publishing the window
    /// around it, or ending the step at global quiescence (every node
    /// done, every message delivered) or the virtual deadline. Everyone
    /// else waits for that: a bounded spin on the epoch mirror, then the
    /// condvar.
    fn check_in(&self, seen_epoch: u64) -> Option<u64> {
        let coord = &self.coord;
        let mut state = coord.state.lock().expect("coord poisoned");
        state.remaining -= 1;
        if state.remaining == 0 && !state.shutdown {
            if state.epoch > 0 {
                self.epochs.inc();
                let waited = state.published.elapsed().as_nanos() as u64;
                self.epoch_wait.record(waited);
            }
            let Some(next) = self.next_event_time().filter(|&t| t < self.timeout) else {
                coord.shut_down(state);
                return None;
            };
            let window_end = next - next % EPOCH_NS + EPOCH_NS;
            self.injector.store(0, Ordering::SeqCst);
            state.epoch += 1;
            state.window_end = window_end;
            state.remaining = self.workers;
            state.published = Instant::now();
            coord.epoch_hint.store(state.epoch, Ordering::Release);
            drop(state);
            coord.start.notify_all();
            return Some(window_end);
        }
        drop(state);
        for _ in 0..BARRIER_SPINS {
            if coord.epoch_hint.load(Ordering::Acquire) != seen_epoch {
                break;
            }
            std::hint::spin_loop();
        }
        let mut state = coord.state.lock().expect("coord poisoned");
        while !state.shutdown && state.epoch == seen_epoch {
            state = coord.start.wait(state).expect("coord poisoned");
        }
        (!state.shutdown).then_some(state.window_end)
    }

    /// One pool worker: builds shards in the construction round, then
    /// drives shards through every window the pool publishes.
    fn worker_loop(&self, build_shard: impl Fn(usize)) {
        let _flag_a_panic = CheckIn(&self.coord);
        self.claim_shards(build_shard);
        let mut epoch = 0u64;
        while let Some(window_end) = self.check_in(epoch) {
            epoch += 1;
            self.claim_shards(|shard_idx| self.process_shard(shard_idx, window_end));
        }
    }
}

/// Runs one computation step on the sharded event-loop executor.
///
/// Mirrors [`crate::runtime::run_step_over_tcp`]: `contributions[i]`
/// is `Some(vector)` for participants alive at step start, `None` for
/// crashed ones (zero weight, revivable by churn); `step_churn` lists this
/// step's scripted events at *virtual* offsets, an event for a node past
/// the population being a typed error. The returned [`StepRun`] is
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
    sharded.validate(n)?;
    let started = Instant::now();

    let step = StepCrypto::prepare(config, layout, contributions, crypto)?;
    let scripts = crate::churn::split(step_churn, n)?;
    let shard_count = sharded.shards.min(n);
    let workers = match sharded.workers {
        0 => thread::available_parallelism().map_or(4, |v| v.get()),
        set => set,
    }
    .min(shard_count);

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
        .map(|_| Mutex::new(Shard::new(shard_count)))
        .collect();
    let mailboxes: Vec<Mailbox> = (0..shard_count).map(|_| Mailbox::default()).collect();

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
            let script = scripts[id].clone();
            let driver = NodeDriver::new(node, &timing, contribution.is_some(), script);
            let mut slot = Slot::new(driver, trace);
            // A node alive at step start has its first tick armed at 0, one
            // with a script its first scripted event.
            schedule_armed(&mut shard.queue, &mut slot, Armed::default());
            shard.slots.push(slot);
        }
    };

    let registry = Registry::new();
    let exec = Exec::new(
        &home, &shards, &mailboxes, workers, step_seed, sharded, &registry,
    );

    // The pool builds the shards, then runs the epochs and ends the step
    // by itself (see `Exec::check_in`); this thread only joins it.
    thread::scope(|scope| {
        let pool: Vec<_> = (0..workers)
            .map(|_| scope.spawn(|| exec.worker_loop(build_shard)))
            .collect();
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
    let mut gossip_ns = 0;
    for shard in shards {
        let shard = shard.into_inner().expect("shard poisoned");
        for (ci, row) in counters.iter_mut().enumerate() {
            for (mi, cell) in row.iter_mut().enumerate() {
                *cell += shard.counters[ci][mi];
            }
        }
        for (name, count) in [
            ("exec.deliveries.in_shard", shard.in_shard),
            ("exec.deliveries.cross_shard", shard.cross_shard),
            ("exec.buffers.allocated", shard.buffers_allocated),
            ("exec.worker.busy_ns", shard.busy_ns),
        ] {
            registry.counter(name).add(count);
        }
        // Every phase a node times itself but encryption (done at
        // construction) ran inside this shard's windows; the rest of the
        // windows' busy time was the executor handling the shard's events.
        let mut timed = 0;
        for slot in shard.slots {
            let id = slot.driver.id() as u64;
            let trace = slot
                .trace
                .map(|(_, tracer)| NodeTrace::capture(id, &tracer));
            let alive = slot.driver.is_alive();
            let report = slot.driver.finish();
            timed += report.profile.total_ns() - report.profile.encrypt_ns;
            nodes.push((report, alive, trace));
        }
        gossip_ns += shard.busy_ns.saturating_sub(timed);
    }
    let snapshot = TrafficSnapshot::read(|ci, cell| counters[ci][cell]);
    let mut run = StepRun::conclude(step_seed, &registry, started, nodes, snapshot);
    run.outcome.phases.add(StepPhase::Gossip, gossip_ns);
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::churn::ChurnSchedule;
    use crate::driver::decrypt_retry_interval;
    use crate::fixtures::{check_estimates, layout, Crypto, Host, Step};

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
        // The same estimates to the bit, the same accounting and the same
        // deterministic `exec.*` counters, run after run and whatever the
        // worker count: parallelism never changes results, only wall-clock.
        // Eight workers is more than this box has cores — a waiting
        // worker's spin must not starve the one that is working. Packed
        // wire bytes follow each ciphertext's minimal-length encoding, so
        // equal bytes hold every forward's randomizer to the node's own
        // crypto stream; packed pushes borrow no plaintext buffer.
        for (step, buffers) in [
            (Step::new(Crypto::Simulated, 25, 48, [3, 4, 11]), 1),
            (Step::new(Crypto::Packed, 10, 16, [3, 4, 11]), 0),
        ] {
            let run = |workers| {
                let cfg = ShardedConfig {
                    workers,
                    ..sharded.clone()
                };
                step.on_shards(&cfg, &[]).unwrap()
            };
            let a = run(0);
            for workers in [0, 1, 2, 3, 8] {
                let b = run(workers);
                assert_eq!(a.outcome.estimates, b.outcome.estimates, "{workers}");
                assert_eq!(a.snapshot, b.snapshot, "{workers} workers");
                for (name, floor) in [
                    ("exec.deliveries.cross_shard", 1),
                    ("exec.epochs", 1),
                    ("exec.buffers.allocated", buffers),
                ] {
                    let count = a.metrics.counter(name);
                    assert!(count >= floor, "{name} must be populated");
                    assert_eq!(count, b.metrics.counter(name), "{name} at {workers}");
                }
                assert!(b.metrics.counter("exec.worker.busy_ns") > 0);
            }
        }
    }

    /// A shard's pool never holds more buffers than the shard has nodes,
    /// whatever arrives, and a node never more than one; what they hold is
    /// lent out again before anything is allocated.
    #[test]
    fn buffer_pool_is_capped_at_the_shard_node_count() {
        let sharded = ShardedConfig::default();
        let mut shard = Shard::new(1);
        let values = vec![1.0; layout().total()];
        for id in 0..3 {
            let params = NodeParams::for_step(id, 3, 9, 4, Vec::new(), None);
            let crypto = crate::node::NodeCrypto::Plain;
            let node = ProtocolNode::new(params, layout(), crypto, Some(&values));
            let driver = NodeDriver::new(node, &sharded.timing(), true, Vec::new());
            shard.slots.push(Slot::new(driver, None));
        }
        // Ten pushes land on node 1; nobody's tick is scheduled yet.
        for seq in 1..=10 {
            let msg = Message::PlainPush {
                iteration: 9,
                weight: 0.0,
                slots: values.clone(),
            };
            let deliver = EventKind::Deliver((1, msg, TraceContext::NONE));
            shard.queue.push((0, CLASS_DELIVER, 0, seq), deliver);
        }
        let (shards, mailboxes) = ([Mutex::new(shard)], [Mailbox::default()]);
        let home = [(0, 0), (0, 1), (0, 2)];
        let registry = Registry::new();
        let exec = Exec::new(&home, &shards, &mailboxes, 0, 1, &sharded, &registry);
        exec.process_shard(0, 1);
        {
            // Node 1 kept one buffer, the pool its cap; the other six went.
            let shard = &mut *shards[0].lock().unwrap();
            assert_eq!(shard.pool.len(), 3);
            assert!(shard.slots[1].driver.spare_buffer().is_some());
            for slot in &mut shard.slots {
                schedule_armed(&mut shard.queue, slot, Armed::default());
            }
        }
        // Node 1 splits from its spare, nodes 0 and 2 from the pool, every
        // later split from what the in-shard pushes bring back.
        exec.process_shard(0, u64::MAX);
        let shard = shards[0].lock().unwrap();
        assert_eq!(shard.buffers_allocated, 0);
        assert!(shard.pool.len() <= 3, "{} pooled", shard.pool.len());
        assert!(shard.slots.iter().all(|s| s.driver.node().step_done()));
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

    /// Time closes per shard: the crypto the nodes time themselves inside
    /// the windows — everything but encryption, done at construction —
    /// never exceeds the workers' busy time around it, and `Gossip` is the
    /// rest. On a packed step those timers book real work; on a plain one
    /// nothing but the executor's own is left.
    #[test]
    fn step_phases_close_on_the_workers_busy_time() {
        for crypto in [Crypto::Packed, Crypto::Simulated] {
            let step = Step::new(crypto, 8, 16, [61, 62, 63]);
            let run = step.on_shards(&four_shards(), &[]).unwrap();
            let busy = run.metrics.counter("exec.worker.busy_ns");
            let profiles = run.reports.iter().map(|r| r.profile);
            let timed: u64 = profiles.map(|p| p.total_ns() - p.encrypt_ns).sum();
            assert!(timed <= busy, "{timed} ns timed inside {busy} ns busy");
            let phases = run.outcome.phases;
            assert_eq!(phases.total_ns() - phases.encrypt_ns, busy);
            assert!(phases.gossip_ns > 0);
            assert!(run.reports.iter().all(|r| r.profile.gossip_ns == 0));
        }
    }

    /// A traced `PackedPush` and a traced `DecryptShare`.
    fn traced_crypto_messages() -> ([Message; 2], TraceContext) {
        use cs_bigint::BigUint;
        use cs_crypto::Ciphertext;

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
                member: 2,
                width: 64,
                partials: vec![big(61)],
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
                let params = NodeParams::for_step(id, 2, 9, 1, Vec::new(), None);
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
                let mut shard = Shard::new(2);
                let driver =
                    NodeDriver::new(node, &timing, id == 0 || destination_alive, Vec::new());
                shard.slots.push(Slot::new(driver, trace));
                Mutex::new(shard)
            })
            .collect();
        let mailboxes = [Mailbox::default(), Mailbox::default()];
        let home = [(0, 0), (1, 0)];
        let registry = Registry::new();
        let exec = Exec::new(&home, &shards, &mailboxes, 0, 1, &sharded, &registry);

        let mut out: Vec<Outbound> = messages.iter().map(|m| (1, m.clone(), ctx)).collect();
        let snapshot = {
            let mut shard = shards[0].lock().unwrap();
            exec.route(&mut shard, 0, 0, 0, 1_000, &mut out);
            TrafficSnapshot::read(|ci, cell| shard.counters[ci][cell])
        };

        // Window one hands the outbox over; window two delivers it.
        exec.process_shard(0, 1_000);
        assert_eq!(mailboxes[1].lock().unwrap().len(), 2);
        exec.process_shard(1, u64::MAX);
        assert!(mailboxes[1].lock().unwrap().is_empty());
        assert_eq!(shards[0].lock().unwrap().cross_shard, 2);
        drop(exec);

        let shard = shards.into_iter().nth(1).unwrap().into_inner().unwrap();
        assert!(
            shard.queue.next_at().is_none(),
            "both deliveries were consumed"
        );
        let received = tracer
            .snapshot_events()
            .iter()
            .filter(|e| e.name == "recv")
            .count();
        let slot = shard.slots.into_iter().next().unwrap();
        (snapshot, received, slot.driver.finish().bad_frames)
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
        let step = Step::new(Crypto::Packed, 12, 8, [3, 4, 11]);
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
        let one_per_slot = (layout().total() * 64) as f64;
        assert!(
            per_push < one_per_slot * 0.6,
            "packed push of {per_push} B is not smaller than {one_per_slot} B"
        );
    }

    #[test]
    fn scripted_churn_fires_at_exact_virtual_offsets() {
        // Crash node 5 exactly 4 pushes into its schedule (virtual 4 ms at
        // the default 1 ms pacing), leave node 9 at 10 ms, rejoin node 5 at
        // 20 ms.
        let events = ChurnSchedule::none()
            .crash(0, Duration::from_micros(4100), 5)
            .leave(0, Duration::from_millis(10), 9)
            .rejoin(0, Duration::from_millis(20), 5)
            .for_step(0);
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

    /// Virtual time a traced node spent in the decryption round.
    fn decrypt_round_time(trace: &NodeTrace) -> Duration {
        let at = |name: &str| {
            let event = trace.events.iter().find(|e| e.name == name);
            event.unwrap_or_else(|| panic!("node {} has no {name} marker", trace.node))
        };
        Duration::from_nanos(at("step.done").ts_ns - at("gossip.end").ts_ns)
    }

    /// Committee member 1 dies silently 1 ms into the gossip phase: nobody
    /// learns of it, so the leader, member 0, asks it for a share and waits
    /// on a dead node; so does every node whose release depends on the
    /// leader's — member 2 and every non-member, whichever member its
    /// rotation reaches (non-members with `id % 3` of 1 ask node 1 itself).
    /// The leader's first retry, one interval into its round, reaches member
    /// 2, held back, and the step completes there: not at the decrypt
    /// deadline, with a full-size combine, one release and the partials of
    /// one decryption.
    #[test]
    fn decrypt_round_hedges_past_a_silently_dead_asked_member() {
        let step = Step::new(Crypto::Packed, 8, 8, [81, 82, 83]);
        let events = ChurnSchedule::none()
            .crash(0, Duration::from_millis(1), 1)
            .for_step(0);
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
            let took = decrypt_round_time(trace);
            assert!(
                took < retry + Duration::from_millis(5),
                "node {id} should complete one retry interval into the leader's round, took {took:?}"
            );
        }
        let leader = decrypt_round_time(&run.traces[0]);
        assert!(leader >= retry, "the leader waited on the dead member");
        let ops = &run.outcome.decrypt_ops;
        let t = step.config.threshold.threshold as u64;
        assert_eq!(ops.combinations, run.reports[0].decrypt_ops.combinations);
        assert_eq!(ops.partial_decryptions, t * ops.combinations);
        assert_eq!(run.metrics.gauge("crypto.releases_distinct"), 1);
    }

    /// A lossy cross-shard link: every node still ends with an estimate,
    /// and the committee computes more partial decryptions than its
    /// combines read only where a retry fired — a leader whose round
    /// outlived one retry interval widened to the `parties − t` members it
    /// had held back, and a member that waited out two retries with no
    /// release led a decryption of its own; a non-member's hedge buys only
    /// releases. A second release exists only where such a failover fired.
    /// Returns the hedged partials, the failovers and the members other
    /// than node 0 that combined.
    fn lossy_decrypt_round(seeds: [u64; 3], loss: f64) -> (u64, u64, usize) {
        let step = Step::new(Crypto::Packed, 8, 16, seeds);
        let cfg = ShardedConfig {
            shards: 8,
            trace: true,
            link: LinkConfig {
                loss,
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
        let (t, m) = (params.threshold as u64, params.parties);
        let asked = t * ops.combinations;
        let retry = decrypt_retry_interval(cfg.push_interval);
        let slow = |of: &[NodeTrace], after: Duration| {
            of.iter().filter(|t| decrypt_round_time(t) >= after).count() as u64
        };
        assert!(
            slow(&run.traces, retry) > 0,
            "a lost decrypt frame stalls a node"
        );
        let failovers = slow(&run.traces[1..m], 2 * retry);
        let releases = run.metrics.gauge("crypto.releases_distinct") as u64;
        assert!(
            (1..=1 + failovers).contains(&releases),
            "{releases} releases, {failovers} failovers"
        );
        let hedged = ops.partial_decryptions - asked;
        let held_back = m as u64 - t;
        let hedgers = slow(&run.traces[..m], retry);
        assert!(
            hedged <= (hedgers * held_back + failovers * t) * ciphertexts,
            "{hedged} beyond ask-t"
        );
        let sent = run.snapshot.decrypt.messages + run.snapshot.decrypt.dropped;
        assert!(sent > 2 * (t - 1 + 15), "no hedge fired");
        assert!(run
            .reports
            .iter()
            .all(|r| r.decrypt_audit.undersized_combines == 0));
        let led = run.reports[1..m]
            .iter()
            .filter(|r| r.decrypt_ops.combinations > 0)
            .count();
        (hedged, failovers, led)
    }

    /// At 5 % loss on seeds [91, 92, 93] no bound binds: the stalled node
    /// hedges nothing and no member fails over. At 20 % on seeds [115, 116,
    /// 117] the bounds hold where they bind: members lead after two retries
    /// and a slow leader's held-back members compute hedged partials.
    #[test]
    fn decrypt_round_on_a_lossy_link_pays_only_for_the_hedges_that_fired() {
        lossy_decrypt_round([91, 92, 93], 0.05);
        let (hedged, failovers, led) = lossy_decrypt_round([115, 116, 117], 0.2);
        assert!(hedged > 0, "no hedged partial at 20 % loss");
        assert!(failovers > 0, "no member waited out two retries");
        assert!(led > 0, "no member other than node 0 led a decryption");
    }

    /// Fault-free, one node decrypts: the leader, member 0, combines its
    /// folded width `w` and the step computes exactly the `w·t` partials
    /// the cost model charges, spread `w` to a node over the leader and
    /// the `t − 1` members it asks; every other node adopts the one
    /// release.
    #[test]
    fn decrypt_round_asks_exactly_threshold_and_spreads_the_load() {
        let n = 16u64;
        let step = Step::new(Crypto::Packed, 8, n as usize, [101, 102, 103]);
        let run = step.on_shards(&small_sharded(), &[]).unwrap();
        assert!(run.outcome.estimates.iter().all(|e| e.is_some()));
        let ops = &run.outcome.decrypt_ops;
        let t = step.config.threshold.threshold as u64;
        // The leader combines what it asked for: its folded width.
        let w = run.reports[0].decrypt_ops.combinations;
        assert_eq!(ops.combinations, w);
        let model =
            chiaroscuro::cost::synthesize_decrypt_ops(Some(w as usize), t as usize, 0, 0, 0);
        assert_eq!(ops.partial_decryptions, model.partial_decryptions);
        for r in &run.reports {
            let p = r.decrypt_ops.partial_decryptions;
            assert!(p == 0 || p == w, "node {} computed {p} partials", r.id);
        }
        assert_eq!(run.metrics.gauge("crypto.releases_distinct"), 1);
        // One request and one reply per vector that crossed the network,
        // `t − 1` from the leader; a release request and a release from
        // every other node.
        assert_eq!(ops.messages, 2 * (t - 1 + n - 1));
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
        let events = ChurnSchedule::none()
            .crash(0, Duration::from_micros(2_200), 2)
            .rejoin(0, Duration::from_micros(2_400), 2)
            .leave(0, Duration::from_micros(8_300), 2)
            .for_step(0);
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
        let run = step.on_shards(&ShardedConfig::default(), &[]).unwrap();
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
    /// joined — not park the pool on a barrier that can no longer fill.
    /// With one worker and with two, and with the bad node in each of the
    /// 16 positions in turn — so in every shard, the one the worker that
    /// would have closed the round claims included.
    #[test]
    #[should_panic(expected = "contribution length")]
    fn worker_panic_surfaces_instead_of_hanging_the_step() {
        let mut last = None;
        for workers in [1, 2] {
            for bad in 0..16 {
                let mut step = Step::new(Crypto::Simulated, 30, 16, [1, 2, 7]);
                step.contributions[bad].as_mut().unwrap().pop();
                let cfg = ShardedConfig {
                    workers,
                    ..small_sharded()
                };
                let step = std::panic::AssertUnwindSafe(step);
                let panic = std::panic::catch_unwind(|| step.on_shards(&cfg, &[]).map(|_| ()))
                    .expect_err("the worker's panic must reach the caller");
                let message = panic.downcast_ref::<&str>().copied().unwrap_or_default();
                assert!(message.contains("contribution length"), "{message:?}");
                last = Some(panic);
            }
        }
        std::panic::resume_unwind(last.expect("32 panics"));
    }

    #[test]
    fn population_must_be_at_least_two() {
        let step = Step::new(Crypto::Simulated, 30, 1, [1, 2, 7]);
        assert!(step.on_shards(&ShardedConfig::default(), &[]).is_err());
    }
}
