//! The structured span/event tracing facade, and the causal layer on top.
//!
//! A [`Tracer`] records bounded, timestamped [`TraceEvent`]s through a
//! pluggable [`Clock`]. The clock choice is the whole point: the TCP and
//! multi-process substrates trace in wall time ([`WallClock`]), while the
//! sharded executor traces in **virtual time** ([`VirtualClock`], advanced
//! explicitly at epoch boundaries) — so a same-seed sharded run emits a
//! byte-identical trace no matter how many worker threads drive it, and
//! the determinism e2e can assert on traces as strongly as it asserts on
//! execution logs.
//!
//! The buffer is bounded, and its two constructors differ only in what
//! overflows: a per-step tracer ([`Tracer::new`]) drops *new* events (the
//! step's opening matters most for causality), while a daemon-lifetime
//! flight recorder ([`Tracer::ring`]) keeps the *newest* events (the
//! crash's immediate past matters most for forensics). Either way drops are
//! counted, and [`Tracer::count_drops_in`] surfaces the count as the
//! `obs.trace.dropped` registry counter so trace loss is never silent.
//!
//! [`CausalTracer`] adds causality: it allocates deterministic span ids,
//! stamps every send with a [`TraceContext`] (trace id, span id, causal
//! parent) that rides the wire frame, and links every receive back to the
//! send that caused it. [`NodeTrace`] / [`ClusterTrace`] are the
//! serializable capture shapes `cstrace` consumes.

use crate::metrics::Counter;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A monotonic nanosecond clock.
pub trait Clock: Send + Sync {
    /// Nanoseconds since the clock's origin.
    fn now_ns(&self) -> u64;
}

/// Wall time, anchored at construction.
#[derive(Debug)]
pub struct WallClock {
    origin: Instant,
}

impl WallClock {
    /// A wall clock whose origin is now.
    pub fn new() -> WallClock {
        WallClock {
            origin: Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::new()
    }
}

impl Clock for WallClock {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// Deterministic virtual time: an atomic nanosecond counter advanced
/// explicitly by whoever owns the timeline (the sharded executor advances
/// it at epoch boundaries). Reads never consult the OS, so two same-seed
/// runs see identical timestamps regardless of scheduling.
#[derive(Debug, Default)]
pub struct VirtualClock(AtomicU64);

impl VirtualClock {
    /// A virtual clock at t = 0.
    pub fn new() -> VirtualClock {
        VirtualClock::default()
    }

    /// Jumps the clock to `ns` (virtual time only moves forward; the
    /// caller owns that invariant).
    pub fn set_ns(&self, ns: u64) {
        self.0.store(ns, Ordering::Relaxed);
    }

    /// Advances the clock by `ns`.
    pub fn advance_ns(&self, ns: u64) {
        self.0.fetch_add(ns, Ordering::Relaxed);
    }
}

impl Clock for VirtualClock {
    fn now_ns(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// One `key = value` attachment on a [`TraceEvent`].
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Field {
    /// Field name.
    pub key: String,
    /// Field value.
    pub value: u64,
}

/// One recorded trace event.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Timestamp from the tracer's [`Clock`], nanoseconds.
    pub ts_ns: u64,
    /// Event name (span events carry the span name and a `dur_ns` field).
    pub name: String,
    /// Structured attachments.
    pub fields: Vec<Field>,
}

/// What a full [`Tracer`] buffer does with the next event.
#[derive(Clone, Copy, Debug)]
enum OverflowPolicy {
    /// Keep the oldest events, drop the incoming one (per-step tracers:
    /// the step's opening carries the causal roots).
    DropNew,
    /// Evict the oldest event to admit the incoming one (flight
    /// recorders: the newest events explain the crash).
    DropOld,
}

/// A bounded recorder of [`TraceEvent`]s.
pub struct Tracer {
    clock: Arc<dyn Clock>,
    events: Mutex<VecDeque<TraceEvent>>,
    capacity: usize,
    policy: OverflowPolicy,
    dropped: AtomicU64,
    drop_counter: Mutex<Option<Arc<Counter>>>,
}

impl Tracer {
    /// A tracer holding at most 4096 events; further events are dropped
    /// and counted ([`Tracer::dropped`]).
    pub fn new(clock: Arc<dyn Clock>) -> Tracer {
        Tracer::with_policy(clock, 4096, OverflowPolicy::DropNew)
    }

    /// A flight-recorder ring: at most `capacity` events, evicting the
    /// *oldest* on overflow so the buffer always holds the immediate past.
    pub fn ring(clock: Arc<dyn Clock>, capacity: usize) -> Tracer {
        Tracer::with_policy(clock, capacity, OverflowPolicy::DropOld)
    }

    fn with_policy(clock: Arc<dyn Clock>, capacity: usize, policy: OverflowPolicy) -> Tracer {
        Tracer {
            clock,
            events: Mutex::new(VecDeque::new()),
            capacity,
            policy,
            dropped: AtomicU64::new(0),
            drop_counter: Mutex::new(None),
        }
    }

    /// Mirrors every future drop into `registry`'s `obs.trace.dropped`
    /// counter, so ring overflow under load shows up in metrics scrapes
    /// instead of staying silent inside the tracer.
    pub fn count_drops_in(&self, registry: &crate::metrics::Registry) {
        let counter = registry.counter("obs.trace.dropped");
        counter.add(self.dropped());
        *self.drop_counter.lock().expect("tracer poisoned") = Some(counter);
    }

    /// The tracer's clock (the executor hands this out so event producers
    /// and the timeline owner share one timebase).
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// Records an instantaneous event.
    pub fn event(&self, name: &str, fields: &[(&str, u64)]) {
        let ts_ns = self.clock.now_ns();
        let mut events = self.events.lock().expect("tracer poisoned");
        if events.len() >= self.capacity {
            self.note_drop();
            match self.policy {
                OverflowPolicy::DropNew => return,
                OverflowPolicy::DropOld => {
                    events.pop_front();
                }
            }
        }
        events.push_back(TraceEvent {
            ts_ns,
            name: name.to_string(),
            fields: fields
                .iter()
                .map(|(key, value)| Field {
                    key: key.to_string(),
                    value: *value,
                })
                .collect(),
        });
    }

    fn note_drop(&self) {
        self.dropped.fetch_add(1, Ordering::Relaxed);
        if let Some(c) = self.drop_counter.lock().expect("tracer poisoned").as_ref() {
            c.inc();
        }
    }

    /// Opens a span; the returned guard records a single event carrying
    /// the span's duration (`dur_ns`, in the tracer's clock) when dropped.
    pub fn span(&self, name: &'static str) -> Span<'_> {
        Span {
            tracer: self,
            name,
            start_ns: self.clock.now_ns(),
        }
    }

    /// Takes every recorded event, oldest first, leaving the buffer empty.
    pub fn drain(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut *self.events.lock().expect("tracer poisoned")).into()
    }

    /// Clones every buffered event, oldest first, without disturbing the
    /// buffer — the scrape primitive for a live flight recorder.
    pub fn snapshot_events(&self) -> Vec<TraceEvent> {
        self.events
            .lock()
            .expect("tracer poisoned")
            .iter()
            .cloned()
            .collect()
    }

    /// Events discarded because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("capacity", &self.capacity)
            .finish_non_exhaustive()
    }
}

/// An open span; see [`Tracer::span`].
pub struct Span<'a> {
    tracer: &'a Tracer,
    name: &'static str,
    start_ns: u64,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let dur = self.tracer.clock.now_ns().saturating_sub(self.start_ns);
        self.tracer.event(self.name, &[("dur_ns", dur)]);
    }
}

/// The causal context one message carries: which trace (= which step) it
/// belongs to, the span of the send that produced it, and that send's own
/// causal parent. 24 bytes on the wire ([`TraceContext::WIRE_BYTES`]),
/// all-zero when absent.
///
/// Span ids are allocated deterministically by [`CausalTracer`]
/// (`(actor + 1) << 32 | seq`), so a context is "set" exactly when its
/// span id is non-zero — the property the wire decoder validates.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceContext {
    /// The trace this message belongs to (the substrates use the step
    /// seed, which already names a step uniquely across a run).
    pub trace_id: u64,
    /// The span of the send event that emitted this message.
    pub span_id: u64,
    /// The span that caused the send (0 for a root, e.g. a timer tick).
    pub parent_id: u64,
}

impl TraceContext {
    /// The absent context (all-zero; encodes as a cleared trace flag).
    pub const NONE: TraceContext = TraceContext {
        trace_id: 0,
        span_id: 0,
        parent_id: 0,
    };

    /// Encoded size: three little-endian `u64`s.
    pub const WIRE_BYTES: usize = 24;

    /// Whether this context carries causality (span ids are never 0).
    pub fn is_set(&self) -> bool {
        self.span_id != 0
    }

    /// Little-endian wire encoding.
    pub fn to_bytes(&self) -> [u8; TraceContext::WIRE_BYTES] {
        let mut out = [0u8; TraceContext::WIRE_BYTES];
        out[..8].copy_from_slice(&self.trace_id.to_le_bytes());
        out[8..16].copy_from_slice(&self.span_id.to_le_bytes());
        out[16..].copy_from_slice(&self.parent_id.to_le_bytes());
        out
    }

    /// Inverse of [`TraceContext::to_bytes`].
    pub fn from_bytes(b: &[u8; TraceContext::WIRE_BYTES]) -> TraceContext {
        TraceContext {
            trace_id: u64::from_le_bytes(b[..8].try_into().expect("8 bytes")),
            span_id: u64::from_le_bytes(b[8..16].try_into().expect("8 bytes")),
            parent_id: u64::from_le_bytes(b[16..].try_into().expect("8 bytes")),
        }
    }
}

/// Per-actor causal span bookkeeping over a shared [`Tracer`].
///
/// Span ids are `(actor + 1) << 32 | seq` with a per-actor monotone `seq`
/// — globally unique within a trace without coordination, and fully
/// deterministic (no randomness, no wall time), which is what lets the
/// sharded executor assert byte-identical traces across worker counts.
///
/// The "current parent" starts at the `step.start` root span, becomes the
/// inbound span on every [`CausalTracer::on_recv`], and resets to the
/// root on [`CausalTracer::local_root`] (timer-driven activity is caused
/// by the step itself, not by whatever message happened to arrive last).
pub struct CausalTracer {
    tracer: Arc<Tracer>,
    trace_id: u64,
    actor: u64,
    seq: u64,
    root: u64,
    parent: u64,
}

impl CausalTracer {
    /// Opens actor `actor`'s participation in trace `trace_id`, recording
    /// a `step.start` event whose parent is `parent.span_id` (the control
    /// plane's `Step` context, when there is one).
    pub fn new(tracer: Arc<Tracer>, trace_id: u64, actor: u64, parent: TraceContext) -> Self {
        let mut t = CausalTracer {
            tracer,
            trace_id,
            actor,
            seq: 0,
            root: 0,
            parent: 0,
        };
        let root = t.next_span();
        t.root = root;
        t.parent = root;
        t.tracer.event(
            "step.start",
            &[
                ("trace", trace_id),
                ("span", root),
                ("parent", parent.span_id),
                ("actor", actor),
            ],
        );
        t
    }

    fn next_span(&mut self) -> u64 {
        self.seq += 1;
        ((self.actor + 1) << 32) | self.seq
    }

    /// The underlying tracer.
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }

    /// The trace this tracer stamps on outbound contexts.
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// Records a send and returns the context to stamp on the frame.
    pub fn on_send(&mut self, to: u64, kind: u64) -> TraceContext {
        let span = self.next_span();
        self.tracer.event(
            "send",
            &[
                ("span", span),
                ("parent", self.parent),
                ("to", to),
                ("kind", kind),
            ],
        );
        TraceContext {
            trace_id: self.trace_id,
            span_id: span,
            parent_id: self.parent,
        }
    }

    /// Records a receive; until the next receive (or [`local_root`]),
    /// everything this actor emits is caused by the inbound span.
    ///
    /// [`local_root`]: CausalTracer::local_root
    pub fn on_recv(&mut self, from: u64, ctx: TraceContext, kind: u64) {
        let span = self.next_span();
        self.parent = if ctx.is_set() { ctx.span_id } else { self.root };
        self.tracer.event(
            "recv",
            &[
                ("span", span),
                ("parent", self.parent),
                ("from", from),
                ("kind", kind),
            ],
        );
    }

    /// Resets the causal parent to the step root (timer-driven activity).
    pub fn local_root(&mut self) {
        self.parent = self.root;
    }

    /// Records a named marker under the current causal parent.
    pub fn mark(&mut self, name: &str, fields: &[(&str, u64)]) {
        let span = self.next_span();
        let mut all: Vec<(&str, u64)> = vec![("span", span), ("parent", self.parent)];
        all.extend_from_slice(fields);
        self.tracer.event(name, &all);
    }
}

/// One node's captured trace: the serializable unit a daemon dumps, a
/// `TraceReport` ships, and the sharded determinism e2e compares.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeTrace {
    /// The node (daemon) the events came from.
    pub node: u64,
    /// Events lost to the bounded buffer before this capture.
    pub dropped: u64,
    /// The buffered events, oldest first.
    pub events: Vec<TraceEvent>,
}

impl NodeTrace {
    /// Captures `tracer`'s buffer without draining it.
    pub fn capture(node: u64, tracer: &Tracer) -> NodeTrace {
        NodeTrace {
            node,
            dropped: tracer.dropped(),
            events: tracer.snapshot_events(),
        }
    }
}

/// Per-node traces merged into one cluster timeline, in node-id order —
/// the shape `cstrace` loads.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClusterTrace {
    /// One entry per node that produced a trace, ascending by node id.
    pub traces: Vec<NodeTrace>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scripted_trace() -> Vec<TraceEvent> {
        let clock = Arc::new(VirtualClock::new());
        let tracer = Tracer::new(clock.clone() as Arc<dyn Clock>);
        tracer.event("step.start", &[("population", 64)]);
        clock.advance_ns(250_000);
        {
            let _span = tracer.span("epoch");
            clock.advance_ns(250_000);
        }
        tracer.event("step.end", &[]);
        tracer.drain()
    }

    #[test]
    fn virtual_time_traces_are_byte_identical_across_runs() {
        let a = scripted_trace();
        let b = scripted_trace();
        assert_eq!(a, b);
        let json_a = serde_json::to_string(&a).unwrap();
        let json_b = serde_json::to_string(&b).unwrap();
        assert_eq!(json_a, json_b, "serialized traces are byte-identical");
        assert_eq!(a[1].name, "epoch");
        assert_eq!(a[1].ts_ns, 500_000, "span event lands at its close");
        assert_eq!(
            a[1].fields,
            vec![Field {
                key: "dur_ns".into(),
                value: 250_000
            }]
        );
    }

    #[test]
    fn bounded_buffer_drops_and_counts_overflow() {
        let tracer = Tracer::with_policy(Arc::new(VirtualClock::new()), 2, OverflowPolicy::DropNew);
        tracer.event("a", &[]);
        tracer.event("b", &[]);
        tracer.event("c", &[]);
        assert_eq!(tracer.drain().len(), 2);
        assert_eq!(tracer.dropped(), 1);
    }

    #[test]
    fn wall_clock_is_monotone() {
        let clock = WallClock::new();
        let a = clock.now_ns();
        let b = clock.now_ns();
        assert!(b >= a);
    }

    #[test]
    fn flight_recorder_ring_keeps_the_newest_events() {
        let tracer = Tracer::ring(Arc::new(VirtualClock::new()), 2);
        tracer.event("a", &[]);
        tracer.event("b", &[]);
        tracer.event("c", &[]);
        let names: Vec<String> = tracer
            .snapshot_events()
            .into_iter()
            .map(|e| e.name)
            .collect();
        assert_eq!(names, ["b", "c"], "oldest evicted, newest kept");
        assert_eq!(tracer.dropped(), 1);
    }

    #[test]
    fn ring_overflow_surfaces_in_the_metrics_registry() {
        let registry = crate::metrics::Registry::new();
        let tracer = Tracer::ring(Arc::new(VirtualClock::new()), 1);
        tracer.event("pre-attach", &[]);
        tracer.event("pre-attach-dropped", &[]); // dropped before attach
        tracer.count_drops_in(&registry);
        tracer.event("post-attach-dropped", &[]);
        assert_eq!(tracer.dropped(), 2);
        assert_eq!(
            registry.snapshot().counter("obs.trace.dropped"),
            2,
            "catch-up at attach plus live drops"
        );
    }

    #[test]
    fn trace_context_roundtrips_through_wire_bytes() {
        let ctx = TraceContext {
            trace_id: 0xDEAD_BEEF_0BAD_F00D,
            span_id: (8u64 << 32) | 3,
            parent_id: (2u64 << 32) | 41,
        };
        assert!(ctx.is_set());
        assert_eq!(TraceContext::from_bytes(&ctx.to_bytes()), ctx);
        assert!(!TraceContext::NONE.is_set());
        assert_eq!(TraceContext::NONE.to_bytes(), [0u8; 24]);
    }

    #[test]
    fn causal_tracer_links_receives_to_sends_deterministically() {
        let run = || {
            let tracer = Arc::new(Tracer::new(Arc::new(VirtualClock::new()) as Arc<dyn Clock>));
            let mut a = CausalTracer::new(tracer.clone(), 99, 7, TraceContext::NONE);
            let ctx = a.on_send(8, 0);
            assert_eq!(ctx.trace_id, 99);
            assert_eq!(ctx.span_id, (8u64 << 32) | 2, "root took seq 1");
            assert_eq!(ctx.parent_id, (8u64 << 32) | 1, "parented on step.start");

            let mut b = CausalTracer::new(tracer.clone(), 99, 8, TraceContext::NONE);
            b.on_recv(7, ctx, 0);
            let reply = b.on_send(7, 3);
            assert_eq!(
                reply.parent_id, ctx.span_id,
                "the reply is caused by the inbound span"
            );
            b.local_root();
            let tick = b.on_send(7, 0);
            assert_eq!(tick.parent_id, (9u64 << 32) | 1, "timer sends re-root");
            tracer.drain()
        };
        let x = run();
        let y = run();
        assert_eq!(x, y, "span allocation is fully deterministic");
        assert_eq!(x[0].name, "step.start");
    }

    #[test]
    fn node_trace_capture_is_non_destructive() {
        let tracer = Tracer::new(Arc::new(VirtualClock::new()));
        tracer.event("x", &[("k", 1)]);
        let snap = NodeTrace::capture(4, &tracer);
        assert_eq!(snap.node, 4);
        assert_eq!(snap.dropped, 0);
        assert_eq!(snap.events.len(), 1);
        assert_eq!(tracer.snapshot_events().len(), 1, "buffer undisturbed");
        let json = serde_json::to_string(&ClusterTrace {
            traces: vec![snap.clone()],
        })
        .unwrap();
        let back: ClusterTrace = serde_json::from_str(&json).unwrap();
        assert_eq!(back.traces, vec![snap]);
    }
}
