//! What every way of moving frames shares: the link model ([`LinkConfig`]
//! — latency, jitter, loss, bandwidth), bytes-on-wire accounting per traffic
//! class ([`TrafficSnapshot`]), the `net.*` metric handles, and the
//! delay-ordered inbox frames are delivered into. The transport itself is
//! [`crate::tcp::TcpTransport`]; the sharded executor moves messages without
//! one and keeps the same accounting.

use chiaroscuro::ChiaroscuroError;
use cs_obs::{Counter, Histogram, Registry};
use serde::{Deserialize, Serialize};
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Node identifier — index into the population, matching the simulators.
pub type NodeId = cs_gossip::NodeId;

/// Transport-layer failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NetError {
    /// A send addressed a node outside the population.
    UnknownPeer {
        /// The offending node id.
        node: NodeId,
        /// Population size.
        population: usize,
    },
    /// The frame exceeds the codec's size cap.
    FrameTooLarge(usize),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::UnknownPeer { node, population } => {
                write!(f, "node {node} outside population of {population}")
            }
            NetError::FrameTooLarge(n) => write!(f, "frame of {n} bytes exceeds the cap"),
        }
    }
}

impl std::error::Error for NetError {}

/// Per-link characteristics of the simulated network.
#[derive(Clone, Debug, Default)]
pub struct LinkConfig {
    /// Fixed one-way delivery delay.
    pub latency: Duration,
    /// Additional uniformly-random delay in `[0, jitter]`.
    pub jitter: Duration,
    /// Probability that any individual frame is lost in transit.
    pub loss: f64,
    /// Link bandwidth in bytes/second; `None` models an infinitely fast
    /// pipe. Serialization delay `frame_len / bandwidth` adds to latency.
    pub bandwidth_bytes_per_sec: Option<u64>,
}

impl LinkConfig {
    /// A perfect link: no delay, no jitter, no loss, infinite bandwidth.
    pub fn ideal() -> Self {
        LinkConfig::default()
    }

    /// Validates probabilities and bandwidth. The values reach a daemon
    /// in a control message, so a bad one is an error, never a panic.
    pub fn validate(&self) -> Result<(), ChiaroscuroError> {
        let fail = |msg: String| Err(ChiaroscuroError::InvalidConfig(msg));
        if !(0.0..=1.0).contains(&self.loss) {
            return fail(format!("link loss out of [0,1]: {}", self.loss));
        }
        if self.bandwidth_bytes_per_sec == Some(0) {
            return fail("link bandwidth must be positive".into());
        }
        Ok(())
    }
}

/// Counters for one traffic class.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClassCounts {
    /// Frames delivered (scheduled for delivery).
    pub messages: u64,
    /// Bytes-on-wire of delivered frames.
    pub bytes: u64,
    /// Frames lost in transit.
    pub dropped: u64,
}

impl ClassCounts {
    /// Component-wise sum.
    pub fn plus(&self, other: &ClassCounts) -> ClassCounts {
        ClassCounts {
            messages: self.messages + other.messages,
            bytes: self.bytes + other.bytes,
            dropped: self.dropped + other.dropped,
        }
    }

    /// Component-wise difference (`self` must be the later reading).
    pub fn minus(&self, earlier: &ClassCounts) -> ClassCounts {
        ClassCounts {
            messages: self.messages - earlier.messages,
            bytes: self.bytes - earlier.bytes,
            dropped: self.dropped - earlier.dropped,
        }
    }
}

/// A point-in-time copy of a transport's accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrafficSnapshot {
    /// Push-sum gossip traffic.
    pub gossip: ClassCounts,
    /// Collaborative-decryption traffic.
    pub decrypt: ClassCounts,
    /// Membership / termination control traffic.
    pub control: ClassCounts,
}

impl TrafficSnapshot {
    /// A snapshot of a `[class][messages, bytes, dropped]` counter block,
    /// read cell by cell.
    pub(crate) fn read(cell: impl Fn(usize, usize) -> u64) -> TrafficSnapshot {
        let class = |ci: usize| ClassCounts {
            messages: cell(ci, 0),
            bytes: cell(ci, 1),
            dropped: cell(ci, 2),
        };
        TrafficSnapshot {
            gossip: class(0),
            decrypt: class(1),
            control: class(2),
        }
    }

    /// Total delivered frames across all classes.
    pub fn messages(&self) -> u64 {
        self.gossip.messages + self.decrypt.messages + self.control.messages
    }

    /// Total delivered bytes across all classes.
    pub fn bytes(&self) -> u64 {
        self.gossip.bytes + self.decrypt.bytes + self.control.bytes
    }

    /// Total lost frames across all classes.
    pub fn dropped(&self) -> u64 {
        self.gossip.dropped + self.decrypt.dropped + self.control.dropped
    }

    /// Component-wise sum — folds per-node (or per-process) snapshots into
    /// a population total; accounting is send-side, so nothing is
    /// double-counted.
    pub fn plus(&self, other: &TrafficSnapshot) -> TrafficSnapshot {
        TrafficSnapshot {
            gossip: self.gossip.plus(&other.gossip),
            decrypt: self.decrypt.plus(&other.decrypt),
            control: self.control.plus(&other.control),
        }
    }

    /// What accumulated since `earlier` — turns a transport's cumulative
    /// counters into a per-step delta.
    pub fn since(&self, earlier: &TrafficSnapshot) -> TrafficSnapshot {
        TrafficSnapshot {
            gossip: self.gossip.minus(&earlier.gossip),
            decrypt: self.decrypt.minus(&earlier.decrypt),
            control: self.control.minus(&earlier.control),
        }
    }
}

/// Resolved [`cs_obs`] handles for the metric names every transport
/// exports (see `docs/observability.md` for the catalog). Send-path
/// counters follow *attempt* semantics — `net.<class>.sent.*` counts every
/// frame handed to the transport, `net.<class>.dropped` every frame lost
/// anywhere (loss shim, writer overflow, dead peer), so
/// `delivered = sent − dropped` reconciles with [`TrafficSnapshot`]
/// without ever decrementing a counter.
pub(crate) struct TransportMetrics {
    /// `[gossip, decrypt, control]` × (sent messages, sent bytes, dropped).
    classes: [(Arc<Counter>, Arc<Counter>, Arc<Counter>); 3],
    /// Inbox heap depth observed at each schedule (`net.inbox.depth`).
    inbox_depth: Arc<Histogram>,
}

impl TransportMetrics {
    pub(crate) fn new(registry: &Registry) -> Self {
        let class = |name: &str| {
            (
                registry.counter(&format!("net.{name}.sent.messages")),
                registry.counter(&format!("net.{name}.sent.bytes")),
                registry.counter(&format!("net.{name}.dropped")),
            )
        };
        TransportMetrics {
            classes: [class("gossip"), class("decrypt"), class("control")],
            inbox_depth: registry.histogram("net.inbox.depth"),
        }
    }

    /// A frame was handed to the transport (before any loss draw).
    pub(crate) fn on_sent(&self, ci: usize, bytes: usize) {
        self.classes[ci].0.inc();
        self.classes[ci].1.add(bytes as u64);
    }

    /// A frame was lost — loss shim, queue overflow, or dead peer.
    pub(crate) fn on_dropped(&self, ci: usize) {
        self.classes[ci].2.inc();
    }

    /// A frame was scheduled into an inbox whose depth is now `depth`.
    pub(crate) fn on_scheduled(&self, depth: usize) {
        self.inbox_depth.record(depth as u64);
    }
}

/// A delivered frame with its sender.
#[derive(Clone, Debug)]
pub struct Envelope {
    /// The sending node.
    pub from: NodeId,
    /// The raw wire frame (decode with [`crate::wire::decode_frame`]).
    pub frame: Vec<u8>,
}

/// A [`BinaryHeap`] entry ordered by its key alone, smallest key on top
/// (the heap is a max-heap, hence the [`Reverse`]). Keys must be unique
/// within a heap for the order to be total.
pub(crate) struct Keyed<K, T>(pub Reverse<K>, pub T);

impl<K, T> Keyed<K, T> {
    pub(crate) fn key(&self) -> &K {
        &self.0 .0
    }
}

impl<K: Ord, T> PartialEq for Keyed<K, T> {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}

impl<K: Ord, T> Eq for Keyed<K, T> {}

impl<K: Ord, T> PartialOrd for Keyed<K, T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<K: Ord, T> Ord for Keyed<K, T> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.cmp(&other.0)
    }
}

/// A delay-ordered inbox: frames become visible at their `deliver_at`
/// timestamp, a condvar wakes blocked receivers. The TCP transport
/// schedules into it as records come off the sockets.
pub(crate) struct Inbox {
    /// Frames in flight, by `(delivery time, sequence)`.
    heap: Mutex<BinaryHeap<Keyed<(Instant, u64), Envelope>>>,
    bell: Condvar,
}

impl Inbox {
    pub(crate) fn new() -> Self {
        Inbox {
            heap: Mutex::new(BinaryHeap::new()),
            bell: Condvar::new(),
        }
    }

    /// Schedules a frame for delivery at `deliver_at`; `seq` breaks ties.
    /// Returns the inbox depth after the push (queue-depth metrics).
    pub(crate) fn schedule(
        &self,
        deliver_at: Instant,
        seq: u64,
        from: NodeId,
        frame: Vec<u8>,
    ) -> usize {
        let mut heap = self.heap.lock().expect("inbox poisoned");
        heap.push(Keyed(Reverse((deliver_at, seq)), Envelope { from, frame }));
        let depth = heap.len();
        drop(heap);
        self.bell.notify_one();
        depth
    }

    /// Pops the earliest frame whose delivery time has passed, blocking up
    /// to `timeout` (zero: not at all): parks on the condvar until a frame
    /// is deliverable, a new frame arrives, or the deadline passes.
    pub(crate) fn pop_timeout(&self, timeout: Duration) -> Option<Envelope> {
        let deadline = Instant::now() + timeout;
        let mut heap = self.heap.lock().expect("inbox poisoned");
        loop {
            let now = Instant::now();
            let next_wake = match heap.peek().map(|top| top.key().0) {
                Some(at) if at <= now => return heap.pop().map(|s| s.1),
                Some(at) => at.min(deadline),
                None => deadline,
            };
            if now >= deadline {
                return None;
            }
            let (guard, _) = self
                .bell
                .wait_timeout(heap, next_wake.saturating_duration_since(now))
                .expect("inbox poisoned");
            heap = guard;
        }
    }
}

/// SplitMix64 — decorrelates the per-frame loss/jitter draws from the seed.
/// Shared with the sharded executor, whose draws must additionally be
/// deterministic per `(sender, sequence)` rather than per global send order.
pub(crate) fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub(crate) fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 / (1u64 << 53) as f64
}

/// The link model and the accounting, exercised through the one transport
/// that implements them.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::TcpTransport;
    use crate::wire::{encode_frame, FrameClass, Message};

    fn frame(node: u64) -> Vec<u8> {
        encode_frame(&Message::Leave { node })
    }

    fn loopback(cfg: LinkConfig, seed: u64, registry: Option<&Registry>) -> TcpTransport {
        TcpTransport::loopback(2, cfg, seed, registry).unwrap()
    }

    #[test]
    fn bandwidth_adds_serialization_delay() {
        let cfg = LinkConfig {
            // ~1 kB frame over 10 kB/s ⇒ ≥ tens of ms.
            bandwidth_bytes_per_sec: Some(10_000),
            ..LinkConfig::ideal()
        };
        let t = loopback(cfg, 3, None);
        let big = encode_frame(&Message::PlainPush {
            iteration: 0,
            weight: 1.0,
            slots: vec![0.5; 128],
        });
        let len = big.len();
        let sent_at = Instant::now();
        t.send(0, 1, big, FrameClass::Gossip).unwrap();
        t.recv_timeout(1, Duration::from_secs(5)).unwrap();
        let min = Duration::from_secs_f64(len as f64 / 10_000.0);
        assert!(
            sent_at.elapsed() >= min,
            "{:?} < {min:?}",
            sent_at.elapsed()
        );
    }

    #[test]
    fn partial_loss_is_seed_deterministic() {
        let run = |seed: u64| {
            let cfg = LinkConfig {
                loss: 0.4,
                ..LinkConfig::ideal()
            };
            let t = loopback(cfg, seed, None);
            for _ in 0..100 {
                t.send(0, 1, frame(1), FrameClass::Gossip).unwrap();
            }
            t.snapshot().gossip.dropped
        };
        let d = run(42);
        assert_eq!(d, run(42), "same seed, same losses");
        assert!((20..60).contains(&d), "≈40% of 100 dropped, got {d}");
    }

    #[test]
    fn per_class_accounting_is_separate() {
        let t = loopback(LinkConfig::ideal(), 5, None);
        t.send(0, 1, frame(1), FrameClass::Gossip).unwrap();
        t.send(0, 1, frame(2), FrameClass::Decrypt).unwrap();
        t.send(0, 1, frame(3), FrameClass::Decrypt).unwrap();
        t.send(0, 1, frame(4), FrameClass::Control).unwrap();
        let snap = t.snapshot();
        assert_eq!(snap.gossip.messages, 1);
        assert_eq!(snap.decrypt.messages, 2);
        assert_eq!(snap.control.messages, 1);
        assert_eq!(snap.messages(), 4);
        assert_eq!(snap.bytes(), 4 * frame(1).len() as u64);
    }

    #[test]
    fn metrics_mirror_the_traffic_snapshot() {
        let registry = Registry::new();
        let cfg = LinkConfig {
            loss: 0.4,
            ..LinkConfig::ideal()
        };
        let t = loopback(cfg, 42, Some(&registry));
        for _ in 0..100 {
            t.send(0, 1, frame(1), FrameClass::Gossip).unwrap();
        }
        t.send(0, 1, frame(2), FrameClass::Control).unwrap();
        let snap = t.snapshot();
        // Every surviving frame reaches the inbox before the comparison.
        for _ in 0..snap.messages() {
            t.recv_timeout(1, Duration::from_secs(5)).unwrap();
        }
        // A frame's inbox depth is recorded just after it becomes
        // receivable; give the last one a moment.
        let scheduled = || {
            let now = registry.snapshot();
            now.histogram("net.inbox.depth").map_or(0, |h| h.count)
        };
        let deadline = Instant::now() + Duration::from_secs(5);
        while scheduled() < snap.messages() && Instant::now() < deadline {
            std::thread::yield_now();
        }
        let m = registry.snapshot();
        // Attempt semantics: sent = delivered + dropped, per class.
        assert_eq!(m.counter("net.gossip.sent.messages"), 100);
        assert_eq!(
            m.counter("net.gossip.dropped"),
            snap.gossip.dropped,
            "registry and snapshot agree on losses"
        );
        assert_eq!(
            m.counter("net.gossip.sent.messages") - m.counter("net.gossip.dropped"),
            snap.gossip.messages,
        );
        assert_eq!(
            m.counter("net.gossip.sent.bytes"),
            100 * frame(1).len() as u64
        );
        assert_eq!(m.counter("net.control.sent.messages"), 1);
        // Every delivered frame passed through an inbox.
        let depth = m.histogram("net.inbox.depth").expect("histogram exists");
        assert_eq!(depth.count, snap.messages());
    }

    #[test]
    fn recv_timeout_expires_empty() {
        let t = loopback(LinkConfig::ideal(), 7, None);
        let start = Instant::now();
        assert!(t.recv_timeout(0, Duration::from_millis(25)).is_none());
        assert!(start.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn cross_thread_delivery_works() {
        let t = Arc::new(loopback(LinkConfig::ideal(), 8, None));
        let t2 = t.clone();
        let h = std::thread::spawn(move || {
            (0..50)
                .take_while(|_| t2.recv_timeout(1, Duration::from_secs(5)).is_some())
                .count()
        });
        for i in 0..50 {
            t.send(0, 1, frame(i), FrameClass::Gossip).unwrap();
        }
        assert_eq!(h.join().unwrap(), 50);
    }
}
