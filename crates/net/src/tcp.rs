//! The TCP socket transport: the protocol over real OS sockets.
//!
//! Everything above this module is socket-agnostic — a node's event loop
//! deals in opaque wire frames — so this is the piece that takes
//! Chiaroscuro out of one process: a [`TcpTransport`] carries the
//! length-prefixed [`crate::wire`] frames over `std::net` streams between
//! real processes (the `cs_node` crate's `csnoded` daemons), or between the
//! threads of one process through the localhost loopback
//! (`NetBackend::tcp`).
//!
//! ## Stream format
//!
//! A connection starts with a 6-byte preamble — magic `CSTP`, the wire
//! version, one reserved byte — and then carries *records*:
//!
//! ```text
//! ┌──────────┬──────────┬──────────────────────────────────┐
//! │ from u32 │  to u32  │ wire frame (len u32 + ver + tag + body) │
//! └──────────┴──────────┴──────────────────────────────────┘
//! ```
//!
//! The payload is byte-for-byte an [`crate::wire`] frame, so the frame
//! itself is self-delimiting and the [`FrameReassembler`] can cut records
//! out of the stream no matter how the kernel fragments reads (locked in
//! by a proptest that splits streams at arbitrary byte boundaries). The
//! `(from, to)` header exists because one connection multiplexes every
//! node pair between two endpoints; a header demanding a record over
//! [`MAX_RECORD_LEN`] is rejected *before* any buffer is sized from it,
//! and a stream that violates the record format is dropped, never
//! resynchronized.
//!
//! ## The reactor
//!
//! All socket I/O is driven by a fixed pool of two **reactor threads**
//! (`REACTOR_THREADS`) multiplexing every peer socket through nonblocking
//! I/O and a `poll(2)` shim (`crate::poll` — zero dependencies). Resident
//! threads are O(pool), not O(peers):
//!
//! * **Outbound.** Destination `p` is owned by reactor `p % pool`. Each
//!   destination has one bounded outbound queue of encoded records plus a
//!   connection state machine (`Idle → Connecting → Connected`, with
//!   `Backoff` between failures) whose transitions only the owning
//!   reactor performs — connects are nonblocking, backoff is a *timer*
//!   feeding the poll horizon, never a sleeping thread. Partial writes
//!   suspend with a byte cursor into the front record and resume on the
//!   next writability event; a connection that dies mid-record resets the
//!   cursor and replays the record on the fresh connection (safe because
//!   the receiver discards an incomplete record along with the dead
//!   connection). After `WRITE_ATTEMPTS` consecutive failures the whole
//!   queue is drained and counted as dropped — a dead peer degrades into
//!   frame loss, never into a wedged sender.
//! * **Fast path.** When the connection is up and nothing is queued
//!   ahead, `send` writes the record straight into the socket from the
//!   caller's thread (still under the per-peer lock, still nonblocking)
//!   and only parks the remainder for the reactor when the kernel buffer
//!   pushes back — the steady-state hot path costs no thread handoff.
//! * **Inbound.** Reactor 0 owns the (nonblocking) listener; accepted
//!   connections are dealt round-robin across the pool and each reactor
//!   reads its share on readiness, feeding the shared [`FrameReassembler`]
//!   and the per-node inboxes.
//! * **Loopback read-back.** When the destination's directory address is
//!   this transport's own listener (the loopback substrate), the outbound
//!   connection and one accepted inbound connection are two ends of the
//!   same kernel pipe. Once the sender matches its connection's local
//!   address in the accept registry it *drains the paired inbound socket
//!   inline* right after each fast-path write, delivering on the sender's
//!   thread. That costs CPU, it does not save it: with every drain stopped,
//!   `tcp_plain_64` ran ≈ 21 % less CPU per node-iteration and ≈ 23 % less
//!   wall, but peaked at 24 MB instead of 8.5 and raised ≈ 1.2
//!   mass-conservation alerts per job instead of ≈ 0.02 (8 pairs). The
//!   read-back buys memory and even mixing. The paired socket stays in its
//!   owning reactor's poll list regardless: a loopback `write` is not
//!   synchronously readable on the accept side (in-flight segments surface
//!   after ACK/cwnd round-trips), so level-triggered readiness is the
//!   backstop for whatever an inline drain misses. A per-connection duty
//!   word keeps concurrent drainers exclusive (see
//!   `TcpInner::drain_inbound`).
//! * **Backpressure.** The outbound queue is bounded
//!   ([`TcpTuning::writer_queue_cap`]); beyond it the link counts as
//!   congested-to-death and the frame is dropped at enqueue, surfaced by
//!   the `tcp.writer.overflow` counter and reclassified in the snapshot.
//!
//! ## Accounting and shims
//!
//! `send` counts per-class messages and bytes, and the byte count is the
//! wire frame's length (matching
//! [`Message::encoded_len`](crate::wire::Message::encoded_len)), not the
//! record framing — so the bytes-on-wire numbers stay comparable with the
//! sharded executor's, which computes the same length without serializing
//! (asserted by a parity test on each side). The loss shim draws at the
//! sender from the transport seed; latency/jitter/bandwidth shims delay
//! delivery at the receiving inbox. A frame the socket path loses for
//! real (queue overflow, dead peer past the retry budget) is
//! *reclassified* from delivered to dropped, so every frame lands in
//! exactly one accounting bucket.

use crate::poll::{self, PollFd, Waker, POLL_IN, POLL_OUT};
use crate::transport::{
    mix, unit_f64, Envelope, Inbox, LinkConfig, NetError, NodeId, TrafficSnapshot, TransportMetrics,
};
use crate::wire::{FrameClass, WireError, MAX_FRAME_BYTES, WIRE_VERSION};
use cs_obs::{Counter, Registry};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// Connection preamble magic.
const TCP_MAGIC: [u8; 4] = *b"CSTP";

/// Preamble length: magic + wire version + one reserved byte.
const PREAMBLE_BYTES: usize = 6;

/// Record header: sender id + destination id, 4 bytes each, little-endian.
const RECORD_HEADER_BYTES: usize = 8;

/// Largest record a stream may carry: header + frame length prefix +
/// [`MAX_FRAME_BYTES`]. A record header demanding more is rejected with
/// [`WireError::RecordTooLarge`] before any buffer is sized from it.
pub const MAX_RECORD_LEN: usize = RECORD_HEADER_BYTES + 4 + MAX_FRAME_BYTES;

/// Default outbound queue capacity per destination (records). Beyond it the
/// link is treated as congested-to-death and frames are dropped (counted).
const WRITER_QUEUE_CAP: usize = 8192;

/// Reactor pool size: one thread to own the listener plus one more so
/// inbound service and outbound flushing overlap. O(pool) threads serve any
/// population size.
const REACTOR_THREADS: usize = 2;

/// Consecutive connect/write failures before everything queued toward the
/// peer is declared lost.
const WRITE_ATTEMPTS: u32 = 6;

/// First reconnect backoff; doubles per failure up to [`BACKOFF_CAP`].
const BACKOFF_START: Duration = Duration::from_millis(5);

/// Reconnect backoff cap.
const BACKOFF_CAP: Duration = Duration::from_millis(200);

/// Idle poll horizon: a reactor with no nearer timer parks in `poll` this
/// long; wakers and readiness events cut it short.
const POLL_HORIZON: Duration = Duration::from_millis(200);

/// Read buffer per reactor thread.
const READ_BUF_BYTES: usize = 16384;

/// Reads one inbound connection may consume per readiness event before
/// yielding (level-triggered poll re-reports the rest), so one firehose
/// peer cannot starve its reactor-mates.
const READ_BUDGET: usize = 32;

/// Stack buffer for a sender's inline read-back drain. Small on purpose:
/// the typical backlog is the sender's own record (~100 B), and a bigger
/// backlog just loops — the buffer size only sets the syscall granularity.
const READ_BACK_BUF_BYTES: usize = 2048;

/// Poison-tolerant lock: a panicking holder must not cascade into aborts
/// on every later toucher (the `Drop` path in particular), so the guard is
/// recovered rather than unwrapped.
fn plock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn preamble() -> [u8; PREAMBLE_BYTES] {
    let mut p = [0u8; PREAMBLE_BYTES];
    p[0..4].copy_from_slice(&TCP_MAGIC);
    p[4] = WIRE_VERSION;
    p
}

/// One routed record cut out of a TCP stream: the sending node, the
/// destination node, and the raw wire frame between them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TcpRecord {
    /// The sending node.
    pub from: NodeId,
    /// The destination node.
    pub to: NodeId,
    /// The wire frame (decode with [`crate::wire::decode_frame`]).
    pub frame: Vec<u8>,
}

/// Encodes one record: `(from, to)` header + the already-encoded frame.
pub fn encode_record(from: NodeId, to: NodeId, frame: &[u8]) -> Vec<u8> {
    let mut rec = Vec::with_capacity(RECORD_HEADER_BYTES + frame.len());
    rec.extend_from_slice(&(from as u32).to_le_bytes());
    rec.extend_from_slice(&(to as u32).to_le_bytes());
    rec.extend_from_slice(frame);
    rec
}

/// Incremental record parser for a TCP byte stream.
///
/// Bytes go in via [`FrameReassembler::push`] in whatever chunks the
/// socket produced them; complete records come out of
/// [`FrameReassembler::next_record`]. A record is only released once every
/// byte of its frame is present, and a stream whose next record is
/// structurally impossible (total length over [`MAX_RECORD_LEN`]) is a
/// hard error — the connection is beyond resynchronization. The length
/// check happens on the untrusted 4-byte header alone, before any buffer
/// is grown toward the declared size.
#[derive(Default)]
pub struct FrameReassembler {
    buf: Vec<u8>,
    start: usize,
}

impl FrameReassembler {
    /// An empty reassembler.
    pub fn new() -> Self {
        FrameReassembler::default()
    }

    /// Appends bytes read from the stream.
    pub fn push(&mut self, bytes: &[u8]) {
        // Reclaim consumed prefix before growing — keeps the buffer bounded
        // by one record plus one read.
        if self.start > 0 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes currently buffered and not yet consumed.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Cuts the next complete record off the stream, `Ok(None)` if more
    /// bytes are needed, `Err` if the stream is corrupt (the caller must
    /// drop the connection).
    pub fn next_record(&mut self) -> Result<Option<TcpRecord>, WireError> {
        let avail = &self.buf[self.start..];
        if avail.len() < RECORD_HEADER_BYTES + 4 {
            return Ok(None);
        }
        let from = u32::from_le_bytes(avail[0..4].try_into().unwrap()) as NodeId;
        let to = u32::from_le_bytes(avail[4..8].try_into().unwrap()) as NodeId;
        let body_len = u32::from_le_bytes(avail[8..12].try_into().unwrap()) as usize;
        let record_len = RECORD_HEADER_BYTES + 4 + body_len;
        if record_len > MAX_RECORD_LEN {
            return Err(WireError::RecordTooLarge(record_len));
        }
        if avail.len() < record_len {
            return Ok(None);
        }
        let frame = avail[RECORD_HEADER_BYTES..record_len].to_vec();
        self.start += record_len;
        Ok(Some(TcpRecord { from, to, frame }))
    }
}

/// Maps every node id to the socket address its transport listens on.
///
/// Multiple nodes may share an address (they live in the same process);
/// connections are still opened per destination *node* so one slow peer
/// never head-of-line-blocks traffic to its process-mates.
#[derive(Clone, Debug)]
pub struct PeerDirectory {
    addrs: Vec<SocketAddr>,
}

impl PeerDirectory {
    /// Builds the directory from per-node listener addresses.
    pub fn new(addrs: Vec<SocketAddr>) -> Self {
        PeerDirectory { addrs }
    }

    /// Population size.
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// `true` iff the directory is empty.
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    /// The listener address of `node`.
    pub fn addr(&self, node: NodeId) -> SocketAddr {
        self.addrs[node]
    }
}

/// Tuning knob for the TCP reactor. The default serves every benchmark in
/// the workspace; tests shrink the queue to force backpressure
/// deterministically.
#[derive(Clone, Copy, Debug)]
pub struct TcpTuning {
    /// Outbound queue capacity per destination, in records. Beyond it the
    /// link counts as congested-to-death: the frame is dropped at enqueue
    /// (`tcp.writer.overflow`) and reclassified as lost.
    pub writer_queue_cap: usize,
}

impl Default for TcpTuning {
    fn default() -> Self {
        TcpTuning {
            writer_queue_cap: WRITER_QUEUE_CAP,
        }
    }
}

/// A bound-but-not-yet-wired TCP endpoint.
///
/// Splitting bind from wiring matters for the daemon bootstrap: a
/// `csnoded` must bind (and learn its ephemeral port) *before* it can
/// report that address to the coordinator, and only receives the full
/// population directory afterwards.
pub struct TcpEndpoint {
    listener: TcpListener,
}

impl TcpEndpoint {
    /// Binds a listener (use `"127.0.0.1:0"` for an ephemeral local port).
    pub fn bind(addr: &str) -> io::Result<TcpEndpoint> {
        Ok(TcpEndpoint {
            listener: TcpListener::bind(addr)?,
        })
    }

    /// The bound address (advertise this in the peer directory).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Wires the endpoint into a transport hosting `local` nodes out of the
    /// population described by `directory`. With a `registry`, the
    /// transport's accounting is mirrored into it (the `net.*` and `tcp.*`
    /// metric families); the registry outlives the transport, so a daemon
    /// can keep cumulative counters across per-step transports.
    pub fn into_transport(
        self,
        local: &[NodeId],
        directory: PeerDirectory,
        cfg: LinkConfig,
        seed: u64,
        tuning: TcpTuning,
        registry: Option<&Registry>,
    ) -> TcpTransport {
        let metrics = registry.map(TcpMetrics::new);
        TcpTransport::start(self.listener, local, directory, cfg, seed, tuning, metrics)
    }
}

/// Resolved handles for the TCP-specific metric names (`tcp.*`), on top of
/// the shared `net.*` family. All socket-path events: connection churn,
/// backoff timers, partial writes, and the two sender-side loss causes.
struct TcpMetrics {
    transport: TransportMetrics,
    /// Successful outbound connections (`tcp.connects`).
    connects: Arc<Counter>,
    /// Failed connect attempts (`tcp.connect.retries`).
    connect_retries: Arc<Counter>,
    /// Mid-stream write failures forcing a reconnect (`tcp.write.retries`).
    write_retries: Arc<Counter>,
    /// Inbound connections that ended — EOF, reset or a corrupt stream
    /// (`tcp.inbound.closed`): how a peer that died without a word shows
    /// up at the nodes it had been sending to.
    inbound_closed: Arc<Counter>,
    /// Backoff timers armed after a failure (`tcp.backoff.sleeps` — the
    /// historical name; no thread sleeps on it, the reactor's poll horizon
    /// absorbs the wait).
    backoff_sleeps: Arc<Counter>,
    /// Record writes suspended mid-record by kernel-buffer pushback and
    /// resumed later (`tcp.write.partials`).
    write_partials: Arc<Counter>,
    /// Frames dropped at enqueue because the outbound queue was full
    /// (`tcp.writer.overflow`).
    writer_overflow: Arc<Counter>,
}

impl TcpMetrics {
    fn new(registry: &Registry) -> Self {
        TcpMetrics {
            transport: TransportMetrics::new(registry),
            connects: registry.counter("tcp.connects"),
            connect_retries: registry.counter("tcp.connect.retries"),
            write_retries: registry.counter("tcp.write.retries"),
            inbound_closed: registry.counter("tcp.inbound.closed"),
            backoff_sleeps: registry.counter("tcp.backoff.sleeps"),
            write_partials: registry.counter("tcp.write.partials"),
            writer_overflow: registry.counter("tcp.writer.overflow"),
        }
    }
}

/// Outbound connection lifecycle toward one destination. Only the owning
/// reactor thread transitions states or closes sockets; `send`'s fast path
/// may *write* to a `Connected` stream (under the peer lock) but never
/// tears it down, so a descriptor registered for polling stays valid until
/// its owner retires it.
enum ConnState {
    /// No connection and no timer pending; connect on next demand.
    Idle,
    /// Nonblocking connect in flight; resolved by writability +
    /// `take_error`, or abandoned at the connect deadline.
    Connecting { stream: TcpStream, started: Instant },
    /// Live connection (preamble possibly still partially unsent).
    Connected { stream: TcpStream },
    /// Cooling down after a failure; the reactor's poll horizon wakes at
    /// `until` — no thread sleeps.
    Backoff { until: Instant },
}

/// Everything the transport knows about traffic toward one destination.
struct PeerOut {
    state: ConnState,
    /// Encoded records awaiting the socket, bounded by
    /// [`TcpTuning::writer_queue_cap`].
    queue: VecDeque<(FrameClass, Vec<u8>)>,
    /// Bytes of `queue.front()` already written — partial-write resumption
    /// point. Reset to 0 when a connection dies, replaying the front
    /// record in full on the fresh connection (the receiver discarded the
    /// incomplete copy with the dead connection).
    cursor: usize,
    /// Preamble bytes still unsent on the current connection.
    preamble_left: usize,
    /// Consecutive connect/write failures; at `WRITE_ATTEMPTS` the queue
    /// is drained into the dropped bucket and the counter resets.
    failures: u32,
    /// Next backoff duration (doubles to [`BACKOFF_CAP`], resets on
    /// connect success).
    backoff: Duration,
    /// Loopback read-back pairing for this destination (see the module
    /// docs): which accepted inbound connection is the other end of our
    /// outbound pipe, so fast-path senders can drain it inline.
    read_back: ReadBack,
}

/// Where the bytes written toward a destination come back up, if anywhere.
enum ReadBack {
    /// Not a loopback destination, or no live connection: reactors read.
    Off,
    /// Loopback destination: the paired accepted connection will appear in
    /// the registry under our connection's local address once the listener
    /// reactor accepts it; resolved lazily at the next fast-path send.
    Probe(SocketAddr),
    /// Resolved: senders drain this connection inline after writing.
    On(Arc<Inbound>),
}

impl PeerOut {
    fn new() -> Self {
        PeerOut {
            state: ConnState::Idle,
            queue: VecDeque::new(),
            cursor: 0,
            preamble_left: 0,
            failures: 0,
            backoff: BACKOFF_START,
            read_back: ReadBack::Off,
        }
    }
}

/// Which retry counter a connection failure lands in.
enum FailKind {
    Connect,
    Write,
}

/// Per-reactor shared handle: how other threads reach a reactor.
struct ReactorShared {
    /// Pulls the reactor out of `poll` (send enqueues, shutdown, handoffs).
    waker: Waker,
    /// Accepted inbound connections awaiting adoption by this reactor.
    handoff: Mutex<Vec<Arc<Inbound>>>,
}

struct TcpInner {
    directory: PeerDirectory,
    /// `inboxes[i]` is `Some` iff node `i` is hosted by this transport.
    inboxes: Vec<Option<Inbox>>,
    cfg: LinkConfig,
    seed: u64,
    /// Sender-side sequence (loss draws).
    seq: AtomicU64,
    /// Receiver-side sequence (jitter draws, inbox ordering).
    rseq: AtomicU64,
    // [gossip, decrypt, control] × [messages, bytes, dropped]
    counters: [[AtomicU64; 3]; 3],
    /// Outbound state per destination; destination `p` is owned by reactor
    /// `p % pool`.
    peers: Vec<Mutex<PeerOut>>,
    /// Per-destination attention flag: set (with a wake) when a sender
    /// hands work to the owning reactor. A reactor only locks peers that
    /// are flagged here or that it already tracks as non-steady, so the
    /// per-loop cost is O(active peers), not O(population) — at population
    /// 64 the steady state is every peer Connected with an empty queue,
    /// and the reactor loop touches none of them.
    attention: Vec<AtomicBool>,
    /// One handle per reactor thread.
    reactors: Vec<Arc<ReactorShared>>,
    /// Accepted inbound connections keyed by their accept-time peer
    /// address — the registry a loopback sender resolves its read-back
    /// pairing against ([`ReadBack::Probe`]). The owning reactor removes
    /// an entry when it retires the connection.
    in_by_peer: Mutex<HashMap<SocketAddr, Arc<Inbound>>>,
    tuning: TcpTuning,
    shutdown: AtomicBool,
    /// Gate + bell for `recv_timeout` against a node this transport does
    /// not host: the wait parks here (interruptible, deadline-bounded)
    /// instead of an unconditional `thread::sleep`.
    idle_gate: Mutex<bool>,
    idle_bell: Condvar,
    listen_addr: SocketAddr,
    metrics: Option<TcpMetrics>,
}

impl TcpInner {
    /// Reclassifies a frame that `send` counted as delivered but the
    /// socket path then lost (queue overflow, retry budget exhausted
    /// against a dead peer): each frame must land in exactly **one**
    /// accounting bucket. `dropped` is bumped before the delivered counts
    /// are reversed, so a concurrent snapshot can transiently double-see
    /// the frame but never lose it.
    fn reclassify_lost(&self, class: FrameClass, frame_len: usize) {
        let ci = class as usize;
        self.counters[ci][2].fetch_add(1, Ordering::Relaxed);
        self.counters[ci][0].fetch_sub(1, Ordering::Relaxed);
        self.counters[ci][1].fetch_sub(frame_len as u64, Ordering::Relaxed);
        // The registry counters never decrement: `sent` already counted the
        // attempt, so the loss just lands in `dropped`.
        if let Some(m) = &self.metrics {
            m.transport.on_dropped(ci);
        }
    }

    /// Routes one record parsed off a connection into the local inbox it
    /// addresses, applying the latency/jitter/bandwidth shims.
    fn deliver(&self, rec: TcpRecord) {
        let n = self.directory.len();
        if rec.from >= n || rec.to >= n {
            return; // outside the population: ignore, like any corrupt peer
        }
        let Some(inbox) = self.inboxes[rec.to].as_ref() else {
            return; // not hosted here (stale directory or mischief)
        };
        let seq = self.rseq.fetch_add(1, Ordering::Relaxed);
        let mut delay = self.cfg.latency;
        if !self.cfg.jitter.is_zero() {
            let draw = mix(self.seed ^ seq.wrapping_mul(0xD6E8_FEB8_6659_FD93));
            delay += Duration::from_secs_f64(self.cfg.jitter.as_secs_f64() * unit_f64(draw));
        }
        if let Some(bw) = self.cfg.bandwidth_bytes_per_sec {
            delay += Duration::from_secs_f64(rec.frame.len() as f64 / bw as f64);
        }
        let depth = inbox.schedule(Instant::now() + delay, seq, rec.from, rec.frame);
        if let Some(m) = &self.metrics {
            m.transport.on_scheduled(depth);
        }
    }

    /// Flags `to` for the owning reactor's next pass and rings its waker.
    /// The store happens before the wake, so a reactor roused by the byte
    /// is guaranteed to observe the flag.
    fn wake_owner(&self, to: NodeId) {
        self.attention[to].store(true, Ordering::Release);
        self.reactors[to % self.reactors.len()].waker.wake();
    }

    /// Resolves the destination's read-back pairing: a cheap clone once
    /// `On`, a registry probe while the loopback accept is still in flight
    /// (retried on every fast-path send until it lands), `None` for
    /// non-loopback destinations.
    fn resolve_read_back(&self, st: &mut PeerOut) -> Option<Arc<Inbound>> {
        match &st.read_back {
            ReadBack::Off => None,
            ReadBack::On(inb) => Some(inb.clone()),
            ReadBack::Probe(local) => {
                let found = plock(&self.in_by_peer).get(local).cloned();
                if let Some(inb) = &found {
                    st.read_back = ReadBack::On(inb.clone());
                }
                found
            }
        }
    }

    /// Opportunistically drains one inbound connection: take the duty word
    /// (CAS 0→1), read toward `WouldBlock`, release. If someone else holds
    /// the duty, just leave — exclusivity is all the word has to provide,
    /// because every inbound connection stays registered with its owning
    /// reactor and level-triggered readiness re-reports whatever any drain
    /// leaves behind. (That backstop is not optional: a loopback `write`
    /// is *not* synchronously readable on the accept side — in-flight
    /// segments surface after ACK/cwnd round-trips — so even a drain that
    /// read to `WouldBlock` can miss bytes that arrive a beat later.)
    fn drain_inbound(&self, inb: &Inbound, buf: &mut [u8], budget: usize) {
        if inb
            .duty
            .compare_exchange(0, 1, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return; // someone is reading; the poll backstop covers the rest
        }
        let mut io = plock(&inb.io);
        if !service_inbound(self, &mut io, buf, budget) && !inb.dead.swap(true, Ordering::AcqRel) {
            if let Some(m) = &self.metrics {
                m.inbound_closed.inc();
            }
        }
        drop(io);
        inb.duty.store(0, Ordering::Release);
    }

    /// Sends-or-queues one encoded record toward `to`. Returns `false` on
    /// queue overflow (the caller reclassifies the frame as dropped).
    ///
    /// Fast path: when the connection is up and the preamble is out, the
    /// *sender's thread* drives the write pump right here, under the peer
    /// lock — draining anything queued ahead plus its own record — and
    /// then drains the loopback read-back pairing. The reactor is only
    /// rung for what senders may not do themselves: connects, teardown,
    /// and resuming after real kernel pushback. This keeps the hot path
    /// reactor-free even when a transient backlog has formed (a queue that
    /// only the reactor could drain would otherwise pin every following
    /// send to the reactor's scheduling latency).
    fn submit(&self, to: NodeId, class: FrameClass, record: Vec<u8>) -> bool {
        let mut st = plock(&self.peers[to]);
        if st.queue.len() >= self.tuning.writer_queue_cap {
            return false;
        }
        let was_empty = st.queue.is_empty();
        st.queue.push_back((class, record));
        if matches!(st.state, ConnState::Connected { .. }) && st.preamble_left == 0 {
            let PeerOut {
                state,
                queue,
                cursor,
                preamble_left,
                ..
            } = &mut *st;
            let ConnState::Connected { stream } = state else {
                unreachable!()
            };
            let alive = self.drive_writes(stream, queue, cursor, preamble_left);
            if !alive || !st.queue.is_empty() {
                // Death or kernel pushback: only the owning reactor may
                // tear down or hold POLLOUT interest. Either way the queue
                // is nonempty (a dead write never completes the front
                // record), so the reactor's registration pass will find
                // poll interest to arm.
                drop(st);
                self.wake_owner(to);
                return true;
            }
            // Everything written: drain the paired loopback inbound from
            // this thread and skip the reactor entirely.
            let rb = self.resolve_read_back(&mut st);
            drop(st);
            if let Some(inb) = rb {
                let mut buf = [0u8; READ_BACK_BUF_BYTES];
                self.drain_inbound(&inb, &mut buf, usize::MAX);
            }
            return true;
        }
        drop(st);
        if was_empty {
            // Empty→nonempty transition on a not-yet-writable peer: ring
            // the owner to connect / finish the preamble. A nonempty queue
            // already has POLLOUT interest or a backoff timer pending.
            self.wake_owner(to);
        }
        true
    }

    /// Registers one connect/write failure: bumps the right retry counter,
    /// arms the backoff timer, and — once the consecutive-failure budget is
    /// spent — drains the whole queue into the dropped bucket.
    fn conn_failure(&self, st: &mut PeerOut, now: Instant, kind: FailKind) {
        if let Some(m) = &self.metrics {
            match kind {
                FailKind::Connect => m.connect_retries.inc(),
                FailKind::Write => m.write_retries.inc(),
            }
        }
        st.cursor = 0;
        st.preamble_left = 0;
        // The outbound pipe died, so its paired inbound half (if any) is
        // dead too: flag it so the owning reactor retires it, and stop
        // senders from draining a corpse.
        if let ReadBack::On(inb) = std::mem::replace(&mut st.read_back, ReadBack::Off) {
            inb.dead.store(true, Ordering::Release);
        }
        st.failures += 1;
        if st.failures >= WRITE_ATTEMPTS {
            st.failures = 0;
            // The peer has outlived the retry budget: everything queued
            // toward it is lost (and counted) — never a wedged sender.
            while let Some((class, rec)) = st.queue.pop_front() {
                self.reclassify_lost(class, rec.len() - RECORD_HEADER_BYTES);
            }
        }
        st.state = ConnState::Backoff {
            until: now + st.backoff,
        };
        if let Some(m) = &self.metrics {
            m.backoff_sleeps.inc();
        }
        st.backoff = (st.backoff * 2).min(BACKOFF_CAP);
    }

    /// Starts a nonblocking connect toward `p`; returns the timer deadline
    /// the reactor must wake at.
    fn begin_connect(&self, p: NodeId, st: &mut PeerOut, now: Instant) -> Option<Instant> {
        match poll::connect_nonblocking(&self.directory.addr(p)) {
            Ok(stream) => {
                st.state = ConnState::Connecting {
                    stream,
                    started: now,
                };
                Some(now + poll::CONNECT_TIMEOUT)
            }
            Err(_) => {
                self.conn_failure(st, now, FailKind::Connect);
                match st.state {
                    ConnState::Backoff { until } => Some(until),
                    _ => None,
                }
            }
        }
    }

    /// Advances `p`'s state machine on the timer axis (demand-driven
    /// connects, backoff expiry, connect deadlines) and reports the
    /// nearest deadline the owner must poll-wake for.
    fn tick(&self, p: NodeId, st: &mut PeerOut, now: Instant) -> Option<Instant> {
        loop {
            match st.state {
                ConnState::Idle => {
                    return if st.queue.is_empty() {
                        None
                    } else {
                        self.begin_connect(p, st, now)
                    };
                }
                ConnState::Backoff { until } => {
                    if now < until {
                        return Some(until);
                    }
                    if st.queue.is_empty() {
                        st.state = ConnState::Idle;
                        return None;
                    }
                    return self.begin_connect(p, st, now);
                }
                ConnState::Connecting { started, .. } => {
                    let deadline = started + poll::CONNECT_TIMEOUT;
                    if now < deadline {
                        return Some(deadline);
                    }
                    // Connect deadline blown: close the stalled stream and
                    // loop to report the backoff deadline.
                    st.state = ConnState::Idle;
                    self.conn_failure(st, now, FailKind::Connect);
                }
                ConnState::Connected { .. } => return None,
            }
        }
    }

    /// Writability event on `p`'s socket: resolve an in-flight connect
    /// and/or flush the preamble and queued records.
    fn on_writable(&self, p: NodeId, st: &mut PeerOut, now: Instant) {
        if matches!(st.state, ConnState::Connecting { .. }) {
            let ConnState::Connecting { stream, .. } =
                std::mem::replace(&mut st.state, ConnState::Idle)
            else {
                unreachable!()
            };
            // Writable while connecting means the connect resolved;
            // SO_ERROR says which way.
            match stream.take_error() {
                Ok(None) => {
                    // A connection to our own listener loops straight back
                    // into this process: arm the read-back probe with the
                    // local address the accept side will see as its peer.
                    st.read_back = match stream.local_addr() {
                        Ok(local) if self.directory.addr(p) == self.listen_addr => {
                            ReadBack::Probe(local)
                        }
                        _ => ReadBack::Off,
                    };
                    st.state = ConnState::Connected { stream };
                    st.preamble_left = PREAMBLE_BYTES;
                    st.failures = 0;
                    st.backoff = BACKOFF_START;
                    if let Some(m) = &self.metrics {
                        m.connects.inc();
                    }
                }
                Ok(Some(_)) | Err(_) => {
                    self.conn_failure(st, now, FailKind::Connect);
                    return;
                }
            }
        }
        self.flush(st, now);
    }

    /// Pushes preamble and queued records into a connected stream until the
    /// kernel pushes back, the queue drains, or the connection dies.
    fn flush(&self, st: &mut PeerOut, now: Instant) {
        let PeerOut {
            state,
            queue,
            cursor,
            preamble_left,
            ..
        } = st;
        let ConnState::Connected { stream } = state else {
            return;
        };
        let alive = self.drive_writes(stream, queue, cursor, preamble_left);
        if !alive {
            st.state = ConnState::Idle;
            self.conn_failure(st, now, FailKind::Write);
        }
    }

    /// The write pump behind [`TcpInner::flush`]; `false` means the
    /// connection died and the owner must retire it.
    fn drive_writes(
        &self,
        stream: &mut TcpStream,
        queue: &mut VecDeque<(FrameClass, Vec<u8>)>,
        cursor: &mut usize,
        preamble_left: &mut usize,
    ) -> bool {
        while *preamble_left > 0 {
            let pre = preamble();
            match stream.write(&pre[PREAMBLE_BYTES - *preamble_left..]) {
                Ok(0) => return true,
                Ok(k) => *preamble_left -= k,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                Err(_) => return false,
            }
        }
        loop {
            enum Outcome {
                Completed,
                Suspended,
                Died,
            }
            let outcome = {
                let Some((_, rec)) = queue.front() else {
                    return true; // drained: POLLOUT interest lapses
                };
                loop {
                    match stream.write(&rec[*cursor..]) {
                        Ok(0) => break Outcome::Suspended,
                        Ok(k) => {
                            *cursor += k;
                            if *cursor == rec.len() {
                                break Outcome::Completed;
                            }
                        }
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            break Outcome::Suspended
                        }
                        Err(_) => break Outcome::Died,
                    }
                }
            };
            match outcome {
                Outcome::Completed => {
                    queue.pop_front();
                    *cursor = 0;
                }
                Outcome::Suspended => {
                    // Mid-record suspension: resumption point kept in
                    // `cursor`, surfaced as a partial-write event.
                    if *cursor > 0 {
                        if let Some(m) = &self.metrics {
                            m.write_partials.inc();
                        }
                    }
                    return true;
                }
                Outcome::Died => return false,
            }
        }
    }
}

/// The TCP socket transport (see the module docs for the stream format,
/// the reactor, and accounting semantics).
pub struct TcpTransport {
    inner: Arc<TcpInner>,
    threads: Mutex<Vec<thread::JoinHandle<()>>>,
}

impl TcpTransport {
    /// One-call constructor for the in-process loopback substrate: binds an
    /// ephemeral localhost listener and hosts the *entire* population of
    /// `n` nodes behind it, so every exchange crosses a real kernel socket
    /// while the node threads stay in one process. `tuning` and `registry`
    /// as in [`TcpEndpoint::into_transport`].
    pub fn loopback(
        n: usize,
        cfg: LinkConfig,
        seed: u64,
        tuning: TcpTuning,
        registry: Option<&Registry>,
    ) -> io::Result<TcpTransport> {
        let endpoint = TcpEndpoint::bind("127.0.0.1:0")?;
        let addr = endpoint.local_addr()?;
        let local: Vec<NodeId> = (0..n).collect();
        let directory = PeerDirectory::new(vec![addr; n]);
        Ok(endpoint.into_transport(&local, directory, cfg, seed, tuning, registry))
    }

    #[allow(clippy::too_many_arguments)]
    fn start(
        listener: TcpListener,
        local: &[NodeId],
        directory: PeerDirectory,
        cfg: LinkConfig,
        seed: u64,
        tuning: TcpTuning,
        metrics: Option<TcpMetrics>,
    ) -> TcpTransport {
        let n = directory.len();
        // Outside input to a daemon, which checks both where they arrive.
        assert!(n >= 2, "need at least two nodes");
        assert!(cfg.validate().is_ok(), "unvalidated link: {cfg:?}");
        let mut inboxes: Vec<Option<Inbox>> = (0..n).map(|_| None).collect();
        for &id in local {
            assert!(id < n, "local node outside the directory");
            inboxes[id] = Some(Inbox::new());
        }
        let inboxes_full = inboxes.iter().all(|i| i.is_some());
        let listen_addr = listener.local_addr().expect("listener has an address");
        listener
            .set_nonblocking(true)
            .expect("nonblocking listener");
        let reactors: Vec<Arc<ReactorShared>> = (0..REACTOR_THREADS)
            .map(|_| {
                Arc::new(ReactorShared {
                    waker: Waker::new().expect("reactor waker"),
                    handoff: Mutex::new(Vec::new()),
                })
            })
            .collect();
        let inner = Arc::new(TcpInner {
            directory,
            inboxes,
            cfg,
            seed,
            seq: AtomicU64::new(0),
            rseq: AtomicU64::new(0),
            counters: Default::default(),
            peers: (0..n).map(|_| Mutex::new(PeerOut::new())).collect(),
            attention: (0..n).map(|_| AtomicBool::new(false)).collect(),
            reactors,
            in_by_peer: Mutex::new(HashMap::new()),
            tuning,
            shutdown: AtomicBool::new(false),
            idle_gate: Mutex::new(false),
            idle_bell: Condvar::new(),
            listen_addr,
            metrics,
        });
        // Full-loopback prewarm: when this transport hosts the entire
        // population, every destination is its own listener and the whole
        // mesh is known-connectable right now — so start the nonblocking
        // connects before the reactors (and the caller's node threads)
        // exist, while the machine is quiet. Without this, bring-up
        // (connect → accept → preamble) serializes behind reactor
        // scheduling just as the population starts hammering `send`, and
        // on a loaded core the whole first burst of traffic falls into
        // reactor-paced batches. The reactors adopt these connections via
        // the attention flags on their first pass, exactly as if a sender
        // had kicked them.
        if inboxes_full {
            let now = Instant::now();
            for (p, peer) in inner.peers.iter().enumerate() {
                let mut st = plock(peer);
                if let Ok(stream) = poll::connect_nonblocking(&inner.directory.addr(p)) {
                    st.state = ConnState::Connecting {
                        stream,
                        started: now,
                    };
                    inner.attention[p].store(true, Ordering::Release);
                }
            }
        }
        let mut listener = Some(listener);
        let threads = (0..REACTOR_THREADS)
            .map(|r| {
                let inner = inner.clone();
                let l = if r == 0 { listener.take() } else { None };
                thread::Builder::new()
                    .name(format!("cs-tcp-reactor-{r}"))
                    .spawn(move || reactor_loop(inner, r, l))
                    .expect("spawn reactor thread")
            })
            .collect();
        TcpTransport {
            inner,
            threads: Mutex::new(threads),
        }
    }

    /// The address this transport's listener is bound to.
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.listen_addr
    }

    /// Population size.
    pub fn node_count(&self) -> usize {
        self.inner.directory.len()
    }

    /// Queues `frame` from `from` toward `to`'s inbox. Returns the number
    /// of bytes put on the wire. Sends are fire-and-forget: loss is applied
    /// inside, and the sender cannot observe it.
    pub fn send(
        &self,
        from: NodeId,
        to: NodeId,
        frame: Vec<u8>,
        class: FrameClass,
    ) -> Result<usize, NetError> {
        let n = self.inner.directory.len();
        if from >= n {
            return Err(NetError::UnknownPeer {
                node: from,
                population: n,
            });
        }
        if to >= n {
            return Err(NetError::UnknownPeer {
                node: to,
                population: n,
            });
        }
        if frame.len() > MAX_FRAME_BYTES {
            return Err(NetError::FrameTooLarge(frame.len()));
        }
        let len = frame.len();
        let ci = class as usize;
        let seq = self.inner.seq.fetch_add(1, Ordering::Relaxed);
        let draw = mix(self.inner.seed ^ seq.wrapping_mul(0xA076_1D64_78BD_642F));
        if let Some(m) = &self.inner.metrics {
            m.transport.on_sent(ci, len);
        }
        if self.inner.cfg.loss > 0.0 && unit_f64(draw) < self.inner.cfg.loss {
            self.inner.counters[ci][2].fetch_add(1, Ordering::Relaxed);
            if let Some(m) = &self.inner.metrics {
                m.transport.on_dropped(ci);
            }
            return Ok(len);
        }
        self.inner.counters[ci][0].fetch_add(1, Ordering::Relaxed);
        self.inner.counters[ci][1].fetch_add(len as u64, Ordering::Relaxed);
        let record = encode_record(from, to, &frame);
        if !self.inner.submit(to, class, record) {
            // Congestion collapse toward this peer: the frame is lost.
            if let Some(m) = &self.inner.metrics {
                m.writer_overflow.inc();
            }
            self.inner.reclassify_lost(class, len);
        }
        Ok(len)
    }

    /// Non-blocking receive at node `at`.
    pub fn try_recv(&self, at: NodeId) -> Option<Envelope> {
        self.inner.inboxes[at].as_ref()?.pop_timeout(Duration::ZERO)
    }

    /// Blocking receive at node `at`, up to `timeout`.
    pub fn recv_timeout(&self, at: NodeId, timeout: Duration) -> Option<Envelope> {
        match self.inner.inboxes[at].as_ref() {
            Some(inbox) => inbox.pop_timeout(timeout),
            None => {
                // No inbox will ever fill for a node this transport does
                // not host, but the wait must still be deadline-bounded
                // and interruptible by shutdown — park on the idle bell
                // instead of an unconditional full-timeout sleep.
                let deadline = Instant::now() + timeout;
                let mut down = plock(&self.inner.idle_gate);
                loop {
                    if *down {
                        return None;
                    }
                    let now = Instant::now();
                    if now >= deadline {
                        return None;
                    }
                    down = self
                        .inner
                        .idle_bell
                        .wait_timeout(down, deadline - now)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0;
                }
            }
        }
    }

    /// Current traffic counters.
    pub fn snapshot(&self) -> TrafficSnapshot {
        TrafficSnapshot::read(|ci, cell| self.inner.counters[ci][cell].load(Ordering::Relaxed))
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        for r in &self.inner.reactors {
            r.waker.wake();
        }
        let handles = std::mem::take(&mut *plock(&self.threads));
        for h in handles {
            let _ = h.join();
        }
        // Release any recv_timeout waiter parked on a node we don't host.
        *plock(&self.inner.idle_gate) = true;
        self.inner.idle_bell.notify_all();
    }
}

fn retryable(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut | io::ErrorKind::Interrupted
    )
}

/// One accepted inbound connection: preamble progress + record reassembly.
struct InConn {
    stream: TcpStream,
    assembler: FrameReassembler,
    pre: [u8; PREAMBLE_BYTES],
    pre_got: usize,
}

/// One accepted inbound connection, shared between the owning reactor and
/// — once loopback-paired — the sender threads that drain it inline.
struct Inbound {
    /// Raw descriptor, cached at accept (stable for the socket's life).
    fd: i32,
    /// Accept-time peer address. For a loopback connection this is the
    /// *connector's* local address — the key a sender pairs itself by.
    peer: SocketAddr,
    /// The stream hit EOF / error / corruption; the owning reactor retires
    /// it (unmaps, closes) on its next pass.
    dead: AtomicBool,
    /// Drain-duty word — 0 idle, 1 draining. See
    /// `TcpInner::drain_inbound`.
    duty: AtomicU8,
    /// The readable half's cursor state. Only the duty owner locks this,
    /// so the mutex is uncontended; it exists to hand the owner `&mut`.
    io: Mutex<InConn>,
}

impl Inbound {
    fn adopt(stream: TcpStream, peer: SocketAddr) -> Arc<Inbound> {
        Arc::new(Inbound {
            fd: poll::fd_of(&stream),
            peer,
            dead: AtomicBool::new(false),
            duty: AtomicU8::new(0),
            io: Mutex::new(InConn {
                stream,
                assembler: FrameReassembler::new(),
                pre: [0u8; PREAMBLE_BYTES],
                pre_got: 0,
            }),
        })
    }
}

/// What a reactor registered each poll slot for.
enum Tag {
    Waker,
    Listener,
    In(usize),
    Out(NodeId),
}

/// One reactor thread: adopts handed-off inbound connections, advances the
/// timers of the outbound peers it owns, then parks in `poll` across the
/// waker, the listener (thread 0), every inbound socket, and every
/// outbound socket with pending work — and services whatever comes back
/// ready. All per-peer state transitions happen here, under the peer lock.
///
/// A stream is closed where it is retired: `poll(2)` keeps no interest set
/// between calls, and every descriptor in one pass's list belongs to an
/// object this reactor holds until the pass ends (an entry of `inbound`,
/// or the state of a peer only this reactor tears down). So none is closed
/// — and its number reused — while the `poll` watching it runs, and
/// readiness maps back by slot (`tags`), never by number.
fn reactor_loop(inner: Arc<TcpInner>, r: usize, listener: Option<TcpListener>) {
    let pool = inner.reactors.len();
    let shared = inner.reactors[r].clone();
    let owned: Vec<NodeId> = (0..inner.directory.len())
        .filter(|p| p % pool == r)
        .collect();
    let mut inbound: Vec<Arc<Inbound>> = Vec::new();
    let mut rr = r; // round-robin dealing point for accepted connections
    let mut buf = vec![0u8; READ_BUF_BYTES];
    let mut fds: Vec<PollFd> = Vec::new();
    let mut tags: Vec<Tag> = Vec::new();
    // Owned peers this reactor must keep touching: anything with a pending
    // timer or poll interest. A steady peer (Connected, nothing queued) is
    // *not* tracked — the sender fast path services it without the reactor
    // and re-flags attention when it needs one — so this loop's per-pass
    // cost is O(active), not O(owned). Everything starts active for the
    // first pass.
    let mut active = vec![true; owned.len()];
    while !inner.shutdown.load(Ordering::Acquire) {
        inbound.append(&mut plock(&shared.handoff));
        // Retire dead connections before building poll interest: unmap
        // each from the pairing registry and let the last Arc close it.
        inbound.retain(|c| {
            if c.dead.load(Ordering::Acquire) {
                plock(&inner.in_by_peer).remove(&c.peer);
                false
            } else {
                true
            }
        });
        let now = Instant::now();
        let mut horizon = now + POLL_HORIZON;
        fds.clear();
        tags.clear();
        if let Some(wfd) = shared.waker.fd() {
            fds.push(PollFd::new(wfd, POLL_IN));
            tags.push(Tag::Waker);
        }
        if let Some(l) = &listener {
            fds.push(PollFd::new(poll::fd_of(l), POLL_IN));
            tags.push(Tag::Listener);
        }
        for (i, c) in inbound.iter().enumerate() {
            // Paired connections stay in the list too: the backstop for
            // bytes a sender's inline drain missed (see the module docs).
            // When the drain got everything first, the wakeup finds
            // nothing and costs one vacuous pass per burst, not per record.
            fds.push(PollFd::new(c.fd, POLL_IN));
            tags.push(Tag::In(i));
        }
        for (j, &p) in owned.iter().enumerate() {
            if !inner.attention[p].swap(false, Ordering::AcqRel) && !active[j] {
                continue; // steady: nothing queued, no timer, no interest
            }
            let mut st = plock(&inner.peers[p]);
            let deadline = inner.tick(p, &mut st, now);
            if let Some(d) = deadline {
                horizon = horizon.min(d);
            }
            let fd = match &st.state {
                ConnState::Connecting { stream, .. } => Some(poll::fd_of(stream)),
                ConnState::Connected { stream } if st.preamble_left > 0 || !st.queue.is_empty() => {
                    Some(poll::fd_of(stream))
                }
                _ => None,
            };
            active[j] = deadline.is_some() || fd.is_some();
            if let Some(fd) = fd {
                fds.push(PollFd::new(fd, POLL_OUT));
                tags.push(Tag::Out(p));
            }
        }
        let timeout = horizon.saturating_duration_since(Instant::now());
        poll::poll_fds(&mut fds, timeout);
        if inner.shutdown.load(Ordering::Acquire) {
            return;
        }
        for (fd, tag) in fds.iter().zip(tags.iter()) {
            match tag {
                Tag::Waker => {
                    if fd.readable() {
                        shared.waker.drain();
                    }
                }
                Tag::Listener => {
                    if fd.readable() {
                        if let Some(l) = &listener {
                            accept_ready(&inner, l, pool, r, &mut rr, &mut inbound);
                        }
                    }
                }
                Tag::In(i) => {
                    if fd.readable() {
                        // Death lands in the `dead` flag; the retire pass
                        // at the top of the next iteration buries it.
                        inner.drain_inbound(&inbound[*i], &mut buf, READ_BUDGET);
                    }
                }
                Tag::Out(p) => {
                    if fd.writable() {
                        let mut st = plock(&inner.peers[*p]);
                        inner.on_writable(*p, &mut st, Instant::now());
                        // Queue-path writes land bytes on the paired
                        // inbound connection just like fast-path ones;
                        // drain it now rather than waiting a poll cycle
                        // for the level-triggered readiness to report it.
                        let rb = inner.resolve_read_back(&mut st);
                        drop(st);
                        if let Some(inb) = rb {
                            inner.drain_inbound(&inb, &mut buf, usize::MAX);
                        }
                    }
                }
            }
        }
    }
}

/// Drains the (nonblocking) listener, dealing accepted connections
/// round-robin across the reactor pool.
fn accept_ready(
    inner: &Arc<TcpInner>,
    listener: &TcpListener,
    pool: usize,
    me: usize,
    rr: &mut usize,
    inbound: &mut Vec<Arc<Inbound>>,
) {
    loop {
        match listener.accept() {
            Ok((s, peer)) => {
                let _ = s.set_nodelay(true);
                if s.set_nonblocking(true).is_err() {
                    continue;
                }
                let conn = Inbound::adopt(s, peer);
                plock(&inner.in_by_peer).insert(peer, conn.clone());
                let target = *rr % pool;
                *rr += 1;
                if target == me {
                    inbound.push(conn);
                } else {
                    plock(&inner.reactors[target].handoff).push(conn);
                    inner.reactors[target].waker.wake();
                }
            }
            Err(e) if retryable(&e) => return,
            Err(_) => {
                // Persistent accept errors (e.g. fd exhaustion) must not
                // peg a core on a hot listener — yield briefly and let the
                // population release descriptors.
                thread::sleep(Duration::from_millis(5));
                return;
            }
        }
    }
}

/// Reads one inbound connection until the kernel runs dry (or the read
/// budget is spent), validating the preamble and delivering every complete
/// record. Returns `false` when the connection must be retired (EOF, error,
/// bad preamble, corrupt stream).
fn service_inbound(inner: &TcpInner, conn: &mut InConn, buf: &mut [u8], budget: usize) -> bool {
    for _ in 0..budget {
        if conn.pre_got < PREAMBLE_BYTES {
            match conn.stream.read(&mut conn.pre[conn.pre_got..]) {
                Ok(0) => return false,
                Ok(k) => {
                    conn.pre_got += k;
                    if conn.pre_got == PREAMBLE_BYTES
                        && (conn.pre[0..4] != TCP_MAGIC || conn.pre[4] != WIRE_VERSION)
                    {
                        return false; // wrong protocol or version: refuse
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                Err(_) => return false,
            }
            continue;
        }
        match conn.stream.read(buf) {
            Ok(0) => return false,
            Ok(k) => {
                conn.assembler.push(&buf[..k]);
                loop {
                    match conn.assembler.next_record() {
                        Ok(Some(rec)) => inner.deliver(rec),
                        Ok(None) => break,
                        Err(_) => return false, // corrupt stream: drop it
                    }
                }
                // A read that came up short of the buffer almost certainly
                // drained the kernel; skip the confirming `WouldBlock`
                // read — level-triggered readiness re-reports any racing
                // arrival, so the only cost of guessing wrong is one more
                // wakeup, while guessing right halves the read syscalls.
                if k < buf.len() {
                    return true;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
            Err(_) => return false,
        }
    }
    true // budget spent; poll will re-report the remainder
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{decode_frame, encode_frame, Message};

    fn frame(node: u64) -> Vec<u8> {
        encode_frame(&Message::Leave { node })
    }

    fn loopback(n: usize, cfg: LinkConfig, seed: u64) -> TcpTransport {
        TcpTransport::loopback(n, cfg, seed, TcpTuning::default(), None).unwrap()
    }

    /// A 2-node population split over two transports, node `i` behind the
    /// `i`-th.
    fn pair(seed: u64) -> (TcpTransport, TcpTransport) {
        let ends = [(); 2].map(|()| TcpEndpoint::bind("127.0.0.1:0").unwrap());
        let dir = PeerDirectory::new(ends.iter().map(|e| e.local_addr().unwrap()).collect());
        let [a, b] = ends;
        let wire = |end: TcpEndpoint, id| {
            let cfg = LinkConfig::ideal();
            end.into_transport(&[id], dir.clone(), cfg, seed, TcpTuning::default(), None)
        };
        (wire(a, 0), wire(b, 1))
    }

    #[test]
    fn records_roundtrip_through_the_reassembler_whole() {
        let mut r = FrameReassembler::new();
        r.push(&encode_record(3, 5, &frame(7)));
        let rec = r.next_record().unwrap().unwrap();
        assert_eq!(rec.from, 3);
        assert_eq!(rec.to, 5);
        assert_eq!(
            decode_frame(&rec.frame).unwrap(),
            Message::Leave { node: 7 }
        );
        assert!(r.next_record().unwrap().is_none());
        assert_eq!(r.pending(), 0);
    }

    #[test]
    fn reassembler_handles_byte_at_a_time_input() {
        let mut stream = Vec::new();
        for i in 0..4u64 {
            stream.extend_from_slice(&encode_record(i as usize, 0, &frame(i)));
        }
        let mut r = FrameReassembler::new();
        let mut out = Vec::new();
        for b in &stream {
            r.push(std::slice::from_ref(b));
            while let Some(rec) = r.next_record().unwrap() {
                out.push(rec);
            }
        }
        assert_eq!(out.len(), 4);
        for (i, rec) in out.iter().enumerate() {
            assert_eq!(rec.from, i);
            assert_eq!(
                decode_frame(&rec.frame).unwrap(),
                Message::Leave { node: i as u64 }
            );
        }
    }

    #[test]
    fn reassembler_rejects_absurd_length_prefixes() {
        let mut rec = encode_record(0, 1, &frame(1));
        // Corrupt the frame length prefix (bytes 8..12) to an absurd value.
        rec[8..12].copy_from_slice(&(u32::MAX).to_le_bytes());
        let mut r = FrameReassembler::new();
        r.push(&rec);
        assert!(matches!(r.next_record(), Err(WireError::RecordTooLarge(_))));
    }

    #[test]
    fn record_cap_is_checked_before_any_buffering_decision() {
        // Exactly at the cap: structurally fine (just incomplete); one over:
        // typed rejection from the 12 header bytes alone.
        let at_cap = (MAX_FRAME_BYTES as u32).to_le_bytes();
        let mut r = FrameReassembler::new();
        let mut header = vec![0u8; RECORD_HEADER_BYTES];
        header.extend_from_slice(&at_cap);
        r.push(&header);
        assert!(r.next_record().unwrap().is_none());

        let over = (MAX_FRAME_BYTES as u32 + 1).to_le_bytes();
        let mut r = FrameReassembler::new();
        let mut header = vec![0u8; RECORD_HEADER_BYTES];
        header.extend_from_slice(&over);
        r.push(&header);
        match r.next_record() {
            Err(WireError::RecordTooLarge(n)) => assert_eq!(n, MAX_RECORD_LEN + 1),
            other => panic!("expected RecordTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn loopback_delivers_frames_with_sender_identity() {
        let t = loopback(3, LinkConfig::ideal(), 1);
        t.send(0, 2, frame(7), FrameClass::Control).unwrap();
        let env = t.recv_timeout(2, Duration::from_secs(5)).unwrap();
        assert_eq!(env.from, 0);
        assert_eq!(
            decode_frame(&env.frame).unwrap(),
            Message::Leave { node: 7 }
        );
        assert!(t.try_recv(0).is_none());
    }

    #[test]
    fn loopback_orders_many_frames_per_pair() {
        let t = Arc::new(loopback(2, LinkConfig::ideal(), 2));
        for i in 0..200 {
            t.send(0, 1, frame(i), FrameClass::Gossip).unwrap();
        }
        let mut got = 0;
        while got < 200 {
            match t.recv_timeout(1, Duration::from_secs(5)) {
                Some(_) => got += 1,
                None => break,
            }
        }
        assert_eq!(got, 200);
        let snap = t.snapshot();
        assert_eq!(snap.gossip.messages, 200);
        assert_eq!(snap.gossip.bytes, 200 * frame(0).len() as u64);
    }

    #[test]
    fn scripted_loss_draws_at_the_sender() {
        let cfg = LinkConfig {
            loss: 1.0,
            ..LinkConfig::ideal()
        };
        let t = loopback(2, cfg, 3);
        for _ in 0..10 {
            t.send(0, 1, frame(1), FrameClass::Gossip).unwrap();
        }
        assert!(t.recv_timeout(1, Duration::from_millis(100)).is_none());
        let snap = t.snapshot();
        assert_eq!(snap.gossip.dropped, 10);
        assert_eq!(snap.gossip.messages, 0);
    }

    #[test]
    fn latency_shim_delays_delivery() {
        let cfg = LinkConfig {
            latency: Duration::from_millis(50),
            ..LinkConfig::ideal()
        };
        let t = loopback(2, cfg, 4);
        let sent_at = Instant::now();
        t.send(0, 1, frame(1), FrameClass::Control).unwrap();
        let env = t.recv_timeout(1, Duration::from_secs(5)).unwrap();
        assert!(sent_at.elapsed() >= Duration::from_millis(50));
        assert_eq!(env.from, 0);
    }

    #[test]
    fn unknown_peer_and_oversized_frames_rejected() {
        let t = loopback(2, LinkConfig::ideal(), 5);
        assert!(matches!(
            t.send(0, 9, frame(1), FrameClass::Control),
            Err(NetError::UnknownPeer { node: 9, .. })
        ));
        assert!(matches!(
            t.send(9, 0, frame(1), FrameClass::Control),
            Err(NetError::UnknownPeer { node: 9, .. })
        ));
        let huge = vec![0u8; MAX_FRAME_BYTES + 1];
        assert!(matches!(
            t.send(0, 1, huge, FrameClass::Gossip),
            Err(NetError::FrameTooLarge(_))
        ));
    }

    #[test]
    fn sends_to_a_dead_peer_degrade_into_loss() {
        // Two transports forming a 2-node population; node 1's endpoint is
        // dropped (its listener closes), then node 0 keeps sending. The
        // reactor must burn its retry budget and count drops — and the
        // sender must never block.
        let (ta, tb) = pair(6);

        ta.send(0, 1, frame(1), FrameClass::Gossip).unwrap();
        assert!(tb.recv_timeout(1, Duration::from_secs(5)).is_some());
        drop(tb); // peer dies

        // The first writes after the peer dies may still land in the kernel
        // buffer before the RST comes back — loss detection is eventual, so
        // keep sending until the reactor notices. What must hold throughout:
        // `send` never blocks, and drops are eventually counted.
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut i = 0u64;
        while ta.snapshot().gossip.dropped == 0 && Instant::now() < deadline {
            let start = Instant::now();
            ta.send(0, 1, frame(i), FrameClass::Gossip).unwrap();
            assert!(
                start.elapsed() < Duration::from_millis(200),
                "send must stay non-blocking"
            );
            i += 1;
            thread::sleep(Duration::from_millis(10));
        }
        assert!(
            ta.snapshot().gossip.dropped >= 1,
            "dead-peer frames must be counted dropped: {:?}",
            ta.snapshot()
        );
    }

    #[test]
    fn two_processes_worth_of_endpoints_exchange_both_ways() {
        let (ta, tb) = pair(7);
        for i in 0..20 {
            ta.send(0, 1, frame(i), FrameClass::Gossip).unwrap();
            tb.send(1, 0, frame(100 + i), FrameClass::Decrypt).unwrap();
        }
        for _ in 0..20 {
            assert!(tb.recv_timeout(1, Duration::from_secs(5)).is_some());
            assert!(ta.recv_timeout(0, Duration::from_secs(5)).is_some());
        }
        assert_eq!(ta.snapshot().gossip.messages, 20);
        assert_eq!(tb.snapshot().decrypt.messages, 20);
    }
}
