//! Reactor-specific integration tests for the TCP transport: partial-write
//! resumption against a slow-reading peer, backpressure overflow accounting,
//! reconnect-under-backoff determinism of the loss counters, reconnection to
//! a restarted peer, sub-timeout `recv_timeout` wakeups, and the O(pool)
//! resident-thread bound.

use cs_net::tcp::{FrameReassembler, PeerDirectory, TcpEndpoint, TcpTransport, WRITER_QUEUE_CAP};
use cs_net::wire::FrameClass;
use cs_net::LinkConfig;
use cs_obs::Registry;
use std::io::Read;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// A structurally valid pseudo-frame of `total` bytes: 4-byte length prefix
/// plus a deterministic body. `send` never decodes frames, and the record
/// reassembler only needs the prefix to be consistent, so tests can move
/// bulk data without paying real message encoding.
fn pseudo_frame(total: usize, tag: u8) -> Vec<u8> {
    assert!(total >= 4);
    let body = total - 4;
    let mut f = Vec::with_capacity(total);
    f.extend_from_slice(&(body as u32).to_le_bytes());
    f.extend((0..body).map(|i| (i as u8).wrapping_add(tag)));
    f
}

/// Directory of two nodes: node 0 at the transport's listener, node 1 at a
/// raw test-controlled socket address.
fn two_node_dir(endpoint: &TcpEndpoint, peer: std::net::SocketAddr) -> PeerDirectory {
    PeerDirectory::new(vec![endpoint.local_addr().unwrap(), peer])
}

/// Satellite regression: `recv_timeout` on a hosted node must wake when a
/// frame arrives, not burn the whole timeout.
#[test]
fn recv_timeout_wakes_well_before_the_deadline_on_arrival() {
    let t = Arc::new(TcpTransport::loopback(2, LinkConfig::ideal(), 11, None).unwrap());
    let sender = t.clone();
    let h = thread::spawn(move || {
        thread::sleep(Duration::from_millis(100));
        sender
            .send(0, 1, pseudo_frame(32, 1), FrameClass::Control)
            .unwrap();
    });
    let start = Instant::now();
    let env = t.recv_timeout(1, Duration::from_secs(10));
    let waited = start.elapsed();
    h.join().unwrap();
    assert!(env.is_some(), "the frame must arrive");
    assert!(
        waited < Duration::from_secs(5),
        "arrival must interrupt the wait, not ride out the timeout (waited {waited:?})"
    );
}

/// The non-hosted branch of `recv_timeout` must return at the deadline —
/// bounded, not a hair-trigger spin and not an oversleep.
#[test]
fn recv_timeout_for_an_unhosted_node_is_deadline_bounded() {
    let a = TcpEndpoint::bind("127.0.0.1:0").unwrap();
    let addr = a.local_addr().unwrap();
    let dir = PeerDirectory::new(vec![addr, addr]);
    let t = a.into_transport(&[0], dir, LinkConfig::ideal(), 12, None);
    let start = Instant::now();
    assert!(t.recv_timeout(1, Duration::from_millis(200)).is_none());
    let waited = start.elapsed();
    assert!(
        waited >= Duration::from_millis(200),
        "must honor the timeout"
    );
    assert!(
        waited < Duration::from_secs(2),
        "must not oversleep the deadline (waited {waited:?})"
    );
}

/// Partial-write resumption: a peer that stalls and then drains slowly (the
/// first bytes one at a time) forces the sender through kernel-buffer
/// pushback; every record must still arrive complete, in order, and
/// byte-identical, with the suspensions surfaced on `tcp.write.partials`.
#[test]
fn partial_writes_resume_without_corruption_against_a_slow_reader() {
    const RECORDS: usize = 60;
    const FRAME_BYTES: usize = 256 * 1024;

    let fake_peer = TcpListener::bind("127.0.0.1:0").unwrap();
    let peer_addr = fake_peer.local_addr().unwrap();
    let endpoint = TcpEndpoint::bind("127.0.0.1:0").unwrap();
    let dir = two_node_dir(&endpoint, peer_addr);
    let registry = Registry::new();
    let t = endpoint.into_transport(&[0], dir, LinkConfig::ideal(), 13, Some(&registry));

    let frames: Vec<Vec<u8>> = (0..RECORDS)
        .map(|i| pseudo_frame(FRAME_BYTES, i as u8))
        .collect();
    // On the wire: 6-byte preamble, then per record an 8-byte (from, to)
    // header plus the frame (which carries its own length prefix).
    let expect_total: usize = 6 + frames.iter().map(|f| 8 + f.len()).sum::<usize>();

    let reader = thread::spawn(move || {
        let (mut conn, _) = fake_peer.accept().unwrap();
        // Stall long enough for the sender to hit kernel-buffer pushback,
        // then drain — the first stretch one byte at a time.
        thread::sleep(Duration::from_millis(200));
        let mut bytes = Vec::with_capacity(expect_total);
        let mut one = [0u8; 1];
        while bytes.len() < 512 {
            match conn.read(&mut one) {
                Ok(0) => panic!("peer EOF before the stream completed"),
                Ok(_) => bytes.push(one[0]),
                Err(e) => panic!("read failed: {e}"),
            }
        }
        let mut buf = [0u8; 16384];
        while bytes.len() < expect_total {
            match conn.read(&mut buf) {
                Ok(0) => panic!("peer EOF at {} of {expect_total} bytes", bytes.len()),
                Ok(k) => bytes.extend_from_slice(&buf[..k]),
                Err(e) => panic!("read failed: {e}"),
            }
        }
        bytes
    });

    for f in &frames {
        t.send(0, 1, f.clone(), FrameClass::Gossip).unwrap();
    }
    let bytes = reader.join().unwrap();

    // Preamble, then every record byte-identical and in order.
    assert_eq!(&bytes[0..4], &b"CSTP"[..]);
    let mut reassembler = FrameReassembler::new();
    reassembler.push(&bytes[6..]);
    let mut got = Vec::new();
    while let Some(rec) = reassembler.next_record().unwrap() {
        assert_eq!(rec.from, 0);
        assert_eq!(rec.to, 1);
        got.push(rec.frame);
    }
    assert_eq!(got.len(), RECORDS);
    for (i, (sent, received)) in frames.iter().zip(got.iter()).enumerate() {
        assert_eq!(sent, received, "record {i} corrupted in flight");
    }
    assert_eq!(reassembler.pending(), 0);

    let snap = t.snapshot();
    assert_eq!(snap.gossip.messages, RECORDS as u64);
    assert_eq!(snap.gossip.dropped, 0);
    let m = registry.snapshot();
    assert!(
        m.counter("tcp.write.partials") >= 1,
        "a 15MB burst into a stalled peer must suspend mid-record at least once"
    );
}

/// Backpressure at the production cap: against a peer that never reads,
/// small frames fill the kernel's socket buffers (a few MiB on loopback)
/// and then the [`WRITER_QUEUE_CAP`]-record outbound queue, until a send
/// overflows. Overflow drops are surfaced on `tcp.writer.overflow` and
/// every frame still lands in exactly one accounting bucket — attempt
/// semantics, `sent == delivered + dropped`.
#[test]
fn backpressure_overflow_keeps_accounting_parity() {
    const FRAME_BYTES: usize = 1024;
    // The queue plus 64 MiB of frames: far more than the kernel holds for a
    // connection whose reader never reads.
    const MAX_SENDS: usize = WRITER_QUEUE_CAP + (64 << 20) / FRAME_BYTES;

    let fake_peer = TcpListener::bind("127.0.0.1:0").unwrap();
    let peer_addr = fake_peer.local_addr().unwrap();
    let endpoint = TcpEndpoint::bind("127.0.0.1:0").unwrap();
    let dir = two_node_dir(&endpoint, peer_addr);
    let registry = Registry::new();
    let t = endpoint.into_transport(&[0], dir, LinkConfig::ideal(), 14, Some(&registry));
    let overflow = registry.counter("tcp.writer.overflow");

    // Accept so the connection establishes, then hold it open without ever
    // reading a byte (released when `hold_tx` drops at the end).
    let (accepted_tx, accepted_rx) = std::sync::mpsc::channel::<()>();
    let (hold_tx, hold_rx) = std::sync::mpsc::channel::<()>();
    let holder = thread::spawn(move || {
        let (conn, _) = fake_peer.accept().unwrap();
        accepted_tx.send(()).unwrap();
        let _ = hold_rx.recv_timeout(Duration::from_secs(60));
        drop(conn);
    });

    let mut sends = 0;
    while overflow.get() == 0 {
        assert!(
            sends < MAX_SENDS,
            "{sends} sends never overflowed the queue"
        );
        let start = Instant::now();
        t.send(
            0,
            1,
            pseudo_frame(FRAME_BYTES, sends as u8),
            FrameClass::Gossip,
        )
        .unwrap();
        assert!(
            start.elapsed() < Duration::from_millis(500),
            "send must never block on a congested link"
        );
        sends += 1;
        if sends == 1 {
            // The flood goes through the kernel, not only the queue.
            accepted_rx.recv_timeout(Duration::from_secs(10)).unwrap();
        }
    }
    assert!(
        sends > WRITER_QUEUE_CAP,
        "the queue filled at {sends} sends"
    );

    let snap = t.snapshot();
    let m = registry.snapshot();
    assert_eq!(
        snap.gossip.messages + snap.gossip.dropped,
        sends as u64,
        "every frame in exactly one bucket: {snap:?}"
    );
    assert_eq!(snap.gossip.dropped, m.counter("tcp.writer.overflow"));
    assert_eq!(m.counter("net.gossip.sent.messages"), sends as u64);
    assert_eq!(m.counter("net.gossip.dropped"), snap.gossip.dropped);
    assert_eq!(
        m.counter("net.gossip.sent.bytes"),
        (sends * FRAME_BYTES) as u64
    );
    drop(hold_tx);
    holder.join().unwrap();
}

/// Reconnect-under-backoff determinism: everything queued toward a dead
/// address is declared lost after exactly [`WRITE_ATTEMPTS`] = 6 failed
/// connects, each arming one backoff timer — and then the reactor goes
/// quiet instead of retrying an empty queue forever.
#[test]
fn reconnect_backoff_loss_counters_are_deterministic() {
    const SENDS: u64 = 20;

    // Bind-then-drop guarantees an actively refusing address.
    let dead_addr = {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap()
    };
    let endpoint = TcpEndpoint::bind("127.0.0.1:0").unwrap();
    let dir = two_node_dir(&endpoint, dead_addr);
    let registry = Registry::new();
    let t = endpoint.into_transport(&[0], dir, LinkConfig::ideal(), 15, Some(&registry));

    for i in 0..SENDS {
        t.send(0, 1, pseudo_frame(64, i as u8), FrameClass::Decrypt)
            .unwrap();
    }

    let deadline = Instant::now() + Duration::from_secs(20);
    while t.snapshot().decrypt.dropped < SENDS && Instant::now() < deadline {
        thread::sleep(Duration::from_millis(10));
    }
    let snap = t.snapshot();
    assert_eq!(
        snap.decrypt.dropped, SENDS,
        "all queued frames declared lost"
    );
    assert_eq!(snap.decrypt.messages, 0);
    assert_eq!(snap.decrypt.bytes, 0);

    // Let any stray state machine activity surface, then pin the counters:
    // one queue episode = exactly 6 refused connects, 6 armed backoffs,
    // no successes, no mid-stream write failures.
    thread::sleep(Duration::from_millis(300));
    let m = registry.snapshot();
    assert_eq!(m.counter("tcp.connect.retries"), 6);
    assert_eq!(m.counter("tcp.backoff.sleeps"), 6);
    assert_eq!(m.counter("tcp.connects"), 0);
    assert_eq!(m.counter("tcp.write.retries"), 0);
    assert_eq!(m.counter("net.decrypt.dropped"), SENDS);
}

/// A peer that dies mid-stream and comes back on the same port is
/// reconnected: the dead connection is retired and closed, a fresh one is
/// opened to the same address, and frames reach the new transport.
#[test]
fn a_restarted_peer_is_reconnected() {
    let a = TcpEndpoint::bind("127.0.0.1:0").unwrap();
    let b = TcpEndpoint::bind("127.0.0.1:0").unwrap();
    let b_addr = b.local_addr().unwrap();
    let dir = PeerDirectory::new(vec![a.local_addr().unwrap(), b_addr]);
    let registry = Registry::new();
    let wire = |end: TcpEndpoint, id, registry| {
        end.into_transport(&[id], dir.clone(), LinkConfig::ideal(), 17, registry)
    };
    let ta = Arc::new(wire(a, 0, Some(&registry)));
    let tb = wire(b, 1, None);

    // Node 0 sends without pause for the whole test.
    let stop = Arc::new(AtomicBool::new(false));
    let sender = {
        let (ta, stop) = (ta.clone(), stop.clone());
        thread::spawn(move || {
            let mut i = 0u8;
            while !stop.load(Ordering::Relaxed) {
                ta.send(0, 1, pseudo_frame(64, i), FrameClass::Gossip)
                    .unwrap();
                i = i.wrapping_add(1);
                thread::sleep(Duration::from_millis(2));
            }
        })
    };
    assert!(
        tb.recv_timeout(1, Duration::from_secs(5)).is_some(),
        "the first incarnation must hear node 0"
    );
    drop(tb);

    // Dropping a transport closes its listener before returning, so node 1
    // can be rebound on the same port at once.
    let b2 = TcpEndpoint::bind(&b_addr.to_string()).expect("rebind the dead peer's port");
    let tb2 = wire(b2, 1, None);
    let got = tb2.recv_timeout(1, Duration::from_secs(5));
    stop.store(true, Ordering::Relaxed);
    sender.join().unwrap();
    let env = got.expect("frames must reach the restarted peer");
    assert_eq!(env.from, 0);
    let connects = registry.snapshot().counter("tcp.connects");
    assert!(connects >= 2, "one connect per incarnation, got {connects}");
}

/// The acceptance bound: resident thread count at population 64 is O(pool),
/// not O(peers). The old thread-per-peer core would hold 64 writer threads
/// plus a reader per accepted connection here; the reactor holds exactly
/// the pool.
#[cfg(target_os = "linux")]
#[test]
fn resident_threads_stay_o_pool_at_population_64() {
    fn cs_tcp_threads() -> usize {
        std::fs::read_dir("/proc/self/task")
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| {
                std::fs::read_to_string(e.path().join("comm"))
                    .map(|c| c.trim_end().starts_with("cs-tcp"))
                    .unwrap_or(false)
            })
            .count()
    }

    let t = TcpTransport::loopback(64, LinkConfig::ideal(), 16, None).unwrap();
    // Fan out to every destination so every outbound connection (and its
    // accepted twin) exists, then drain to prove they all work.
    for p in 1..64 {
        t.send(0, p, pseudo_frame(64, p as u8), FrameClass::Gossip)
            .unwrap();
    }
    for p in 1..64 {
        assert!(
            t.recv_timeout(p, Duration::from_secs(10)).is_some(),
            "node {p} never got its frame"
        );
    }
    let resident = cs_tcp_threads();
    // Default pool is 2; other tests in this binary may hold a few reactors
    // of their own concurrently, so leave slack — the regression this pins
    // (a thread per peer) would put the count past 64 on its own.
    assert!(
        resident <= 16,
        "expected O(pool) cs-tcp threads at population 64, found {resident}"
    );
    drop(t);
}
