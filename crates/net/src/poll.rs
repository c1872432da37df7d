//! Minimal readiness shim over `poll(2)` — the reactor's only window onto
//! the kernel's readiness state, and the only module in the crate allowed
//! to contain unsafe code (a handful of FFI declarations and a
//! `from_raw_fd`; no pointer arithmetic, no transmutes, zero new
//! dependencies).
//!
//! Three primitives, exactly what `crate::tcp`'s reactor needs:
//!
//! * [`poll_fds`] — one-shot level-triggered readiness over the interest
//!   list a reactor pass hands in, with a timeout (the reactor's timer
//!   horizon). On Unix this is a real `poll(2)`: the kernel keeps no
//!   interest set between calls, so closing a descriptor needs no
//!   bookkeeping here. Elsewhere it degrades to a bounded sleep that
//!   reports every descriptor ready (spurious readiness is harmless
//!   against nonblocking sockets — the subsequent I/O call returns
//!   `WouldBlock`).
//! * [`Waker`] — a self-pipe (a nonblocking `UnixStream` pair) that lets
//!   `send` callers pull a reactor thread out of `poll` when they enqueue
//!   outbound work. An atomic flag coalesces wakes so a hot sender performs
//!   one pipe write per reactor cycle, not one per frame.
//! * [`connect_nonblocking`] — starts a TCP connect without blocking the
//!   calling reactor thread; completion (or failure) is observed later via
//!   writability + `TcpStream::take_error`. On Linux this opens the socket
//!   with `SOCK_NONBLOCK` and issues the connect directly; on other
//!   platforms it falls back to a bounded `connect_timeout` (the reactor
//!   stalls at most [`CONNECT_TIMEOUT`] there — documented degraded mode).

#![allow(unsafe_code)]

use std::io;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Hard bound on one connect attempt, nonblocking or not.
pub(crate) const CONNECT_TIMEOUT: Duration = Duration::from_millis(500);

/// Readiness interest / result bits (values match `poll(2)` on every
/// platform we target; the fallback implementation only echoes them back).
pub(crate) const POLL_IN: i16 = 0x001;
/// Writability (connect completion or send-buffer space).
pub(crate) const POLL_OUT: i16 = 0x004;
/// Error condition (always polled implicitly; checked in `revents`).
pub(crate) const POLL_ERR: i16 = 0x008;
/// Peer hung up.
pub(crate) const POLL_HUP: i16 = 0x010;

/// One descriptor's interest set and (after [`poll_fds`]) its readiness.
/// `#[repr(C)]` because on Unix this *is* `struct pollfd`.
#[repr(C)]
#[derive(Clone, Copy)]
pub(crate) struct PollFd {
    /// The raw descriptor (`-1` on platforms without raw fds — ignored).
    pub fd: i32,
    /// Requested events (`POLL_IN` / `POLL_OUT`).
    pub events: i16,
    /// Returned events (includes `POLL_ERR` / `POLL_HUP` unrequested).
    pub revents: i16,
}

impl PollFd {
    /// Interest in `fd` for the given event mask.
    pub(crate) fn new(fd: i32, events: i16) -> Self {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// Did the descriptor come back readable (or in an error state that a
    /// read will surface)?
    pub(crate) fn readable(&self) -> bool {
        self.revents & (POLL_IN | POLL_ERR | POLL_HUP) != 0
    }

    /// Did the descriptor come back writable (or in an error state that a
    /// write will surface)?
    pub(crate) fn writable(&self) -> bool {
        self.revents & (POLL_OUT | POLL_ERR | POLL_HUP) != 0
    }
}

/// The raw descriptor of a socket-like object, for [`PollFd::new`].
#[cfg(unix)]
pub(crate) fn fd_of<T: std::os::unix::io::AsRawFd>(t: &T) -> i32 {
    t.as_raw_fd()
}

/// Fallback: no raw descriptors; [`poll_fds`] ignores them anyway.
#[cfg(not(unix))]
pub(crate) fn fd_of<T>(_t: &T) -> i32 {
    -1
}

#[cfg(unix)]
mod sys {
    use super::PollFd;

    // `nfds_t` is `c_ulong` on Linux and `c_uint` elsewhere.
    #[cfg(target_os = "linux")]
    pub(super) type NFds = u64;
    #[cfg(not(target_os = "linux"))]
    pub(super) type NFds = u32;

    extern "C" {
        pub(super) fn poll(fds: *mut PollFd, nfds: NFds, timeout: i32) -> i32;
    }

    #[cfg(target_os = "linux")]
    extern "C" {
        pub(super) fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
        pub(super) fn connect(fd: i32, addr: *const u8, len: u32) -> i32;
        pub(super) fn close(fd: i32) -> i32;
    }
}

/// Blocks until a descriptor in `fds` is ready or `timeout` elapses,
/// filling in `revents`. Interruptions and poll errors report as "nothing
/// ready" — the reactor's loop re-evaluates its timers and retries, so the
/// worst case is one spurious iteration. The timeout rounds *up* to whole
/// milliseconds: truncation would turn a sub-millisecond timer remainder
/// into a hot zero-timeout spin.
#[cfg(unix)]
pub(crate) fn poll_fds(fds: &mut [PollFd], timeout: Duration) {
    let ms = timeout.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128) as i32;
    let rc = unsafe { sys::poll(fds.as_mut_ptr(), fds.len() as sys::NFds, ms) };
    if rc < 0 {
        for f in fds.iter_mut() {
            f.revents = 0;
        }
    }
}

/// Degraded-mode readiness: sleep briefly, then report everything ready.
/// Spurious readiness is safe against nonblocking sockets (`WouldBlock`),
/// it only costs syscalls — this path exists so non-Unix targets compile
/// and limp, not so they fly.
#[cfg(not(unix))]
pub(crate) fn poll_fds(fds: &mut [PollFd], timeout: Duration) {
    std::thread::sleep(timeout.min(Duration::from_millis(1)));
    for f in fds.iter_mut() {
        f.revents = f.events;
    }
}

/// Starts a TCP connect without parking the calling thread (Linux), or with
/// a hard [`CONNECT_TIMEOUT`] bound (elsewhere). The returned stream is
/// nonblocking; whether the connect actually succeeded is learned later,
/// when the socket polls writable, via [`TcpStream::take_error`].
#[cfg(target_os = "linux")]
pub(crate) fn connect_nonblocking(addr: &SocketAddr) -> io::Result<TcpStream> {
    use std::os::unix::io::FromRawFd;

    const AF_INET: u16 = 2;
    const AF_INET6: u16 = 10;
    const SOCK_STREAM: i32 = 1;
    const SOCK_NONBLOCK: i32 = 0o4000;
    const SOCK_CLOEXEC: i32 = 0o2000000;
    const EINPROGRESS: i32 = 115;

    // struct sockaddr_in / sockaddr_in6, byte-assembled: family is a
    // native-endian u16, the port travels big-endian, addresses as-is.
    let mut sa = [0u8; 28];
    let (family, len) = match addr {
        SocketAddr::V4(v4) => {
            sa[2..4].copy_from_slice(&v4.port().to_be_bytes());
            sa[4..8].copy_from_slice(&v4.ip().octets());
            (AF_INET, 16u32)
        }
        SocketAddr::V6(v6) => {
            sa[2..4].copy_from_slice(&v6.port().to_be_bytes());
            sa[4..8].copy_from_slice(&v6.flowinfo().to_ne_bytes());
            sa[8..24].copy_from_slice(&v6.ip().octets());
            sa[24..28].copy_from_slice(&v6.scope_id().to_ne_bytes());
            (AF_INET6, 28u32)
        }
    };
    sa[0..2].copy_from_slice(&family.to_ne_bytes());

    let domain = i32::from(family);
    let fd = unsafe { sys::socket(domain, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0) };
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    let rc = unsafe { sys::connect(fd, sa.as_ptr(), len) };
    if rc != 0 {
        let err = io::Error::last_os_error();
        if err.raw_os_error() != Some(EINPROGRESS) {
            unsafe { sys::close(fd) };
            return Err(err);
        }
    }
    // The fd is owned exactly once from here on; the stream closes it.
    let stream = unsafe { TcpStream::from_raw_fd(fd) };
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// Non-Linux fallback: a bounded blocking connect on the calling thread.
#[cfg(not(target_os = "linux"))]
pub(crate) fn connect_nonblocking(addr: &SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect_timeout(addr, CONNECT_TIMEOUT)?;
    stream.set_nodelay(true)?;
    stream.set_nonblocking(true)?;
    Ok(stream)
}

/// A self-pipe that pulls a reactor thread out of [`poll_fds`]. The atomic
/// flag coalesces bursts: only the first [`Waker::wake`] after a
/// [`Waker::drain`] pays the pipe-write syscall.
pub(crate) struct Waker {
    flag: std::sync::atomic::AtomicBool,
    #[cfg(unix)]
    tx: std::os::unix::net::UnixStream,
    #[cfg(unix)]
    rx: std::os::unix::net::UnixStream,
}

impl Waker {
    /// A fresh waker pair.
    pub(crate) fn new() -> io::Result<Waker> {
        #[cfg(unix)]
        {
            let (tx, rx) = std::os::unix::net::UnixStream::pair()?;
            tx.set_nonblocking(true)?;
            rx.set_nonblocking(true)?;
            Ok(Waker {
                flag: std::sync::atomic::AtomicBool::new(false),
                tx,
                rx,
            })
        }
        #[cfg(not(unix))]
        Ok(Waker {
            flag: std::sync::atomic::AtomicBool::new(false),
        })
    }

    /// Makes the owning reactor's next (or current) `poll` return promptly.
    pub(crate) fn wake(&self) {
        use std::sync::atomic::Ordering;
        if !self.flag.swap(true, Ordering::AcqRel) {
            #[cfg(unix)]
            {
                use std::io::Write;
                // A full pipe already guarantees a pending wake.
                let _ = (&self.tx).write(&[1u8]);
            }
        }
    }

    /// The pollable read side, if the platform has one.
    pub(crate) fn fd(&self) -> Option<i32> {
        #[cfg(unix)]
        {
            Some(fd_of(&self.rx))
        }
        #[cfg(not(unix))]
        None
    }

    /// Consumes pending wake bytes and re-arms the coalescing flag.
    pub(crate) fn drain(&self) {
        use std::sync::atomic::Ordering;
        #[cfg(unix)]
        {
            use std::io::Read;
            let mut buf = [0u8; 64];
            while matches!((&self.rx).read(&mut buf), Ok(n) if n > 0) {}
        }
        self.flag.store(false, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::TcpListener;

    #[test]
    fn waker_rouses_a_poll_promptly() {
        let w = std::sync::Arc::new(Waker::new().unwrap());
        let Some(fd) = w.fd() else { return };
        let w2 = w.clone();
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            w2.wake();
        });
        let started = std::time::Instant::now();
        let mut fds = [PollFd::new(fd, POLL_IN)];
        poll_fds(&mut fds, Duration::from_secs(5));
        assert!(fds[0].readable(), "waker byte must poll readable");
        assert!(
            started.elapsed() < Duration::from_secs(4),
            "poll returned via the waker, not the timeout"
        );
        w.drain();
        h.join().unwrap();
    }

    #[test]
    fn a_sub_millisecond_timeout_is_waited_out_not_spun() {
        let timeout = Duration::from_micros(300);
        let started = std::time::Instant::now();
        poll_fds(&mut [], timeout);
        let waited = started.elapsed();
        assert!(waited >= timeout, "returned after {waited:?}");
    }

    #[test]
    fn waker_coalesces_repeat_wakes() {
        let w = Waker::new().unwrap();
        for _ in 0..1000 {
            w.wake(); // must never fill the pipe and never block
        }
        w.drain();
        w.wake();
        if let Some(fd) = w.fd() {
            let mut fds = [PollFd::new(fd, POLL_IN)];
            poll_fds(&mut fds, Duration::from_millis(100));
            assert!(fds[0].readable(), "wake after drain re-arms");
        }
    }

    #[test]
    fn nonblocking_connect_completes_against_a_live_listener() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stream = connect_nonblocking(&addr).unwrap();
        let mut fds = [PollFd::new(fd_of(&stream), POLL_OUT)];
        poll_fds(&mut fds, Duration::from_secs(5));
        assert!(fds[0].writable());
        assert!(stream.take_error().unwrap().is_none(), "connect succeeded");
        // And the socket actually works nonblocking-style.
        let r = (&stream).write(&[42u8]);
        assert!(r.is_ok());
        drop(listener);
    }

    #[test]
    fn nonblocking_connect_to_a_dead_port_reports_the_failure() {
        // Bind-then-drop guarantees a refusing port.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        match connect_nonblocking(&addr) {
            Err(_) => {} // refused synchronously: fine
            Ok(stream) => {
                let mut fds = [PollFd::new(fd_of(&stream), POLL_OUT)];
                poll_fds(&mut fds, Duration::from_secs(5));
                let failed =
                    stream.take_error().unwrap().is_some() || (&stream).write(&[1u8]).is_err();
                assert!(failed, "refused connect must surface an error");
            }
        }
    }
}
