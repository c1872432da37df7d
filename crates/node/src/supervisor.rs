//! Local cluster supervision: spawn, kill, and reap `csnoded` processes.
//!
//! This is the test/example harness for the multi-process deployment — the
//! moral equivalent of the in-process hosts' scripted churn, except the
//! "nodes" are real OS processes and a crash is a real `SIGKILL`. Anything
//! production-shaped (systemd units, containers, restarts) stays out of
//! scope; see `docs/deployment.md` for how the pieces compose.

use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A supervised local cluster of `csnoded` child processes.
///
/// Thread-safe: scripted kills fire from timer threads while the
/// coordinator drives the run, so the children sit behind a mutex.
pub struct Supervisor {
    children: Mutex<Vec<Option<Child>>>,
}

impl Supervisor {
    /// Spawns `n` daemons (`--id 0..n`) pointed at `coordinator`.
    ///
    /// Children inherit stderr (daemon failures stay visible in test
    /// output) and get a null stdin/stdout.
    pub fn spawn(binary: &Path, coordinator: &str, n: usize) -> io::Result<Supervisor> {
        Supervisor::spawn_opts(binary, coordinator, n, false, None)
    }

    /// Like [`Supervisor::spawn`], but daemon `i`'s stderr — its flight-
    /// recorder dumps included — goes to `logs/csnoded-<i>.log`, for a
    /// test that asserts on what a daemon said.
    pub fn spawn_logged(
        binary: &Path,
        coordinator: &str,
        n: usize,
        logs: &Path,
    ) -> io::Result<Supervisor> {
        Supervisor::spawn_opts(binary, coordinator, n, false, Some(logs))
    }

    /// Like [`Supervisor::spawn`], but every daemon also serves its
    /// observability HTTP endpoint on an ephemeral localhost port
    /// (`--obs-addr 127.0.0.1:0`). The bound addresses travel back through
    /// each daemon's `Hello`, so the coordinator's `obs_addrs()` has them.
    pub fn spawn_with_obs(binary: &Path, coordinator: &str, n: usize) -> io::Result<Supervisor> {
        Supervisor::spawn_opts(binary, coordinator, n, true, None)
    }

    fn spawn_opts(
        binary: &Path,
        coordinator: &str,
        n: usize,
        obs: bool,
        logs: Option<&Path>,
    ) -> io::Result<Supervisor> {
        let mut children = Vec::with_capacity(n);
        for id in 0..n {
            let mut cmd = Command::new(binary);
            cmd.arg("--id")
                .arg(id.to_string())
                .arg("--coordinator")
                .arg(coordinator);
            if obs {
                cmd.arg("--obs-addr").arg("127.0.0.1:0");
            }
            let stderr = match logs {
                Some(dir) => std::fs::File::create(dir.join(format!("csnoded-{id}.log")))?.into(),
                None => Stdio::inherit(),
            };
            let child = cmd
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(stderr)
                .spawn()?;
            children.push(Some(child));
        }
        Ok(Supervisor {
            children: Mutex::new(children),
        })
    }

    /// Number of slots (spawned processes, dead or alive).
    pub fn len(&self) -> usize {
        self.children.lock().expect("supervisor poisoned").len()
    }

    /// `true` iff no processes were spawned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Kills daemon `id` (SIGKILL — the fail-stop model, no goodbyes) and
    /// reaps it. Returns `false` if it was already gone.
    pub fn kill(&self, id: usize) -> bool {
        let mut children = self.children.lock().expect("supervisor poisoned");
        match children.get_mut(id).and_then(Option::take) {
            Some(mut child) => {
                let _ = child.kill();
                let _ = child.wait();
                true
            }
            None => false,
        }
    }

    /// Waits (polling) for every remaining child to exit on its own, up to
    /// `timeout`. Returns the number of children that exited cleanly
    /// (status 0); children still running at the deadline are killed and
    /// counted as unclean.
    pub fn wait_all(&self, timeout: Duration) -> usize {
        let deadline = Instant::now() + timeout;
        let mut clean = 0usize;
        let mut children = self.children.lock().expect("supervisor poisoned");
        for slot in children.iter_mut() {
            let Some(child) = slot.as_mut() else { continue };
            loop {
                match child.try_wait() {
                    Ok(Some(status)) => {
                        if status.success() {
                            clean += 1;
                        }
                        *slot = None;
                        break;
                    }
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    _ => {
                        let _ = child.kill();
                        let _ = child.wait();
                        *slot = None;
                        break;
                    }
                }
            }
        }
        clean
    }

    /// Kills everything still running.
    pub fn shutdown(&self) {
        let mut children = self.children.lock().expect("supervisor poisoned");
        for slot in children.iter_mut() {
            if let Some(mut child) = slot.take() {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
    }
}

impl Drop for Supervisor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Locates a workspace binary next to the current executable (the cargo
/// target-directory layout: test binaries live in `target/<profile>/deps`,
/// examples in `target/<profile>/examples`, real binaries in
/// `target/<profile>`). Returns `None` when it has not been built.
pub fn find_bin(name: &str) -> Option<PathBuf> {
    let name = format!("{name}{}", std::env::consts::EXE_SUFFIX);
    let exe = std::env::current_exe().ok()?;
    let mut dir = exe.parent()?;
    for _ in 0..4 {
        let candidate = dir.join(&name);
        if candidate.is_file() {
            return Some(candidate);
        }
        dir = dir.parent()?;
    }
    None
}

/// Locates the `csnoded` binary (see [`find_bin`]) — build it with
/// `cargo build -p cs_node --bin csnoded`.
pub fn find_csnoded() -> Option<PathBuf> {
    find_bin("csnoded")
}
