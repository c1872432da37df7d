//! # cs-node — Chiaroscuro out of one process
//!
//! Every other execution substrate in this workspace — the cycle
//! simulator, the sharded executor, even the TCP loopback — still lives
//! inside a single OS process. This crate is the deployment layer that
//! doesn't: one **`csnoded` daemon per participant**, gossiping wire frames over real sockets
//! ([`cs_net::tcp::TcpTransport`]), with a thin coordinator for bootstrap
//! and step pacing, and a supervisor that spawns/kills/reaps local
//! clusters for tests and examples.
//!
//! * [`proto`] — the control-plane protocol (length-prefixed serde-JSON):
//!   `Hello` → `Bootstrap` → per-step `Step`/`Done`/`StepEnd`/`Report` →
//!   `Shutdown`. The data plane never touches the coordinator.
//! * [`daemon`] — the `csnoded` body: bootstrap handshake (protocol
//!   version check, population manifest, key-share delivery), then one
//!   [`cs_net::node::ProtocolNode`] per step, driven to termination over
//!   TCP by the same [`cs_net::driver::NodeDriver`] and
//!   [`cs_net::runtime::pump`] as the in-process wall-clock substrates.
//! * [`coordinator`] — accept/bootstrap a cluster and drive it as a
//!   [`chiaroscuro::backend::ComputationBackend`]
//!   ([`coordinator::ClusterBackend`]), so
//!   `Engine::run_with_backend` executes a full run across processes.
//! * [`supervisor`] — spawn/kill/wait on a local cluster of child
//!   processes; `kill` is a genuine SIGKILL, making "a device dies
//!   mid-gossip" a real fail-stop instead of a simulated flag.
//! * [`watch`] — the `cswatch` SLO watchdog's engine: poll every daemon's
//!   `/healthz` + `/health` + `/series` HTTP routes, judge the cluster
//!   (an invariant violation breaches; churn merely flags), and render a
//!   terminal dashboard with rate sparklines and phase bars.
//!
//! The trust model matches the paper's initialization assumption: the
//! coordinator deals key shares and learns only the DP-perturbed
//! aggregates the protocol discloses to everyone; all sensitive exchange
//! happens daemon-to-daemon under encryption.
//!
//! See `docs/deployment.md` for ports, bootstrap order, and supervisor
//! usage; `tests/tcp_e2e.rs` runs 16 real processes with real crypto and
//! a mid-gossip SIGKILL against the in-process sharded run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coordinator;
pub mod daemon;
pub mod proto;
pub mod supervisor;
pub mod watch;

pub use coordinator::{Cluster, ClusterBackend, ClusterConfig, Coordinator};
pub use daemon::DaemonOpts;
pub use proto::{ControlMsg, LinkSpec, TimingSpec, PROTO_VERSION};
pub use supervisor::{find_bin, find_csnoded, Supervisor};
