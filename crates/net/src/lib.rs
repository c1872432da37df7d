//! # cs-net — the message-passing node runtime
//!
//! The reproduction's cycle simulator (`cs_gossip::Network`) advances the
//! protocol as shared-memory interactions: no participant ever serializes a
//! message or runs concurrently. This crate closes that gap — the paper's
//! claim is clustering that "proceeds without any global synchronization",
//! and what actually crosses the wire is the security-relevant object:
//!
//! * [`wire`] — a **versioned, length-prefixed binary codec** for every
//!   protocol message: push-sum exchange payloads of Damgård-Jurik
//!   ciphertexts (and their plaintext twins for simulated-crypto mode),
//!   collaborative-decryption requests and partial-decryption shares, and
//!   membership join/leave. Decoding is strict; corrupt frames are
//!   rejected, never tolerated.
//! * [`transport`] — what every way of moving frames shares: the link model
//!   ([`transport::LinkConfig`] — per-link latency, jitter, loss, and
//!   bandwidth) and per-traffic-class **bytes-on-wire accounting**
//!   ([`transport::TrafficSnapshot`]).
//! * [`node`] — the sans-IO per-node state machine. The gossip arithmetic
//!   is the *same code* the simulators run
//!   (`cs_gossip::homomorphic_pushsum::HePushSumNode::split_push`/`absorb`
//!   and the plaintext twins); this crate only adds the messaging shell.
//! * [`driver`] — the sans-IO **node driver**: owns one node's state
//!   machine and all of its step-local clocks — pacing tick, decryption
//!   retry/hedge and deadline, when its own part is complete, and what
//!   crash, rejoin and leave do to them. Time goes in as a number, timers come out
//!   as values; every substrate below is a way of feeding it.
//! * [`churn`] — scripted crash / rejoin / leave injection with
//!   millisecond placement ("node 7 crashes mid-gossip"). On the TCP host
//!   the offsets are wall-clock; on the sharded executor they are
//!   **virtual time**, making churn placement deterministic under a seed.
//! * [`runtime`] — the **thread-per-node TCP host**: each participant runs
//!   [`runtime::pump`] — the one wall-clock event loop, shared with the
//!   `cs_node` daemon — over loopback sockets; [`runtime::NetBackend`] plugs
//!   it, or the sharded executor, into
//!   `chiaroscuro::Engine::run_with_backend`, so a full protocol run
//!   executes end-to-end over real messages.
//! * [`executor`] — the **sharded event-loop executor**: thousands of
//!   virtual nodes dealt into per-shard event queues and driven by a fixed
//!   worker pool in virtual time — no per-node threads, no sleep-polling,
//!   fully deterministic under a seed. The scaling substrate
//!   (`NetBackend::sharded`); the TCP host is its differential twin.
//! * [`audit`] — the end-of-step **invariant audit**: distills per-node
//!   reports and transport accounting into `cs_obs::health` evidence
//!   (push-sum mass, frame conservation, share discipline, lane headroom)
//!   for `cs_obs::health::audit`, minting `obs.alert.<kind>` counters and
//!   [`runtime::StepRun::alerts`]. Both step runners call it; the scripted
//!   [`node::FaultSpec`] knob on [`runtime::NetConfig`] /
//!   [`executor::ShardedConfig`] injects the corruption the drills detect.
//! * [`tcp`] — the **TCP socket transport**: the same wire frames over
//!   `std::net` streams, with a peer directory, stream reassembly at
//!   arbitrary read boundaries and the link model's loss/latency shims,
//!   driven by a **readiness reactor** (a small fixed thread pool over
//!   nonblocking sockets: bounded per-peer queues, partial-write
//!   resumption, reconnect/backoff). It is both the in-process loopback
//!   substrate (`NetBackend::tcp`) and the one under `cs_node`'s `csnoded`
//!   daemons, where the protocol runs across real OS processes.
//!
//! ## Example: one engine run over the TCP loopback
//!
//! ```
//! use chiaroscuro::{ChiaroscuroConfig, Engine};
//! use cs_net::runtime::{NetBackend, NetConfig};
//! use cs_timeseries::datasets::blobs::{generate, BlobsConfig};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let data = generate(
//!     &BlobsConfig { count: 12, clusters: 2, len: 4, ..Default::default() },
//!     &mut rng,
//! );
//! let mut config = ChiaroscuroConfig::demo_simulated();
//! config.k = 2;
//! config.max_iterations = 1;
//! config.gossip_cycles = 20;
//! let engine = Engine::new(config).unwrap();
//! let mut backend = NetBackend::tcp(NetConfig::default());
//! let output = engine.run_with_backend(&data.series, &mut backend).unwrap();
//! assert_eq!(output.centroids.len(), 2);
//! assert_eq!(backend.steps_run(), 1);
//! ```

// `deny`, not `forbid`: the `poll` readiness shim is the one module allowed
// to opt back in (two FFI declarations; see its module docs). Everything
// else in the crate still refuses unsafe code at compile time.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
mod calendar;
pub mod churn;
pub mod driver;
pub mod executor;
#[cfg(test)]
pub(crate) mod fixtures;
pub mod node;
mod poll;
pub mod runtime;
pub mod tcp;
pub mod transport;
pub mod wire;

pub use churn::{ChurnEvent, ChurnKind, ChurnSchedule};
pub use executor::{run_step_sharded, ShardedConfig};
pub use node::FaultSpec;
pub use runtime::{run_step_over_tcp, NetBackend, NetConfig, StepRun};
pub use tcp::{FrameReassembler, PeerDirectory, TcpEndpoint, TcpRecord, TcpTransport};
pub use transport::{Envelope, LinkConfig, NetError};
pub use wire::{decode_frame, encode_frame, FrameClass, Message, WireError, WIRE_VERSION};
