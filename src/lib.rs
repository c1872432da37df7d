//! # chiaroscuro-repro — workspace facade
//!
//! Re-exports every crate of the Chiaroscuro reproduction so examples and
//! integration tests can use one coherent namespace. See the individual
//! crates for the substance:
//!
//! * [`chiaroscuro`] — the protocol itself (Diptych, engine, participants);
//! * [`cs_bigint`] / [`cs_crypto`] — arbitrary-precision arithmetic and the
//!   Damgård-Jurik threshold cryptosystem;
//! * [`cs_dp`] — Laplace/gamma differential-privacy machinery;
//! * [`cs_gossip`] — the cycle-driven gossip simulator and push-sum
//!   (plaintext and homomorphic);
//! * [`cs_timeseries`] — series types, distances, PAA, synthetic datasets;
//! * [`cs_kmeans`] — the centralized baseline and quality metrics;
//! * [`cs_net`] — the message-passing node runtime: wire codec, node
//!   driver, TCP socket transport, sharded executor, churn injection;
//! * [`cs_node`] — the multi-process deployment: `csnoded` daemon,
//!   cluster coordinator, local-cluster supervisor.
#![doc = include_str!("../docs/quickstart.md")]

pub use chiaroscuro;
pub use cs_bigint;
pub use cs_crypto;
pub use cs_dp;
pub use cs_gossip;
pub use cs_kmeans;
pub use cs_net;
pub use cs_node;
pub use cs_obs;
pub use cs_timeseries;

/// `docs/architecture.md`, rendered into rustdoc. Including the guides
/// here compiles and runs their fenced Rust examples as doctests, so the
/// prose can never drift from the APIs it describes.
#[doc = include_str!("../docs/architecture.md")]
pub mod doc_architecture {}

/// `docs/observability.md`, rendered into rustdoc (examples doctested).
#[doc = include_str!("../docs/observability.md")]
pub mod doc_observability {}

/// `docs/benchmarks.md`, rendered into rustdoc (examples doctested).
#[doc = include_str!("../docs/benchmarks.md")]
pub mod doc_benchmarks {}

/// `docs/deployment.md`, rendered into rustdoc (examples doctested).
#[doc = include_str!("../docs/deployment.md")]
pub mod doc_deployment {}
