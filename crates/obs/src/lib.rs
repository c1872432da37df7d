//! # cs-obs — the observability layer
//!
//! Every substrate in this workspace answers the same two questions with
//! this crate: *where does the time go* and *where does the traffic go*.
//! It is a vendored-stand-in-style, zero-external-dependency implementation
//! of the three observability primitives the repository needs, built so
//! that turning them on never perturbs the determinism guarantees the
//! sharded executor's e2e tests lock in:
//!
//! * [`metrics`] — a **lock-cheap metrics registry**: counters and gauges
//!   are single relaxed atomics behind pre-resolved [`std::sync::Arc`]
//!   handles (the registry lock is touched once at registration and once
//!   per scrape, never on the hot path), histograms use fixed log₂-scale
//!   buckets so recording is a `leading_zeros` plus one atomic add.
//!   [`metrics::MetricsSnapshot`] is the serializable scrape result, with
//!   [`metrics::MetricsSnapshot::plus`] / [`metrics::MetricsSnapshot::since`]
//!   mirroring the arithmetic of `cs_net`'s `TrafficSnapshot` so per-step
//!   deltas and cluster sums compose the same way traffic accounting does.
//! * [`trace`] — a **structured span/event tracing facade** over a
//!   pluggable [`trace::Clock`]: [`trace::WallClock`] for the wall-clock
//!   substrates, [`trace::VirtualClock`] (an explicitly advanced atomic
//!   nanosecond counter) for the sharded executor — a same-seed sharded
//!   run produces a byte-identical trace regardless of worker count,
//!   because every timestamp is virtual time.
//! * [`phase`] — **step-phase profiling**: the five phases of one
//!   Chiaroscuro computation step (encrypt / gossip / decrypt-share /
//!   combine / unpack) as a [`phase::PhaseProfile`] of per-phase
//!   nanosecond totals, accumulated inside the sans-IO protocol node and
//!   summed across the population, so `bench_summary --profile` can emit
//!   per-phase rows instead of one wall number.
//!
//! On top of the primitives sit the distributed-tracing pieces:
//! [`trace::TraceContext`] (the 24-byte causal context stamped into wire
//! frames), [`trace::CausalTracer`] (deterministic span allocation and
//! send→recv linkage), [`trace::NodeTrace`] / [`trace::ClusterTrace`]
//! (the serializable capture shapes), [`critical`] (per-round
//! critical-path reconstruction — which node, which phase, how much slack
//! everyone else had), [`prom`] (Prometheus text exposition of a
//! [`metrics::MetricsSnapshot`]), and [`http`] (a zero-dependency
//! `std::net` endpoint serving `/metrics` and `/trace`).
//!
//! The *continuous* layer sits on top of those: [`series`] keeps a
//! fixed-capacity ring of scrapes with rate and windowed-quantile views
//! (the `/series` route), and [`health`] holds the invariant audit —
//! [`health::audit`], which runs the four conservation checks over one
//! step's [`health::StepEvidence`], structured [`health::Alert`]s minted
//! as `obs.alert.<kind>` counters plus flight-recorder events, and the
//! [`health::HealthState`] behind the `/health` and `/healthz` routes.
//!
//! ```
//! use cs_obs::metrics::Registry;
//! use cs_obs::phase::{PhaseProfile, StepPhase};
//!
//! let registry = Registry::new();
//! let frames = registry.counter("transport.gossip.messages");
//! frames.add(3);
//! let depth = registry.histogram("transport.queue_depth");
//! depth.record(17);
//!
//! let mut profile = PhaseProfile::default();
//! profile.add(StepPhase::Encrypt, 1_500);
//! let snap = registry.snapshot();
//! assert_eq!(snap.counter("transport.gossip.messages"), 3);
//! assert_eq!(profile.total_ns(), 1_500);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod critical;
pub mod health;
pub mod http;
pub mod metrics;
pub mod phase;
pub mod prom;
pub mod series;
pub mod trace;

pub use health::{Alert, AlertKind, HealthReport, HealthState, HealthStatus, Liveness};
pub use metrics::{Counter, Gauge, Histogram, MetricsSnapshot, Registry};
pub use phase::{PhaseProfile, StepPhase};
pub use series::{SeriesRing, SeriesView};
pub use trace::{
    CausalTracer, Clock, ClusterTrace, NodeTrace, TraceContext, Tracer, VirtualClock, WallClock,
};
