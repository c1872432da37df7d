//! `csbench` — the job-level benchmark of the Chiaroscuro reproduction.
//!
//! Seven workloads, each a closed loop of whole clustering jobs driven
//! through the system's public API only; eight end-to-end metrics with
//! regression bounds and ~70 per-layer metrics, all named in
//! `BENCHMARK.json` at the repository root. See `README.md`.

pub mod cli;
pub mod compare;
pub mod job;
pub mod json;
pub mod measure;
pub mod probes;
pub mod report;
pub mod spec;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod workload;
