//! # chiaroscuro — privacy-preserving clustering of massively distributed
//! personal time-series
//!
//! A from-scratch Rust reproduction of **Chiaroscuro** (Allard, Hébrail,
//! Masseglia, Pacitti — ICDE 2016 demonstration; SIGMOD 2015 full paper):
//! k-means over time-series held by a large population of honest-but-curious
//! personal devices, with
//!
//! * a **Diptych** data structure ([`diptych`]) separating the cleartext
//!   side (differentially-private centroids) from the encrypted side
//!   (additively homomorphic means);
//! * a fully decentralized **gossip computation step** ([`rounds`]) running
//!   push-sum over Damgård-Jurik ciphertexts, with per-participant Laplace
//!   **noise shares** ([`noise`]) folded in before **threshold decryption**;
//! * **quality-enhancing heuristics**: privacy-budget distribution
//!   strategies (`cs_dp::budget`) and perturbed-mean smoothing
//!   (`cs_timeseries::smooth`);
//! * cost accounting in the demo's own style ([`cost`]) and a structured
//!   execution log ([`log`]) from which every demo graph derives;
//! * a pluggable **computation-step substrate** ([`backend`]): the default
//!   in-process cycle simulator, or a real message-passing transport via
//!   the `cs_net` crate's `NetBackend`.
#![doc = include_str!("../../../docs/quickstart.md")]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod config;
pub mod cost;
pub mod diptych;
pub mod engine;
mod error;
pub mod log;
pub mod noise;
pub mod participant;
pub mod quality;
pub mod rounds;
pub mod termination;

pub use backend::{ComputationBackend, SimulatorBackend};
pub use config::{ChiaroscuroConfig, CryptoMode};
pub use diptych::Diptych;
pub use engine::{Engine, RunOutput};
pub use error::ChiaroscuroError;
pub use log::{ExecutionLog, IterationRecord};
pub use participant::Participant;
pub use quality::{compare_with_baseline, QualityReport};
pub use termination::{Termination, TerminationMonitor};
