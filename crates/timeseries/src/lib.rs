//! # cs-timeseries — time-series toolkit and synthetic datasets
//!
//! The data substrate of the Chiaroscuro reproduction:
//!
//! * [`TimeSeries`] and [`LabeledDataset`]: the value types every other crate
//!   clusters, gossips about, encrypts, and perturbs;
//! * distances ([`distance`], [`dtw`]): squared Euclidean (the k-means
//!   objective), Euclidean, Manhattan, and dynamic time warping for the
//!   profile-matching use-case;
//! * normalization ([`normalize`]) and smoothing ([`smooth`]) — the latter is
//!   one of the paper's two quality-enhancing heuristics ("smoothing the
//!   perturbed means");
//! * subsequence matching ([`subsequence`]): the demo's interactive scenario
//!   where Bob selects a sub-sequence of his series and retrieves the closest
//!   cluster profiles;
//! * dataset generators ([`datasets`]): a CER-like electricity-consumption
//!   generator and a NUMED-like tumor-growth generator (Claret et al. model),
//!   plus controlled Gaussian blobs with ground-truth labels. The real CER
//!   data is license-gated; DESIGN.md §4 documents the substitution;
//! * [`paa`]: Piecewise Aggregate Approximation — shrinks the series length
//!   (and with it the protocol's per-iteration crypto/network cost, which is
//!   linear in it) while preserving Euclidean geometry up to a provable
//!   lower bound (experiment E9).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod datasets;
pub mod distance;
pub mod dtw;
pub mod normalize;
pub mod paa;
pub mod series;
pub mod smooth;
pub mod stats;
pub mod subsequence;

pub use datasets::LabeledDataset;
pub use distance::Distance;
pub use series::TimeSeries;
