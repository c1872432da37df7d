//! Shared dataset construction for the experiments.
//!
//! Both demo use-cases at the demo's own scale ("we simulate a tiny
//! population (e.g., on the order of 10³ participants)"), with `--quick`
//! variants for smoke runs.

use cs_timeseries::datasets::cer::{self, CerConfig};
use cs_timeseries::datasets::numed::{self, NumedConfig};
use cs_timeseries::normalize::Normalization;
use cs_timeseries::LabeledDataset;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The demo's two use-cases.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UseCase {
    /// CER-like electricity consumption (daily profiles, one week).
    Electricity,
    /// NUMED-like tumor growth (twenty weekly measurements).
    TumorGrowth,
}

impl UseCase {
    /// Human-readable label used in table rows.
    pub fn label(&self) -> &'static str {
        match self {
            UseCase::Electricity => "cer-like",
            UseCase::TumorGrowth => "numed-like",
        }
    }

    /// The k the demo uses for this use-case.
    pub fn default_k(&self) -> usize {
        match self {
            UseCase::Electricity => 5,
            UseCase::TumorGrowth => 4,
        }
    }

    /// Builds the dataset at the requested population, z-score normalized
    /// (clustering shapes, not magnitudes).
    pub fn build(&self, population: usize, seed: u64) -> LabeledDataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ds = match self {
            UseCase::Electricity => cer::generate(
                &CerConfig {
                    households: population,
                    days: 1,
                    readings_per_day: 24,
                    ..CerConfig::default()
                },
                &mut rng,
            ),
            UseCase::TumorGrowth => numed::generate(
                &NumedConfig {
                    patients: population,
                    weeks: 20,
                    ..NumedConfig::default()
                },
                &mut rng,
            ),
        };
        ds.series = Normalization::ZScore.apply_all(&ds.series);
        ds
    }

    /// A sensible clamp bound for z-scored series.
    pub fn value_bound(&self) -> f64 {
        4.0
    }
}

/// The paper's target deployment size (10⁶ devices).
pub const TARGET_POPULATION: f64 = 1e6;

/// The demo's ε-rescaling rule (§III-B): simulating a small population with
/// "the same 'noise magnitude / population size' ratio" as the target
/// deployment requires scaling the privacy level by the population ratio:
/// `ε_sim = ε_target · N_target / N_sim`.
pub fn rescale_epsilon(target_epsilon: f64, simulated_population: usize) -> f64 {
    target_epsilon * TARGET_POPULATION / simulated_population as f64
}

/// A checkable two-cluster contribution fixture for `bench_summary`'s step
/// rows: node `i` contributes a fixed series (`[0, 1, …]` for even nodes,
/// all-fives for odd) to cluster `i % 2`, with near-zero noise shares, so a
/// computation step's estimates are predictable.
pub fn synthetic_contributions(
    n: usize,
    layout: &chiaroscuro::noise::SlotLayout,
    seed: u64,
) -> Vec<Option<Vec<f64>>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let shares = cs_dp::NoiseShareGenerator::new(n, 1e-9);
    (0..n)
        .map(|i| {
            let series: Vec<f64> = (0..layout.series_len)
                .map(|d| if i % 2 == 0 { d as f64 } else { 5.0 })
                .collect();
            Some(chiaroscuro::noise::contribution_vector(
                layout,
                &series,
                i % 2,
                &shares,
                &mut rng,
            ))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_use_cases_build() {
        for uc in [UseCase::Electricity, UseCase::TumorGrowth] {
            let ds = uc.build(50, 1);
            assert_eq!(ds.len(), 50);
            assert!(ds.series_len() >= 20);
            // z-scored: per-series mean ≈ 0.
            assert!(ds.series[0].mean().abs() < 1e-9);
        }
    }

    #[test]
    fn deterministic() {
        let a = UseCase::Electricity.build(20, 7);
        let b = UseCase::Electricity.build(20, 7);
        assert_eq!(a.series[3], b.series[3]);
    }
}
