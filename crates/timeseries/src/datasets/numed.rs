//! NUMED-like tumor-growth generator (Claret et al. TGI model).
//!
//! The paper's NUMED dataset "contains time-series representing the tumor
//! growth of cancer suffering patients synthetically generated based on
//! mathematical models [Claret et al., J. Clin. Onc. 31(17)]". The Claret
//! tumor-growth-inhibition model has the closed form
//!
//! ```text
//! y(t) = y0 · exp( KL·t − KD0·E·(1 − e^{−λt}) / λ )
//! ```
//!
//! with growth rate `KL`, initial drug-kill rate `KD0`, exposure `E`, and
//! resistance-appearance rate `λ`. Cohorts (responder / stable / progressive)
//! arise from the parameter regime each patient is drawn from — these are the
//! ground-truth groups the clustering should rediscover.

use super::LabeledDataset;
use crate::TimeSeries;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Patient cohorts with distinct parameter regimes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Cohort {
    /// Strong, durable response: tumor shrinks steadily.
    Responder,
    /// Initial shrinkage, then regrowth as resistance appears.
    RelapsingResponder,
    /// Roughly stable disease.
    Stable,
    /// Progressive disease: sustained growth.
    Progressive,
}

impl Cohort {
    /// All cohorts (label = index).
    pub const ALL: [Cohort; 4] = [
        Cohort::Responder,
        Cohort::RelapsingResponder,
        Cohort::Stable,
        Cohort::Progressive,
    ];

    /// Mean `(KL, KD0, lambda)` per week for the cohort (exposure folded
    /// into KD0). Values chosen so trajectories separate over the demo's
    /// twenty-week horizon.
    fn params(&self) -> (f64, f64, f64) {
        match self {
            Cohort::Responder => (0.015, 0.090, 0.01),
            Cohort::RelapsingResponder => (0.040, 0.110, 0.25),
            Cohort::Stable => (0.025, 0.028, 0.02),
            Cohort::Progressive => (0.055, 0.012, 0.10),
        }
    }
}

/// Generator configuration.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct NumedConfig {
    /// Number of patients.
    pub patients: usize,
    /// Number of weekly measurements (the demo shows "twenty weeks").
    pub weeks: usize,
    /// Relative jitter applied to each patient's parameters.
    pub parameter_jitter: f64,
    /// Relative measurement noise on each observation.
    pub measurement_noise: f64,
    /// Mean baseline tumor size in millimeters.
    pub baseline_mm: f64,
}

impl Default for NumedConfig {
    fn default() -> Self {
        NumedConfig {
            patients: 1000,
            weeks: 20,
            parameter_jitter: 0.15,
            measurement_noise: 0.03,
            baseline_mm: 60.0,
        }
    }
}

/// The Claret TGI closed form.
fn claret_tumor_size(y0: f64, kl: f64, kd0: f64, lambda: f64, t_weeks: f64) -> f64 {
    let kill_integral = if lambda.abs() < 1e-12 {
        kd0 * t_weeks
    } else {
        kd0 * (1.0 - (-lambda * t_weeks).exp()) / lambda
    };
    y0 * (kl * t_weeks - kill_integral).exp()
}

/// Generates a NUMED-like cohort dataset; labels are cohort indices.
pub fn generate<R: Rng + ?Sized>(config: &NumedConfig, rng: &mut R) -> LabeledDataset {
    assert!(config.patients > 0 && config.weeks > 0);
    let mut series = Vec::with_capacity(config.patients);
    let mut labels = Vec::with_capacity(config.patients);
    for _ in 0..config.patients {
        let label = rng.gen_range(0..Cohort::ALL.len());
        let cohort = Cohort::ALL[label];
        let (kl0, kd00, lam0) = cohort.params();
        let jitter = |rng: &mut R, v: f64| {
            v * (1.0 + (rng.gen::<f64>() * 2.0 - 1.0) * config.parameter_jitter)
        };
        let kl = jitter(rng, kl0);
        let kd0 = jitter(rng, kd00);
        let lambda = jitter(rng, lam0);
        let y0 = config.baseline_mm * (0.6 + 0.8 * rng.gen::<f64>());
        let values: Vec<f64> = (0..config.weeks)
            .map(|w| {
                let clean = claret_tumor_size(y0, kl, kd0, lambda, w as f64);
                let noisy =
                    clean * (1.0 + (rng.gen::<f64>() * 2.0 - 1.0) * config.measurement_noise);
                noisy.max(0.0)
            })
            .collect();
        series.push(TimeSeries::new(values));
        labels.push(label);
    }
    LabeledDataset::new("numed-like", series, labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_config() -> NumedConfig {
        NumedConfig {
            patients: 80,
            ..NumedConfig::default()
        }
    }

    #[test]
    fn shape_and_labels() {
        let mut rng = StdRng::seed_from_u64(1);
        let ds = generate(&small_config(), &mut rng);
        assert_eq!(ds.len(), 80);
        assert_eq!(ds.series_len(), 20);
        assert!(ds.labels.iter().all(|&l| l < 4));
    }

    #[test]
    fn claret_closed_form_properties() {
        // No treatment effect (kd0 = 0): pure exponential growth.
        let grown = claret_tumor_size(50.0, 0.05, 0.0, 0.1, 10.0);
        assert!((grown - 50.0 * (0.5f64).exp()).abs() < 1e-9);
        // Strong durable kill: shrinkage below baseline.
        let shrunk = claret_tumor_size(50.0, 0.01, 0.1, 0.0, 10.0);
        assert!(shrunk < 50.0);
        // t = 0 returns the baseline exactly.
        assert_eq!(claret_tumor_size(42.0, 0.1, 0.1, 0.1, 0.0), 42.0);
    }

    #[test]
    fn responders_shrink_progressives_grow() {
        let mut rng = StdRng::seed_from_u64(2);
        let config = NumedConfig {
            patients: 400,
            measurement_noise: 0.0,
            ..NumedConfig::default()
        };
        let ds = generate(&config, &mut rng);
        let mut ratios = [0.0f64; 4];
        let mut counts = [0usize; 4];
        for (s, &l) in ds.series.iter().zip(&ds.labels) {
            let v = s.values();
            ratios[l] += v[v.len() - 1] / v[0];
            counts[l] += 1;
        }
        for (r, c) in ratios.iter_mut().zip(counts) {
            *r /= c.max(1) as f64;
        }
        // Cohort order: Responder, RelapsingResponder, Stable, Progressive.
        assert!(ratios[0] < 0.75, "responders shrink: {}", ratios[0]);
        assert!(ratios[3] > 1.5, "progressives grow: {}", ratios[3]);
        assert!(
            (0.7..1.4).contains(&ratios[2]),
            "stable stays near 1: {}",
            ratios[2]
        );
    }

    #[test]
    fn relapsing_cohort_dips_then_regrows() {
        let (kl, kd0, lambda) = Cohort::RelapsingResponder.params();
        let traj: Vec<f64> = (0..20)
            .map(|w| claret_tumor_size(60.0, kl, kd0, lambda, w as f64))
            .collect();
        let min_idx = traj
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert!(
            min_idx > 0 && min_idx < 19,
            "nadir strictly inside: {min_idx}"
        );
        assert!(traj[19] > traj[min_idx] * 1.05, "regrowth after nadir");
    }

    #[test]
    fn deterministic_with_seed() {
        let a = generate(&small_config(), &mut StdRng::seed_from_u64(9));
        let b = generate(&small_config(), &mut StdRng::seed_from_u64(9));
        assert_eq!(a.series[5], b.series[5]);
    }

    #[test]
    fn sizes_are_positive() {
        let mut rng = StdRng::seed_from_u64(3);
        let ds = generate(&small_config(), &mut rng);
        for s in &ds.series {
            assert!(s.min().unwrap() >= 0.0);
        }
    }
}
