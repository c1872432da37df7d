//! Engine configuration: every mutable and fixed parameter of the demo.
//!
//! The demo exposes "mutable parameters … (e.g., the differential privacy
//! level, the quality-enhancing heuristics enabled, the use-case …) and …
//! the number of participants required for decryption", with fixed
//! parameters "related to the k-means algorithm …, to the encryption scheme
//! …, and to the gossip algorithm". [`ChiaroscuroConfig`] is the union of
//! both sets.

use crate::error::ChiaroscuroError;
use cs_crypto::{KeyGenOptions, ThresholdParams};
use cs_dp::{BudgetPlan, BudgetStrategy};
use cs_timeseries::smooth::Smoothing;
use cs_timeseries::Distance;
use serde::{Deserialize, Serialize};

/// Whether homomorphic operations really run or are only counted.
///
/// The demo itself "disable\[s\] the homomorphic operations (a single machine
/// can hardly cope with the encryption load of a thousand participants)"
/// while displaying costs "based on actual average measures performed
/// beforehand" — [`CryptoMode::Simulated`] counts the operations and bytes
/// a key of its shape would cost, and the caller prices the counts with a
/// profile it measured ([`crate::cost::crypto_seconds`]);
/// [`CryptoMode::Real`] runs the genuine Damgård-Jurik pipeline.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum CryptoMode {
    /// Full Damgård-Jurik encryption, homomorphic push-sum, threshold
    /// decryption. Use small populations.
    Real {
        /// Key generation parameters.
        keygen: KeyGenOptions,
    },
    /// Plaintext arithmetic, counted as if encrypted under a key of this
    /// shape: the lane plan's `n^s` width and the ciphertext bytes on the
    /// wire follow from it.
    Simulated {
        /// Modulus size of the key the run stands in for.
        modulus_bits: usize,
        /// Damgård-Jurik degree.
        s: u32,
    },
}

/// The most k-means iterations a job may run; the budget plan holds a slice
/// of ε for each.
pub const MAX_ITERATIONS: usize = 1_000;

/// Fixed-point fractional bits of the plaintext encoding: a fixed parameter
/// of the encryption scheme, the same on every host and every run.
pub const CODEC_SCALE_BITS: u32 = 20;

/// Full engine configuration.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ChiaroscuroConfig {
    // ---- k-means (fixed parameters in the demo) ----
    /// Number of clusters.
    pub k: usize,
    /// Maximum k-means iterations (also the privacy-budget horizon), at
    /// most [`MAX_ITERATIONS`].
    pub max_iterations: usize,
    /// Convergence threshold on summed centroid displacement.
    pub convergence_threshold: f64,
    /// Termination criterion (paper footnote 2 supports criteria beyond the
    /// plain threshold — e.g. detecting the perturbation noise floor).
    pub termination: crate::termination::Termination,
    /// Distance for assignment and convergence.
    pub distance: Distance,

    // ---- privacy (mutable parameters in the demo) ----
    /// Total differential-privacy budget ε.
    pub epsilon: f64,
    /// Budget distribution heuristic.
    pub budget_strategy: BudgetStrategy,
    /// Smoothing heuristic applied to perturbed means.
    pub smoothing: Smoothing,
    /// Bound `B` on absolute series values; inputs are clamped to `[-B, B]`
    /// and the DP sensitivity derives from it (public knowledge, not
    /// data-derived).
    pub value_bound: f64,

    // ---- encryption ----
    /// Real or simulated crypto.
    pub crypto: CryptoMode,
    /// Threshold decryption: `threshold` partials out of a `parties`-member
    /// key committee (the demo's "number of participants required for
    /// decryption").
    pub threshold: ThresholdParams,
    /// Re-randomize ciphertexts before each forward (hides which ciphertexts
    /// are trivial zero encryptions). Ignored in simulated mode except for
    /// cost.
    pub rerandomize: bool,
    /// Ignored. Every [`CryptoMode::Real`] run packs its buckets into
    /// disjoint fixed-point lanes of `Z_{n^s}` (`cs_crypto::packing`) under
    /// fixed-base encryption; there is no other ciphertext layout. Kept
    /// only because csbench's frozen sources set it.
    pub packing: bool,

    // ---- gossip ----
    /// Gossip cycles per computation step ("number of exchanges per
    /// participant").
    pub gossip_cycles: usize,

    // ---- simulation ----
    /// Master seed (all randomness derives from it).
    pub seed: u64,
}

impl ChiaroscuroConfig {
    /// A small, fast configuration running **real** cryptography at
    /// test-size (insecure) keys.
    pub fn test_real() -> Self {
        ChiaroscuroConfig {
            k: 2,
            max_iterations: 4,
            convergence_threshold: 1e-3,
            termination: crate::termination::Termination::MovementThreshold,
            distance: Distance::SquaredEuclidean,
            epsilon: 5.0,
            budget_strategy: BudgetStrategy::Uniform,
            smoothing: Smoothing::None,
            value_bound: 10.0,
            crypto: CryptoMode::Real {
                keygen: KeyGenOptions::insecure_test_size(),
            },
            threshold: ThresholdParams {
                threshold: 2,
                parties: 3,
            },
            rerandomize: true,
            packing: false,
            gossip_cycles: 12,
            seed: 42,
        }
    }

    /// A demo-scale configuration with simulated crypto (the paper's ~10³
    /// participants regime).
    pub fn demo_simulated() -> Self {
        ChiaroscuroConfig {
            k: 5,
            max_iterations: 12,
            convergence_threshold: 1e-3,
            termination: crate::termination::Termination::MovementThreshold,
            distance: Distance::SquaredEuclidean,
            epsilon: 1.0,
            budget_strategy: BudgetStrategy::increasing_default(),
            smoothing: Smoothing::MovingAverage { window: 3 },
            value_bound: 10.0,
            crypto: CryptoMode::Simulated {
                modulus_bits: 2048,
                s: 1,
            },
            threshold: ThresholdParams {
                threshold: 5,
                parties: 16,
            },
            rerandomize: true,
            packing: false,
            gossip_cycles: 30,
            seed: 42,
        }
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), ChiaroscuroError> {
        let fail = |msg: &str| Err(ChiaroscuroError::InvalidConfig(msg.to_string()));
        if self.k == 0 {
            return fail("k must be positive");
        }
        if !(1..=MAX_ITERATIONS).contains(&self.max_iterations) {
            return fail("max_iterations must be in 1..=MAX_ITERATIONS");
        }
        if !(self.epsilon > 0.0 && self.epsilon.is_finite()) {
            return fail("epsilon must be positive");
        }
        if !(self.value_bound > 0.0 && self.value_bound.is_finite()) {
            return fail("value_bound must be positive");
        }
        if self.gossip_cycles == 0 {
            return fail("gossip_cycles must be positive");
        }
        if self.threshold.validate().is_err() {
            return fail("threshold must satisfy 1 <= threshold <= parties");
        }
        if let CryptoMode::Simulated { modulus_bits, s } = self.crypto {
            if modulus_bits == 0 || s == 0 || modulus_bits.checked_mul(s as usize + 1).is_none() {
                return fail("a simulated key needs positive modulus_bits and s");
            }
        }
        let floor = match self.budget_strategy {
            BudgetStrategy::Increasing { ratio } if ratio.is_nan() || ratio < 1.0 => {
                return fail("the increasing budget ratio must be at least 1");
            }
            BudgetStrategy::Adaptive { floor_fraction, .. } => floor_fraction,
            _ => 1.0,
        };
        let alpha = match self.smoothing {
            Smoothing::Exponential { alpha } => alpha,
            _ => 1.0,
        };
        for (value, name) in [(floor, "floor_fraction"), (alpha, "smoothing alpha")] {
            if !(value > 0.0 && value <= 1.0) {
                return fail(&format!("{name} must be in (0, 1]"));
            }
        }
        // The accountant takes a positive, finite ε: a ratio whose weights
        // overflow charges NaN, a slice or a floor that underflows charges 0.
        let plan = BudgetPlan::new(self.budget_strategy, self.epsilon, self.max_iterations);
        let slices = plan.slices();
        if !slices.iter().all(|s| s.is_finite() && s * floor > 0.0) {
            return fail("the budget strategy leaves an iteration no positive, finite epsilon");
        }
        Ok(())
    }

    /// The L1 sensitivity of one iteration's disclosed aggregate family:
    /// one participant's series (clamped to `value_bound`) joins exactly one
    /// cluster sum (`≤ value_bound · series_len`) and one count (`1`).
    pub fn sensitivity(&self, series_len: usize) -> f64 {
        self.value_bound * series_len as f64 + 1.0
    }

    /// The Laplace scale of one iteration's noise, `sensitivity / eps_t`.
    /// `validate` cannot see the series length, so a `value_bound` whose
    /// sensitivity (or scale) overflows is refused here, before any noise
    /// is drawn: both must be positive and finite.
    pub fn noise_scale(&self, series_len: usize, eps_t: f64) -> Result<f64, ChiaroscuroError> {
        let sensitivity = self.sensitivity(series_len);
        let scale = sensitivity / eps_t;
        let ok = |x: f64| x > 0.0 && x.is_finite();
        if ok(sensitivity) && ok(scale) {
            Ok(scale)
        } else {
            Err(ChiaroscuroError::InvalidConfig(format!(
                "value_bound {} over {series_len}-point series gives sensitivity {sensitivity} \
                 and noise scale {scale} at epsilon {eps_t}; both must be positive and finite",
                self.value_bound
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        assert!(ChiaroscuroConfig::test_real().validate().is_ok());
        assert!(ChiaroscuroConfig::demo_simulated().validate().is_ok());
    }

    #[test]
    fn bad_configs_rejected() {
        let mut c = ChiaroscuroConfig::demo_simulated();
        c.k = 0;
        assert!(c.validate().is_err());

        let mut c = ChiaroscuroConfig::demo_simulated();
        c.epsilon = -1.0;
        assert!(c.validate().is_err());

        let mut c = ChiaroscuroConfig::demo_simulated();
        c.threshold.threshold = 99;
        c.threshold.parties = 3;
        assert!(c.validate().is_err());

        let mut c = ChiaroscuroConfig::demo_simulated();
        c.gossip_cycles = 0;
        assert!(c.validate().is_err());

        // A key shape is read off a daemon's socket like any other field.
        for (modulus_bits, s) in [(0, 1), (2048, 0), (usize::MAX, 1)] {
            let mut c = ChiaroscuroConfig::demo_simulated();
            c.crypto = CryptoMode::Simulated { modulus_bits, s };
            let err = c.validate().unwrap_err();
            assert!(matches!(err, ChiaroscuroError::InvalidConfig(_)), "{err:?}");
        }

        // Each of these passed `Engine::new`, then panicked `Engine::run`
        // or (a floor above 1) spent the budget before its last iteration.
        let adaptive = |floor_fraction| BudgetStrategy::Adaptive {
            settle_threshold: 0.05,
            floor_fraction,
        };
        for (budget_strategy, max_iterations) in [
            (BudgetStrategy::Increasing { ratio: 0.5 }, 12),
            (BudgetStrategy::Increasing { ratio: f64::NAN }, 12),
            (BudgetStrategy::Increasing { ratio: 2.1 }, MAX_ITERATIONS),
            (adaptive(0.0), 12),
            (adaptive(-1.0), 12),
            (adaptive(f64::NAN), 12),
            (adaptive(1.5), 12),
            (BudgetStrategy::Uniform, usize::MAX),
        ] {
            let mut c = ChiaroscuroConfig::demo_simulated();
            (c.budget_strategy, c.max_iterations) = (budget_strategy, max_iterations);
            assert!(c.validate().is_err(), "{budget_strategy:?}");
        }
        let mut c = ChiaroscuroConfig::demo_simulated();
        c.smoothing = Smoothing::Exponential { alpha: 0.0 };
        assert!(c.validate().is_err());
    }

    #[test]
    fn sensitivity_formula() {
        let c = ChiaroscuroConfig::demo_simulated();
        // value_bound = 10, len 24 → 241
        assert_eq!(c.sensitivity(24), 241.0);
    }

    #[test]
    fn config_serde_roundtrip() {
        let c = ChiaroscuroConfig::demo_simulated();
        let json = serde_json::to_string(&c).unwrap();
        let back: ChiaroscuroConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.k, c.k);
        assert_eq!(back.epsilon, c.epsilon);
    }
}
