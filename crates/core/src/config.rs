//! Engine configuration: every mutable and fixed parameter of the demo.
//!
//! The demo exposes "mutable parameters … (e.g., the differential privacy
//! level, the quality-enhancing heuristics enabled, the use-case …) and …
//! the number of participants required for decryption", with fixed
//! parameters "related to the k-means algorithm …, to the encryption scheme
//! …, and to the gossip algorithm". [`ChiaroscuroConfig`] is the union of
//! both sets.

use crate::error::ChiaroscuroError;
use cs_crypto::{CryptoCostProfile, KeyGenOptions, ThresholdParams};
use cs_dp::BudgetStrategy;
use cs_gossip::FailureModel;
use cs_timeseries::smooth::Smoothing;
use cs_timeseries::Distance;
use serde::{Deserialize, Serialize};

/// Whether homomorphic operations really run or are cost-modeled.
///
/// The demo itself "disable[s] the homomorphic operations (a single machine
/// can hardly cope with the encryption load of a thousand participants)"
/// while displaying costs "based on actual average measures performed
/// beforehand" — [`CryptoMode::Simulated`] reproduces exactly that;
/// [`CryptoMode::Real`] runs the genuine Damgård-Jurik pipeline.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum CryptoMode {
    /// Full Damgård-Jurik encryption, homomorphic push-sum, threshold
    /// decryption. Use small populations.
    Real {
        /// Key generation parameters.
        keygen: KeyGenOptions,
    },
    /// Plaintext arithmetic with crypto costs charged from a measured (or
    /// nominal) profile.
    Simulated {
        /// Per-operation costs used by the accounting.
        cost_profile: CryptoCostProfile,
    },
}

/// Full engine configuration.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ChiaroscuroConfig {
    // ---- k-means (fixed parameters in the demo) ----
    /// Number of clusters.
    pub k: usize,
    /// Maximum k-means iterations (also the privacy-budget horizon).
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
    /// Fixed-point fractional bits for plaintext encoding.
    pub codec_scale_bits: u32,
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
    /// The cycle simulator's per-cycle crash, recovery and loss
    /// probabilities. The message-passing hosts script failures with knobs
    /// of their own and refuse any other value than [`FailureModel::none`]
    /// ([`Self::failure_free`]).
    pub failure: FailureModel,

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
            codec_scale_bits: 20,
            rerandomize: true,
            packing: false,
            gossip_cycles: 12,
            failure: FailureModel::none(),
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
                cost_profile: CryptoCostProfile::nominal_2048(),
            },
            threshold: ThresholdParams {
                threshold: 5,
                parties: 16,
            },
            codec_scale_bits: 20,
            rerandomize: true,
            packing: false,
            gossip_cycles: 30,
            failure: FailureModel::none(),
            seed: 42,
        }
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), ChiaroscuroError> {
        let fail = |msg: &str| Err(ChiaroscuroError::InvalidConfig(msg.to_string()));
        if self.k == 0 {
            return fail("k must be positive");
        }
        if self.max_iterations == 0 {
            return fail("max_iterations must be positive");
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
        if self.codec_scale_bits > 60 {
            return fail("codec_scale_bits too large for the value headroom");
        }
        self.failure.validate();
        Ok(())
    }

    /// Refuses a [`Self::failure`] model on a host that cannot honour it:
    /// `knobs` names the host's own way of scripting loss and churn.
    pub fn failure_free(&self, knobs: &str) -> Result<(), ChiaroscuroError> {
        if self.failure == FailureModel::none() {
            return Ok(());
        }
        Err(ChiaroscuroError::InvalidConfig(format!(
            "config.failure is read by the cycle simulator only; this host \
             scripts loss and churn through {knobs}"
        )))
    }

    /// The L1 sensitivity of one iteration's disclosed aggregate family:
    /// one participant's series (clamped to `value_bound`) joins exactly one
    /// cluster sum (`≤ value_bound · series_len`) and one count (`1`).
    pub fn sensitivity(&self, series_len: usize) -> f64 {
        self.value_bound * series_len as f64 + 1.0
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
