//! The Laplace distribution and the ε-DP Laplace mechanism.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// A centered Laplace distribution with scale `b` (density
/// `f(x) = exp(-|x|/b) / 2b`).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Laplace {
    scale: f64,
}

impl Laplace {
    /// Creates a Laplace distribution. Panics if `scale <= 0`.
    pub fn new(scale: f64) -> Self {
        assert!(scale > 0.0 && scale.is_finite(), "scale must be positive");
        Laplace { scale }
    }

    /// The scale parameter `b`.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// The variance `2b²`.
    pub fn variance(&self) -> f64 {
        2.0 * self.scale * self.scale
    }

    /// Samples by inversion: `u ~ U(-1/2, 1/2)`,
    /// `x = -b·sgn(u)·ln(1 - 2|u|)`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.gen::<f64>() - 0.5;
        -self.scale * u.signum() * (1.0 - 2.0 * u.abs()).ln()
    }

    /// Probability density at `x`.
    pub fn pdf(&self, x: f64) -> f64 {
        (-x.abs() / self.scale).exp() / (2.0 * self.scale)
    }

    /// Cumulative distribution at `x`.
    pub fn cdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            0.5 * (x / self.scale).exp()
        } else {
            1.0 - 0.5 * (-x / self.scale).exp()
        }
    }
}

/// The ε-differentially-private Laplace mechanism for an aggregate with known
/// L1 sensitivity.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct LaplaceMechanism {
    epsilon: f64,
    sensitivity: f64,
}

impl LaplaceMechanism {
    /// Creates a mechanism. Panics unless `epsilon > 0` and
    /// `sensitivity > 0`.
    pub fn new(epsilon: f64, sensitivity: f64) -> Self {
        assert!(
            epsilon > 0.0 && epsilon.is_finite(),
            "epsilon must be positive"
        );
        assert!(
            sensitivity > 0.0 && sensitivity.is_finite(),
            "sensitivity must be positive"
        );
        LaplaceMechanism {
            epsilon,
            sensitivity,
        }
    }

    /// The privacy level ε.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The L1 sensitivity Δ.
    pub fn sensitivity(&self) -> f64 {
        self.sensitivity
    }

    /// The noise scale `b = Δ/ε`.
    pub fn noise_scale(&self) -> f64 {
        self.sensitivity / self.epsilon
    }

    /// The distribution of the added noise.
    pub fn distribution(&self) -> Laplace {
        Laplace::new(self.noise_scale())
    }

    /// Releases `value + Laplace(Δ/ε)`.
    pub fn perturb<R: Rng + ?Sized>(&self, value: f64, rng: &mut R) -> f64 {
        value + self.distribution().sample(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sample_moments() {
        let mut rng = StdRng::seed_from_u64(10);
        let d = Laplace::new(2.0);
        let samples: Vec<f64> = (0..60_000).map(|_| d.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let var =
            samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (samples.len() - 1) as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!(
            (var - d.variance()).abs() < 0.3,
            "var {var} want {}",
            d.variance()
        );
    }

    #[test]
    fn cdf_pdf_consistency() {
        let d = Laplace::new(1.5);
        assert!((d.cdf(0.0) - 0.5).abs() < 1e-12);
        assert!((d.cdf(f64::INFINITY) - 1.0).abs() < 1e-12);
        assert!(d.cdf(-1.0) + d.cdf(1.0) - 1.0 < 1e-12, "symmetry");
        // pdf integrates (numerically) to ~1
        let integral: f64 = (-2000..2000).map(|i| d.pdf(i as f64 * 0.01) * 0.01).sum();
        assert!((integral - 1.0).abs() < 1e-3, "integral {integral}");
    }

    #[test]
    fn empirical_cdf_matches() {
        let mut rng = StdRng::seed_from_u64(11);
        let d = Laplace::new(1.0);
        let n = 50_000;
        let below: f64 = (0..n)
            .map(|_| d.sample(&mut rng))
            .filter(|&x| x < 1.0)
            .count() as f64
            / n as f64;
        assert!((below - d.cdf(1.0)).abs() < 0.01, "empirical {below}");
    }

    #[test]
    fn mechanism_scale() {
        let m = LaplaceMechanism::new(0.5, 2.0);
        assert_eq!(m.noise_scale(), 4.0);
        assert_eq!(m.distribution().variance(), 32.0);
    }

    #[test]
    #[should_panic(expected = "epsilon must be positive")]
    fn zero_epsilon_panics() {
        LaplaceMechanism::new(0.0, 1.0);
    }
}
