//! Distributed noise shares.
//!
//! A `Laplace(b)` variable equals `G − G'` with `G, G' ~ Gamma(1, b)`
//! independent, and a `Gamma(1, b)` is the sum of `n` i.i.d.
//! `Gamma(1/n, b)` variables. So if each of `n` participants contributes
//! `g_i − g'_i` with `g_i, g'_i ~ Gamma(1/n, b)`, the *sum of all shares* is
//! exactly `Laplace(b)` — and no strict subset knows the total noise. This is
//! the construction the paper sketches in §II-A ("these terms are called
//! noise-shares").
//!
//! When the gossip aggregation misses some shares (churn, finite cycles),
//! the realized noise is a subset-sum: still symmetric, slightly
//! under-dispersed — the source of the paper's *probabilistic* ε-DP variant.
//! [`NoiseShareGenerator::effective_scale`] quantifies it.

use crate::gamma::GammaSampler;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Generates one participant's additive noise shares.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct NoiseShareGenerator {
    population: usize,
    scale: f64,
}

impl NoiseShareGenerator {
    /// Creates a generator for a population of `population` participants and
    /// a target total noise of `Laplace(scale)`.
    ///
    /// Panics if `population == 0` or `scale <= 0`.
    pub fn new(population: usize, scale: f64) -> Self {
        assert!(population > 0, "population must be positive");
        assert!(scale > 0.0 && scale.is_finite(), "scale must be positive");
        NoiseShareGenerator { population, scale }
    }

    /// The population size `n`.
    pub fn population(&self) -> usize {
        self.population
    }

    /// The target total scale `b`.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Samples this participant's share: `Gamma(1/n, b) − Gamma(1/n, b)`.
    pub fn sample_share<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let mut share = [0.0];
        self.add_shares(&mut share, rng);
        share[0]
    }

    /// Samples one share per coordinate of a `len`-dimensional aggregate.
    pub fn sample_share_vec<R: Rng + ?Sized>(&self, len: usize, rng: &mut R) -> Vec<f64> {
        let mut shares = vec![0.0; len];
        self.add_shares(&mut shares, rng);
        shares
    }

    /// Adds a fresh share to every element of `values`, in order. The
    /// gamma sampler is built once for the whole slice.
    ///
    /// A share is never `-0.0` (both gammas are `≥ +0.0`), so a zero
    /// element ends up holding exactly the share's bits.
    pub fn add_shares<R: Rng + ?Sized>(&self, values: &mut [f64], rng: &mut R) {
        let gamma = GammaSampler::new(1.0 / self.population as f64, self.scale);
        for v in values {
            *v += gamma.sample(rng) - gamma.sample(rng);
        }
    }

    /// The Laplace scale actually realized when only `contributing` of the
    /// `n` shares reach the aggregate.
    ///
    /// A partial sum of `m ≤ n` shares is `Gamma(m/n, b) − Gamma(m/n, b)`,
    /// with variance `2b²·m/n` — i.e. variance-equivalent to
    /// `Laplace(b·√(m/n))`. With `m = n` this is exactly `Laplace(b)`.
    pub fn effective_scale(&self, contributing: usize) -> f64 {
        let frac = (contributing.min(self.population)) as f64 / self.population as f64;
        self.scale * frac.sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::laplace::Laplace;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn full_share_sum_is_laplace() {
        // Assemble 3000 totals of 40 shares each; moments must match
        // Laplace(b).
        let mut rng = StdRng::seed_from_u64(20);
        let n = 40;
        let b = 2.0;
        let gen = NoiseShareGenerator::new(n, b);
        let totals: Vec<f64> = (0..3000)
            .map(|_| (0..n).map(|_| gen.sample_share(&mut rng)).sum())
            .collect();
        let mean = totals.iter().sum::<f64>() / totals.len() as f64;
        let var =
            totals.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (totals.len() - 1) as f64;
        let want = Laplace::new(b).variance();
        assert!(mean.abs() < 0.2, "mean {mean}");
        assert!((var - want).abs() < want * 0.15, "var {var} want {want}");
    }

    #[test]
    fn share_sum_tail_matches_laplace_cdf() {
        let mut rng = StdRng::seed_from_u64(21);
        let n = 25;
        let b = 1.0;
        let gen = NoiseShareGenerator::new(n, b);
        let trials = 4000;
        let beyond: f64 = (0..trials)
            .map(|_| (0..n).map(|_| gen.sample_share(&mut rng)).sum::<f64>())
            .filter(|&t: &f64| t.abs() > 1.0)
            .count() as f64
            / trials as f64;
        // P(|Laplace(1)| > 1) = e^{-1} ≈ 0.3679
        assert!((beyond - 0.3679).abs() < 0.03, "tail {beyond}");
    }

    #[test]
    fn single_share_is_small_on_average() {
        // An individual share has variance 2b²/n — each participant holds a
        // negligible, non-identifying fragment of the noise.
        let mut rng = StdRng::seed_from_u64(22);
        let n = 1000;
        let b = 1.0;
        let gen = NoiseShareGenerator::new(n, b);
        let shares: Vec<f64> = (0..20_000).map(|_| gen.sample_share(&mut rng)).collect();
        let var = shares.iter().map(|x| x * x).sum::<f64>() / shares.len() as f64;
        let want = 2.0 * b * b / n as f64;
        assert!((var - want).abs() < want, "var {var} want {want}");
    }

    #[test]
    fn effective_scale_degrades_with_sqrt() {
        let gen = NoiseShareGenerator::new(100, 2.0);
        assert_eq!(gen.effective_scale(100), 2.0);
        assert!((gen.effective_scale(25) - 1.0).abs() < 1e-12);
        assert_eq!(gen.effective_scale(0), 0.0);
        assert_eq!(gen.effective_scale(200), 2.0, "clamped at n");
    }

    #[test]
    fn vector_shares_have_independent_coordinates() {
        let mut rng = StdRng::seed_from_u64(23);
        let gen = NoiseShareGenerator::new(10, 1.0);
        let v = gen.sample_share_vec(8, &mut rng);
        assert_eq!(v.len(), 8);
        let distinct: std::collections::HashSet<u64> = v.iter().map(|x| x.to_bits()).collect();
        assert_eq!(distinct.len(), 8, "continuous draws must differ");
    }

    #[test]
    #[should_panic(expected = "population must be positive")]
    fn zero_population_panics() {
        NoiseShareGenerator::new(0, 1.0);
    }
}
