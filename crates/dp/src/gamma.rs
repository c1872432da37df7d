//! From-scratch samplers: standard normal, exponential, and gamma.
//!
//! Noise shares need `Gamma(1/n, b)` with `n` the population size — a shape
//! far below 1, where naive rejection is hopeless. We use Marsaglia & Tsang's
//! squeeze method for shapes `>= 1` and the standard `α+1` boost
//! (`Gamma(α) = Gamma(α+1) · U^{1/α}`) below 1, evaluated in log space so a
//! draw whose factor underflows a double costs one uniform word.

use rand::Rng;

/// Samples a standard normal via the Marsaglia polar method.
///
/// (Box-Muller without trigonometry; rejection rate ≈ 21%.)
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u: f64 = rng.gen::<f64>() * 2.0 - 1.0;
        let v: f64 = rng.gen::<f64>() * 2.0 - 1.0;
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

/// Samples `Exponential(scale)` (mean = `scale`) by inversion.
pub fn exponential<R: Rng + ?Sized>(rng: &mut R, scale: f64) -> f64 {
    assert!(scale > 0.0, "scale must be positive");
    // 1 - U ∈ (0, 1]; ln is finite.
    -scale * (1.0 - rng.gen::<f64>()).ln()
}

/// Below this, `x · exp(ln_factor)` is `0.0` for every `x` the
/// `Gamma(shape + 1)` sampler can return: the smallest subnormal is
/// `2^-1074 ≈ e^-744.4`, so a non-zero product would need `x > e^55`, and
/// Marsaglia-Tsang over a polar-method normal (`|z| < 12.2` from 53-bit
/// uniforms) with `shape + 1 < 2` returns less than 400.
const LN_UNDERFLOW: f64 = -800.0;

/// Samples `Gamma(shape, scale)` (mean = `shape·scale`).
///
/// For `shape < 1` this is the boost `Gamma(shape+1) · U^{1/shape}`, taken
/// in log space with `U` drawn first: at the noise-share shapes `1/n` the
/// factor `U^n · scale` is below the smallest subnormal for most draws
/// (`e^{-(800 + ln scale)/n}` of them: 82 % at `n = 4000`), and those return
/// the `0.0` the product would have rounded to after one uniform word,
/// without running the rejection sampler for an `x` that cannot matter.
///
/// Panics if `shape` or `scale` is not strictly positive.
pub fn gamma<R: Rng + ?Sized>(rng: &mut R, shape: f64, scale: f64) -> f64 {
    assert!(shape > 0.0, "shape must be positive");
    assert!(scale > 0.0, "scale must be positive");
    if shape < 1.0 {
        let u: f64 = loop {
            let u = rng.gen::<f64>();
            if u > 0.0 {
                break u;
            }
        };
        let ln_factor = u.ln() / shape + scale.ln();
        if ln_factor < LN_UNDERFLOW {
            return 0.0;
        }
        gamma_shape_ge_one(rng, shape + 1.0) * ln_factor.exp()
    } else {
        gamma_shape_ge_one(rng, shape) * scale
    }
}

/// Marsaglia-Tsang for `shape >= 1`, unit scale.
fn gamma_shape_ge_one<R: Rng + ?Sized>(rng: &mut R, shape: f64) -> f64 {
    debug_assert!(shape >= 1.0);
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = standard_normal(rng);
        let v = 1.0 + c * x;
        if v <= 0.0 {
            continue;
        }
        let v3 = v * v * v;
        let u: f64 = rng.gen();
        // Squeeze, then full acceptance test.
        if u < 1.0 - 0.0331 * x.powi(4) {
            return d * v3;
        }
        if u > 0.0 && u.ln() < 0.5 * x * x + d * (1.0 - v3 + v3.ln()) {
            return d * v3;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mean_var(samples: &[f64]) -> (f64, f64) {
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        (mean, var)
    }

    #[test]
    fn normal_moments() {
        let mut rng = StdRng::seed_from_u64(1);
        let samples: Vec<f64> = (0..40_000).map(|_| standard_normal(&mut rng)).collect();
        let (mean, var) = mean_var(&samples);
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn exponential_moments() {
        let mut rng = StdRng::seed_from_u64(2);
        let scale = 2.5;
        let samples: Vec<f64> = (0..40_000).map(|_| exponential(&mut rng, scale)).collect();
        let (mean, var) = mean_var(&samples);
        assert!((mean - scale).abs() < 0.1, "mean {mean}");
        assert!((var - scale * scale).abs() < 0.5, "var {var}");
        assert!(samples.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn gamma_moments_shape_above_one() {
        let mut rng = StdRng::seed_from_u64(3);
        let (shape, scale) = (3.0, 1.5);
        let samples: Vec<f64> = (0..40_000).map(|_| gamma(&mut rng, shape, scale)).collect();
        let (mean, var) = mean_var(&samples);
        assert!((mean - shape * scale).abs() < 0.12, "mean {mean}");
        assert!((var - shape * scale * scale).abs() < 0.6, "var {var}");
    }

    #[test]
    fn gamma_moments_shape_below_one() {
        // The noise-share regime: shape = 1/population.
        let mut rng = StdRng::seed_from_u64(4);
        let (shape, scale) = (0.01, 2.0);
        let samples: Vec<f64> = (0..60_000).map(|_| gamma(&mut rng, shape, scale)).collect();
        let (mean, var) = mean_var(&samples);
        assert!(
            (mean - shape * scale).abs() < 0.02,
            "mean {mean} want {}",
            shape * scale
        );
        assert!(
            (var - shape * scale * scale).abs() < 0.05,
            "var {var} want {}",
            shape * scale * scale
        );
        assert!(samples.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn gamma_shape_one_is_exponential() {
        // Gamma(1, b) = Exp(b): compare distribution tails.
        let mut rng = StdRng::seed_from_u64(5);
        let scale = 1.0;
        let n = 40_000;
        let g_above: f64 = (0..n)
            .map(|_| gamma(&mut rng, 1.0, scale))
            .filter(|&x| x > 1.0)
            .count() as f64
            / n as f64;
        // P(Exp(1) > 1) = e^{-1} ≈ 0.3679
        assert!((g_above - 0.3679).abs() < 0.02, "tail {g_above}");
    }

    #[test]
    fn sum_of_subunit_gammas_is_gamma_one() {
        // Σ_{i=1}^{n} Gamma(1/n, b) = Gamma(1, b) = Exp(b): the identity the
        // whole noise-share scheme rests on. Check the mean and variance of
        // the reassembled sums.
        let mut rng = StdRng::seed_from_u64(6);
        let n = 50usize;
        let scale = 3.0;
        let sums: Vec<f64> = (0..4_000)
            .map(|_| (0..n).map(|_| gamma(&mut rng, 1.0 / n as f64, scale)).sum())
            .collect();
        let (mean, var) = mean_var(&sums);
        assert!((mean - scale).abs() < 0.2, "mean {mean}");
        assert!((var - scale * scale).abs() < 1.0, "var {var}");
    }

    #[test]
    #[should_panic(expected = "shape must be positive")]
    fn zero_shape_panics() {
        let mut rng = StdRng::seed_from_u64(7);
        gamma(&mut rng, 0.0, 1.0);
    }
}
