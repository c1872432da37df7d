//! The gamma sampler at the shapes a real population asks for.
//!
//! At `shape = 1/n` with `n` in the thousands, most draws are a factor
//! `U^n · scale` that no double can hold; `cs_dp::gamma::gamma` returns
//! their `0.0` after one uniform word. These tests hold the distribution
//! at those shapes and pin the fast path itself: by word count, not by
//! time.

use cs_dp::gamma::gamma;
use cs_dp::NoiseShareGenerator;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Counts the words drawn from the generator it wraps.
struct Counting<R> {
    inner: R,
    words: u64,
}

impl<R: RngCore> Counting<R> {
    fn new(inner: R) -> Self {
        Counting { inner, words: 0 }
    }
}

impl<R: RngCore> RngCore for Counting<R> {
    fn next_u32(&mut self) -> u32 {
        self.words += 1;
        self.inner.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.words += 1;
        self.inner.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.words += dest.len().div_ceil(8) as u64;
        self.inner.fill_bytes(dest)
    }
}

/// `draws` gamma draws: how many consumed exactly one word, and how many
/// returned `0.0` after consuming more.
fn one_word_draws(seed: u64, shape: f64, scale: f64, draws: usize) -> (usize, usize) {
    let mut rng = Counting::new(StdRng::seed_from_u64(seed));
    let (mut fast, mut slow_zeros) = (0, 0);
    for _ in 0..draws {
        let before = rng.words;
        let x = gamma(&mut rng, shape, scale);
        assert!(x.is_finite() && x >= 0.0, "draw {x}");
        match rng.words - before {
            1 => {
                assert_eq!(x, 0.0, "a one-word draw is an underflowed one");
                fast += 1;
            }
            // U, then at least one polar pair and one acceptance uniform.
            words => {
                assert!(words >= 4, "a sampled draw took {words} words");
                slow_zeros += usize::from(x == 0.0);
            }
        }
    }
    (fast, slow_zeros)
}

/// `P(ln U / shape + ln scale < -800)`.
fn early_out_probability(shape: f64, scale: f64) -> f64 {
    (-(800.0 + scale.ln()) * shape).exp()
}

#[test]
fn full_share_sum_at_population_4000_is_laplace() {
    // Σ of all n shares = Laplace(b): mean 0, variance 2b², and
    // P(|X| > b) = e^-1 — at the n where four draws in five early-out.
    let (n, b, trials) = (4000usize, 1.5, 2000usize);
    let gen = NoiseShareGenerator::new(n, b);
    let mut rng = StdRng::seed_from_u64(40);
    let totals: Vec<f64> = (0..trials)
        .map(|_| (0..n).map(|_| gen.sample_share(&mut rng)).sum())
        .collect();
    let mean = totals.iter().sum::<f64>() / trials as f64;
    let var = totals.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (trials - 1) as f64;
    let tail = totals.iter().filter(|t| t.abs() > b).count() as f64 / trials as f64;
    // Standard errors at 2 000 trials: mean b·√(2/2000) ≈ 0.032 b, variance
    // (kurtosis 6) ≈ 0.05 · 2b², tail ≈ 0.011.
    assert!(mean.abs() < 0.12 * b, "mean {mean}");
    let want = 2.0 * b * b;
    assert!((var / want - 1.0).abs() < 0.2, "variance {var} vs {want}");
    assert!((tail - (-1.0f64).exp()).abs() < 0.04, "tail {tail}");
}

#[test]
fn early_out_fraction_follows_the_threshold() {
    // (shape, draws): the fraction of one-word draws is e^{-800·shape} at
    // unit scale, within four standard errors.
    for (shape, draws) in [(1.0 / 4000.0, 200_000usize), (1e-6, 50_000)] {
        let p = early_out_probability(shape, 1.0);
        let (fast, slow_zeros) = one_word_draws(41, shape, 1.0, draws);
        let got = fast as f64 / draws as f64;
        let sigma = (p * (1.0 - p) / draws as f64).sqrt();
        assert!(
            (got - p).abs() < 4.0 * sigma + 1e-9,
            "shape {shape}: {got} vs {p}"
        );
        // Sampled draws that still round to zero sit in the band between
        // the threshold and the real underflow point, e^{-745·shape} − p.
        let band = (-745.0 * shape).exp() - p;
        assert!(
            (slow_zeros as f64) < (band + 4.0 * sigma) * draws as f64 + 1.0,
            "shape {shape}: {slow_zeros} sampled zeros, band {band}"
        );
    }
}

#[test]
fn scale_moves_the_threshold_and_never_breaks_the_result() {
    // ln(1e-300) = -690.8 and ln(1e300) = +690.8 shift the cut by as much:
    // at shape 0.01 the one-word share is e^{-1.09}, e^{-8} and e^{-14.9}.
    let (shape, draws) = (0.01, 100_000usize);
    let mut last = 1.0;
    for scale in [1e-300, 1.0, 1e300] {
        let p = early_out_probability(shape, scale);
        let (fast, _) = one_word_draws(42, shape, scale, draws);
        let got = fast as f64 / draws as f64;
        let sigma = (p * (1.0 - p) / draws as f64).sqrt();
        assert!(
            (got - p).abs() < 4.0 * sigma + 2e-5,
            "scale {scale}: {got} vs {p}"
        );
        assert!(got < last, "a larger scale underflows less often");
        last = got;
    }
    // With the scale inside the exponent a huge scale keeps its draws: the
    // mean of Gamma(0.5, 1e300) is 5e299, where U^{1/shape}·x underflowed
    // before the scale was applied.
    let mut rng = StdRng::seed_from_u64(43);
    let mean = (0..20_000)
        .map(|_| gamma(&mut rng, 0.5, 1e300) / 20_000.0)
        .sum::<f64>();
    assert!((mean / 5e299 - 1.0).abs() < 0.05, "mean {mean:e}");
}

#[test]
fn a_125_slot_contribution_at_population_4000_draws_a_recorded_word_count() {
    // The deterministic guard that the fast path stays: 250 gamma draws
    // (125 shares), of which e^-0.2 ≈ 82 % cost one word. Sampling every
    // draw took 1 156 words under this seed; the recorded count is 0.39 of
    // that, and repeats to the digit.
    let gen = NoiseShareGenerator::new(4000, 1.0);
    let words = |seed: u64| {
        let mut rng = Counting::new(StdRng::seed_from_u64(seed));
        let shares = gen.sample_share_vec(125, &mut rng);
        assert_eq!(shares.len(), 125);
        rng.words
    };
    assert_eq!(words(44), words(44));
    assert_eq!(words(44), RECORDED_WORDS);
}

/// What `a_125_slot_contribution_…` draws under seed 44.
const RECORDED_WORDS: u64 = 453;
