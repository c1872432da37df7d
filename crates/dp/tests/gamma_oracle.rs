//! The gamma sampler held to the log-space sampler it replaced.
//!
//! [`oracle`] is that sampler, frozen: it takes `ln U` on every sub-unit
//! draw to decide underflow, where `cs_dp::gamma::GammaSampler` decides
//! most draws on `U` against a precomputed threshold and takes the
//! logarithm only in a narrow band around it. These tests hold the two to
//! the same value bits and the same word count on every draw: across
//! population-sized and arbitrary shapes and scales `10^±300`, with words
//! scripted onto the threshold, the band's edges and the logarithm's own
//! decision point, and through `NoiseShareGenerator`.

mod common;

use common::Counting;
use cs_dp::gamma::{gamma, GammaSampler};
use cs_dp::NoiseShareGenerator;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// The sampler as it was before underflow was decided on `U`, verbatim.
mod oracle {
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

    /// Below this, `x · exp(ln_factor)` is `0.0` for every `x` the
    /// `Gamma(shape + 1)` sampler can return: the smallest subnormal is
    /// `2^-1074 ≈ e^-744.4`, so a non-zero product would need `x > e^55`, and
    /// Marsaglia-Tsang over a polar-method normal (`|z| < 12.2` from 53-bit
    /// uniforms) with `shape + 1 < 2` returns less than 400.
    pub const LN_UNDERFLOW: f64 = -800.0;

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
}

/// Draws `draws` values from the sampler and from the oracle on two
/// copies of one stream: every value's bits and the running word count
/// must agree after every draw.
fn matches_oracle(seed: u64, shape: f64, scale: f64, draws: usize) {
    let sampler = GammaSampler::new(shape, scale);
    let mut got = Counting::new(StdRng::seed_from_u64(seed));
    let mut want = Counting::new(StdRng::seed_from_u64(seed));
    for i in 0..draws {
        let (g, w) = (
            sampler.sample(&mut got),
            oracle::gamma(&mut want, shape, scale),
        );
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "draw {i} of Gamma({shape:e}, {scale:e}): {g:e} vs {w:e}"
        );
        assert_eq!(
            got.words, want.words,
            "draw {i} of Gamma({shape:e}, {scale:e})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_draw_is_the_oracles(
        family in 0u8..3,
        r in 0.0f64..1.0,
        scale_exp in -300.0f64..300.0,
        seed in any::<u64>(),
    ) {
        // Shapes `1/n` with `n` log-uniform in `1..=10⁶`, shapes in
        // `(0, 1)` and shapes in `[1, 8]`.
        let shape = match family {
            0 => 1.0 / 10f64.powf(6.0 * r).round(),
            1 => r,
            _ => 1.0 + 7.0 * r,
        };
        prop_assume!(shape > 0.0);
        matches_oracle(seed, shape, 10f64.powf(scale_exp), 10_000);
    }
}

#[test]
fn gamma_is_the_oracle_at_the_noise_share_shapes() {
    // `gamma()` builds a sampler per call; the same stream, draw for draw.
    for n in [1u32, 2, 8, 64, 4_000, 4_096, 100_000] {
        let shape = 1.0 / f64::from(n);
        for scale in [1e-3, 1.0, 1e6] {
            let mut got = Counting::new(StdRng::seed_from_u64(u64::from(n)));
            let mut want = Counting::new(StdRng::seed_from_u64(u64::from(n)));
            for _ in 0..2_000 {
                let g = gamma(&mut got, shape, scale);
                let w = oracle::gamma(&mut want, shape, scale);
                assert_eq!(g.to_bits(), w.to_bits(), "n {n}, b {scale}");
                assert_eq!(got.words, want.words, "n {n}, b {scale}");
            }
        }
    }
}

#[test]
fn shares_are_the_oracles_differences() {
    // `add_shares` onto data, `sample_share_vec` and `sample_share`: each
    // slot gains `g − g'` from the oracle's stream, in slot order.
    for n in [1usize, 2, 8, 64, 4_000, 4_096, 100_000] {
        for b in [1e-3, 1.0, 1e6, 1e300] {
            let gen = NoiseShareGenerator::new(n, b);
            let shape = 1.0 / n as f64;
            let seed = n as u64 ^ b.to_bits();
            let data: Vec<f64> = (0..1_000).map(|i| f64::from(i) * 0.25 - 3.0).collect();
            let mut want = Counting::new(StdRng::seed_from_u64(seed));
            let mut oracle_share =
                || oracle::gamma(&mut want, shape, b) - oracle::gamma(&mut want, shape, b);
            let expected: Vec<f64> = data.iter().map(|x| x + oracle_share()).collect();
            let expected_vec: Vec<f64> = (0..1_000).map(|_| oracle_share()).collect();
            let expected_one = oracle_share();

            let mut got = Counting::new(StdRng::seed_from_u64(seed));
            let mut noisy = data.clone();
            gen.add_shares(&mut noisy, &mut got);
            let vec = gen.sample_share_vec(1_000, &mut got);
            let one = gen.sample_share(&mut got);

            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&noisy), bits(&expected), "add_shares, n {n}, b {b}");
            assert_eq!(
                bits(&vec),
                bits(&expected_vec),
                "sample_share_vec, n {n}, b {b}"
            );
            assert_eq!(
                one.to_bits(),
                expected_one.to_bits(),
                "sample_share, n {n}, b {b}"
            );
            assert_eq!(got.words, want.words, "n {n}, b {b}");
        }
    }
}

/// Feeds one scripted word first, then the generator it wraps.
struct Scripted {
    first: Option<u64>,
    inner: StdRng,
}

impl RngCore for Scripted {
    fn next_u32(&mut self) -> u32 {
        self.next_u64() as u32
    }
    fn next_u64(&mut self) -> u64 {
        self.first.take().unwrap_or_else(|| self.inner.next_u64())
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let word = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }
}

/// `2^53`: a uniform is `m / 2^53` for the top 53 bits `m` of a word.
const STEPS: f64 = (1u64 << 53) as f64;

/// The word whose uniform is `m / 2^53`.
fn word(m: u64) -> u64 {
    m << 11
}

/// The grid point nearest `u`, within the uniform's range.
fn step_of(u: f64) -> u64 {
    (u * STEPS).round().clamp(0.0, STEPS - 1.0) as u64
}

/// The smallest `m` whose uniform the oracle's logarithm keeps (does not
/// call underflowed); `2^53` if it keeps none.
fn oracle_flip(shape: f64, scale: f64) -> u64 {
    let underflows = |m: u64| ((m as f64) / STEPS).ln() / shape + scale.ln() < oracle::LN_UNDERFLOW;
    let (mut lo, mut hi) = (1u64, 1u64 << 53);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if underflows(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

#[test]
fn the_band_decides_like_the_logarithm() {
    // The threshold `t = exp((−800 − ln b)·shape)` as the sampler computes
    // it, its band `t·(1 ± 1e-9)`, and the oracle's own decision point.
    // Each is fed as the draw's first word, with one uniform step either
    // side; the rejection sampler's words after it come from a seeded
    // stream. Both samplers must return the same bits after the same words.
    let shapes = [
        1.0 / 2.0,
        1.0 / 3.0,
        1.0 / 8.0,
        1.0 / 64.0,
        1.0 / 1_000.0,
        1.0 / 4_000.0,
        1.0 / 4_096.0,
        1.0 / 100_000.0,
        1.0 / 1_000_000.0,
        0.3,
        0.999,
    ];
    let scales: [f64; 6] = [1e-300, 1e-3, 1.0, 1.5, 1e6, 1e300];
    let (mut in_band_zero, mut in_band_kept, mut flip_off_threshold) = (0, 0, 0);
    for (i, &shape) in shapes.iter().enumerate() {
        for (j, &scale) in scales.iter().enumerate() {
            let t = ((oracle::LN_UNDERFLOW - scale.ln()) * shape).exp();
            let (below, above) = (t * (1.0 - 1e-9), t * (1.0 + 1e-9));
            let flip = oracle_flip(shape, scale);
            // With a zero-width band the sampler would cut at the first
            // grid point at or above `t`: count the cases where that is
            // not where the logarithm cuts.
            let cut_at_t = (t * STEPS).ceil();
            flip_off_threshold += usize::from(cut_at_t < STEPS && cut_at_t as u64 != flip);
            let mut points = Vec::new();
            for target in [
                step_of(t),
                step_of(below),
                step_of(above),
                flip.min((1 << 53) - 1),
            ] {
                points.extend([
                    target.saturating_sub(1),
                    target,
                    (target + 1).min((1 << 53) - 1),
                ]);
            }
            for (k, &m) in points.iter().enumerate() {
                let seed = (i * 100 + j * 10 + k) as u64;
                let script = || Scripted {
                    first: Some(word(m)),
                    inner: StdRng::seed_from_u64(seed),
                };
                let mut got = Counting::new(script());
                let mut want = Counting::new(script());
                let g = GammaSampler::new(shape, scale).sample(&mut got);
                let w = oracle::gamma(&mut want, shape, scale);
                assert_eq!(
                    g.to_bits(),
                    w.to_bits(),
                    "Gamma({shape:e}, {scale:e}) at U = {m}/2^53: {g:e} vs {w:e}"
                );
                assert_eq!(
                    got.words, want.words,
                    "Gamma({shape:e}, {scale:e}) at U = {m}/2^53"
                );
                let u = m as f64 / STEPS;
                if u >= below && u < above {
                    if want.words == 1 {
                        in_band_zero += 1;
                    } else {
                        in_band_kept += 1;
                    }
                }
            }
        }
    }
    // The script reaches both in-band outcomes, and the logarithm's cut is
    // off the threshold's grid point often enough that a band of zero
    // width would decide some scripted uniform differently.
    assert!(
        in_band_zero > 0 && in_band_kept > 0,
        "{in_band_zero} / {in_band_kept}"
    );
    assert!(
        flip_off_threshold > 0,
        "the logarithm cut at t in every case"
    );
}
