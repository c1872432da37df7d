//! Property tests for the engine configuration.

use chiaroscuro::config::MAX_ITERATIONS;
use chiaroscuro::ChiaroscuroConfig;
use cs_dp::{BudgetPlan, BudgetStrategy, PrivacyAccountant};
use cs_timeseries::smooth::Smoothing;
use cs_timeseries::TimeSeries;
use proptest::prelude::*;

const INF: f64 = f64::INFINITY;

/// A magnitude `10^x`, `x` log-uniform in `[lo, hi)`, or one of `edges`
/// a quarter of the time.
fn magnitude(edges: [f64; 2], lo: f64, hi: f64) -> impl Strategy<Value = f64> {
    (0usize..8, lo..hi).prop_map(move |(pick, x)| edges.get(pick).copied().unwrap_or(10f64.powf(x)))
}

/// Half the time a value in `[-4, 4)`; otherwise one that breaks
/// arithmetic: NaN, ±∞, ±0, the smallest subnormal, 1 or a huge value.
fn edgy() -> impl Strategy<Value = f64> {
    let edges = [f64::NAN, INF, -INF, 0.0, -0.0, 5e-324, 1.0, 1e300];
    (0usize..16, -4.0..4.0).prop_map(move |(pick, x)| edges.get(pick).copied().unwrap_or(x))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `validate` never panics, and what it accepts never panics the budget
    /// plan, the accountant or the smoothing, nor spends ε before the plan
    /// ends. Horizons: 0, short, the cap, one past it and `usize::MAX`.
    #[test]
    fn an_accepted_config_never_panics_the_budget_or_the_smoothing(
        (budget, smoothing, horizon) in (0usize..3, 0usize..3, 0usize..8),
        (ratio, settle_threshold, floor_fraction, alpha) in (edgy(), edgy(), edgy(), edgy()),
        (window, short) in (0usize..8, 1usize..=64),
        movements in proptest::collection::vec(edgy(), 1..6),
    ) {
        let mut config = ChiaroscuroConfig::demo_simulated();
        config.budget_strategy = match budget {
            0 => BudgetStrategy::Uniform,
            1 => BudgetStrategy::Increasing { ratio },
            _ => BudgetStrategy::Adaptive { settle_threshold, floor_fraction },
        };
        let window = [0, 1, 2, 3, 5, 24, 1 << 40, usize::MAX][window];
        config.smoothing = match smoothing {
            0 => Smoothing::None,
            1 => Smoothing::MovingAverage { window },
            _ => Smoothing::Exponential { alpha },
        };
        let horizons = [0, MAX_ITERATIONS, MAX_ITERATIONS + 1, usize::MAX];
        config.max_iterations = horizons.get(horizon).copied().unwrap_or(short);
        prop_assume!(config.validate().is_ok());

        let ChiaroscuroConfig { budget_strategy, epsilon, max_iterations, .. } = config;
        let mut plan = BudgetPlan::new(budget_strategy, epsilon, max_iterations);
        let mut accountant = PrivacyAccountant::new(epsilon);
        let mut iteration = 0;
        let mut previous = None;
        while let Some(slice) = plan.next_epsilon(previous) {
            let charged = accountant.charge(iteration, "iteration", slice);
            prop_assert!(charged.is_ok(), "{budget_strategy:?} at {iteration}: {charged:?}");
            previous = Some(movements[iteration % movements.len()]);
            iteration += 1;
        }
        prop_assert_eq!(iteration, max_iterations);
        let series = TimeSeries::new(vec![0.3, -1.2, 4.0, 0.0, 2.5]);
        prop_assert_eq!(config.smoothing.apply(&series).len(), series.len());
    }

    /// The noise scale `Engine::run` draws from is positive and finite or
    /// a typed refusal, for every bound up to `f64::MAX`, every series
    /// length up to 10⁴ and every per-iteration ε, edges included.
    #[test]
    fn a_noise_scale_is_positive_and_finite_or_refused(
        value_bound in magnitude([f64::MAX, 1e307], -3.0, 308.25),
        series_len in 1usize..=10_000,
        (pick, edge, eps) in (0usize..4, edgy(), magnitude([5e-324, 1e-300], -300.0, 1.0)),
    ) {
        let eps_t = if pick == 0 { edge } else { eps };
        let mut config = ChiaroscuroConfig::demo_simulated();
        config.value_bound = value_bound;
        if let Ok(scale) = config.noise_scale(series_len, eps_t) {
            prop_assert!(scale.is_finite() && scale > 0.0, "{value_bound} {series_len} {eps_t}: {scale}");
            prop_assert_eq!(scale, config.sensitivity(series_len) / eps_t);
        }
    }
}
