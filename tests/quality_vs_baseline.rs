//! The demo's quality claim, as assertions: privacy-preserving clustering
//! quality approaches the centralized baseline as ε grows, and the
//! quality-enhancing heuristics help where noise dominates.

use chiaroscuro::{compare_with_baseline, ChiaroscuroConfig, Engine};
use cs_dp::BudgetStrategy;
use cs_timeseries::datasets::blobs::{generate, BlobsConfig};
use cs_timeseries::smooth::Smoothing;
use cs_timeseries::{Distance, TimeSeries};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn blob_series(count: usize, seed: u64) -> Vec<TimeSeries> {
    generate(
        &BlobsConfig {
            count,
            clusters: 3,
            len: 12,
            noise: 0.35,
            ..Default::default()
        },
        &mut StdRng::seed_from_u64(seed),
    )
    .series
}

fn run_ratio(
    series: &[TimeSeries],
    eps: f64,
    smoothing: Smoothing,
    strategy: BudgetStrategy,
) -> f64 {
    let mut cfg = ChiaroscuroConfig::demo_simulated();
    cfg.k = 3;
    cfg.epsilon = eps;
    cfg.value_bound = 8.0;
    cfg.smoothing = smoothing;
    cfg.budget_strategy = strategy;
    cfg.max_iterations = 6;
    cfg.gossip_cycles = 25;
    let out = Engine::new(cfg).unwrap().run(series).unwrap();
    compare_with_baseline(series, &out.centroids, Distance::SquaredEuclidean, 7).inertia_ratio
}

#[test]
fn quality_improves_with_epsilon() {
    let series = blob_series(250, 1);
    let low = run_ratio(&series, 10.0, Smoothing::None, BudgetStrategy::Uniform);
    let high = run_ratio(&series, 2000.0, Smoothing::None, BudgetStrategy::Uniform);
    assert!(
        high < low,
        "200× the budget must improve quality: ε=10 → {low}, ε=2000 → {high}"
    );
    assert!(
        high < 1.5,
        "near-noiseless run must approach parity: {high}"
    );
}

#[test]
fn smoothing_helps_when_noise_dominates() {
    // Individual runs are noisy by construction — smoothing wins about
    // three datasets in four here — so the claim is a majority over enough
    // of them that a change to the random streams does not decide it (3 of
    // 5, the old form, fails one stream in ten at that rate).
    let datasets = 40;
    let wins = (0..datasets)
        .filter(|seed| {
            let series = blob_series(250, 10 + seed);
            let plain = run_ratio(&series, 15.0, Smoothing::None, BudgetStrategy::Uniform);
            let smoothed = run_ratio(
                &series,
                15.0,
                Smoothing::MovingAverage { window: 3 },
                BudgetStrategy::Uniform,
            );
            smoothed < plain
        })
        .count();
    assert!(
        2 * wins > datasets as usize,
        "smoothing should usually help in the noisy regime: {wins}/{datasets} wins"
    );
}

#[test]
fn baseline_comparison_is_stable_across_restarts() {
    // The baseline takes the best of several k-means++ restarts, so its
    // inertia must be reproducible and not depend on one lucky seed.
    let series = blob_series(200, 2);
    let r1 = compare_with_baseline(&series, &series[..3], Distance::SquaredEuclidean, 7);
    let r2 = compare_with_baseline(&series, &series[..3], Distance::SquaredEuclidean, 7);
    assert_eq!(r1.baseline_inertia, r2.baseline_inertia);
    assert!(r1.baseline_inertia > 0.0);
}

#[test]
fn distributed_never_beats_baseline_materially() {
    // Sanity on the comparison itself: a DP + gossip run should not report
    // materially *better* inertia than the best centralized restart — that
    // would signal a broken metric, not a discovery.
    let series = blob_series(250, 3);
    let ratio = run_ratio(&series, 5000.0, Smoothing::None, BudgetStrategy::Uniform);
    assert!(
        ratio > 0.9,
        "distributed result implausibly beats the baseline: {ratio}"
    );
}
