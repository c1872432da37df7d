//! The one-step fixture the threaded runtime's and the sharded executor's
//! unit tests share, so the two suites stay comparable.

use chiaroscuro::noise::{contribution_vector, SlotLayout};
use chiaroscuro::rounds::ComputationOutcome;
use cs_dp::NoiseShareGenerator;
use rand::rngs::StdRng;
use rand::SeedableRng;

pub(crate) fn layout() -> SlotLayout {
    SlotLayout {
        k: 2,
        series_len: 3,
    }
}

/// Two tight clusters with negligible noise so estimates are checkable:
/// even nodes hold [1,2,3] in cluster 0, odd nodes [10,10,10] in
/// cluster 1.
pub(crate) fn tiny_contributions(n: usize, seed: u64) -> Vec<Option<Vec<f64>>> {
    let layout = layout();
    let mut rng = StdRng::seed_from_u64(seed);
    let shares = NoiseShareGenerator::new(n, 1e-9);
    (0..n)
        .map(|i| {
            let series = if i % 2 == 0 {
                [1.0, 2.0, 3.0]
            } else {
                [10.0, 10.0, 10.0]
            };
            Some(contribution_vector(
                &layout,
                &series,
                i % 2,
                &shares,
                &mut rng,
            ))
        })
        .collect()
}

pub(crate) fn check_estimates(outcome: &ComputationOutcome, n: usize, tol: f64) {
    let produced = outcome.estimates.iter().flatten().count();
    assert!(
        produced > n / 2,
        "most nodes should produce estimates, got {produced}/{n}"
    );
    for est in outcome.estimates.iter().flatten() {
        for d in 0..3 {
            let mean0 = est.sums[0][d] / est.counts[0];
            let mean1 = est.sums[1][d] / est.counts[1];
            let want0 = [1.0, 2.0, 3.0][d];
            assert!(
                (mean0 - want0).abs() < tol,
                "cluster0 dim{d}: {mean0} vs {want0}"
            );
            assert!((mean1 - 10.0).abs() < tol, "cluster1 dim{d}: {mean1}");
        }
    }
}
