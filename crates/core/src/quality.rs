//! Quality evaluation against the centralized baseline.
//!
//! The demo's scenario follows "the evolution … of the perturbed centroids
//! obtained by participants, of their quality (compared to a centralized
//! k-means)". This module computes that comparison for a finished run.

use cs_kmeans::{adjusted_rand_index, assign_all, inertia, KMeans, KMeansConfig};
use cs_timeseries::{Distance, TimeSeries};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Quality readout of one Chiaroscuro run against a centralized baseline.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct QualityReport {
    /// Inertia of the Chiaroscuro clustering (data assigned to the final
    /// perturbed centroids).
    pub chiaroscuro_inertia: f64,
    /// Inertia of a centralized k-means with identical k on the same data.
    pub baseline_inertia: f64,
    /// `chiaroscuro / baseline` — 1.0 means privacy came for free; the demo
    /// shows how close to 1 realistic ε gets.
    pub inertia_ratio: f64,
    /// Adjusted Rand index between the two assignments.
    pub ari_vs_baseline: f64,
    /// Silhouette score of the Chiaroscuro assignment (sampled to at most
    /// `SILHOUETTE_SAMPLE` series; the measure is O(n²)).
    pub silhouette: f64,
}

/// Number of baseline restarts: k-means is a local optimizer, so a fair
/// baseline takes the best of several k-means++ runs.
const BASELINE_RESTARTS: u64 = 5;

/// Series used for the silhouette estimate (the full measure is O(n²)).
const SILHOUETTE_SAMPLE: usize = 400;

/// Compares final Chiaroscuro centroids against the best of
/// `BASELINE_RESTARTS` centralized k-means runs with the same `k` (seeded
/// deterministically from `seed`).
pub fn compare_with_baseline(
    series: &[TimeSeries],
    chiaroscuro_centroids: &[TimeSeries],
    distance: Distance,
    seed: u64,
) -> QualityReport {
    let k = chiaroscuro_centroids.len();
    let chiaroscuro_assignment = assign_all(series, chiaroscuro_centroids, distance);
    let chiaroscuro_inertia = inertia(
        series,
        chiaroscuro_centroids,
        &chiaroscuro_assignment,
        distance,
    );

    let runner = KMeans::new(KMeansConfig {
        k,
        distance,
        ..KMeansConfig::default()
    });
    let baseline = (0..BASELINE_RESTARTS)
        .map(|r| {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_add(r));
            runner.fit(series, &mut rng)
        })
        .min_by(|a, b| a.inertia.partial_cmp(&b.inertia).expect("finite inertia"))
        .expect("at least one restart");

    // Silhouette on a deterministic stride sample.
    let stride = (series.len() / SILHOUETTE_SAMPLE).max(1);
    let sampled_series: Vec<TimeSeries> = series.iter().step_by(stride).cloned().collect();
    let sampled_assignment: Vec<usize> = chiaroscuro_assignment
        .iter()
        .step_by(stride)
        .copied()
        .collect();
    let silhouette =
        cs_kmeans::silhouette(&sampled_series, &sampled_assignment, Distance::Euclidean);

    QualityReport {
        chiaroscuro_inertia,
        baseline_inertia: baseline.inertia,
        inertia_ratio: cs_kmeans::metrics::inertia_ratio(chiaroscuro_inertia, baseline.inertia),
        ari_vs_baseline: adjusted_rand_index(&chiaroscuro_assignment, &baseline.assignment),
        silhouette,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_timeseries::datasets::blobs::{generate_with_centers, BlobsConfig};

    #[test]
    fn perfect_centroids_score_near_one() {
        // Hand the true generator centers to the comparison: the ratio must
        // be ≈ 1 and the ARI high.
        let (ds, centers) = generate_with_centers(
            &BlobsConfig {
                count: 200,
                clusters: 3,
                noise: 0.2,
                ..BlobsConfig::default()
            },
            &mut StdRng::seed_from_u64(1),
        );
        let report = compare_with_baseline(&ds.series, &centers, Distance::SquaredEuclidean, 7);
        assert!(
            report.inertia_ratio < 1.1,
            "true centers should match baseline: {}",
            report.inertia_ratio
        );
        assert!(
            report.ari_vs_baseline > 0.9,
            "ari {}",
            report.ari_vs_baseline
        );
    }

    #[test]
    fn garbage_centroids_score_badly() {
        let (ds, _) = generate_with_centers(
            &BlobsConfig {
                count: 150,
                clusters: 3,
                noise: 0.2,
                ..BlobsConfig::default()
            },
            &mut StdRng::seed_from_u64(2),
        );
        // All-identical garbage centroids far from the data.
        let garbage = vec![TimeSeries::new(vec![100.0; ds.series_len()]); 3];
        let report = compare_with_baseline(&ds.series, &garbage, Distance::SquaredEuclidean, 7);
        assert!(
            report.inertia_ratio > 5.0,
            "garbage must score much worse: {}",
            report.inertia_ratio
        );
    }
}
