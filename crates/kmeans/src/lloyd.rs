//! Lloyd's k-means.

use crate::assign::{assign_all, cluster_means, cluster_sums};
use crate::init::InitMethod;
use crate::metrics::inertia;
use cs_timeseries::{Distance, TimeSeries};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// k-means configuration, mirroring the demo's "fixed parameters … related
/// to the k-means algorithm (e.g., number of initial centroids, convergence
/// threshold)".
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct KMeansConfig {
    /// Number of clusters.
    pub k: usize,
    /// Maximum Lloyd iterations.
    pub max_iterations: usize,
    /// Convergence threshold on the summed centroid displacement
    /// (Euclidean, per the paper's convergence step).
    pub convergence_threshold: f64,
    /// Initialization method.
    pub init: InitMethod,
    /// Distance for the assignment step.
    pub distance: Distance,
}

impl Default for KMeansConfig {
    fn default() -> Self {
        KMeansConfig {
            k: 5,
            max_iterations: 50,
            convergence_threshold: 1e-4,
            init: InitMethod::PlusPlus,
            distance: Distance::SquaredEuclidean,
        }
    }
}

/// Result of a k-means run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct KMeansResult {
    /// Final centroids (length `k`).
    pub centroids: Vec<TimeSeries>,
    /// Final assignment of each input series.
    pub assignment: Vec<usize>,
    /// Final intra-cluster inertia.
    pub inertia: f64,
    /// Iterations executed.
    pub iterations: usize,
    /// `true` if the run stopped on the threshold rather than the cap.
    pub converged: bool,
    /// Inertia after each iteration (for convergence plots).
    pub inertia_history: Vec<f64>,
    /// Summed centroid displacement after each iteration.
    pub movement_history: Vec<f64>,
}

/// Lloyd's algorithm runner.
#[derive(Clone, Debug)]
pub struct KMeans {
    config: KMeansConfig,
}

impl KMeans {
    /// Creates a runner with the given configuration.
    pub fn new(config: KMeansConfig) -> Self {
        assert!(config.k > 0, "k must be positive");
        assert!(config.max_iterations > 0, "need at least one iteration");
        KMeans { config }
    }

    /// The configuration.
    pub fn config(&self) -> &KMeansConfig {
        &self.config
    }

    /// Runs Lloyd's algorithm on `series`.
    ///
    /// Panics if `series.len() < k`.
    pub fn fit<R: Rng + ?Sized>(&self, series: &[TimeSeries], rng: &mut R) -> KMeansResult {
        let cfg = &self.config;
        let centroids = cfg.init.choose(series, cfg.k, cfg.distance, rng);
        self.fit_from(series, centroids, rng)
    }

    /// Runs Lloyd's algorithm from caller-provided initial centroids (used
    /// by experiments that compare the distributed and centralized runs from
    /// identical seeds).
    fn fit_from<R: Rng + ?Sized>(
        &self,
        series: &[TimeSeries],
        mut centroids: Vec<TimeSeries>,
        rng: &mut R,
    ) -> KMeansResult {
        let cfg = &self.config;
        assert_eq!(centroids.len(), cfg.k, "need exactly k initial centroids");
        assert!(series.len() >= cfg.k, "need at least k series");
        let len = series[0].len();

        let mut inertia_history = Vec::new();
        let mut movement_history = Vec::new();
        let mut converged = false;
        let mut iterations = 0;

        for _ in 0..cfg.max_iterations {
            iterations += 1;
            // Step 1: assignment.
            let assignment = assign_all(series, &centroids, cfg.distance);
            // Step 2: computation.
            let (sums, counts) = cluster_sums(series, &assignment, cfg.k, len);
            let mut means = cluster_means(&sums, &counts);
            // Empty-cluster repair: reseed from the series farthest from its
            // centroid (deterministic given the RNG stream).
            for j in 0..cfg.k {
                if counts[j] == 0 {
                    means[j] = reseed_empty(series, &assignment, &centroids, cfg.distance, rng);
                }
            }
            // Step 3: convergence.
            let movement: f64 = centroids
                .iter()
                .zip(&means)
                .map(|(c, m)| Distance::Euclidean.compute(c, m))
                .sum();
            centroids = means;
            inertia_history.push(inertia(series, &centroids, &assignment, cfg.distance));
            movement_history.push(movement);
            if movement <= cfg.convergence_threshold {
                converged = true;
                break;
            }
        }

        // Refresh the assignment against the final centroids.
        let assignment = assign_all(series, &centroids, cfg.distance);
        let final_inertia = inertia(series, &centroids, &assignment, cfg.distance);
        KMeansResult {
            centroids,
            assignment,
            inertia: final_inertia,
            iterations,
            converged,
            inertia_history,
            movement_history,
        }
    }
}

/// Picks the series with the largest distance to its assigned centroid as a
/// replacement seed for an empty cluster.
fn reseed_empty<R: Rng + ?Sized>(
    series: &[TimeSeries],
    assignment: &[usize],
    centroids: &[TimeSeries],
    distance: Distance,
    rng: &mut R,
) -> TimeSeries {
    let mut best: (f64, usize) = (-1.0, 0);
    for (i, s) in series.iter().enumerate() {
        let d = distance.compute(s, &centroids[assignment[i]]);
        if d > best.0 {
            best = (d, i);
        }
    }
    // Extremely degenerate case (all distances zero): random member.
    if best.0 <= 0.0 {
        return series[rng.gen_range(0..series.len())].clone();
    }
    series[best.1].clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_timeseries::datasets::blobs::{generate_with_centers, BlobsConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn blobs(
        seed: u64,
        count: usize,
        clusters: usize,
        noise: f64,
    ) -> cs_timeseries::LabeledDataset {
        generate_with_centers(
            &BlobsConfig {
                count,
                clusters,
                noise,
                ..BlobsConfig::default()
            },
            &mut StdRng::seed_from_u64(seed),
        )
        .0
    }

    #[test]
    fn recovers_separable_clusters() {
        let ds = blobs(1, 300, 3, 0.15);
        let mut rng = StdRng::seed_from_u64(2);
        let result = KMeans::new(KMeansConfig {
            k: 3,
            ..KMeansConfig::default()
        })
        .fit(&ds.series, &mut rng);
        let ari = crate::adjusted_rand_index(&result.assignment, &ds.labels);
        assert!(ari > 0.95, "ARI {ari} too low for well-separated blobs");
        assert!(result.converged);
    }

    #[test]
    fn inertia_non_increasing() {
        let ds = blobs(3, 200, 4, 0.5);
        let mut rng = StdRng::seed_from_u64(4);
        let result = KMeans::new(KMeansConfig {
            k: 4,
            max_iterations: 30,
            convergence_threshold: 0.0, // run to the cap
            ..KMeansConfig::default()
        })
        .fit(&ds.series, &mut rng);
        for w in result.inertia_history.windows(2) {
            assert!(
                w[1] <= w[0] + 1e-9,
                "inertia must not increase: {:?}",
                result.inertia_history
            );
        }
    }

    #[test]
    fn k_equals_one_gives_global_mean() {
        let ds = blobs(5, 50, 2, 0.3);
        let mut rng = StdRng::seed_from_u64(6);
        let result = KMeans::new(KMeansConfig {
            k: 1,
            ..KMeansConfig::default()
        })
        .fit(&ds.series, &mut rng);
        // Mean of all series.
        let len = ds.series_len();
        let mut mean = TimeSeries::zeros(len);
        for s in &ds.series {
            mean = mean.add(s);
        }
        let mean = mean.scale(1.0 / ds.len() as f64);
        for (a, b) in result.centroids[0].values().iter().zip(mean.values()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn k_equals_n_perfect_fit() {
        let series: Vec<TimeSeries> = (0..6)
            .map(|i| TimeSeries::new(vec![i as f64 * 10.0, 0.0]))
            .collect();
        let mut rng = StdRng::seed_from_u64(7);
        let result = KMeans::new(KMeansConfig {
            k: 6,
            ..KMeansConfig::default()
        })
        .fit(&series, &mut rng);
        assert!(result.inertia < 1e-12, "inertia {}", result.inertia);
    }

    #[test]
    fn empty_cluster_repair_keeps_k_centroids() {
        // Deliberately poor init: all centroids identical → k-1 empty
        // clusters on iteration one.
        let ds = blobs(8, 100, 2, 0.2);
        let init = vec![ds.series[0].clone(); 4];
        let mut rng = StdRng::seed_from_u64(9);
        let result = KMeans::new(KMeansConfig {
            k: 4,
            ..KMeansConfig::default()
        })
        .fit_from(&ds.series, init, &mut rng);
        assert_eq!(result.centroids.len(), 4);
        // After repair, every cluster should end non-degenerate on blobs.
        let occupied: std::collections::HashSet<usize> =
            result.assignment.iter().copied().collect();
        assert!(occupied.len() >= 2);
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = blobs(10, 150, 3, 0.4);
        let run = |seed| {
            KMeans::new(KMeansConfig {
                k: 3,
                ..KMeansConfig::default()
            })
            .fit(&ds.series, &mut StdRng::seed_from_u64(seed))
        };
        let a = run(42);
        let b = run(42);
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(a.inertia, b.inertia);
    }
}
