//! Per-participant contribution vectors for one computation step.
//!
//! Implements the payload of paper steps 1–2c: each participant holds, for
//! every disclosed slot (k clusters × (series_len + 1) coordinates), its
//! data value plus one additive noise share such that the *sum over the
//! population* of shares is a Laplace variable calibrated to the
//! iteration's ε slice.

use cs_dp::NoiseShareGenerator;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Slot layout of one computation step's aggregate vector: one block,
/// cluster by cluster (series sums then the member count).
///
/// The paper gossips the encrypted means (2a) and the encrypted noises
/// (2b) separately and merges them slotwise (2c). Both gossips would see
/// the same mixing coefficients `cᵢ`, and push-sum is linear —
/// `Σᵢ cᵢ·dᵢ + Σᵢ cᵢ·νᵢ = Σᵢ cᵢ·(dᵢ + νᵢ)` — so each participant adds its
/// share onto its data slot in cleartext, before encrypting, and one block
/// travels (see "Why one block" in `docs/architecture.md`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SlotLayout {
    /// Number of clusters.
    pub k: usize,
    /// Series length.
    pub series_len: usize,
}

impl SlotLayout {
    /// Slots per cluster: the series coordinates plus the count.
    pub fn per_cluster(&self) -> usize {
        self.series_len + 1
    }

    /// Slot of coordinate `d` of cluster `j`.
    fn data_slot(&self, j: usize, d: usize) -> usize {
        debug_assert!(j < self.k && d < self.series_len);
        j * self.per_cluster() + d
    }

    /// Count slot of cluster `j`.
    fn count_slot(&self, j: usize) -> usize {
        debug_assert!(j < self.k);
        j * self.per_cluster() + self.series_len
    }

    /// Alias of [`Self::total`], kept for `benchmark/`'s probes only.
    #[doc(hidden)]
    pub fn noise_offset(&self) -> usize {
        self.total()
    }

    /// Total slots: `k · (series_len + 1)`.
    pub fn total(&self) -> usize {
        self.k * self.per_cluster()
    }
}

/// Builds one participant's contribution vector in cleartext: the series
/// and the membership indicator in the assigned cluster's slots, plus one
/// fresh noise share on *every* slot. The caller encrypts it (real mode)
/// or feeds it to the plaintext push-sum (simulated mode).
///
/// * `series` — the participant's clamped series values;
/// * `cluster` — the cluster this participant assigned itself to;
/// * `shares` — generator calibrated to (population, iteration noise scale).
pub fn contribution_vector<R: Rng + ?Sized>(
    layout: &SlotLayout,
    series: &[f64],
    cluster: usize,
    shares: &NoiseShareGenerator,
    rng: &mut R,
) -> Vec<f64> {
    assert_eq!(series.len(), layout.series_len, "series length mismatch");
    assert!(cluster < layout.k, "cluster out of range");
    let mut v = vec![0.0; layout.total()];
    for (d, &x) in series.iter().enumerate() {
        v[layout.data_slot(cluster, d)] = x;
    }
    v[layout.count_slot(cluster)] = 1.0;
    shares.add_shares(&mut v, rng);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    /// A contribution and the shares it drew, by replaying the draws on a
    /// clone of the RNG `contribution_vector` consumed. Both streams must
    /// end in the same state: one share per slot, in slot order, and
    /// nothing else drawn.
    fn with_shares(
        layout: &SlotLayout,
        series: &[f64],
        cluster: usize,
        shares: &NoiseShareGenerator,
        rng: &mut StdRng,
    ) -> (Vec<f64>, Vec<f64>) {
        let mut replay = rng.clone();
        let v = contribution_vector(layout, series, cluster, shares, rng);
        let drawn = shares.sample_share_vec(layout.total(), &mut replay);
        assert_eq!(
            rng.next_u64(),
            replay.next_u64(),
            "a contribution draws exactly total() shares"
        );
        (v, drawn)
    }

    #[test]
    fn layout_indexing_is_disjoint_and_complete() {
        let layout = SlotLayout {
            k: 3,
            series_len: 4,
        };
        assert_eq!(layout.total(), 15);
        let mut seen = vec![false; layout.total()];
        for j in 0..3 {
            for d in 0..4 {
                let i = layout.data_slot(j, d);
                assert!(!seen[i]);
                seen[i] = true;
            }
            let c = layout.count_slot(j);
            assert!(!seen[c]);
            seen[c] = true;
        }
        assert!(seen.iter().all(|&s| s), "every slot is addressed");
    }

    #[test]
    fn contribution_places_series_and_count() {
        let layout = SlotLayout {
            k: 2,
            series_len: 3,
        };
        let shares = NoiseShareGenerator::new(100, 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        let (v, drawn) = with_shares(&layout, &[1.0, 2.0, 3.0], 1, &shares, &mut rng);
        // Cluster 1 holds the series and the indicator, each plus its share:
        for (d, x) in [1.0, 2.0, 3.0].into_iter().enumerate() {
            let slot = layout.data_slot(1, d);
            assert_eq!(v[slot], x + drawn[slot]);
        }
        let count = layout.count_slot(1);
        assert_eq!(v[count], 1.0 + drawn[count]);
    }

    #[test]
    fn other_clusters_hold_shares_only() {
        let layout = SlotLayout {
            k: 2,
            series_len: 3,
        };
        let shares = NoiseShareGenerator::new(10, 5.0);
        let mut rng = StdRng::seed_from_u64(2);
        let (v, drawn) = with_shares(&layout, &[7.0; 3], 0, &shares, &mut rng);
        assert!(drawn.iter().all(|&s| s != 0.0), "every slot gets a share");
        for slot in layout.data_slot(1, 0)..=layout.count_slot(1) {
            assert_eq!(v[slot], drawn[slot], "slot {slot} of the other cluster");
        }
    }

    #[test]
    fn summed_contributions_reconstruct_cluster_sums() {
        // Three participants, two clusters: the slot-wise sum of their
        // contributions, shares taken out, must be (cluster sums, counts).
        let layout = SlotLayout {
            k: 2,
            series_len: 2,
        };
        let shares = NoiseShareGenerator::new(3, 1.0);
        let mut rng = StdRng::seed_from_u64(3);
        let (a, sa) = with_shares(&layout, &[1.0, 2.0], 0, &shares, &mut rng);
        let (b, sb) = with_shares(&layout, &[3.0, 4.0], 0, &shares, &mut rng);
        let (c, sc) = with_shares(&layout, &[5.0, 6.0], 1, &shares, &mut rng);
        let want = [4.0, 6.0, 2.0, 5.0, 6.0, 1.0];
        for (slot, w) in want.iter().enumerate() {
            let sum = a[slot] + b[slot] + c[slot];
            let noise = sa[slot] + sb[slot] + sc[slot];
            assert!((sum - noise - w).abs() < 1e-12, "slot {slot}: {sum} vs {w}");
        }
    }

    #[test]
    fn population_shares_still_sum_to_the_calibrated_laplace() {
        // The privacy side of folding: over the whole population, what the
        // contributions add to the clean cluster sums and counts is one
        // Laplace(b) per slot — mean 0, variance 2b².
        let layout = SlotLayout {
            k: 2,
            series_len: 3,
        };
        let (population, b, trials) = (50usize, 1.5, 2000usize);
        let shares = NoiseShareGenerator::new(population, b);
        let mut rng = StdRng::seed_from_u64(18);
        let mut clean = vec![0.0; layout.total()];
        for i in 0..population {
            clean[layout.data_slot(i % 2, 0)] += i as f64 / 10.0;
            clean[layout.count_slot(i % 2)] += 1.0;
        }
        let (mut sum, mut sum_sq) = (0.0, 0.0);
        for _ in 0..trials {
            let mut total = vec![0.0; layout.total()];
            for i in 0..population {
                let series = [i as f64 / 10.0, 0.0, 0.0];
                let v = contribution_vector(&layout, &series, i % 2, &shares, &mut rng);
                for (t, x) in total.iter_mut().zip(&v) {
                    *t += x;
                }
            }
            for (t, c) in total.iter().zip(&clean) {
                sum += t - c;
                sum_sq += (t - c) * (t - c);
            }
        }
        let n = (trials * layout.total()) as f64;
        let mean = sum / n;
        let var = sum_sq / n - mean * mean;
        assert!(mean.abs() < 0.05 * b, "noise mean {mean}");
        let want = 2.0 * b * b;
        assert!((var / want - 1.0).abs() < 0.10, "variance {var} vs {want}");
    }

    #[test]
    #[should_panic(expected = "cluster out of range")]
    fn bad_cluster_panics() {
        let layout = SlotLayout {
            k: 2,
            series_len: 1,
        };
        let shares = NoiseShareGenerator::new(2, 1.0);
        let mut rng = StdRng::seed_from_u64(4);
        contribution_vector(&layout, &[0.0], 5, &shares, &mut rng);
    }
}
