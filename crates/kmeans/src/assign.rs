//! The assignment step: nearest centroid per series.

use cs_timeseries::{Distance, TimeSeries};

/// Index of the centroid closest to `series`, with its distance.
///
/// Panics if `centroids` is empty.
pub fn nearest_centroid(
    series: &TimeSeries,
    centroids: &[TimeSeries],
    distance: Distance,
) -> (usize, f64) {
    assert!(!centroids.is_empty(), "no centroids");
    let mut best = (0usize, f64::INFINITY);
    for (i, c) in centroids.iter().enumerate() {
        let d = distance.compute(series, c);
        if d < best.1 {
            best = (i, d);
        }
    }
    best
}

/// Assigns every series to its nearest centroid.
pub fn assign_all(
    series: &[TimeSeries],
    centroids: &[TimeSeries],
    distance: Distance,
) -> Vec<usize> {
    series
        .iter()
        .map(|s| nearest_centroid(s, centroids, distance).0)
        .collect()
}

/// Per-cluster sums and counts from an assignment — the cleartext analogue
/// of what Chiaroscuro aggregates under encryption.
pub fn cluster_sums<'a>(
    series: impl IntoIterator<Item = &'a TimeSeries>,
    assignment: &[usize],
    k: usize,
    len: usize,
) -> (Vec<TimeSeries>, Vec<usize>) {
    let mut sums = vec![TimeSeries::zeros(len); k];
    let mut counts = vec![0usize; k];
    for (s, &a) in series.into_iter().zip(assignment) {
        debug_assert!(a < k, "assignment out of range");
        assert_eq!(s.len(), len, "length mismatch");
        for (acc, v) in sums[a].values_mut().iter_mut().zip(s.values()) {
            *acc += v;
        }
        counts[a] += 1;
    }
    (sums, counts)
}

/// Cluster means from sums and counts; empty clusters keep their zero sum.
pub fn cluster_means(sums: &[TimeSeries], counts: &[usize]) -> Vec<TimeSeries> {
    sums.iter()
        .zip(counts)
        .map(|(sum, &c)| {
            if c == 0 {
                sum.clone()
            } else {
                sum.scale(1.0 / c as f64)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(v: &[f64]) -> TimeSeries {
        TimeSeries::new(v.to_vec())
    }

    #[test]
    fn nearest_is_correct() {
        let centroids = vec![ts(&[0.0, 0.0]), ts(&[10.0, 10.0])];
        let (idx, d) = nearest_centroid(&ts(&[1.0, 1.0]), &centroids, Distance::SquaredEuclidean);
        assert_eq!(idx, 0);
        assert_eq!(d, 2.0);
        let (idx, _) = nearest_centroid(&ts(&[9.0, 9.0]), &centroids, Distance::SquaredEuclidean);
        assert_eq!(idx, 1);
    }

    #[test]
    fn ties_take_lowest_index() {
        let centroids = vec![ts(&[1.0]), ts(&[3.0])];
        let (idx, _) = nearest_centroid(&ts(&[2.0]), &centroids, Distance::SquaredEuclidean);
        assert_eq!(idx, 0);
    }

    #[test]
    fn sums_and_means() {
        let series = vec![ts(&[1.0, 2.0]), ts(&[3.0, 4.0]), ts(&[10.0, 10.0])];
        let assignment = vec![0, 0, 1];
        let (sums, counts) = cluster_sums(&series, &assignment, 3, 2);
        assert_eq!(sums[0].values(), &[4.0, 6.0]);
        assert_eq!(counts, vec![2, 1, 0]);
        let means = cluster_means(&sums, &counts);
        assert_eq!(means[0].values(), &[2.0, 3.0]);
        assert_eq!(means[1].values(), &[10.0, 10.0]);
        assert_eq!(means[2].values(), &[0.0, 0.0], "empty cluster untouched");
    }

    #[test]
    fn assign_all_shape() {
        let series = vec![ts(&[0.0]), ts(&[9.0])];
        let centroids = vec![ts(&[0.0]), ts(&[10.0])];
        assert_eq!(
            assign_all(&series, &centroids, Distance::SquaredEuclidean),
            vec![0, 1]
        );
    }
}
