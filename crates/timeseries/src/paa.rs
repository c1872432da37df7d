//! Piecewise Aggregate Approximation (PAA).
//!
//! Chiaroscuro's per-iteration crypto and network cost is linear in the
//! series length `T` (the aggregate has `2k(T+1)` encrypted slots). PAA
//! compresses a series into `segments` mean values, shrinking `T` by the
//! reduction factor while preserving Euclidean geometry up to a provable
//! lower bound — so participants can trade a little clustering resolution
//! for a large cost cut before entering the protocol. Experiment E9
//! quantifies the trade-off.

use crate::TimeSeries;
use serde::{Deserialize, Serialize};

/// A PAA reducer mapping length-`input_len` series to `segments` means.
///
/// ```
/// use cs_timeseries::paa::Paa;
/// use cs_timeseries::TimeSeries;
///
/// let paa = Paa::new(8, 2);
/// let ts = TimeSeries::new(vec![1.0, 1.0, 1.0, 1.0, 5.0, 5.0, 5.0, 5.0]);
/// assert_eq!(paa.reduce(&ts).values(), &[1.0, 5.0]);
/// assert_eq!(paa.reduction_factor(), 4.0);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Paa {
    input_len: usize,
    segments: usize,
}

impl Paa {
    /// Creates a reducer. Panics unless `1 <= segments <= input_len`.
    pub fn new(input_len: usize, segments: usize) -> Self {
        assert!(segments >= 1, "need at least one segment");
        assert!(
            segments <= input_len,
            "cannot have more segments than points"
        );
        Paa {
            input_len,
            segments,
        }
    }

    /// Original series length.
    pub fn input_len(&self) -> usize {
        self.input_len
    }

    /// Reduced length.
    pub fn segments(&self) -> usize {
        self.segments
    }

    /// The cost-reduction factor `input_len / segments`.
    pub fn reduction_factor(&self) -> f64 {
        self.input_len as f64 / self.segments as f64
    }

    /// Reduces one series to its segment means.
    ///
    /// Segment boundaries follow the standard fractional scheme: point `i`
    /// contributes to segment `⌊i·segments/input_len⌋`, so uneven divisions
    /// distribute points as evenly as possible.
    pub fn reduce(&self, ts: &TimeSeries) -> TimeSeries {
        assert_eq!(ts.len(), self.input_len, "length mismatch");
        let mut sums = vec![0.0f64; self.segments];
        let mut counts = vec![0usize; self.segments];
        for (i, &v) in ts.values().iter().enumerate() {
            let seg = i * self.segments / self.input_len;
            sums[seg] += v;
            counts[seg] += 1;
        }
        TimeSeries::new(
            sums.iter()
                .zip(&counts)
                .map(|(s, &c)| s / c.max(1) as f64)
                .collect(),
        )
    }

    /// Reduces a whole dataset.
    pub fn reduce_all(&self, series: &[TimeSeries]) -> Vec<TimeSeries> {
        series.iter().map(|ts| self.reduce(ts)).collect()
    }

    /// Expands a reduced series back to the original length by step
    /// interpolation (each segment mean repeated over its span) — used to
    /// map reduced-space centroids back for display and matching.
    pub fn expand(&self, reduced: &TimeSeries) -> TimeSeries {
        assert_eq!(reduced.len(), self.segments, "length mismatch");
        TimeSeries::from_fn(self.input_len, |i| {
            reduced.values()[i * self.segments / self.input_len]
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn reduce_exact_division() {
        let paa = Paa::new(6, 3);
        let ts = TimeSeries::new(vec![1.0, 3.0, 5.0, 7.0, 9.0, 11.0]);
        assert_eq!(paa.reduce(&ts).values(), &[2.0, 6.0, 10.0]);
    }

    #[test]
    fn reduce_uneven_division() {
        let paa = Paa::new(5, 2);
        let ts = TimeSeries::new(vec![2.0, 4.0, 6.0, 8.0, 10.0]);
        // seg(i) = ⌊i·2/5⌋: points 0,1,2 → segment 0; points 3,4 → segment 1.
        let r = paa.reduce(&ts);
        assert_eq!(r.values()[0], 4.0);
        assert_eq!(r.values()[1], 9.0);
    }

    #[test]
    fn identity_when_segments_equal_len() {
        let paa = Paa::new(4, 4);
        let ts = TimeSeries::new(vec![1.0, -2.0, 3.0, -4.0]);
        assert_eq!(paa.reduce(&ts), ts);
        assert_eq!(paa.expand(&ts), ts);
    }

    #[test]
    fn single_segment_is_global_mean() {
        let paa = Paa::new(4, 1);
        let ts = TimeSeries::new(vec![1.0, 2.0, 3.0, 6.0]);
        assert_eq!(paa.reduce(&ts).values(), &[3.0]);
    }

    #[test]
    fn expand_repeats_segment_means() {
        let paa = Paa::new(6, 2);
        let reduced = TimeSeries::new(vec![1.0, 5.0]);
        assert_eq!(
            paa.expand(&reduced).values(),
            &[1.0, 1.0, 1.0, 5.0, 5.0, 5.0]
        );
    }

    #[test]
    fn reduce_expand_preserves_mean() {
        let mut rng = StdRng::seed_from_u64(1);
        let ts: TimeSeries = (0..24).map(|_| rng.gen::<f64>() * 10.0).collect();
        let paa = Paa::new(24, 6);
        let roundtrip = paa.expand(&paa.reduce(&ts));
        assert!((roundtrip.mean() - ts.mean()).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "more segments than points")]
    fn too_many_segments_panics() {
        Paa::new(3, 4);
    }
}
