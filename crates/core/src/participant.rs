//! Per-participant state.

use crate::diptych::Diptych;
use crate::noise::{contribution_vector, SlotLayout};
use cs_dp::NoiseShareGenerator;
use cs_kmeans::assign::nearest_centroid;
use cs_timeseries::{Distance, TimeSeries};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One personal device participating in the protocol.
///
/// Holds the private series (clamped to the public value bound), the
/// participant's own Diptych (its approximation of the shared state — every
/// participant "holds its own approximation of the global aggregate"), its
/// current assignment, and its own random stream.
#[derive(Clone, Debug)]
pub struct Participant {
    series: TimeSeries,
    diptych: Diptych,
    stream: StdRng,
    /// Cluster chosen in the current iteration's assignment step.
    pub cluster: usize,
    /// Set when this participant's convergence step fired.
    pub converged: bool,
}

impl Participant {
    /// Creates a participant, clamping the series into `[-bound, bound]`.
    pub fn new(series: &TimeSeries, value_bound: f64, initial: Diptych) -> Self {
        let clamped: TimeSeries = series
            .values()
            .iter()
            .map(|v| v.clamp(-value_bound, value_bound))
            .collect();
        Participant {
            series: clamped,
            diptych: initial,
            stream: StdRng::seed_from_u64(0),
            cluster: 0,
            converged: false,
        }
    }

    /// Starts an iteration: everything participant `id` draws in it (noise
    /// shares, empty-cluster jitter) comes from a stream that is a function
    /// of `iteration_word` and `id` alone — not of who else is alive, nor of
    /// how many words another participant's sampler consumed.
    pub fn begin_iteration(&mut self, iteration_word: u64, id: usize) {
        // `seed_from_u64` hashes its argument into the generator's state, so
        // seeds that differ in a few low bits give unrelated streams.
        self.stream = StdRng::seed_from_u64(iteration_word ^ id as u64);
    }

    /// This iteration's stream (see [`Self::begin_iteration`]).
    pub fn stream(&mut self) -> &mut StdRng {
        &mut self.stream
    }

    /// The participant's (clamped) private series.
    pub fn series(&self) -> &TimeSeries {
        &self.series
    }

    /// The participant's current Diptych (cleartext side).
    pub fn diptych(&self) -> &Diptych {
        &self.diptych
    }

    /// Mutable Diptych access (engine-internal updates).
    pub fn diptych_mut(&mut self) -> &mut Diptych {
        &mut self.diptych
    }

    /// Paper step 1 (local): assign the series to the closest perturbed
    /// centroid. Returns the chosen cluster.
    fn assignment_step(&mut self, distance: Distance) -> usize {
        let (cluster, _) = nearest_centroid(&self.series, &self.diptych.centroids, distance);
        self.cluster = cluster;
        cluster
    }

    /// Paper steps 1–2 (local): the assignment step, then this participant's
    /// contribution to the computation step — its series and membership
    /// indicator in the chosen cluster's slots plus one noise share per
    /// slot, drawn from its own stream.
    pub fn contribute(
        &mut self,
        layout: &SlotLayout,
        shares: &NoiseShareGenerator,
        distance: Distance,
    ) -> Vec<f64> {
        let cluster = self.assignment_step(distance);
        contribution_vector(
            layout,
            self.series.values(),
            cluster,
            shares,
            &mut self.stream,
        )
    }

    /// Paper step 3 (local): compare the perturbed means against the current
    /// centroids; below the threshold the participant is done. Returns the
    /// observed movement.
    pub fn convergence_step(&mut self, new_centroids: &[TimeSeries], threshold: f64) -> f64 {
        let movement = self.diptych.movement_to(new_centroids);
        self.converged = movement <= threshold;
        movement
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(v: &[f64]) -> TimeSeries {
        TimeSeries::new(v.to_vec())
    }

    fn two_centroids() -> Diptych {
        Diptych::initial(vec![ts(&[0.0, 0.0]), ts(&[10.0, 10.0])])
    }

    #[test]
    fn clamping_applies_bound() {
        let p = Participant::new(&ts(&[100.0, -100.0]), 5.0, two_centroids());
        assert_eq!(p.series().values(), &[5.0, -5.0]);
    }

    #[test]
    fn assignment_picks_nearest() {
        let mut p = Participant::new(&ts(&[9.0, 9.0]), 20.0, two_centroids());
        assert_eq!(p.assignment_step(Distance::SquaredEuclidean), 1);
        let mut q = Participant::new(&ts(&[1.0, -1.0]), 20.0, two_centroids());
        assert_eq!(q.assignment_step(Distance::SquaredEuclidean), 0);
    }

    #[test]
    fn convergence_sets_flag_when_still() {
        let mut p = Participant::new(&ts(&[0.0, 0.0]), 5.0, two_centroids());
        let same = vec![ts(&[0.0, 0.0]), ts(&[10.0, 10.0])];
        let movement = p.convergence_step(&same, 1e-6);
        assert_eq!(movement, 0.0);
        assert!(p.converged);

        let moved = vec![ts(&[1.0, 0.0]), ts(&[10.0, 10.0])];
        let movement = p.convergence_step(&moved, 1e-6);
        assert_eq!(movement, 1.0);
        assert!(!p.converged);
    }
}
