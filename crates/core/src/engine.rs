//! The Chiaroscuro engine: the full execution sequence (paper §II-B).
//!
//! Per iteration, each participant runs the **assignment step** locally on
//! its perturbed centroids, the population runs the **computation step** as
//! an encrypted gossip aggregation with per-participant noise shares folded
//! in before collaborative decryption, and each participant runs the
//! **convergence step** locally on the perturbed means. There is no global
//! synchronization primitive: every participant carries its own Diptych, and
//! late participants adopt a peer's newer Diptych when they resurface.

use crate::backend::{ComputationBackend, SimulatorBackend};
use crate::config::ChiaroscuroConfig;
use crate::cost::IterationCost;
use crate::diptych::Diptych;
use crate::error::ChiaroscuroError;
use crate::log::{ExecutionLog, IterationRecord};
use crate::noise::SlotLayout;
use crate::participant::Participant;
use crate::rounds::{CryptoContext, PerturbedAggregates};
use crate::termination::TerminationMonitor;
use cs_dp::{BudgetPlan, NoiseShareGenerator, PrivacyAccountant};
use cs_kmeans::assign::{cluster_means, cluster_sums};
use cs_timeseries::TimeSeries;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::f64::consts::PI;
use std::time::Instant;

/// Result of a complete run.
#[derive(Clone, Debug)]
pub struct RunOutput {
    /// Canonical final centroids (population average of the participants'
    /// perturbed centroids; evaluation convenience — each participant also
    /// keeps its own).
    pub centroids: Vec<TimeSeries>,
    /// Canonical assignment of every input series to `centroids`.
    pub assignment: Vec<usize>,
    /// Iterations executed.
    pub iterations: usize,
    /// Whether the run stopped on convergence (vs the iteration cap or the
    /// budget horizon).
    pub converged: bool,
    /// Full execution log (the demo's MongoDB-document analogue).
    pub log: ExecutionLog,
    /// Privacy spending record.
    pub accountant: PrivacyAccountant,
    /// Each participant's final centroids (their own Diptych view).
    pub per_participant_centroids: Vec<Vec<TimeSeries>>,
}

impl RunOutput {
    /// The demo's interactive use-case (Fig. 3(6)): ranks the final profiles
    /// against a sub-sequence of a participant's series.
    ///
    /// Pure post-processing of the DP-disclosed centroids — no privacy cost.
    pub fn closest_profiles(
        &self,
        query: &TimeSeries,
        measure: cs_timeseries::subsequence::MatchMeasure,
    ) -> Vec<cs_timeseries::subsequence::ProfileMatch> {
        cs_timeseries::subsequence::closest_profiles(query, &self.centroids, measure)
    }

    /// Size of the cluster a given participant's series was assigned to.
    pub fn cluster_size(&self, cluster: usize) -> usize {
        self.assignment.iter().filter(|&&a| a == cluster).count()
    }
}

/// The protocol driver.
pub struct Engine {
    config: ChiaroscuroConfig,
}

impl Engine {
    /// Creates an engine after validating the configuration.
    pub fn new(config: ChiaroscuroConfig) -> Result<Self, ChiaroscuroError> {
        config.validate()?;
        Ok(Engine { config })
    }

    /// The configuration.
    pub fn config(&self) -> &ChiaroscuroConfig {
        &self.config
    }

    /// Runs the protocol over one series per participant, executing the
    /// computation step on the default in-process cycle simulator, which
    /// runs simulated crypto only: a real-crypto configuration fails its
    /// first step with [`ChiaroscuroError::InvalidConfig`]. Run real crypto
    /// with [`Self::run_with_backend`] and `cs_net`'s
    /// `NetBackend::sharded(..)`.
    pub fn run(&self, series: &[TimeSeries]) -> Result<RunOutput, ChiaroscuroError> {
        self.run_with_backend(series, &mut SimulatorBackend)
    }

    /// Runs the protocol with the computation step executed by an arbitrary
    /// substrate — the cycle simulator, or a real message-passing transport
    /// (see the `cs_net` crate's `NetBackend`).
    pub fn run_with_backend(
        &self,
        series: &[TimeSeries],
        backend: &mut dyn ComputationBackend,
    ) -> Result<RunOutput, ChiaroscuroError> {
        self.run_chunked(series, backend, local_chunks(series.len()))
    }

    /// [`Self::run_with_backend`] with the local passes split into `chunks`
    /// contiguous ranges of participants (the output does not depend on it).
    pub(crate) fn run_chunked(
        &self,
        series: &[TimeSeries],
        backend: &mut dyn ComputationBackend,
        chunks: usize,
    ) -> Result<RunOutput, ChiaroscuroError> {
        let cfg = &self.config;
        let n = series.len();
        if n < cfg.k.max(2) {
            return Err(ChiaroscuroError::NotEnoughData {
                series: n,
                k: cfg.k,
            });
        }
        let series_len = series[0].len();
        if series_len == 0 {
            return Err(ChiaroscuroError::InvalidConfig(
                "series must be non-empty".into(),
            ));
        }
        if series.iter().any(|s| s.len() != series_len) {
            return Err(ChiaroscuroError::InvalidConfig(
                "all series must share one length".into(),
            ));
        }
        let layout = SlotLayout {
            k: cfg.k,
            series_len,
        };
        let mut rng = StdRng::seed_from_u64(cfg.seed);

        // Setup: dealer, initial centroids (public random curves —
        // initialization must not peek at private data).
        let crypto = CryptoContext::from_config(cfg, &mut rng)?;
        let initial = initial_centroids(cfg.k, series_len, cfg.value_bound, &mut rng);
        let mut participants: Vec<Participant> = series
            .iter()
            .map(|s| Participant::new(s, cfg.value_bound, Diptych::initial(initial.clone())))
            .collect();

        let mut plan = BudgetPlan::new(cfg.budget_strategy, cfg.epsilon, cfg.max_iterations);
        let mut accountant = PrivacyAccountant::new(cfg.epsilon);
        let mut log = ExecutionLog::new("", n, series_len);
        let mut alive = vec![true; n];
        let mut last_relative_movement: Option<f64> = None;
        let mut converged = false;
        let mut iterations = 0;
        let mut monitor = TerminationMonitor::new(cfg.termination, cfg.convergence_threshold);

        for iter in 0..cfg.max_iterations {
            let Some(eps_t) = plan.next_epsilon(last_relative_movement) else {
                break;
            };
            accountant.charge(iter, "perturbed sums and counts", eps_t)?;
            iterations = iter + 1;

            // Late-participant synchronization: resurfaced nodes adopt a
            // live peer's newer Diptych during their first exchange.
            sync_laggards(&mut participants, &alive, &mut rng);

            // Step 1 (local): assignment. One master word seeds every
            // participant's own stream for this iteration.
            let alive_count = alive.iter().filter(|&&a| a).count().max(1);
            let noise_scale = cfg.noise_scale(series_len, eps_t)?;
            let shares = NoiseShareGenerator::new(alive_count, noise_scale);
            let contributions = local_contributions(
                &mut participants,
                &alive,
                rng.gen::<u64>(),
                &layout,
                &shares,
                cfg.distance,
                chunks,
            );

            // Step 2 (distributed): gossip aggregation + noise + decryption,
            // on whatever substrate the backend provides.
            let step_seed = rng.gen::<u64>();
            let outcome =
                backend.run_step(cfg, &layout, &contributions, &crypto, step_seed, &mut rng)?;
            alive = outcome.alive_after.clone();

            // Omniscient-observer clean means for the log (E2's noise-impact
            // series; never shown to participants).
            let (clean, clean_counts) =
                observer_clean_means(&participants, &contributions, &layout, cfg.k);

            // Step 3 (local): means → centroids, convergence, advance.
            let movements: Vec<f64> = local_convergence(
                &mut participants,
                &outcome.estimates,
                cfg,
                alive_count,
                chunks,
            )
            .into_iter()
            .flatten()
            .collect();
            let converged_count = participants
                .iter()
                .zip(&outcome.estimates)
                .filter(|(p, est)| est.is_some() && p.converged)
                .count();

            let mean_movement = if movements.is_empty() {
                f64::INFINITY
            } else {
                movements.iter().sum::<f64>() / movements.len() as f64
            };
            last_relative_movement =
                Some(mean_movement / (cfg.k as f64 * cfg.value_bound).max(1e-12));

            // Canonical view + logging. The noise impact only averages over
            // clusters that actually had members — an empty cluster has no
            // "clean mean" to perturb.
            let canonical = canonical_centroids(&participants, &alive, cfg.k, series_len);
            let noise_impact = mean_abs_difference(&canonical, &clean, &clean_counts);
            let cost = IterationCost {
                gossip_messages: outcome.traffic.messages,
                gossip_bytes: outcome.traffic.bytes,
                ops: outcome.ops,
                decrypt_ops: outcome.decrypt_ops,
            };
            log.push(IterationRecord {
                iteration: iter,
                epsilon: eps_t,
                noise_scale,
                alive: alive_count,
                movement: mean_movement,
                converged_fraction: converged_count as f64 / movements.len().max(1) as f64,
                centroids: canonical.iter().map(|c| c.values().to_vec()).collect(),
                observer_clean_centroids: clean.iter().map(|c| c.values().to_vec()).collect(),
                noise_impact,
                cost,
            });

            if monitor.observe(mean_movement) {
                converged = true;
                break;
            }
        }

        let canonical = canonical_centroids(&participants, &alive, cfg.k, series_len);
        let assignment = cs_kmeans::assign_all(series, &canonical, cfg.distance);
        Ok(RunOutput {
            centroids: canonical,
            assignment,
            iterations,
            converged,
            log,
            accountant,
            per_participant_centroids: participants
                .iter()
                .map(|p| p.diptych().centroids.clone())
                .collect(),
        })
    }
}

/// Participants one worker should have before a local pass is worth a
/// thread: below it a spawn costs more than the chunk's work.
const MIN_CHUNK: usize = 512;

/// How many chunks the local passes of an `n`-participant job run in: one
/// per core, as long as each holds at least [`MIN_CHUNK`] participants.
pub(crate) fn local_chunks(n: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    cores.min(n / MIN_CHUNK).max(1)
}

/// `f(id, item)` for every item, results in id order: inline when `chunks`
/// is 1, else over that many contiguous ranges on scoped threads. Returns
/// the results with the workers' summed busy time in nanoseconds. Every
/// participant draws from its own stream, so the local passes' results do
/// not depend on `chunks`.
pub(crate) fn map_chunked<T: Send, U: Send>(
    items: &mut [T],
    chunks: usize,
    f: impl Fn(usize, &mut T) -> U + Sync,
) -> (Vec<U>, u64) {
    let run = |offset: usize, chunk: &mut [T]| -> (Vec<U>, u64) {
        let started = Instant::now();
        let out = chunk
            .iter_mut()
            .enumerate()
            .map(|(i, item)| f(offset + i, item))
            .collect();
        (out, started.elapsed().as_nanos() as u64)
    };
    if chunks <= 1 {
        return run(0, items);
    }
    let (n, size) = (items.len(), items.len().div_ceil(chunks).max(1));
    std::thread::scope(|scope| {
        let workers: Vec<_> = items
            .chunks_mut(size)
            .enumerate()
            .map(|(c, chunk)| {
                let run = &run;
                scope.spawn(move || run(c * size, chunk))
            })
            .collect();
        let (mut out, mut busy_ns) = (Vec::with_capacity(n), 0);
        for worker in workers {
            let (part, ns) = worker.join().expect("a chunked pass does not panic");
            out.extend(part);
            busy_ns += ns;
        }
        (out, busy_ns)
    })
}

/// Paper step 1 for the whole population: every live participant assigns
/// its series to its nearest centroid and builds its contribution (series,
/// membership indicator, one noise share per slot). `iteration_word` seeds
/// each participant's own stream, dead ones included — one that resurfaces
/// during the step draws its jitter from it.
fn local_contributions(
    participants: &mut [Participant],
    alive: &[bool],
    iteration_word: u64,
    layout: &SlotLayout,
    shares: &NoiseShareGenerator,
    distance: cs_timeseries::Distance,
    chunks: usize,
) -> Vec<Option<Vec<f64>>> {
    let (contributions, _) = map_chunked(participants, chunks, |id, p| {
        p.begin_iteration(iteration_word, id);
        if !alive[id] {
            return None;
        }
        Some(p.contribute(layout, shares, distance))
    });
    contributions
}

/// Paper step 3 for the whole population: every participant holding an
/// estimate turns it into its next centroids, runs its convergence test and
/// advances its Diptych. Returns each such participant's movement.
fn local_convergence(
    participants: &mut [Participant],
    estimates: &[Option<PerturbedAggregates>],
    cfg: &ChiaroscuroConfig,
    alive_count: usize,
    chunks: usize,
) -> Vec<Option<f64>> {
    let (movements, _) = map_chunked(participants, chunks, |id, p| {
        let est = estimates[id].as_ref()?;
        let new_centroids = perturbed_means_to_centroids(est, cfg, alive_count, p.stream());
        let movement = p.convergence_step(&new_centroids, cfg.convergence_threshold);
        p.diptych_mut().advance(new_centroids);
        Some(movement)
    });
    movements
}

/// Public random initial centroids: smooth low-frequency curves inside the
/// (public) value bound. No private data involved.
fn initial_centroids(
    k: usize,
    series_len: usize,
    value_bound: f64,
    rng: &mut StdRng,
) -> Vec<TimeSeries> {
    (0..k)
        .map(|_| {
            let offset = (rng.gen::<f64>() * 2.0 - 1.0) * value_bound * 0.4;
            let amp = rng.gen::<f64>() * value_bound * 0.3;
            let phase = rng.gen::<f64>() * 2.0 * PI;
            let freq = 1.0 + rng.gen::<f64>() * 2.0;
            TimeSeries::from_fn(series_len, |i| {
                let x = i as f64 / series_len.max(1) as f64;
                (offset + amp * (2.0 * PI * freq * x + phase).sin())
                    .clamp(-value_bound, value_bound)
            })
        })
        .collect()
}

/// Converts a participant's perturbed aggregates into its next centroids:
/// ratio of perturbed sums to perturbed counts, empty-cluster guard, value
/// clamping, smoothing (all DP post-processing).
fn perturbed_means_to_centroids(
    est: &PerturbedAggregates,
    cfg: &ChiaroscuroConfig,
    alive_count: usize,
    rng: &mut StdRng,
) -> Vec<TimeSeries> {
    let k = est.counts.len();
    let series_len = est.sums.first().map_or(0, |s| s.len());
    // Global perturbed mean — the reseed anchor for empty clusters (pure
    // post-processing of disclosed values: no extra privacy cost).
    let total_count: f64 = est.counts.iter().sum();
    let global_mean: Vec<f64> = if total_count > 1e-9 {
        (0..series_len)
            .map(|d| est.sums.iter().map(|s| s[d]).sum::<f64>() / total_count)
            .collect()
    } else {
        vec![0.0; series_len]
    };

    (0..k)
        .map(|j| {
            // counts are population-normalized (push-sum averages); recover
            // the absolute scale with the public population size.
            let absolute_count = est.counts[j] * alive_count as f64;
            let centroid = if absolute_count < 0.5 {
                // Empty (or noise-drowned) cluster: restart near the global
                // perturbed mean instead of stranding the centroid.
                let jitter: Vec<f64> = (0..series_len)
                    .map(|_| (rng.gen::<f64>() - 0.5) * 0.1 * cfg.value_bound)
                    .collect();
                TimeSeries::from_fn(series_len, |d| {
                    (global_mean[d] + jitter[d]).clamp(-cfg.value_bound, cfg.value_bound)
                })
            } else {
                TimeSeries::from_fn(series_len, |d| {
                    (est.sums[j][d] / est.counts[j]).clamp(-cfg.value_bound, cfg.value_bound)
                })
            };
            cfg.smoothing.apply(&centroid)
        })
        .collect()
}

/// Population-average of live participants' centroids.
fn canonical_centroids(
    participants: &[Participant],
    alive: &[bool],
    k: usize,
    series_len: usize,
) -> Vec<TimeSeries> {
    let mut acc = vec![vec![0.0; series_len]; k];
    let mut count = 0usize;
    for (p, &a) in participants.iter().zip(alive) {
        if !a {
            continue;
        }
        count += 1;
        for (j, c) in p.diptych().centroids.iter().enumerate() {
            for (d, v) in c.values().iter().enumerate() {
                acc[j][d] += v;
            }
        }
    }
    let count = count.max(1) as f64;
    acc.into_iter()
        .map(|row| row.into_iter().map(|v| v / count).collect())
        .collect()
}

/// Exact (noise-free, fully aggregated) cluster means for the observer log,
/// with per-cluster member counts.
fn observer_clean_means(
    participants: &[Participant],
    contributions: &[Option<Vec<f64>>],
    layout: &SlotLayout,
    k: usize,
) -> (Vec<TimeSeries>, Vec<usize>) {
    let members = || {
        participants
            .iter()
            .zip(contributions)
            .filter(|(_, c)| c.is_some())
            .map(|(p, _)| p)
    };
    let assignment: Vec<usize> = members().map(|p| p.cluster).collect();
    if assignment.is_empty() {
        return (vec![TimeSeries::zeros(layout.series_len); k], vec![0; k]);
    }
    let (sums, counts) = cluster_sums(
        members().map(Participant::series),
        &assignment,
        k,
        layout.series_len,
    );
    (cluster_means(&sums, &counts), counts)
}

/// Mean absolute coordinate difference over clusters with `counts > 0`.
fn mean_abs_difference(a: &[TimeSeries], b: &[TimeSeries], counts: &[usize]) -> f64 {
    let mut total = 0.0;
    let mut n = 0usize;
    for ((x, y), &count) in a.iter().zip(b).zip(counts) {
        if count == 0 {
            continue;
        }
        for (u, v) in x.values().iter().zip(y.values()) {
            total += (u - v).abs();
            n += 1;
        }
    }
    total / n.max(1) as f64
}

/// Late-participant sync: a participant whose Diptych lags the population
/// adopts the state of a random live peer (paper §II-B: "the late
/// participants simply synchronize on the latest iteration during their
/// gossip exchanges").
fn sync_laggards(participants: &mut [Participant], alive: &[bool], rng: &mut StdRng) {
    let max_iter = participants
        .iter()
        .zip(alive)
        .filter(|(_, &a)| a)
        .map(|(p, _)| p.diptych().iteration)
        .max()
        .unwrap_or(0);
    if max_iter == 0 {
        return;
    }
    // Pick one up-to-date live donor.
    let donors: Vec<usize> = participants
        .iter()
        .enumerate()
        .filter(|(i, p)| alive[*i] && p.diptych().iteration == max_iter)
        .map(|(i, _)| i)
        .collect();
    if donors.is_empty() {
        return;
    }
    let donor_idx = donors[rng.gen_range(0..donors.len())];
    let donor = participants[donor_idx].diptych().clone();
    for (i, p) in participants.iter_mut().enumerate() {
        if alive[i] && p.diptych().iteration < max_iter {
            p.diptych_mut().sync_with(&donor);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rounds::{simulate_step, ComputationOutcome};
    use cs_gossip::pushsum::PushSumBlocks;
    use cs_timeseries::datasets::blobs::{generate, BlobsConfig};

    fn blob_series(count: usize, clusters: usize, noise: f64, seed: u64) -> Vec<TimeSeries> {
        generate(
            &BlobsConfig {
                count,
                clusters,
                noise,
                len: 8,
                ..BlobsConfig::default()
            },
            &mut StdRng::seed_from_u64(seed),
        )
        .series
    }

    #[test]
    fn initial_centroids_respect_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        let cs = initial_centroids(4, 16, 5.0, &mut rng);
        assert_eq!(cs.len(), 4);
        for c in &cs {
            assert_eq!(c.len(), 16);
            assert!(c.max().unwrap() <= 5.0 && c.min().unwrap() >= -5.0);
        }
    }

    #[test]
    fn simulated_run_improves_over_initial_centroids() {
        let series = blob_series(120, 3, 0.3, 2);
        let mut cfg = ChiaroscuroConfig::demo_simulated();
        cfg.k = 3;
        // Nearly noise-free (huge ε, tight bound): isolates protocol logic
        // from the DP-utility trade-off that E3 studies.
        cfg.epsilon = 2000.0;
        cfg.value_bound = 6.0;
        cfg.budget_strategy = cs_dp::BudgetStrategy::Uniform;
        // Smoothing trades noise variance for shape bias (E8 ablation); with
        // negligible noise it would only add bias, so keep it off here.
        cfg.smoothing = cs_timeseries::smooth::Smoothing::None;
        cfg.max_iterations = 10;
        cfg.gossip_cycles = 40;
        let engine = Engine::new(cfg).unwrap();
        let out = engine.run(&series).unwrap();
        assert!(out.iterations >= 2);
        let report = crate::quality::compare_with_baseline(
            &series,
            &out.centroids,
            cs_timeseries::Distance::SquaredEuclidean,
            7,
        );
        assert!(
            report.inertia_ratio < 2.0,
            "with huge epsilon the ratio should approach 1: {}",
            report.inertia_ratio
        );
    }

    #[test]
    fn run_is_deterministic_given_seed() {
        let series = blob_series(60, 2, 0.3, 3);
        let mut cfg = ChiaroscuroConfig::demo_simulated();
        cfg.k = 2;
        cfg.max_iterations = 3;
        let out1 = Engine::new(cfg.clone()).unwrap().run(&series).unwrap();
        let out2 = Engine::new(cfg).unwrap().run(&series).unwrap();
        assert_eq!(out1.assignment, out2.assignment);
        assert_eq!(out1.log.records.len(), out2.log.records.len());
        for (a, b) in out1.centroids.iter().zip(&out2.centroids) {
            assert_eq!(a.values(), b.values());
        }
    }

    #[test]
    fn a_dead_participant_moves_no_one_elses_contribution() {
        // Same iteration word, same calibration: whether participant 7 is
        // alive changes nothing any other participant draws.
        let series = blob_series(40, 2, 0.3, 8);
        let layout = SlotLayout {
            k: 2,
            series_len: 8,
        };
        let initial = initial_centroids(2, 8, 4.0, &mut StdRng::seed_from_u64(9));
        let shares = NoiseShareGenerator::new(40, 0.5);
        let contributions = |alive: &[bool], chunks: usize| {
            let mut participants: Vec<Participant> = series
                .iter()
                .map(|s| Participant::new(s, 4.0, Diptych::initial(initial.clone())))
                .collect();
            local_contributions(
                &mut participants,
                alive,
                0xC0FFEE,
                &layout,
                &shares,
                cs_timeseries::Distance::SquaredEuclidean,
                chunks,
            )
        };
        let all = contributions(&[true; 40], 1);
        let mut alive = [true; 40];
        alive[7] = false;
        let without = contributions(&alive, 3);
        assert!(without[7].is_none());
        let bits = |v: &Option<Vec<f64>>| -> Vec<u64> {
            v.as_ref().unwrap().iter().map(|x| x.to_bits()).collect()
        };
        for id in (0..40).filter(|&id| id != 7) {
            assert_eq!(bits(&all[id]), bits(&without[id]), "participant {id}");
        }
        assert_ne!(bits(&all[6]), bits(&all[8]), "streams are per participant");
    }

    #[test]
    fn per_participant_streams_still_sum_to_the_calibrated_laplace() {
        // The privacy side of the stream derivation: shares drawn from the
        // streams of neighbouring ids under one iteration word (taken, as
        // the engine takes it, from a master stream) are independent enough
        // to sum to Laplace(b).
        let (population, b, trials) = (50usize, 1.5, 4000usize);
        let mut master = StdRng::seed_from_u64(31);
        let shares = NoiseShareGenerator::new(population, b);
        let mut p = Participant::new(
            &TimeSeries::zeros(1),
            1.0,
            Diptych::initial(vec![TimeSeries::zeros(1)]),
        );
        let totals: Vec<f64> = (0..trials)
            .map(|_| {
                let word = master.gen::<u64>();
                (0..population)
                    .map(|id| {
                        p.begin_iteration(word, id);
                        shares.sample_share(p.stream())
                    })
                    .sum()
            })
            .collect();
        let mean = totals.iter().sum::<f64>() / trials as f64;
        let var = totals.iter().map(|t| (t - mean).powi(2)).sum::<f64>() / trials as f64;
        let tail = totals.iter().filter(|t| t.abs() > b).count() as f64 / trials as f64;
        assert!(mean.abs() < 0.1 * b, "mean {mean}");
        assert!((var / (2.0 * b * b) - 1.0).abs() < 0.15, "variance {var}");
        assert!((tail - (-1.0f64).exp()).abs() < 0.03, "tail {tail}");
    }

    /// The cycle simulator, its replay pinned to `threads` threads over
    /// `width`-column slot blocks, with churn between steps: after step
    /// `s`, every ninth participant from `s % 9` goes down, and those taken
    /// down after step `s − 1` come back.
    struct ChurnBetweenSteps {
        threads: usize,
        width: usize,
        steps: usize,
        rejoined: usize,
    }

    impl ComputationBackend for ChurnBetweenSteps {
        fn label(&self) -> &'static str {
            "churn-between-steps"
        }

        fn run_step(
            &mut self,
            config: &ChiaroscuroConfig,
            layout: &SlotLayout,
            contributions: &[Option<Vec<f64>>],
            crypto: &CryptoContext,
            step_seed: u64,
            _rng: &mut StdRng,
        ) -> Result<ComputationOutcome, ChiaroscuroError> {
            let mut outcome = simulate_step(
                config,
                layout,
                contributions,
                crypto,
                step_seed,
                self.threads,
                self.width,
            )?;
            let down = self.steps % 9;
            self.rejoined += contributions
                .iter()
                .enumerate()
                .filter(|&(i, c)| c.is_none() && i % 9 != down)
                .count();
            outcome.alive_after = (0..contributions.len()).map(|i| i % 9 != down).collect();
            self.steps += 1;
            Ok(outcome)
        }
    }

    /// A 90-participant, 4-iteration job churned between steps, its replay
    /// pinned as given (`None`: as the simulator picks it), as bits. Asserts
    /// that some iteration ran with a participant down and that one came back.
    fn churned_run(
        replay: Option<(usize, usize)>,
        chunks: usize,
    ) -> (Vec<Vec<u64>>, Vec<usize>, ExecutionLog) {
        // Few members per cluster at k = 4, so the empty-cluster jitter is
        // on the path too.
        let series = blob_series(90, 3, 0.4, 12);
        let mut cfg = ChiaroscuroConfig::demo_simulated();
        cfg.k = 4;
        cfg.epsilon = 4.0;
        cfg.max_iterations = 4;
        let (threads, width) = replay.unwrap_or((local_chunks(90), PushSumBlocks::width_for(90)));
        let mut backend = ChurnBetweenSteps {
            threads,
            width,
            steps: 0,
            rejoined: 0,
        };
        let engine = Engine::new(cfg).unwrap();
        let out = engine.run_chunked(&series, &mut backend, chunks).unwrap();
        assert!(out.log.records.iter().any(|r| r.alive < series.len()));
        assert!(backend.rejoined > 0, "no participant came back");
        let centroids: Vec<Vec<u64>> = out
            .centroids
            .iter()
            .chain(out.per_participant_centroids.iter().flatten())
            .map(|c| c.values().iter().map(|v| v.to_bits()).collect())
            .collect();
        (centroids, out.assignment, out.log)
    }

    #[test]
    fn run_output_is_bit_identical_for_every_chunk_count() {
        // Churn between steps, so resurfacing participants and laggard sync
        // are on the path.
        let one = churned_run(None, 1);
        assert_eq!(one, churned_run(None, 2), "2 chunks");
        assert_eq!(one, churned_run(None, 7), "7 chunks");
        assert_eq!(one, churned_run(None, 1), "and across runs");
    }

    #[test]
    fn run_output_is_bit_identical_for_every_replay_thread_count() {
        // Participants down in every step after the first, so the schedule
        // has dead initiators and dead targets; 4 × (8 + 1) = 36 slots plus
        // the weight cut into 1, 2, 6 and 37 blocks.
        let default = churned_run(None, 1);
        for (threads, width) in [(1, 37), (2, 7), (3, 32), (7, 7), (2, 1)] {
            assert_eq!(
                default,
                churned_run(Some((threads, width)), 1),
                "{threads} threads, {width}-column blocks"
            );
        }
    }

    #[test]
    fn small_populations_run_their_local_passes_inline() {
        // One chunk is the calling thread: nothing is spawned until every
        // extra worker would get MIN_CHUNK participants of its own.
        for n in [2, 8, 64, MIN_CHUNK - 1, 2 * MIN_CHUNK - 1] {
            assert_eq!(local_chunks(n), 1, "population {n}");
        }
        let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
        assert_eq!(local_chunks(4000), cores.min(7));
    }

    #[test]
    fn budget_is_respected() {
        let series = blob_series(60, 2, 0.3, 4);
        let mut cfg = ChiaroscuroConfig::demo_simulated();
        cfg.k = 2;
        cfg.epsilon = 1.0;
        cfg.max_iterations = 10;
        let out = Engine::new(cfg).unwrap().run(&series).unwrap();
        assert!(out.accountant.spent() <= 1.0 + 1e-9);
        assert_eq!(out.log.records.len(), out.iterations);
    }

    #[test]
    fn too_few_series_rejected() {
        let cfg = ChiaroscuroConfig::demo_simulated();
        let engine = Engine::new(cfg).unwrap();
        let err = engine.run(&[TimeSeries::zeros(4)]).unwrap_err();
        assert!(matches!(err, ChiaroscuroError::NotEnoughData { .. }));
    }

    #[test]
    fn an_overflowing_sensitivity_is_refused_not_a_panic() {
        let mut cfg = ChiaroscuroConfig::demo_simulated();
        cfg.k = 2;
        cfg.value_bound = 1e307;
        let engine = Engine::new(cfg).unwrap();
        let err = engine.run(&blob_series(6, 2, 0.3, 1)).unwrap_err();
        assert!(matches!(err, ChiaroscuroError::InvalidConfig(_)), "{err:?}");
    }

    #[test]
    fn ragged_and_empty_series_rejected() {
        let mut cfg = ChiaroscuroConfig::demo_simulated();
        cfg.k = 2;
        let engine = Engine::new(cfg).unwrap();
        let ragged: Vec<TimeSeries> = (0..10)
            .map(|i| TimeSeries::zeros(if i == 5 { 3 } else { 4 }))
            .collect();
        assert!(matches!(
            engine.run(&ragged).unwrap_err(),
            ChiaroscuroError::InvalidConfig(_)
        ));
        let empty: Vec<TimeSeries> = (0..10).map(|_| TimeSeries::zeros(0)).collect();
        assert!(matches!(
            engine.run(&empty).unwrap_err(),
            ChiaroscuroError::InvalidConfig(_)
        ));
    }

    #[test]
    fn log_records_match_iterations_and_contain_noise_impact() {
        let series = blob_series(80, 2, 0.4, 5);
        let mut cfg = ChiaroscuroConfig::demo_simulated();
        cfg.k = 2;
        cfg.epsilon = 2.0;
        cfg.max_iterations = 4;
        let out = Engine::new(cfg).unwrap().run(&series).unwrap();
        assert_eq!(out.log.records.len(), out.iterations);
        for r in &out.log.records {
            assert!(r.noise_scale > 0.0);
            assert!(r.noise_impact >= 0.0);
            assert_eq!(r.centroids.len(), 2);
            assert!(r.cost.gossip_messages > 0);
        }
    }

    #[test]
    fn plateau_termination_stops_at_noise_floor() {
        // With heavy noise, movement plateaus far above the threshold: the
        // plain criterion runs to the cap, the plateau criterion stops early
        // and saves the remaining privacy budget.
        let series = blob_series(100, 2, 0.4, 11);
        let mut cfg = ChiaroscuroConfig::demo_simulated();
        cfg.k = 2;
        cfg.epsilon = 8.0; // noisy regime
        cfg.max_iterations = 12;
        cfg.budget_strategy = cs_dp::BudgetStrategy::Uniform;

        let mut plain_cfg = cfg.clone();
        plain_cfg.termination = crate::termination::Termination::MovementThreshold;
        let plain = Engine::new(plain_cfg).unwrap().run(&series).unwrap();

        let mut plateau_cfg = cfg;
        plateau_cfg.termination = crate::termination::Termination::plateau_default();
        let plateau = Engine::new(plateau_cfg).unwrap().run(&series).unwrap();

        assert_eq!(plain.iterations, 12, "plain criterion runs to the cap");
        assert!(
            plateau.iterations < plain.iterations,
            "plateau must stop early: {} vs {}",
            plateau.iterations,
            plain.iterations
        );
        assert!(plateau.accountant.spent() < plain.accountant.spent());
    }

    #[test]
    fn run_output_usecase_helpers() {
        let series = blob_series(60, 2, 0.3, 21);
        let mut cfg = ChiaroscuroConfig::demo_simulated();
        cfg.k = 2;
        cfg.epsilon = 500.0;
        cfg.max_iterations = 3;
        let out = Engine::new(cfg).unwrap().run(&series).unwrap();
        let query = series[0].window(2, 4);
        let matches = out.closest_profiles(
            &query,
            cs_timeseries::subsequence::MatchMeasure::Pointwise(cs_timeseries::Distance::Euclidean),
        );
        assert_eq!(matches.len(), 2);
        assert!(matches[0].distance <= matches[1].distance);
        assert_eq!(
            out.cluster_size(0) + out.cluster_size(1),
            series.len(),
            "every series belongs to exactly one cluster"
        );
    }
}
