//! One clustering job, timed from the outside.
//!
//! A job is dataset → dealer/keygen → iterations × computation steps →
//! final centroids → quality against centralized k-means. It is driven
//! through `Engine::run_with_backend` with [`TimedBackend`] wrapped around
//! the substrate's `run_step`, so everything recorded here comes from
//! public API: the step outcome, the substrate's `StepRun`, and clocks
//! read around the calls.

use crate::sys::{self, CpuTimes};
use crate::trace::{Recorder, SpanId};
use crate::workload::{Substrate, Workload};
use chiaroscuro::cost::DecryptionOps;
use chiaroscuro::noise::SlotLayout;
use chiaroscuro::rounds::{ComputationOutcome, CryptoContext};
use chiaroscuro::{
    compare_with_baseline, ChiaroscuroConfig, ChiaroscuroError, ComputationBackend, Engine,
    QualityReport,
};
use cs_gossip::homomorphic_pushsum::HomomorphicOpCounts;
use cs_net::node::NodeReport;
use cs_obs::{MetricsSnapshot, PhaseProfile};
use rand::rngs::StdRng;
use std::time::{Duration, Instant};

/// What one `run_step` call did, as seen from outside it.
#[derive(Clone, Debug, Default)]
pub struct StepRecord {
    pub wall_s: f64,
    /// CPU this process's own threads used inside the call (daemons of
    /// the cluster workload are separate processes and not in here).
    pub own_cpu_s: f64,
    /// Participants with a contribution, i.e. alive when the step began.
    pub alive_at_start: usize,
    /// Of those, how many ended the step without an estimate.
    pub without_estimate: usize,
    pub phases: PhaseProfile,
    pub ops: HomomorphicOpCounts,
    pub decrypt_ops: DecryptionOps,
    pub messages: u64,
    pub bytes: u64,
    pub dropped: u64,
    pub peer_failures: u64,
    pub gossip_cut_short: u64,
    pub bad_frames: u64,
    pub alerts: u64,
}

/// Wraps a substrate's `run_step` with clocks and reads the substrate's
/// own step artifacts afterwards.
struct TimedBackend<'a> {
    substrate: &'a mut Substrate,
    steps: Vec<StepRecord>,
    /// Substrate metric registries (`net.*`, `tcp.*`, `exec.*`), summed
    /// over the job's steps; empty on the simulator.
    metrics: MetricsSnapshot,
    /// When `Engine::run_with_backend` was called.
    engine_started: Instant,
    /// Whether the engine runs a dealer before its first step.
    real_crypto: bool,
    /// The dealer's share of the engine call, set at the first step.
    dealer_s: f64,
    recorder: &'a mut Recorder,
    parent: SpanId,
    job: u64,
}

fn fold_reports(record: &mut StepRecord, reports: &[NodeReport]) {
    for r in reports {
        record.peer_failures += r.peer_failures;
        record.gossip_cut_short += u64::from(r.gossip_cut_short);
        record.bad_frames += r.bad_frames;
    }
}

impl ComputationBackend for TimedBackend<'_> {
    fn label(&self) -> &'static str {
        "csbench-timed"
    }

    fn run_step(
        &mut self,
        config: &ChiaroscuroConfig,
        layout: &SlotLayout,
        contributions: &[Option<Vec<f64>>],
        crypto: &CryptoContext,
        step_seed: u64,
        rng: &mut StdRng,
    ) -> Result<ComputationOutcome, ChiaroscuroError> {
        if self.steps.is_empty() && self.real_crypto {
            // Everything before the first step of a real-crypto job is the
            // dealer, to within a millisecond (initial centroids and one
            // assignment pass at these populations).
            let now = Instant::now();
            self.dealer_s = now.duration_since(self.engine_started).as_secs_f64();
            self.recorder
                .span_between("dealer", self.parent, self.job, self.engine_started, now);
        }
        let span = self.recorder.start(
            &format!("step[{}]", self.steps.len()),
            self.parent,
            self.job,
        );
        let cpu_before = CpuTimes::now();
        let started = Instant::now();
        let result = self.substrate.backend().run_step(
            config,
            layout,
            contributions,
            crypto,
            step_seed,
            rng,
        );
        let wall_s = started.elapsed().as_secs_f64();
        let own_cpu_s = CpuTimes::now().since(&cpu_before).own_s;
        self.recorder.end(span);

        let mut record = StepRecord {
            wall_s,
            own_cpu_s,
            alive_at_start: contributions.iter().flatten().count(),
            ..StepRecord::default()
        };
        if let Ok(outcome) = &result {
            record.without_estimate = contributions
                .iter()
                .zip(&outcome.estimates)
                .filter(|(c, e)| c.is_some() && e.is_none())
                .count();
            record.phases = outcome.phases;
            record.ops = outcome.ops;
            record.decrypt_ops = outcome.decrypt_ops;
            // Everything on the wire: gossip + control, and the
            // decryption round's requests and shares.
            record.messages = outcome.traffic.messages + outcome.decrypt_ops.messages;
            record.bytes = outcome.traffic.bytes + outcome.decrypt_ops.bytes;
            record.dropped = outcome.traffic.dropped;
            match &*self.substrate {
                Substrate::Sim(_) => {}
                Substrate::Net(net) => {
                    if let Some(run) = net.last_step() {
                        fold_reports(&mut record, &run.reports);
                        record.alerts = run.alerts.len() as u64;
                        self.metrics = self.metrics.plus(&run.metrics);
                    }
                }
                Substrate::Cluster { backend, .. } => {
                    fold_reports(&mut record, backend.last_reports().unwrap_or(&[]));
                    if let Some(m) = backend.last_metrics() {
                        self.metrics = self.metrics.plus(m);
                    }
                }
            }
        } else {
            record.without_estimate = record.alive_at_start;
        }
        self.steps.push(record);
        result
    }
}

/// Cluster-only timings around the job.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClusterTimes {
    pub spawn_accept_s: f64,
    pub scrape_metrics_s: f64,
    pub cluster_health_s: f64,
    pub shutdown_s: f64,
    /// Verdict of `cluster_health()` after the last step.
    pub healthy: bool,
    /// Daemons that exited with status 0 after `Shutdown`.
    pub clean_exits: usize,
}

/// Everything measured about one job.
#[derive(Clone, Debug)]
pub struct JobRecord {
    pub seed: u64,
    pub dataset_s: f64,
    /// Wall of the `Engine::run_with_backend` call, dealer included.
    pub engine_wall_s: f64,
    /// The dealer's share of that wall on a real-crypto job (threshold
    /// key generation, fixed-base tables): the time from the call to the
    /// first `run_step`. Zero on simulated crypto, which has no dealer.
    pub dealer_s: f64,
    /// Peak resident set of this process over the job, MB.
    pub peak_rss_mb: f64,
    /// CPU over the job: own threads, and children reaped during it.
    pub cpu: CpuTimes,
    pub steps: Vec<StepRecord>,
    pub metrics: MetricsSnapshot,
    pub cluster: Option<ClusterTimes>,
    /// `None` when the engine returned an error.
    pub output: Option<JobOutput>,
    pub error: Option<String>,
    pub quality_s: f64,
}

#[derive(Clone, Debug)]
pub struct JobOutput {
    pub iterations: usize,
    pub converged: bool,
    pub epsilon: f64,
    pub epsilon_spent: f64,
    pub epsilon_charged: f64,
    pub quality: QualityReport,
}

impl JobRecord {
    /// What happens once per job before clustering starts: the dataset,
    /// the dealer, and (cluster) bind → spawn → accept.
    pub fn setup_s(&self) -> f64 {
        self.dataset_s + self.dealer_s + self.cluster.map_or(0.0, |c| c.spawn_accept_s)
    }

    /// Node-steps the job was asked for and did not deliver: estimates
    /// missing at the end of a step, plus — when the engine gave up —
    /// every node-step of the iterations it never ran.
    pub fn failed_node_steps(&self, w: &Workload) -> (usize, usize) {
        let mut attempted: usize = self.steps.iter().map(|s| s.alive_at_start).sum();
        let mut failed: usize = self.steps.iter().map(|s| s.without_estimate).sum();
        if self.output.is_none() {
            let never_ran = w.iterations.saturating_sub(self.steps.len()) * w.population;
            attempted += never_ran;
            failed += never_ran;
        }
        (failed, attempted)
    }
}

/// Runs one job of `workload` on `job_seed`, recording spans under a
/// fresh `job` root when the recorder is enabled.
pub fn run_job(w: &Workload, job_seed: u64, recorder: &mut Recorder) -> Result<JobRecord, String> {
    sys::reset_peak_rss();
    let job_span = recorder.start("job", None, job_seed);

    let span = recorder.start("setup.dataset", job_span, job_seed);
    let started = Instant::now();
    let series = w.dataset(job_seed);
    let dataset_s = started.elapsed().as_secs_f64();
    recorder.end(span);

    let span = recorder.start("setup.substrate", job_span, job_seed);
    let started = Instant::now();
    let mut substrate = w.substrate(job_seed)?;
    let substrate_s = started.elapsed().as_secs_f64();
    let cfg = w.config(job_seed);
    let engine = Engine::new(cfg.clone()).map_err(|e| format!("config: {e}"))?;
    recorder.end(span);

    let engine_span = recorder.start("engine.run", job_span, job_seed);
    let cpu_before = CpuTimes::now();
    let started = Instant::now();
    let mut timed = TimedBackend {
        substrate: &mut substrate,
        steps: Vec::new(),
        metrics: MetricsSnapshot::default(),
        engine_started: started,
        real_crypto: w.modulus_bits.is_some(),
        dealer_s: 0.0,
        recorder,
        parent: engine_span,
        job: job_seed,
    };
    let result = engine.run_with_backend(&series, &mut timed);
    let engine_wall_s = started.elapsed().as_secs_f64();
    let TimedBackend {
        mut steps,
        metrics,
        dealer_s,
        ..
    } = timed;
    recorder.end(engine_span);

    // The cluster is torn down and its daemons reaped before the CPU
    // clock is read: a child's CPU time only shows once it was waited for.
    let span = recorder.start("teardown", job_span, job_seed);
    let mut cluster = None;
    if let Substrate::Cluster {
        backend,
        supervisor,
    } = &mut substrate
    {
        let timeout = Duration::from_secs(10);
        let t = Instant::now();
        let scraped = backend.scrape_metrics(timeout);
        let scrape_metrics_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let health = backend.cluster_health(timeout);
        let cluster_health_s = t.elapsed().as_secs_f64();
        if let Some(last) = steps.last_mut() {
            last.alerts = health.alerts_total;
        }
        let t = Instant::now();
        backend.shutdown();
        let clean_exits = supervisor.wait_all(timeout);
        let shutdown_s = t.elapsed().as_secs_f64();
        cluster = Some(ClusterTimes {
            spawn_accept_s: substrate_s,
            scrape_metrics_s,
            cluster_health_s,
            shutdown_s,
            healthy: health.status == cs_obs::HealthStatus::Healthy
                && scraped.iter().all(Option::is_some),
            clean_exits,
        });
    }
    let cpu = CpuTimes::now().since(&cpu_before);
    drop(substrate);
    let peak_rss_mb = sys::peak_rss_mb();
    recorder.end(span);

    let span = recorder.start("quality", job_span, job_seed);
    let started = Instant::now();
    let (output, error) = match result {
        Ok(out) => {
            let quality = compare_with_baseline(&series, &out.centroids, cfg.distance, job_seed);
            let charged: f64 = (0..out.iterations)
                .map(|i| out.accountant.spent_in_iteration(i))
                .sum();
            (
                Some(JobOutput {
                    iterations: out.iterations,
                    converged: out.converged,
                    epsilon: cfg.epsilon,
                    epsilon_spent: out.accountant.spent(),
                    epsilon_charged: charged,
                    quality,
                }),
                None,
            )
        }
        Err(e) => (None, Some(e.to_string())),
    };
    let quality_s = started.elapsed().as_secs_f64();
    recorder.end(span);
    recorder.end(job_span);

    Ok(JobRecord {
        seed: job_seed,
        dataset_s,
        engine_wall_s,
        dealer_s,
        peak_rss_mb,
        cpu,
        steps,
        metrics,
        cluster,
        output,
        error,
        quality_s,
    })
}
