//! One run of one workload: warm-up, closed-loop jobs one at a time from
//! this single thread, then the metrics and the output checks.
//!
//! The calibration kernel (`sys::calibration_s`) is timed twice between
//! any two jobs; the median of those timings against the reference is the
//! machine's speed during the run, and the end-to-end time metrics are
//! scaled by it: they read in seconds at the reference speed. Per-layer
//! times stay as measured; `bench.machine_speed` is reported beside them.
//!
//! End-to-end metrics come from untraced jobs only. A traced run
//! alternates untraced and traced jobs, so the tracing overhead is the
//! ratio of the two medians within one run, and follows the jobs with the
//! direct layer probes.

use crate::job::{run_job, JobRecord, StepRecord};
use crate::probes;
use crate::stats::{median, quartiles, tail};
use crate::sys::{calibration_s, CALIBRATION_REFERENCE_S};
use crate::trace::Recorder;
use crate::workload::{Kind, Workload};
use cs_obs::{MetricsSnapshot, PhaseProfile, StepPhase};
use std::time::Instant;

/// When a run stops starting new jobs.
#[derive(Clone, Copy, Debug)]
pub enum Limit {
    /// The driver's contract: measure for this long.
    Seconds(f64),
    /// `csbench run`: a fixed job count, so same-seed runs execute the
    /// same jobs and their counts can be compared for equality.
    Jobs(usize),
}

/// One reported number, with the per-job samples it was reduced from.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: Vec<f64>,
}

impl Metric {
    fn single(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name,
            unit,
            value,
            samples: vec![value],
        }
    }

    fn median_of(name: &'static str, unit: &'static str, samples: Vec<f64>) -> Metric {
        Metric {
            name,
            unit,
            value: median(&samples),
            samples,
        }
    }

    pub fn quartiles(&self) -> (f64, f64) {
        quartiles(&self.samples)
    }
}

pub struct RunResult {
    pub workload: Workload,
    pub seed: u64,
    pub traced: bool,
    /// Jobs attempted (untraced and traced), and how many of them
    /// returned an error or failed an output check.
    pub attempted: usize,
    pub failed: usize,
    pub warmup_s: f64,
    pub measured_s: f64,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Percentile `core.step_wall_ms_tail` was taken at.
    pub tail_percentile: f64,
    pub check_failures: Vec<String>,
    pub recorder: Recorder,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.check_failures.is_empty()
    }
}

pub fn run_workload(
    w: &Workload,
    seed: u64,
    limit: Limit,
    traced: bool,
) -> Result<RunResult, String> {
    let mut recorder = Recorder::new(false);

    // Warm-up: one untimed single-iteration job, so the page cache, the
    // allocator and lazy statics are warm before the first timed job.
    let started = Instant::now();
    let warm = Workload {
        iterations: 1,
        ..*w
    };
    run_job(&warm, seed.wrapping_sub(1), &mut recorder)?;
    let warmup_s = started.elapsed().as_secs_f64();

    let started = Instant::now();
    let mut calibration = vec![calibration_s(), calibration_s()];
    let mut untraced: Vec<JobRecord> = Vec::new();
    let mut traced_jobs: Vec<JobRecord> = Vec::new();
    let mut j = 0u64;
    loop {
        let more = match limit {
            Limit::Seconds(s) => started.elapsed().as_secs_f64() < s,
            Limit::Jobs(n) => (j as usize) < n,
        };
        // A traced run needs at least one job of each kind.
        if !more && !untraced.is_empty() && (!traced || !traced_jobs.is_empty()) {
            break;
        }
        let trace_this = traced && j % 2 == 1;
        recorder.set_enabled(trace_this);
        let record = run_job(w, seed.wrapping_add(j), &mut recorder)?;
        if trace_this {
            traced_jobs.push(record);
        } else {
            untraced.push(record);
        }
        calibration.extend([calibration_s(), calibration_s()]);
        j += 1;
    }
    let measured_s = started.elapsed().as_secs_f64();
    // Above 1 when the machine ran faster than the reference.
    let machine_speed = CALIBRATION_REFERENCE_S / median(&calibration);

    let mut check_failures = Vec::new();
    let mut failed = 0;
    for record in untraced.iter().chain(&traced_jobs) {
        let problems = check_job(w, record);
        if !problems.is_empty() {
            failed += 1;
        }
        check_failures.extend(
            problems
                .into_iter()
                .map(|p| format!("{} seed {}: {p}", w.name, record.seed)),
        );
    }
    let aris: Vec<f64> = untraced
        .iter()
        .filter_map(|r| r.output.as_ref())
        .map(|o| o.quality.ari_vs_baseline)
        .collect();
    if !aris.is_empty() && median(&aris) < w.ari_floor {
        check_failures.push(format!(
            "{} seed {seed}: median ARI vs centralized k-means {:.3} is under the floor {}",
            w.name,
            median(&aris),
            w.ari_floor
        ));
    }

    let end_to_end = end_to_end_metrics(w, &untraced, machine_speed);
    let Observed {
        metrics: mut per_layer,
        tail_percentile,
        alive_per_step,
    } = observed_layer_metrics(w, &untraced);
    if !traced_jobs.is_empty() {
        // The traced run's table takes engine-local time from the spans:
        // `engine.run`'s self time, i.e. its duration minus its `dealer`
        // and `step[i]` children.
        let local_ms: Vec<f64> = traced_jobs
            .iter()
            .filter_map(|r| {
                let id = recorder
                    .spans()
                    .iter()
                    .position(|sp| sp.name == "engine.run" && sp.job == r.seed)?;
                let self_ms = recorder.self_ns(id) as f64 / 1e6;
                Some(self_ms / r.steps.len().max(1) as f64)
            })
            .collect();
        if let Some(m) = per_layer
            .iter_mut()
            .find(|m| m.name == "core.engine_local_ms_per_iter")
        {
            *m = Metric::median_of(m.name, m.unit, local_ms);
        }
    }
    let overhead = if traced_jobs.is_empty() {
        0.0
    } else {
        median(&job_walls(&traced_jobs)) / median(&job_walls(&untraced)) - 1.0
    };
    per_layer.push(Metric::single(
        "obs.trace_overhead_share",
        "share",
        overhead,
    ));
    per_layer.push(Metric::single(
        "bench.machine_speed",
        "ratio",
        machine_speed,
    ));

    recorder.set_enabled(traced);
    let probed = if traced {
        probes::run(w, seed, &mut recorder)?
    } else {
        probes::not_run()
    };
    per_layer.extend(probed);
    per_layer.push(Metric::single(
        "crypto.phase_model_residual_share",
        "share",
        phase_model_residual(&per_layer, alive_per_step),
    ));

    Ok(RunResult {
        workload: *w,
        seed,
        traced,
        attempted: untraced.len() + traced_jobs.len(),
        failed,
        warmup_s,
        measured_s,
        end_to_end,
        per_layer,
        tail_percentile,
        check_failures,
        recorder,
    })
}

/// Output checks on one job; each returned line is a failure.
fn check_job(w: &Workload, r: &JobRecord) -> Vec<String> {
    let mut bad = Vec::new();
    let Some(out) = &r.output else {
        bad.push(format!(
            "engine returned an error: {}",
            r.error.as_deref().unwrap_or("unknown")
        ));
        return bad;
    };
    if out.iterations != w.iterations || out.converged {
        bad.push(format!(
            "ran {} of {} iterations, converged = {} (the job's length is its iteration cap)",
            out.iterations, w.iterations, out.converged
        ));
    }
    if out.epsilon_spent > out.epsilon * (1.0 + 1e-9)
        || (out.epsilon_spent - out.epsilon_charged).abs() > out.epsilon * 1e-9
    {
        bad.push(format!(
            "privacy accounting: spent {} of ε = {}, per-iteration charges sum to {}",
            out.epsilon_spent, out.epsilon, out.epsilon_charged
        ));
    }
    if let Some(i) = r.steps.iter().position(|s| s.messages == 0 || s.bytes == 0) {
        bad.push(format!("step {i} moved no traffic"));
    }
    let (failed, attempted) = r.failed_node_steps(w);
    let sum = |f: fn(&StepRecord) -> u64| r.steps.iter().map(f).sum::<u64>();
    if w.churn {
        // A backend that silently dropped the script would look healthy.
        if failed == 0 {
            bad.push("the churn script left no participant without an estimate".to_string());
        }
    } else {
        if failed != 0 {
            bad.push(format!(
                "{failed} of {attempted} node-steps ended without an estimate on an honest run"
            ));
        }
        if sum(|s| s.bad_frames) != 0 {
            bad.push(format!("{} undecodable frames", sum(|s| s.bad_frames)));
        }
        if !w.tolerates_alerts() && sum(|s| s.alerts) != 0 {
            bad.push(format!(
                "{} invariant alerts on an honest run",
                sum(|s| s.alerts)
            ));
        }
    }
    if let Some(c) = &r.cluster {
        if !c.healthy || c.clean_exits != w.population {
            bad.push(format!(
                "cluster health ok = {}, {} of {} daemons exited cleanly",
                c.healthy, c.clean_exits, w.population
            ));
        }
    }
    bad
}

/// Wall of the job net of the dealer's key generation inside it. Key
/// generation is a prime search whose length is a per-seed lottery, not a
/// property of the code under the clustering job; it is reported in
/// `setup_s` and `core.keygen_s` instead.
fn job_wall(r: &JobRecord) -> f64 {
    r.engine_wall_s - r.dealer_s
}

fn job_walls(jobs: &[JobRecord]) -> Vec<f64> {
    jobs.iter().map(job_wall).collect()
}

/// CPU of the job (this process and its reaped children), net of the
/// dealer like `job_wall`: the dealer is single-threaded and CPU-bound, so
/// its CPU time is its wall.
fn job_cpu(r: &JobRecord) -> f64 {
    (r.cpu.total_s() - r.dealer_s).max(0.0)
}

/// Per-layer metrics that only a traced run measures: the direct probes,
/// and the three numbers derived from the spans or the probes. The rest of
/// the table is observed on the untraced jobs of any run.
pub fn traced_only(name: &str) -> bool {
    probes::PROBES.iter().any(|&(probe, _)| probe == name)
        || matches!(
            name,
            "core.engine_local_ms_per_iter"
                | "obs.trace_overhead_share"
                | "crypto.phase_model_residual_share"
        )
}

/// (failed, attempted) node-steps over all jobs of a run.
fn failed_node_steps(w: &Workload, jobs: &[JobRecord]) -> (usize, usize) {
    jobs.iter().fold((0, 0), |(f, a), r| {
        let (jf, ja) = r.failed_node_steps(w);
        (f + jf, a + ja)
    })
}

/// The time metrics are scaled to the reference machine speed: a time
/// measured while the machine ran at `speed` × the reference would have
/// been `speed` × as long there.
fn end_to_end_metrics(w: &Workload, jobs: &[JobRecord], speed: f64) -> Vec<Metric> {
    let node_iters = (w.population * w.iterations) as f64;
    let walls: Vec<f64> = jobs.iter().map(|r| job_wall(r) * speed).collect();
    let step_walls_ms: Vec<f64> = jobs
        .iter()
        .flat_map(|r| r.steps.iter().map(|s| s.wall_s * 1e3 * speed))
        .collect();
    let (failed, attempted) = failed_node_steps(w, jobs);
    vec![
        Metric::median_of("job_wall_s", "s", walls.clone()),
        Metric::median_of("step_wall_ms_p50", "ms", step_walls_ms),
        Metric::median_of(
            "node_iters_per_s",
            "1/s",
            walls.iter().map(|wall| node_iters / wall).collect(),
        ),
        Metric::median_of(
            "cpu_s_per_node_iter",
            "s",
            jobs.iter()
                .map(|r| job_cpu(r) * speed / node_iters)
                .collect(),
        ),
        Metric::median_of(
            "wire_bytes_per_node_iter",
            "B",
            jobs.iter()
                .map(|r| r.steps.iter().map(|s| s.bytes).sum::<u64>() as f64 / node_iters)
                .collect(),
        ),
        Metric {
            name: "completed_node_steps_share",
            unit: "share",
            value: 1.0 - failed as f64 / attempted.max(1) as f64,
            samples: jobs
                .iter()
                .map(|r| {
                    let (f, a) = r.failed_node_steps(w);
                    1.0 - f as f64 / a.max(1) as f64
                })
                .collect(),
        },
        Metric::median_of(
            "peak_rss_mb",
            "MB",
            jobs.iter().map(|r| r.peak_rss_mb).collect(),
        ),
        Metric::median_of(
            "setup_s",
            "s",
            jobs.iter().map(|r| r.setup_s() * speed).collect(),
        ),
    ]
}

fn p95(metrics: &MetricsSnapshot, name: &str) -> f64 {
    metrics
        .histogram(name)
        .map_or(0.0, |h| h.quantile(0.95) as f64)
}

struct Observed {
    metrics: Vec<Metric>,
    /// Percentile `core.step_wall_ms_tail` was taken at.
    tail_percentile: f64,
    /// Mean number of participants alive at a step's start.
    alive_per_step: f64,
}

/// Per-layer metrics read off the job runs themselves (no tracing
/// needed): public fields of the step outcomes, the substrates' metric
/// registries, and clocks around the calls.
fn observed_layer_metrics(w: &Workload, jobs: &[JobRecord]) -> Observed {
    let steps: Vec<&StepRecord> = jobs.iter().flat_map(|r| &r.steps).collect();
    let n_steps = steps.len().max(1) as f64;
    let n_jobs = jobs.len().max(1) as f64;
    let node_steps: f64 = steps
        .iter()
        .map(|s| s.alive_at_start as f64)
        .sum::<f64>()
        .max(1.0);
    let metrics = jobs
        .iter()
        .fold(MetricsSnapshot::default(), |acc, r| acc.plus(&r.metrics));
    let phases = steps
        .iter()
        .fold(PhaseProfile::default(), |acc, s| acc.plus(&s.phases));
    let step_sum = |f: &dyn Fn(&StepRecord) -> f64| steps.iter().map(|s| f(s)).sum::<f64>();
    let per_step = |f: &dyn Fn(&StepRecord) -> f64| step_sum(f) / n_steps;
    let per_node_step = |f: &dyn Fn(&StepRecord) -> f64| step_sum(f) / node_steps;
    let outputs: Vec<_> = jobs.iter().filter_map(|r| r.output.as_ref()).collect();
    let quality = |f: &dyn Fn(&chiaroscuro::QualityReport) -> f64| {
        median(&outputs.iter().map(|o| f(&o.quality)).collect::<Vec<_>>())
    };
    let cluster = |f: &dyn Fn(&crate::job::ClusterTimes) -> f64| {
        median(
            &jobs
                .iter()
                .filter_map(|r| r.cluster.as_ref())
                .map(f)
                .collect::<Vec<_>>(),
        )
    };

    let step_walls_ms: Vec<f64> = steps.iter().map(|s| s.wall_s * 1e3).collect();
    let (tail_ms, tail_percentile) = tail(&step_walls_ms);
    let engine_local_ms: Vec<f64> = jobs
        .iter()
        .map(|r| {
            let in_steps: f64 = r.steps.iter().map(|s| s.wall_s).sum();
            (job_wall(r) - in_steps) * 1e3 / r.steps.len().max(1) as f64
        })
        .collect();

    // CPU of this process inside `run_step` that no phase bucket claims.
    // The cluster's steps run in other processes, so the job's CPU
    // (daemons included, once reaped) is the base there.
    let total_cpu: f64 = jobs.iter().map(job_cpu).sum();
    let phase_cpu_s = phases.total_ns() as f64 / 1e9;
    let step_cpu_s = if w.kind == Kind::Cluster {
        total_cpu
    } else {
        step_sum(&|s| s.own_cpu_s)
    };
    let unattributed = if step_cpu_s > 0.0 {
        (1.0 - phase_cpu_s / step_cpu_s).max(0.0)
    } else {
        0.0
    };

    let cross = metrics.counter("exec.deliveries.cross_shard") as f64;
    let in_shard = metrics.counter("exec.deliveries.in_shard") as f64;
    let messages = step_sum(&|s| s.messages as f64);
    let dropped = step_sum(&|s| s.dropped as f64);
    let children_cpu: f64 = jobs.iter().map(|r| r.cpu.children_s).sum();
    let floor_ms = w.pacing_floor_ms();
    let phase_ms = |p: StepPhase| phases.get(p) as f64 / 1e6 / n_steps;
    let (failed, attempted) = failed_node_steps(w, jobs);

    let m = Metric::single;
    let out = vec![
        Metric::median_of("core.engine_local_ms_per_iter", "ms", engine_local_ms),
        Metric::median_of(
            "core.keygen_s",
            "s",
            jobs.iter().map(|r| r.dealer_s).collect(),
        ),
        m(
            "core.iterations",
            "count",
            median(
                &outputs
                    .iter()
                    .map(|o| o.iterations as f64)
                    .collect::<Vec<_>>(),
            ),
        ),
        m(
            "core.converged",
            "count",
            outputs.iter().filter(|o| o.converged).count() as f64,
        ),
        m("core.step_wall_ms_tail", "ms", tail_ms),
        m(
            "core.phase_encrypt_cpu_ms_per_step",
            "ms",
            phase_ms(StepPhase::Encrypt),
        ),
        m(
            "core.phase_gossip_cpu_ms_per_step",
            "ms",
            phase_ms(StepPhase::Gossip),
        ),
        m(
            "core.phase_decrypt_share_cpu_ms_per_step",
            "ms",
            phase_ms(StepPhase::DecryptShare),
        ),
        m(
            "core.phase_combine_cpu_ms_per_step",
            "ms",
            phase_ms(StepPhase::Combine),
        ),
        m(
            "core.phase_unpack_cpu_ms_per_step",
            "ms",
            phase_ms(StepPhase::Unpack),
        ),
        m(
            "crypto.ops_encrypt_per_node_step",
            "count",
            per_node_step(&|s| s.ops.encryptions as f64),
        ),
        m(
            "crypto.ops_add_per_node_step",
            "count",
            per_node_step(&|s| s.ops.additions as f64),
        ),
        m(
            "crypto.ops_pow2_scale_per_node_step",
            "count",
            per_node_step(&|s| s.ops.pow2_scalings as f64),
        ),
        m(
            "crypto.ops_rerandomize_per_node_step",
            "count",
            per_node_step(&|s| s.ops.rerandomizations as f64),
        ),
        m(
            "crypto.ops_partial_decrypt_per_node_step",
            "count",
            per_node_step(&|s| s.decrypt_ops.partial_decryptions as f64),
        ),
        m(
            "crypto.ops_combine_per_node_step",
            "count",
            per_node_step(&|s| s.decrypt_ops.combinations as f64),
        ),
        m("net.unattributed_cpu_share", "share", unattributed),
        m("net.messages_per_step", "count", messages / n_steps),
        m(
            "net.bytes_per_message",
            "B",
            step_sum(&|s| s.bytes as f64) / messages.max(1.0),
        ),
        m(
            "net.dropped_share",
            "share",
            dropped / (messages + dropped).max(1.0),
        ),
        m(
            "net.exec_cross_shard_share",
            "share",
            cross / (cross + in_shard).max(1.0),
        ),
        m(
            "net.exec_epochs_per_step",
            "count",
            metrics.counter("exec.epochs") as f64 / n_steps,
        ),
        m(
            "net.exec_epoch_wait_ms_per_step",
            "ms",
            metrics
                .histogram("exec.epoch.wait_ns")
                .map_or(0.0, |h| h.sum as f64)
                / 1e6
                / n_steps,
        ),
        m(
            "net.exec_queue_depth_p95",
            "count",
            p95(&metrics, "exec.queue.depth"),
        ),
        m(
            "net.tcp_connects_per_step",
            "count",
            metrics.counter("tcp.connects") as f64 / n_steps,
        ),
        m(
            "net.tcp_write_partials_per_step",
            "count",
            metrics.counter("tcp.write.partials") as f64 / n_steps,
        ),
        m(
            "net.tcp_write_retries_per_step",
            "count",
            metrics.counter("tcp.write.retries") as f64 / n_steps,
        ),
        m(
            "net.inbox_depth_p95",
            "count",
            p95(&metrics, "net.inbox.depth"),
        ),
        m("net.pacing_floor_ms", "ms", floor_ms),
        m(
            "net.step_over_floor_ms",
            "ms",
            if floor_ms > 0.0 {
                median(&step_walls_ms) - floor_ms
            } else {
                0.0
            },
        ),
        m(
            "net.nodes_without_estimate_per_step",
            "count",
            per_step(&|s| s.without_estimate as f64),
        ),
        m(
            "net.peer_failures_per_step",
            "count",
            per_step(&|s| s.peer_failures as f64),
        ),
        m(
            "net.gossip_cut_short_nodes",
            "count",
            step_sum(&|s| s.gossip_cut_short as f64),
        ),
        m(
            "net.bad_frames",
            "count",
            step_sum(&|s| s.bad_frames as f64),
        ),
        m(
            "net.failed_node_steps_share",
            "share",
            failed as f64 / attempted.max(1) as f64,
        ),
        m("node.spawn_accept_s", "s", cluster(&|c| c.spawn_accept_s)),
        m("node.shutdown_s", "s", cluster(&|c| c.shutdown_s)),
        m(
            "node.scrape_metrics_ms",
            "ms",
            cluster(&|c| c.scrape_metrics_s * 1e3),
        ),
        m(
            "node.cluster_health_ms",
            "ms",
            cluster(&|c| c.cluster_health_s * 1e3),
        ),
        m(
            "node.daemon_cpu_share",
            "share",
            if total_cpu > 0.0 {
                children_cpu / total_cpu
            } else {
                0.0
            },
        ),
        m(
            "obs.alerts_per_job",
            "count",
            step_sum(&|s| s.alerts as f64) / n_jobs,
        ),
        m(
            "kmeans.baseline_fit_s",
            "s",
            median(&jobs.iter().map(|r| r.quality_s).collect::<Vec<_>>()),
        ),
        m(
            "kmeans.ari_vs_central",
            "ratio",
            quality(&|q| q.ari_vs_baseline),
        ),
        m(
            "kmeans.inertia_ratio",
            "ratio",
            quality(&|q| q.inertia_ratio),
        ),
        m("kmeans.silhouette", "ratio", quality(&|q| q.silhouette)),
    ];
    Observed {
        metrics: out,
        tail_percentile,
        alive_per_step: node_steps / n_steps,
    }
}

/// How far ops × probed unit cost is from the measured phase CPU, over
/// the four real-crypto phases of a step: `1 − model ÷ measured`. Zero
/// when the probes did not run.
fn phase_model_residual(per_layer: &[Metric], alive_per_step: f64) -> f64 {
    let v = |name: &str| {
        per_layer
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    if v("crypto.partial_decrypt_us") == 0.0 {
        return 0.0;
    }
    let measured_ms = v("core.phase_encrypt_cpu_ms_per_step")
        + v("core.phase_gossip_cpu_ms_per_step")
        + v("core.phase_decrypt_share_cpu_ms_per_step")
        + v("core.phase_combine_cpu_ms_per_step");
    // Per node-step op counts × unit costs (µs), scaled to one step by
    // the participants alive at its start.
    let per_node_us = v("crypto.ops_encrypt_per_node_step") * v("crypto.encrypt_packed_us")
        + v("crypto.ops_add_per_node_step") * v("crypto.add_us")
        + v("crypto.ops_pow2_scale_per_node_step") * v("crypto.pow2_scale_us")
        + v("crypto.ops_rerandomize_per_node_step") * v("crypto.rerandomize_pool_us")
        + v("crypto.ops_partial_decrypt_per_node_step") * v("crypto.partial_decrypt_us")
        + v("crypto.ops_combine_per_node_step") * v("crypto.combine_us");
    let model_ms = per_node_us * alive_per_step / 1e3;
    if measured_ms > 0.0 {
        1.0 - model_ms / measured_ms
    } else {
        0.0
    }
}
