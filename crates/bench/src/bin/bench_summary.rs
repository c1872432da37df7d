//! `bench_summary` — machine-readable benchmark trajectory seed.
//!
//! Runs the core measurements of the `cs_net` bench surface (wire-codec
//! throughput, TCP-loopback computation steps across population sizes, a
//! packed real-crypto step over the same sockets, and the sharded
//! executor's scaling sweep up to 16384 plain / 1024 real-crypto-packed
//! nodes), then whole clustering jobs on the cycle simulator split into
//! the engine's local half and the computation step, and writes them as
//! `BENCH_net.json`, so the repository accumulates a comparable performance
//! record across PRs.
//!
//! ```sh
//! cargo run --release -p cs_bench --bin bench_summary            # full
//! cargo run ... -- --quick --out target/BENCH_net_quick.json     # smoke
//! cargo run ... -- --quick --check --out target/BENCH_net_ci.json  # CI gate: scaling, step budget, frame counts
//! cargo run ... -- --out target/BENCH_net.json                   # custom path
//! cargo run ... -- --profile   # per-phase step breakdown in the entries
//! ```
//!
//! `--quick` needs `--out`: a smoke document never replaces the committed
//! full one.

use chiaroscuro::noise::SlotLayout;
use chiaroscuro::rounds::{ComputationOutcome, CryptoContext};
use chiaroscuro::{
    ChiaroscuroConfig, ChiaroscuroError, ComputationBackend, Engine, SimulatorBackend,
};
use cs_bench::datasets::{rescale_epsilon, synthetic_contributions, UseCase};
use cs_bench::{f, Table};
use cs_bigint::BigUint;
use cs_crypto::Ciphertext;
use cs_net::executor::{run_step_sharded, ShardedConfig};
use cs_net::runtime::{run_step_over_tcp, NetConfig, StepRun};
use cs_net::wire::{decode_frame, encode_frame, Message};
use cs_obs::{PhaseProfile, StepPhase};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Per-phase wall-clock of one computation step, milliseconds. These are
/// CPU-time sums across all nodes of the step (each node accumulates its
/// own crypto clocks, the host books the message work as `gossip`), so a
/// phase total can exceed `wall_ms` on a multi-core run — read them as
/// *where the work went*, not elapsed time.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct PhaseBreakdown {
    encrypt_ms: f64,
    gossip_ms: f64,
    decrypt_share_ms: f64,
    combine_ms: f64,
    unpack_ms: f64,
}

impl PhaseBreakdown {
    fn from_profile(p: &PhaseProfile) -> Self {
        let ms = |phase| p.get(phase) as f64 / 1e6;
        PhaseBreakdown {
            encrypt_ms: ms(StepPhase::Encrypt),
            gossip_ms: ms(StepPhase::Gossip),
            decrypt_share_ms: ms(StepPhase::DecryptShare),
            combine_ms: ms(StepPhase::Combine),
            unpack_ms: ms(StepPhase::Unpack),
        }
    }
}

/// One measured configuration.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct BenchEntry {
    /// Measurement name (stable across PRs — the comparison key).
    name: String,
    /// Population size, 0 for population-independent measurements.
    population: usize,
    /// Wall-clock of the measured unit, milliseconds.
    wall_ms: f64,
    /// Frames the unit put on the wire.
    messages: u64,
    /// Bytes-on-wire of those frames.
    bytes: u64,
    /// Average frame size.
    bytes_per_message: f64,
    /// Per-phase breakdown; populated by `--profile`, `null` otherwise
    /// (and in documents written before the field existed).
    phases: Option<PhaseBreakdown>,
    /// Local/step split of a whole job; `null` on the single-step rows.
    job: Option<JobBreakdown>,
}

/// Where a whole `Engine::run` spent its wall-clock, per iteration: inside
/// `ComputationBackend::run_step`, and everywhere else (assignment, noise
/// shares, means → centroids, convergence, canonical view, log).
#[derive(Clone, Debug, Serialize, Deserialize)]
struct JobBreakdown {
    iterations: usize,
    local_ms_per_iter: f64,
    step_ms_per_iter: f64,
}

/// The whole document.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct BenchSummary {
    /// Document schema tag.
    schema: String,
    /// Whether the quick (smoke) workload was used.
    quick: bool,
    /// The measurements.
    entries: Vec<BenchEntry>,
}

const USAGE: &str = "usage: bench_summary [--quick] [--check] [--profile] [--out PATH]";

/// The command line: `--quick`, `--check`, `--profile`, and the document's path.
fn cli(args: impl IntoIterator<Item = String>) -> Result<([bool; 3], PathBuf), (i32, String)> {
    cs_bench::doc_args(
        args,
        USAGE,
        ["--quick", "--check", "--profile"],
        "BENCH_net.json",
    )
}

fn main() {
    let ([quick, check, profile], out) =
        cli(std::env::args().skip(1)).unwrap_or_else(|e| cs_bench::exit_with(e));

    let mut entries = Vec::new();
    entries.push(bench_wire_codec(quick));
    // TCP loopback: one thread per node, every frame through a kernel
    // socket and the reactor pool. Population 64 overlaps the sharded
    // sweep; the 128 row (full mode) is where O(pool) threading is what
    // keeps the row affordable; the packed real-crypto row is the wire
    // configuration a deployed cluster would actually run.
    let tcp_populations: &[usize] = if quick { &[16, 64] } else { &[16, 32, 64, 128] };
    for &n in tcp_populations {
        entries.push(StepWorkload::plain("net_step_plain_tcp", quick).measure_tcp(n));
    }
    entries.push(StepWorkload::real("net_step_real_packed_tcp").measure_tcp(8));
    // Sharded executor: the scaling sweep. Same protocol configuration as
    // the TCP rows at the overlap population; virtual nodes carry it three
    // orders of magnitude further.
    let sharded_populations: &[usize] = if quick {
        &[64, 256]
    } else {
        &[64, 1024, 4096, 16384]
    };
    for &n in sharded_populations {
        entries.push(StepWorkload::plain("net_step_plain_sharded", quick).measure_sharded(n, 0));
    }
    // The one-worker twin of a mid-sweep row: what the pool's other
    // workers buy is a committed pair. No gate reads it — time is not
    // gateable here, and the counts are the twin's by construction.
    let twin = if quick { 256 } else { 4096 };
    entries.push(StepWorkload::plain("net_step_plain_sharded_w1", quick).measure_sharded(twin, 1));
    let packed_populations: &[usize] = if quick { &[32] } else { &[256, 512, 1024] };
    for &n in packed_populations {
        entries.push(StepWorkload::real("net_step_real_packed_sharded").measure_sharded(n, 0));
    }

    // Whole jobs on the cycle simulator, the paper's demo shape. No gate
    // reads these rows: time is not gateable on a shared box, and the
    // sampler's word count (`crates/dp/tests/sampler_shapes.rs`) is what
    // holds the local half's fast path.
    let job_populations: &[usize] = if quick { &[1000] } else { &[1000, 4000] };
    for &n in job_populations {
        entries.push(measure_job(n, quick));
    }

    // The phase clocks are always captured — a node times only its crypto,
    // the host its message work per window or turn, so no clock is read per
    // message (reading four per message once cost ≈ 11–13 % of a 4 096-node
    // plaintext job, docs/benchmarks.md); --profile decides whether they
    // make it into the document and the report.
    if !profile {
        for e in &mut entries {
            e.phases = None;
        }
    }

    let mut table = Table::new(
        "cs_net bench summary",
        &[
            "name",
            "population",
            "wall_ms",
            "messages",
            "bytes",
            "B/msg",
        ],
    );
    for e in &entries {
        table.row(vec![
            e.name.clone(),
            e.population.to_string(),
            f(e.wall_ms, 3),
            e.messages.to_string(),
            e.bytes.to_string(),
            f(e.bytes_per_message, 1),
        ]);
    }
    println!("{}", table.render());

    let mut job_table = Table::new(
        "job breakdown (ms per iteration)",
        &["name", "population", "iterations", "local", "step"],
    );
    for e in &entries {
        if let Some(j) = &e.job {
            job_table.row(vec![
                e.name.clone(),
                e.population.to_string(),
                j.iterations.to_string(),
                f(j.local_ms_per_iter, 3),
                f(j.step_ms_per_iter, 3),
            ]);
        }
    }
    println!("{}", job_table.render());

    if profile {
        let mut phase_table = Table::new(
            "step phase breakdown (node-CPU ms)",
            &[
                "name",
                "population",
                "encrypt",
                "gossip",
                "decrypt_share",
                "combine",
                "unpack",
            ],
        );
        for e in entries.iter().filter(|e| e.phases.is_some()) {
            let p = e.phases.as_ref().unwrap();
            phase_table.row(vec![
                e.name.clone(),
                e.population.to_string(),
                f(p.encrypt_ms, 3),
                f(p.gossip_ms, 3),
                f(p.decrypt_share_ms, 3),
                f(p.combine_ms, 3),
                f(p.unpack_ms, 3),
            ]);
        }
        println!("{}", phase_table.render());
    }

    let summary = BenchSummary {
        schema: "chiaroscuro-bench-net/v1".to_string(),
        quick,
        entries,
    };
    let json = serde_json::to_string_pretty(&summary);
    std::fs::write(&out, json.expect("summary serializes")).expect("write BENCH_net.json");
    println!("[json written to {}]", out.display());

    if check {
        run_check(&summary);
    }
}

/// The CI gate: the scaling rows stay near-linear, the deployed wire
/// configuration fits its step budget, every row actually gossiped, and
/// every plain row put exactly one frame per node and cycle on its ideal
/// link. Mirrors `bench_crypto --check`. No gate compares two wall-clock
/// substrates: the reactor-stall guard is csbench's `tcp_plain_64`
/// `compare` plus `crates/net/tests/tcp_reactor.rs`. Time on the wall-clock
/// substrate is not gateable; its frame counts are.
fn run_check(summary: &BenchSummary) {
    match check(summary) {
        Ok(held) => println!("[check] {held}"),
        Err(failures) => {
            for f in &failures {
                eprintln!("[check] REGRESSION: {f}");
            }
            std::process::exit(1);
        }
    }
}

/// The gates over `summary`: `Ok` names the gates held and each gate
/// skipped with the rows it lacked (a quick document holds none of the
/// scaling or step-budget rows), `Err` the regressions.
fn check(summary: &BenchSummary) -> Result<String, Vec<String>> {
    let wall = |name: &str, population: usize| {
        summary
            .entries
            .iter()
            .find(|e| e.name == name && e.population == population)
            .map(|e| e.wall_ms)
    };
    let mut failures = Vec::new();
    let (mut held, mut skipped) = (Vec::new(), Vec::new());
    let mut gate = |name: String, rows: &[(&str, usize)]| {
        let lacked: Vec<String> = rows
            .iter()
            .filter(|&&(row, n)| wall(row, n).is_none())
            .map(|(row, n)| format!("{row}@{n}"))
            .collect();
        if lacked.is_empty() {
            held.push(name);
        } else {
            skipped.push(format!("{name} (no row {})", lacked.join(", ")));
        }
    };
    // Scaling gates (full-mode rows only): the sharded executor must stay
    // near-linear in population — a super-linear blowup means per-node
    // state is leaking into a hot loop (a quadratic broadcast, rebuilt
    // combine plans, cold randomizer pools).
    let scaling_pairs: &[(&str, usize, usize)] = &[
        ("net_step_plain_sharded", 1024, 16384),
        ("net_step_real_packed_sharded", 512, 1024),
    ];
    for &(name, lo, hi) in scaling_pairs {
        gate(
            format!("scaling {name} {lo}→{hi}"),
            &[(name, lo), (name, hi)],
        );
        if let (Some(small), Some(large)) = (wall(name, lo), wall(name, hi)) {
            // 2x headroom over perfectly linear absorbs the DRAM pressure
            // of 16k-node state plus scheduler noise; the dense-view bug
            // this gate exists for was ~5x over linear.
            let budget = small.max(1.0) * (hi / lo) as f64 * 2.0;
            if large > budget {
                failures.push(format!(
                    "{name}: {hi} nodes at {large:.0} ms is super-linear \
                     vs {lo} nodes at {small:.0} ms (budget {budget:.0} ms)"
                ));
            }
        }
    }
    // Absolute budget for the deployed wire configuration: a full packed
    // real-crypto step at 512 nodes must finish inside one second on the
    // reference machine, its randomizers included (CRT partial decryption,
    // cached combine plans and half-length fixed-base randomizers are what
    // bought this).
    gate(
        "step budget".into(),
        &[("net_step_real_packed_sharded", 512)],
    );
    if let Some(w) = wall("net_step_real_packed_sharded", 512) {
        if w > 1000.0 {
            failures.push(format!(
                "net_step_real_packed_sharded @ 512: {w:.0} ms exceeds the 1 s budget"
            ));
        }
    }
    // An honest plain step is its pushes and nothing else: no decryption
    // round, nothing lost on an ideal link, and nobody announcing anything
    // — one push per node per cycle, on the TCP host as on the executor.
    let cycles = StepWorkload::plain("", summary.quick).config.gossip_cycles as u64;
    for e in &summary.entries {
        if e.name != "wire_codec_encrypted_push_roundtrip" && e.messages == 0 {
            failures.push(format!("{} @ {} moved no messages", e.name, e.population));
        }
        let want = e.population as u64 * cycles;
        if e.name.starts_with("net_step_plain_") && e.messages != want {
            failures.push(format!(
                "{} @ {}: {} frames where {} nodes × {cycles} cycles push {want}",
                e.name, e.population, e.messages, e.population
            ));
        }
    }
    held.extend(["message movement".into(), "frame counts".into()]);
    if !failures.is_empty() {
        return Err(failures);
    }
    let mut msg = format!("gates passed: {}", held.join(", "));
    if !skipped.is_empty() {
        msg += &format!("; gates skipped: {}", skipped.join("; "));
    }
    Ok(msg)
}

/// Median wall-clock of encode+decode for one packed push frame of 24
/// random 256-byte ciphertexts — the ciphertext width of a 1024-bit key
/// (`n²`), in one fixed-width block. A fixed codec workload: a real push
/// carries `⌈buckets/lanes⌉` ciphertexts, not one per bucket.
fn bench_wire_codec(quick: bool) -> BenchEntry {
    let mut rng = StdRng::seed_from_u64(1);
    let slots: Vec<Ciphertext> = (0..24)
        .map(|_| {
            let bytes: Vec<u8> = (0..256).map(|_| rng.gen::<u8>()).collect();
            Ciphertext::from_biguint(BigUint::from_bytes_le(&bytes))
        })
        .collect();
    let msg = Message::PackedPush {
        iteration: 7,
        denom_exp: 12,
        weight: 0.125,
        buckets: 24,
        slots,
    };
    let reps = if quick { 200 } else { 2000 };
    let mut samples: Vec<f64> = Vec::with_capacity(reps);
    let mut bytes = 0u64;
    for _ in 0..reps {
        let t = Instant::now();
        let frame = encode_frame(&msg);
        let back = decode_frame(&frame).expect("roundtrip");
        samples.push(t.elapsed().as_secs_f64() * 1e3);
        assert!(matches!(back, Message::PackedPush { .. }));
        bytes = frame.len() as u64;
    }
    samples.sort_by(f64::total_cmp);
    BenchEntry {
        name: "wire_codec_encrypted_push_roundtrip".to_string(),
        population: 0,
        wall_ms: samples[samples.len() / 2],
        messages: 1,
        bytes,
        bytes_per_message: bytes as f64,
        phases: None,
        job: None,
    }
}

/// The cycle simulator with a clock around each computation step.
#[derive(Default)]
struct TimedSimulator {
    step: Duration,
    phases: PhaseProfile,
}

impl ComputationBackend for TimedSimulator {
    fn label(&self) -> &'static str {
        SimulatorBackend.label()
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
        let t = Instant::now();
        let outcome =
            SimulatorBackend.run_step(config, layout, contributions, crypto, step_seed, rng);
        self.step += t.elapsed();
        if let Ok(outcome) = &outcome {
            self.phases = self.phases.plus(&outcome.phases);
        }
        outcome
    }
}

/// One whole clustering job (`job_plain_sim`) at population `n`: CER-like
/// daily profiles, the demo's heuristics and ε-rescaling rule, simulated
/// crypto, ten iterations — the shape of csbench's `sim_cer_4k`. The median
/// job of [`STEP_REPS`] by wall-clock.
fn measure_job(n: usize, quick: bool) -> BenchEntry {
    let use_case = UseCase::Electricity;
    let series = use_case.build(n, 7).series;
    let engine = Engine::new(ChiaroscuroConfig {
        k: use_case.default_k(),
        epsilon: rescale_epsilon(0.1, n),
        value_bound: use_case.value_bound(),
        max_iterations: if quick { 3 } else { 10 },
        // Under DP noise the movement threshold never fires; keep it from
        // deciding the row's length.
        convergence_threshold: 0.0,
        ..ChiaroscuroConfig::demo_simulated()
    })
    .expect("config");
    let mut jobs: Vec<BenchEntry> = (0..STEP_REPS)
        .map(|_| {
            let mut backend = TimedSimulator::default();
            let t = Instant::now();
            let out = engine.run_with_backend(&series, &mut backend).expect("job");
            let wall_ms = t.elapsed().as_secs_f64() * 1e3;
            let step_ms = backend.step.as_secs_f64() * 1e3;
            let costs = out.log.records.iter().map(|r| &r.cost);
            let messages: u64 = costs.clone().map(|c| c.gossip_messages).sum();
            let bytes: u64 = costs.map(|c| c.gossip_bytes).sum();
            BenchEntry {
                name: "job_plain_sim".to_string(),
                population: n,
                wall_ms,
                messages,
                bytes,
                bytes_per_message: bytes as f64 / messages.max(1) as f64,
                phases: Some(PhaseBreakdown::from_profile(&backend.phases)),
                job: Some(JobBreakdown {
                    iterations: out.iterations,
                    local_ms_per_iter: (wall_ms - step_ms) / out.iterations as f64,
                    step_ms_per_iter: step_ms / out.iterations as f64,
                }),
            }
        })
        .collect();
    jobs.sort_by(|a, b| f64::total_cmp(&a.wall_ms, &b.wall_ms));
    jobs.swap_remove(jobs.len() / 2)
}

/// Full step runs per thread-per-node measurement; the reported wall is
/// the median, so one outlier run (scheduler hiccup, page cache miss) does
/// not become the recorded number.
const STEP_REPS: usize = 3;

fn net_config() -> NetConfig {
    NetConfig {
        push_interval: Duration::from_micros(150),
        ..NetConfig::default()
    }
}

/// Sharded-executor settings for the sweep: the defaults on `workers`
/// pool threads.
fn sharded_config(workers: usize) -> ShardedConfig {
    ShardedConfig {
        workers,
        ..ShardedConfig::default()
    }
}

/// One protocol configuration measured as a full computation step. One
/// workload feeds both substrates, so the tcp and sharded rows stay
/// comparable by construction.
struct StepWorkload {
    name: &'static str,
    config: ChiaroscuroConfig,
    layout: SlotLayout,
    /// Seed of the RNG that builds the crypto context.
    rng_seed: u64,
    /// The step's per-iteration seed.
    step_seed: u64,
    /// Seed of the synthetic contribution vectors.
    values_seed: u64,
}

impl StepWorkload {
    /// Simulated-crypto (plaintext) mode, the scaling-comparison config.
    fn plain(name: &'static str, quick: bool) -> Self {
        StepWorkload {
            name,
            config: ChiaroscuroConfig {
                k: 2,
                gossip_cycles: if quick { 15 } else { 30 },
                ..ChiaroscuroConfig::demo_simulated()
            },
            layout: SlotLayout {
                k: 2,
                series_len: 8,
            },
            rng_seed: 2,
            step_seed: 42,
            values_seed: 3,
        }
    }

    /// Real Damgård-Jurik pipeline (test-size keys): ciphertext packing +
    /// fixed-base exponentiation, the wire configuration of a deployed
    /// `csnoded` cluster, and what makes real crypto at populations ≥512
    /// tractable on one machine.
    fn real(name: &'static str) -> Self {
        StepWorkload {
            name,
            config: ChiaroscuroConfig {
                k: 2,
                gossip_cycles: 10,
                ..ChiaroscuroConfig::test_real()
            },
            layout: SlotLayout {
                k: 2,
                series_len: 5,
            },
            rng_seed: 4,
            step_seed: 43,
            values_seed: 5,
        }
    }

    fn inputs(&self, n: usize) -> (CryptoContext, Vec<Option<Vec<f64>>>) {
        let mut rng = StdRng::seed_from_u64(self.rng_seed);
        let crypto = CryptoContext::from_config(&self.config, &mut rng).expect("context");
        (
            crypto,
            synthetic_contributions(n, &self.layout, self.values_seed),
        )
    }

    fn entry(&self, n: usize, wall_ms: f64, run: &StepRun) -> BenchEntry {
        let messages = run.snapshot.messages();
        let bytes = run.snapshot.bytes();
        BenchEntry {
            name: self.name.to_string(),
            population: n,
            wall_ms,
            messages,
            bytes,
            bytes_per_message: if messages == 0 {
                0.0
            } else {
                bytes as f64 / messages as f64
            },
            phases: Some(PhaseBreakdown::from_profile(&run.outcome.phases)),
            job: None,
        }
    }

    /// One full computation step at population `n` over the TCP loopback:
    /// the median of [`STEP_REPS`] runs, the substrate being
    /// nondeterministic.
    fn measure_tcp(&self, n: usize) -> BenchEntry {
        let (crypto, contributions) = self.inputs(n);
        let mut runs: Vec<(f64, _)> = (0..STEP_REPS)
            .map(|_| {
                let t = Instant::now();
                let run = run_step_over_tcp(
                    &self.config,
                    &self.layout,
                    &contributions,
                    &crypto,
                    self.step_seed,
                    &net_config(),
                    &[],
                )
                .expect("step");
                (t.elapsed().as_secs_f64() * 1e3, run)
            })
            .collect();
        runs.sort_by(|a, b| f64::total_cmp(&a.0, &b.0));
        let (wall_ms, run) = runs.swap_remove(runs.len() / 2);
        self.entry(n, wall_ms, &run)
    }

    /// One full computation step at population `n` on the sharded
    /// event-loop executor (deterministic: one run), on `workers` pool
    /// threads — 0 sizes the pool to the machine.
    fn measure_sharded(&self, n: usize, workers: usize) -> BenchEntry {
        let (crypto, contributions) = self.inputs(n);
        let t = Instant::now();
        let run = run_step_sharded(
            &self.config,
            &self.layout,
            &contributions,
            &crypto,
            self.step_seed,
            &sharded_config(workers),
            &[],
        )
        .expect("step");
        self.entry(n, t.elapsed().as_secs_f64() * 1e3, &run)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(args: &[&str]) -> Result<([bool; 3], PathBuf), (i32, String)> {
        cli(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn help_and_unknown_flags_exit_before_a_run() {
        for help in ["--help", "-h"] {
            let (code, msg) = parsed(&["--quick", help]).unwrap_err();
            assert_eq!((code, msg.as_str()), (0, USAGE));
        }
        for bad in [&["--bogus"][..], &["--quick", "--out"]] {
            let (code, msg) = parsed(bad).unwrap_err();
            assert_eq!(code, 2);
            assert!(msg.ends_with(USAGE), "{msg}");
        }
        let (flags, out) = parsed(&["--check", "--out", "x.json"]).unwrap();
        assert_eq!(flags, [false, true, false]);
        assert_eq!(out, PathBuf::from("x.json"));
        assert_eq!(parsed(&[]).unwrap().1, PathBuf::from("BENCH_net.json"));
    }

    /// A quick document holds none of the scaling or step-budget rows, so
    /// `--quick --check` names the two gates it held and each it skipped
    /// with the rows that gate lacked; the committed full document holds
    /// all five.
    #[test]
    fn a_check_names_the_gates_it_held_and_skipped() {
        let cycles = StepWorkload::plain("", true).config.gossip_cycles as u64;
        let row = |name: &str, population: usize, messages: u64| BenchEntry {
            name: name.into(),
            population,
            wall_ms: 1.0,
            messages,
            bytes: messages * 171,
            bytes_per_message: 171.0,
            phases: None,
            job: None,
        };
        let mut entries = vec![row("wire_codec_encrypted_push_roundtrip", 0, 1)];
        for (name, n) in [
            ("net_step_plain_tcp", 16),
            ("net_step_plain_tcp", 64),
            ("net_step_plain_sharded", 64),
            ("net_step_plain_sharded", 256),
            ("net_step_plain_sharded_w1", 256),
        ] {
            entries.push(row(name, n, n as u64 * cycles));
        }
        entries.push(row("net_step_real_packed_tcp", 8, 96));
        entries.push(row("net_step_real_packed_sharded", 32, 384));
        entries.push(row("job_plain_sim", 1000, 200_000));
        let quick = BenchSummary {
            schema: "chiaroscuro-bench-net/v1".into(),
            quick: true,
            entries,
        };
        assert_eq!(
            check(&quick).unwrap(),
            "gates passed: message movement, frame counts; gates skipped: \
             scaling net_step_plain_sharded 1024→16384 (no row \
             net_step_plain_sharded@1024, net_step_plain_sharded@16384); \
             scaling net_step_real_packed_sharded 512→1024 (no row \
             net_step_real_packed_sharded@512, net_step_real_packed_sharded@1024); \
             step budget (no row net_step_real_packed_sharded@512)"
        );

        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_net.json");
        let text = std::fs::read_to_string(&path).expect("committed BENCH_net.json");
        let full: BenchSummary = serde_json::from_str(&text).expect("document parses");
        assert_eq!(
            check(&full).unwrap(),
            "gates passed: scaling net_step_plain_sharded 1024→16384, \
             scaling net_step_real_packed_sharded 512→1024, step budget, \
             message movement, frame counts"
        );
    }

    /// A committed count is one the code produces: the smallest full-mode
    /// plain and real-crypto sharded rows, re-run through the workloads the
    /// binary measures, against `BENCH_net.json`. A change that moves these
    /// counts re-records the document.
    #[test]
    fn committed_counts_match_the_code() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_net.json");
        let text = std::fs::read_to_string(&path).expect("committed BENCH_net.json");
        let committed: BenchSummary = serde_json::from_str(&text).expect("document parses");
        assert!(!committed.quick, "the committed document is a full run");
        for fresh in [
            StepWorkload::plain("net_step_plain_sharded", false).measure_sharded(64, 0),
            StepWorkload::real("net_step_real_packed_sharded").measure_sharded(256, 0),
        ] {
            let row = committed
                .entries
                .iter()
                .find(|e| e.name == fresh.name && e.population == fresh.population)
                .unwrap_or_else(|| panic!("{} @ {} committed", fresh.name, fresh.population));
            assert_eq!(
                (fresh.messages, fresh.bytes),
                (row.messages, row.bytes),
                "{} @ {}: (messages, bytes) produced vs committed",
                fresh.name,
                fresh.population
            );
        }
    }
}
