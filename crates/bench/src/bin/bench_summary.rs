//! `bench_summary` — machine-readable benchmark trajectory seed.
//!
//! Runs the core measurements of the `cs_net` bench surface (wire-codec
//! throughput, threaded-transport computation steps across population
//! sizes, a real-crypto step, and the sharded executor's scaling sweep up
//! to 16384 plain / 1024 real-crypto-packed nodes) and writes them as
//! `BENCH_net.json`, so the repository accumulates a comparable performance
//! record across PRs.
//!
//! ```sh
//! cargo run --release -p cs_bench --bin bench_summary            # full
//! cargo run --release -p cs_bench --bin bench_summary -- --quick # smoke
//! cargo run ... -- --quick --check  # CI gate: sharded must beat threaded
//! cargo run ... -- --out target/BENCH_net.json                   # custom path
//! cargo run ... -- --profile   # per-phase step breakdown in the entries
//! ```

use chiaroscuro::noise::SlotLayout;
use chiaroscuro::rounds::CryptoContext;
use chiaroscuro::ChiaroscuroConfig;
use cs_bench::datasets::synthetic_contributions;
use cs_bench::{f, Table};
use cs_bigint::BigUint;
use cs_crypto::Ciphertext;
use cs_net::executor::{run_step_sharded, ShardedConfig};
use cs_net::runtime::{run_step_over_transport, Carrier, NetConfig};
use cs_net::wire::{decode_frame, encode_frame, Message};
use cs_obs::{PhaseProfile, StepPhase};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Per-phase wall-clock of one computation step, milliseconds. These are
/// CPU-time sums across all nodes of the step (each node accumulates its
/// own phase clock), so a phase total can exceed `wall_ms` on a
/// multi-core run — read them as *where the work went*, not elapsed time.
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

fn main() {
    let mut quick = false;
    let mut check = false;
    let mut profile = false;
    let mut out = PathBuf::from("BENCH_net.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--check" => check = true,
            "--profile" => profile = true,
            "--out" => {
                if let Some(p) = args.next() {
                    out = PathBuf::from(p);
                }
            }
            other => eprintln!("warning: ignoring unknown argument {other:?}"),
        }
    }

    let mut entries = Vec::new();
    entries.push(bench_wire_codec(quick));
    // Threaded runtime: population 64 is the overlap point the sharded
    // executor is gated against, so it is measured in both modes.
    let populations: &[usize] = if quick { &[16, 64] } else { &[16, 32, 64] };
    for &n in populations {
        entries.push(bench_plain_step(n, quick));
    }
    if !quick {
        entries.push(bench_real_step(8));
    }
    // TCP loopback: the same step, but every frame crosses a real kernel
    // socket through the reactor pool — measured at the threaded overlap
    // populations so the socket tax is directly readable, plus a
    // past-the-overlap row (128) in full mode where O(pool) threading is
    // what keeps the row affordable, plus a packed real-crypto row (the
    // wire configuration a deployed cluster would actually run).
    let tcp_populations: &[usize] = if quick { &[16, 64] } else { &[16, 32, 64, 128] };
    for &n in tcp_populations {
        entries.push(bench_plain_step_tcp(n, quick));
    }
    entries.push(bench_packed_step_tcp(8));
    // Sharded executor: the scaling sweep. Same protocol configuration as
    // the threaded rows at the overlap population; virtual nodes carry it
    // three orders of magnitude further.
    let sharded_populations: &[usize] = if quick {
        &[64, 256]
    } else {
        &[64, 1024, 4096, 16384]
    };
    for &n in sharded_populations {
        entries.push(bench_plain_step_sharded(n, quick));
    }
    let packed_populations: &[usize] = if quick { &[32] } else { &[256, 512, 1024] };
    for &n in packed_populations {
        entries.push(bench_packed_step_sharded(n));
    }

    // The phase clocks are always captured (they cost nothing); --profile
    // decides whether they make it into the document and the report.
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

/// The CI gate: the sharded executor must not be slower than the threaded
/// runtime at the overlap population, and the scaling rows must actually
/// have gossiped. Mirrors `bench_crypto --check`.
fn run_check(summary: &BenchSummary) {
    let wall = |name: &str, population: usize| {
        summary
            .entries
            .iter()
            .find(|e| e.name == name && e.population == population)
            .map(|e| e.wall_ms)
    };
    let mut failures = Vec::new();
    match (
        wall("net_step_plain", 64),
        wall("net_step_plain_sharded", 64),
    ) {
        // 1.25x headroom absorbs CI scheduling noise; the expected margin
        // is several-fold.
        (Some(threaded), Some(sharded)) if sharded <= threaded * 1.25 => {}
        (Some(threaded), Some(sharded)) => failures.push(format!(
            "population 64: sharded {sharded:.2} ms exceeds threaded {threaded:.2} ms"
        )),
        _ => failures.push("population-64 overlap measurements missing".to_string()),
    }
    // TCP loopback pays kernel-socket tax over the in-memory channel, but
    // with the reactor pool (inline fast-path sends, no per-peer threads)
    // it must stay within 3x of the threaded runtime at the overlap
    // population — a blowout means the reactor is stalling (lost wakeups,
    // missed writability, lock contention), not just syscall overhead.
    // The quick workload halves the gossip phase, so the fixed socket
    // setup/teardown cost is a bigger fraction of the tcp row and the
    // ratio routinely lands at 2.7-3.6x on a single core; 5x still
    // catches the ~15x pre-reactor blowout this gate exists for.
    let tcp_tax = if summary.quick { 5.0 } else { 3.0 };
    match (wall("net_step_plain", 64), wall("net_step_plain_tcp", 64)) {
        (Some(threaded), Some(tcp)) if tcp <= threaded.max(1.0) * tcp_tax => {}
        (Some(threaded), Some(tcp)) => failures.push(format!(
            "population 64: tcp loopback {tcp:.2} ms exceeds {tcp_tax}x threaded {threaded:.2} ms"
        )),
        _ => failures.push("population-64 tcp overlap measurements missing".to_string()),
    }
    // Scaling gates (full-mode rows only): the sharded executor must stay
    // near-linear in population — a super-linear blowup means per-node
    // state is leaking into a hot loop (quadratic vote fan-out, rebuilt
    // combine plans, cold randomizer pools).
    let scaling_pairs: &[(&str, usize, usize)] = &[
        ("net_step_plain_sharded", 1024, 16384),
        ("net_step_real_packed_sharded", 512, 1024),
    ];
    for &(name, lo, hi) in scaling_pairs {
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
    if let Some(w) = wall("net_step_real_packed_sharded", 512) {
        if w > 1000.0 {
            failures.push(format!(
                "net_step_real_packed_sharded @ 512: {w:.0} ms exceeds the 1 s budget"
            ));
        }
    }
    for e in &summary.entries {
        if e.name != "wire_codec_encrypted_push_roundtrip" && e.messages == 0 {
            failures.push(format!("{} @ {} moved no messages", e.name, e.population));
        }
    }
    if failures.is_empty() {
        println!(
            "[check] all gates passed: sharded budget, tcp loopback tax, \
             scaling, step budget, message movement"
        );
    } else {
        for f in &failures {
            eprintln!("[check] REGRESSION: {f}");
        }
        std::process::exit(1);
    }
}

/// Median wall-clock of encode+decode for a realistic encrypted push frame
/// (24 slots of 256-byte ciphertexts ≈ a k=4, len=5 aggregate at 2048-bit
/// keys).
fn bench_wire_codec(quick: bool) -> BenchEntry {
    let mut rng = StdRng::seed_from_u64(1);
    let slots: Vec<Ciphertext> = (0..24)
        .map(|_| {
            let bytes: Vec<u8> = (0..256).map(|_| rng.gen::<u8>()).collect();
            Ciphertext::from_biguint(BigUint::from_bytes_le(&bytes))
        })
        .collect();
    let msg = Message::EncryptedPush {
        iteration: 7,
        denom_exp: 12,
        weight: 0.125,
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
        assert!(matches!(back, Message::EncryptedPush { .. }));
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
    }
}

/// Full step runs per thread-per-node measurement; the reported wall is
/// the median, so a single outlier run cannot trip the ratio gates.
const STEP_REPS: usize = 3;

fn net_config() -> NetConfig {
    NetConfig {
        push_interval: Duration::from_micros(150),
        quiesce: Duration::from_millis(100),
        ..NetConfig::default()
    }
}

/// One protocol configuration measured as a full computation step.
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

    /// Real Damgård-Jurik pipeline (test-size keys), optionally packed.
    fn real(name: &'static str, packing: bool) -> Self {
        StepWorkload {
            name,
            config: ChiaroscuroConfig {
                k: 2,
                gossip_cycles: 10,
                packing,
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

    /// Runs the workload at population `n` on the thread-per-node substrate
    /// over `carrier` and measures it. The protocol configuration is shared
    /// (one [`StepWorkload`] feeds both carriers), so the threaded-vs-tcp
    /// rows stay comparable by construction.
    /// The wall-clock substrates are nondeterministic and the gated rows
    /// are compared as a *ratio*, so each measurement is the median of
    /// [`STEP_REPS`] full runs — one outlier run (scheduler hiccup, page
    /// cache miss) must not trip a CI gate.
    fn measure(&self, n: usize, carrier: Carrier) -> BenchEntry {
        let mut rng = StdRng::seed_from_u64(self.rng_seed);
        let crypto = CryptoContext::from_config(&self.config, &mut rng).expect("context");
        let contributions = synthetic_contributions(n, &self.layout, self.values_seed);
        let mut runs: Vec<(f64, _)> = (0..STEP_REPS)
            .map(|_| {
                let t = Instant::now();
                let run = run_step_over_transport(
                    &self.config,
                    &self.layout,
                    &contributions,
                    &crypto,
                    self.step_seed,
                    &net_config(),
                    &[],
                    carrier,
                )
                .expect("step");
                (t.elapsed().as_secs_f64() * 1e3, run)
            })
            .collect();
        runs.sort_by(|a, b| f64::total_cmp(&a.0, &b.0));
        let (wall_ms, run) = runs.swap_remove(runs.len() / 2);
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
        }
    }
}

/// One full threaded computation step in simulated-crypto (plaintext) mode.
fn bench_plain_step(n: usize, quick: bool) -> BenchEntry {
    StepWorkload::plain("net_step_plain", quick).measure(n, Carrier::Channel)
}

/// The same plaintext step over the TCP loopback substrate — identical
/// protocol configuration, but every frame crosses a real kernel socket.
fn bench_plain_step_tcp(n: usize, quick: bool) -> BenchEntry {
    StepWorkload::plain("net_step_plain_tcp", quick).measure(n, Carrier::Tcp)
}

/// One full computation step over TCP loopback with the real Damgård-Jurik
/// pipeline *and* the crypto fast path — the wire configuration of a
/// deployed `csnoded` cluster, measured in-process.
fn bench_packed_step_tcp(n: usize) -> BenchEntry {
    StepWorkload::real("net_step_real_packed_tcp", true).measure(n, Carrier::Tcp)
}

/// Sharded-executor settings for the sweep: votes stay on at the overlap
/// population (so the head-to-head against the threaded runtime compares
/// identical protocols) and are quiescence-replaced on the scaling rows —
/// the `O(n²)` broadcast would dominate the message counts without
/// informing them.
fn sharded_config(n: usize) -> ShardedConfig {
    ShardedConfig {
        termination_votes: n <= 64,
        ..ShardedConfig::default()
    }
}

/// One full computation step on the sharded event-loop executor,
/// simulated-crypto (plaintext) mode — the same protocol configuration as
/// [`bench_plain_step`], three orders of magnitude further out.
fn bench_plain_step_sharded(n: usize, quick: bool) -> BenchEntry {
    let config = ChiaroscuroConfig {
        k: 2,
        gossip_cycles: if quick { 15 } else { 30 },
        ..ChiaroscuroConfig::demo_simulated()
    };
    let layout = SlotLayout {
        k: 2,
        series_len: 8,
    };
    let mut rng = StdRng::seed_from_u64(2);
    let crypto = CryptoContext::from_config(&config, &mut rng).expect("context");
    let contributions = synthetic_contributions(n, &layout, 3);
    let t = Instant::now();
    let run = run_step_sharded(
        &config,
        &layout,
        &contributions,
        &crypto,
        42,
        &sharded_config(n),
        &[],
    )
    .expect("step");
    let wall_ms = t.elapsed().as_secs_f64() * 1e3;
    let messages = run.snapshot.messages();
    let bytes = run.snapshot.bytes();
    BenchEntry {
        name: "net_step_plain_sharded".to_string(),
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
    }
}

/// One full computation step on the sharded executor with the real
/// Damgård-Jurik pipeline *and* the crypto fast path (ciphertext packing +
/// fixed-base exponentiation) — the configuration that makes real crypto
/// at populations ≥512 tractable on one machine.
fn bench_packed_step_sharded(n: usize) -> BenchEntry {
    let config = ChiaroscuroConfig {
        k: 2,
        gossip_cycles: 10,
        packing: true,
        ..ChiaroscuroConfig::test_real()
    };
    let layout = SlotLayout {
        k: 2,
        series_len: 5,
    };
    let mut rng = StdRng::seed_from_u64(4);
    let crypto = CryptoContext::from_config(&config, &mut rng).expect("context");
    let contributions = synthetic_contributions(n, &layout, 5);
    let t = Instant::now();
    let run = run_step_sharded(
        &config,
        &layout,
        &contributions,
        &crypto,
        43,
        &sharded_config(n),
        &[],
    )
    .expect("step");
    let wall_ms = t.elapsed().as_secs_f64() * 1e3;
    let messages = run.snapshot.messages();
    let bytes = run.snapshot.bytes();
    BenchEntry {
        name: "net_step_real_packed_sharded".to_string(),
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
    }
}

/// One full threaded computation step with the real Damgård-Jurik pipeline
/// (test-size keys).
fn bench_real_step(n: usize) -> BenchEntry {
    StepWorkload::real("net_step_real_crypto", false).measure(n, Carrier::Channel)
}
