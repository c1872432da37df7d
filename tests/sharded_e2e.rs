//! End-to-end runs over the `cs_net` sharded event-loop executor: the same
//! engine and protocol state machines as the thread-per-node TCP host, but
//! driven as virtual nodes in deterministic virtual time — which is what
//! makes 1k+ populations tractable in a test suite.
//!
//! Three claims are locked in here:
//!
//! 1. **Determinism** — two same-seed sharded runs produce *identical*
//!    `ExecutionLog`s (byte-for-byte JSON) and bitwise-equal centroids.
//! 2. **Differential vs real threads** — at an overlapping population the
//!    sharded executor and the thread-per-node TCP host recover the same
//!    centroids from the same seed within gossip truncation tolerance (the
//!    TCP host's interleaving is OS scheduled, so exact equality is only
//!    defined *within* the deterministic substrate — asserted in 1).
//! 3. **Scale with churn** — crash/rejoin/leave injected mid-gossip at
//!    population ≥1k (release; debug runs a smaller smoke), plaintext and
//!    real crypto, still matching the centroids of an un-churned reference:
//!    the cycle simulator for plaintext, the same-seed failure-free sharded
//!    run for real crypto.

mod common;

use chiaroscuro::{ChiaroscuroConfig, Engine};
use common::*;
use cs_net::{ChurnSchedule, NetBackend, NetConfig, ShardedConfig};
use cs_timeseries::TimeSeries;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

/// Two same-seed sharded runs must be indistinguishable: identical
/// execution logs (the full per-iteration record, serialized), identical
/// centroids down to the bit, identical cost accounting — regardless of
/// how many workers drove the shards.
#[test]
fn sharded_run_is_deterministic_end_to_end() {
    let (series, _) = blobs(128, 5, 41);
    let engine = Engine::new(ChiaroscuroConfig {
        k: 2,
        max_iterations: 2,
        gossip_cycles: 25,
        epsilon: 50.0,
        ..ChiaroscuroConfig::demo_simulated()
    })
    .unwrap();

    // A non-trivial link so the determinism claim covers the loss/jitter
    // draws, not just the ideal path.
    let sharded = ShardedConfig {
        shards: 16,
        link: cs_net::LinkConfig {
            latency: Duration::from_micros(300),
            jitter: Duration::from_micros(150),
            loss: 0.03,
            bandwidth_bytes_per_sec: Some(20_000_000),
        },
        ..ShardedConfig::default()
    };
    let run = |workers: usize| {
        let mut backend = NetBackend::sharded(ShardedConfig {
            workers,
            ..sharded.clone()
        });
        engine.run_with_backend(&series, &mut backend).unwrap()
    };

    let a = run(0); // auto worker count
    let b = run(0);
    let c = run(1); // single worker: same results, only slower
    assert_eq!(
        a.log.to_json(),
        b.log.to_json(),
        "same-seed sharded runs must produce identical execution logs"
    );
    assert_eq!(
        a.log.to_json(),
        c.log.to_json(),
        "worker count must not leak into results"
    );
    for (x, y) in a.centroids.iter().zip(&b.centroids) {
        assert_eq!(x.values(), y.values(), "centroids must be bitwise equal");
    }
    assert_eq!(a.assignment, b.assignment);
}

/// The differential test against the thread-per-node TCP host (the
/// nondeterministic-interleaving side) at an overlapping population: same engine seed, both substrates, centroids agree with
/// each other (and with the in-process cycle simulator) within gossip
/// truncation tolerance — and the sharded substrate's centroids are
/// *identical* across same-seed repetitions.
#[test]
fn sharded_vs_threaded_differential_at_population_64() {
    let (series, labels) = blobs(64, 5, 43);
    let engine = Engine::new(config(ChiaroscuroConfig::demo_simulated(), 2, 30)).unwrap();

    let sim = engine.run(&series).unwrap();

    // Paced so 64 node threads on a couple of cores all get their turn
    // within a push interval: push-sum's truncation error assumes nodes
    // gossip at comparable rates, and a thread that is descheduled for a
    // whole interval or more while its peers run out their quota leaves its
    // mass unmixed.
    let mut threaded = NetBackend::tcp(NetConfig {
        push_interval: Duration::from_millis(2),
        ..NetConfig::default()
    });
    let over_threads = engine.run_with_backend(&series, &mut threaded).unwrap();

    let sharded_cfg = ShardedConfig {
        shards: 16,
        ..ShardedConfig::default()
    };
    let mut sharded = NetBackend::sharded(sharded_cfg.clone());
    let over_shards = engine.run_with_backend(&series, &mut sharded).unwrap();

    // All three substrates recover the same clustering.
    let gap_threaded = max_centroid_gap(&over_threads.centroids, &over_shards.centroids);
    assert!(
        gap_threaded < 0.35,
        "sharded-vs-threaded centroid gap too large: {gap_threaded}"
    );
    let gap_sim = max_centroid_gap(&sim.centroids, &over_shards.centroids);
    assert!(
        gap_sim < 0.35,
        "sharded-vs-simulator centroid gap too large: {gap_sim}"
    );
    let ari = cs_kmeans::adjusted_rand_index(&over_shards.assignment, &labels);
    assert!(ari > 0.6, "sharded-run clustering degraded: ARI {ari}");

    // Equal seeds ⇒ identical centroids, repeatably, on the deterministic
    // substrate.
    let mut again = NetBackend::sharded(sharded_cfg);
    let repeat = engine.run_with_backend(&series, &mut again).unwrap();
    for (x, y) in over_shards.centroids.iter().zip(&repeat.centroids) {
        assert_eq!(
            x.values(),
            y.values(),
            "equal seeds must give identical centroids on the sharded executor"
        );
    }

    // Both runtimes measured real bytes-on-wire.
    for r in over_shards
        .log
        .records
        .iter()
        .chain(&over_threads.log.records)
    {
        assert!(r.cost.gossip_bytes > 0);
    }
}

/// Causal tracing on the sharded executor runs in *virtual* time, so a
/// traced run is as deterministic as an untraced one: the full per-node
/// trace — every span id, causal parent, timestamp, and event order — must
/// be byte-identical across worker counts. And the merged trace must
/// answer the operator question end-to-end: which node was the round's
/// straggler, in which phase, and how much slack everyone else had.
#[test]
fn sharded_traces_are_byte_identical_across_worker_counts() {
    let n: usize = if cfg!(debug_assertions) { 128 } else { 1024 };
    let (series, _) = blobs(n, 5, 59);
    let engine = Engine::new(config(ChiaroscuroConfig::demo_simulated(), 1, 20)).unwrap();

    // Loss and jitter on, so the determinism claim covers traced frames
    // riding the same bandwidth-delay arithmetic as payload bytes.
    let sharded = ShardedConfig {
        shards: 16,
        trace: true,
        link: cs_net::LinkConfig {
            latency: Duration::from_micros(300),
            jitter: Duration::from_micros(150),
            loss: 0.02,
            bandwidth_bytes_per_sec: Some(20_000_000),
        },
        ..ShardedConfig::default()
    };
    let run = |workers: usize| {
        let mut backend = NetBackend::sharded(ShardedConfig {
            workers,
            ..sharded.clone()
        });
        engine.run_with_backend(&series, &mut backend).unwrap();
        let step = backend.last_step().expect("one step ran");
        (step.traces.clone(), step.outcome.alive_after.clone())
    };

    let (traces_auto, _) = run(0); // auto worker count
    let (traces_single, _) = run(1); // one worker: fully serial
    assert_eq!(traces_auto.len(), n, "one trace per virtual node");
    let json_auto = serde_json::to_string(&traces_auto).unwrap();
    let json_single = serde_json::to_string(&traces_single).unwrap();
    assert_eq!(
        json_auto, json_single,
        "worker count leaked into the virtual-time traces"
    );

    // The merged timeline names the straggler and its dominant phase for
    // the round, with per-node slack accounted against it.
    let cluster = cs_obs::ClusterTrace {
        traces: traces_auto,
    };
    let rounds = cs_obs::critical::analyze(&cluster);
    assert_eq!(rounds.len(), 1, "one step traced, one round reconstructed");
    let round = &rounds[0];
    assert_eq!(round.nodes.len(), n, "every virtual node participates");
    assert!((round.straggler as usize) < n);
    assert!(
        matches!(round.dominant_phase.as_str(), "gossip" | "decrypt"),
        "unexpected dominant phase {:?}",
        round.dominant_phase
    );
    let straggler = round
        .nodes
        .iter()
        .find(|nr| nr.node == round.straggler)
        .unwrap();
    assert_eq!(straggler.slack_ns, 0, "the straggler defines the round");
    assert!(round.nodes.iter().all(|nr| nr.sends > 0 || nr.recvs > 0));
    // The ASCII rendering carries the verdict an operator reads.
    let text = cs_obs::critical::render_ascii(&rounds, 5);
    assert!(text.contains(&format!("straggler node {}", round.straggler)));
}

/// Churn injected mid-gossip at scale, plaintext (simulated-crypto)
/// pipeline: a silent crash, a later rejoin, and a graceful leave, on a
/// ≥1k population in release builds. The centroids still match the
/// un-churned cycle simulator — one node's worth of destroyed mass is
/// invisible at this population.
#[test]
fn sharded_plain_churn_at_1k_matches_simulator() {
    let n: usize = if cfg!(debug_assertions) { 256 } else { 1024 };
    let (series, _) = blobs(n, 5, 47);
    let engine = Engine::new(config(ChiaroscuroConfig::demo_simulated(), 1, 25)).unwrap();

    let sim = engine.run(&series).unwrap();

    // Node 17 crashes 5 pushes in and rejoins near the end of the gossip
    // schedule (it then finishes its remaining quota); node 71 crashes at
    // the same moment for good; node 33 leaves gracefully mid-gossip.
    // Virtual offsets: the default pacing is 1 ms per push.
    let churn = ChurnSchedule::none()
        .crash(0, Duration::from_micros(5_100), 17)
        .rejoin(0, Duration::from_millis(20), 17)
        .crash(0, Duration::from_micros(5_100), 71)
        .leave(0, Duration::from_millis(12), 33);
    let mut backend = NetBackend::sharded(ShardedConfig {
        churn,
        ..ShardedConfig::default()
    });
    let net = engine.run_with_backend(&series, &mut backend).unwrap();

    let step = backend.last_step().expect("one step ran");
    assert!(step.outcome.alive_after[17], "node 17 rejoined");
    assert!(!step.outcome.alive_after[33], "node 33 left");
    assert!(!step.outcome.alive_after[71], "node 71 stayed down");
    assert!(step.estimate(33).is_none());
    assert!(step.estimate(71).is_none());
    assert!(
        step.estimate(17).is_some(),
        "a rejoined node finishes the step"
    );
    assert_eq!(
        step.reports[17].pushes_sent, 25,
        "the rejoined node completes its full quota after recovery"
    );
    assert!(
        step.reports[71].pushes_sent < 25,
        "node 71 verifiably died mid-quota ({} pushes)",
        step.reports[71].pushes_sent
    );
    // The control plane is the churn's own announcements and nothing else:
    // node 33's `Leave` and node 17's `Join`, each to every peer but itself
    // (17 was down when 33 left, so it still counts 33 as a peer).
    assert!(step.snapshot.gossip.bytes > 0);
    assert_eq!(step.snapshot.control.messages, 2 * (n as u64 - 1));

    let gap = max_centroid_gap(&sim.centroids, &net.centroids);
    assert!(gap < 0.35, "churned sharded run diverged: gap {gap}");
}

/// The same churn story on the real Damgård-Jurik pipeline with ciphertext
/// packing — the configuration the scaling sweep benches. Release builds
/// run the full ≥1k population; debug builds run a smaller smoke of the
/// identical code path. The reference is the same-seed failure-free run on
/// the executor (the cycle simulator runs simulated crypto only, and a
/// simulated-crypto reference would start from other centroids: the
/// dealer draws from the engine's stream before they are drawn).
#[test]
fn sharded_packed_crypto_churn_matches_simulator() {
    let n: usize = if cfg!(debug_assertions) { 24 } else { 1024 };
    let (series, _) = blobs(n, 5, 53);
    let engine = real_engine(12);

    // Reference: the identical configuration, no churn.
    let reference = engine
        .run_with_backend(&series, &mut NetBackend::sharded(ShardedConfig::default()))
        .unwrap();

    let churn = ChurnSchedule::none().crash(0, Duration::from_micros(7_300), 5);
    let mut backend = NetBackend::sharded(ShardedConfig {
        churn,
        ..ShardedConfig::default()
    });
    let net = engine.run_with_backend(&series, &mut backend).unwrap();

    let step = backend.last_step().expect("one step ran");
    assert!(!step.outcome.alive_after[5], "node 5 stayed down");
    assert!(step.estimate(5).is_none());
    assert!(
        step.reports[5].pushes_sent < 12,
        "node 5 crashed before finishing its quota ({} pushes)",
        step.reports[5].pushes_sent
    );
    assert!(
        step.outcome.decrypt_ops.partial_decryptions > 0,
        "the collaborative decryption round really ran"
    );
    assert!(step.snapshot.decrypt.bytes > 0);

    let gap = max_centroid_gap(&reference.centroids, &net.centroids);
    assert!(gap < 0.35, "packed churned sharded run diverged: gap {gap}");
}

/// One real-crypto step of `n` nodes on four ideal-link shards over
/// noise-free two-cluster contributions (even nodes hold [1, 2, 3] in
/// cluster 0, odd ones [10, 10, 10] in cluster 1), with `tweak` applied to
/// the contributions first.
fn real_step(
    n: usize,
    tweak: impl FnOnce(&mut [Option<Vec<f64>>]),
) -> (
    ChiaroscuroConfig,
    chiaroscuro::rounds::CryptoContext,
    Result<cs_net::StepRun, chiaroscuro::ChiaroscuroError>,
) {
    let layout = chiaroscuro::noise::SlotLayout {
        k: 2,
        series_len: 3,
    };
    let mut contributions: Vec<Option<Vec<f64>>> = (0..n)
        .map(|i| {
            let mut v = vec![0.0; layout.total()];
            let series = [[1.0, 2.0, 3.0], [10.0, 10.0, 10.0]][i % 2];
            let block = &mut v[(i % 2) * 4..][..4];
            block[..3].copy_from_slice(&series);
            block[3] = 1.0;
            Some(v)
        })
        .collect();
    tweak(&mut contributions);
    let config = ChiaroscuroConfig {
        k: 2,
        gossip_cycles: 4,
        ..ChiaroscuroConfig::test_real()
    };
    let crypto =
        chiaroscuro::rounds::CryptoContext::from_config(&config, &mut StdRng::seed_from_u64(41))
            .unwrap();
    let sharded = ShardedConfig {
        shards: 4,
        ..ShardedConfig::default()
    };
    let run = cs_net::run_step_sharded(&config, &layout, &contributions, &crypto, 9, &sharded, &[]);
    (config, crypto, run)
}

/// The homomorphic half of the cost model against the step it models.
/// The model charges per ciphertext of the step's lane plan, what a real
/// step does. Failure-free, every node encrypts its whole contribution,
/// every push is one split (re-randomizations) and, on delivery, one
/// absorb (additions, at most as many rescalings), and nothing else
/// rescales but the decrypt-time fold (fewer than one per ciphertext a
/// node holds).
#[test]
fn cost_model_matches_a_real_step() {
    let n = 6;
    let (config, crypto, run) = real_step(n, |_| ());
    let run = run.unwrap();
    assert!(run.outcome.estimates.iter().all(Option::is_some));
    let (messages, delivered) = (run.snapshot.gossip.messages, run.outcome.traffic.messages);
    assert!(messages > 0 && run.snapshot.dropped() == 0 && delivered == messages);
    let layout = chiaroscuro::noise::SlotLayout {
        k: 2,
        series_len: 3,
    };
    let cipher = crypto.step_cipher(&config, &layout, n).unwrap().unwrap();
    let (slots, ciphertexts) = (layout.total() as u64, cipher.ciphertexts() as u64);
    assert!(ciphertexts < slots, "the slots pack");

    let mut absorbed = 0;
    for r in &run.reports {
        assert_eq!(r.ops.encryptions, ciphertexts, "node {}", r.id);
        assert_eq!(
            r.ops.rerandomizations,
            r.pushes_sent as u64 * ciphertexts,
            "node {}",
            r.id
        );
        assert_eq!(r.ops.additions % ciphertexts, 0, "node {}", r.id);
        assert!(
            r.ops.pow2_scalings < r.ops.additions + ciphertexts,
            "node {}: {} rescalings, {} additions",
            r.id,
            r.ops.pow2_scalings,
            r.ops.additions
        );
        absorbed += r.ops.additions / ciphertexts;
    }
    assert_eq!(absorbed, messages, "every delivered push is absorbed once");

    let model =
        chiaroscuro::cost::synthesize_ops(cipher.ciphertexts(), n, delivered, config.rerandomize);
    let ops = &run.outcome.ops;
    assert_eq!(ops.encryptions, model.encryptions);
    assert_eq!(ops.rerandomizations, model.rerandomizations);
    assert_eq!(ops.additions, model.additions);
    assert!(ops.pow2_scalings <= model.pow2_scalings + n as u64 * ciphertexts);
}

/// A contribution outside the lane plan's envelope fails the step with a
/// typed error from the executor — before a worker exists to panic on it.
/// 1e30 overflows a planned lane but not a 256-bit plaintext; 1e300
/// overflows both.
#[test]
fn out_of_envelope_contributions_are_typed_errors_on_the_executor() {
    for value in [1e30, 1e300] {
        let (_, _, run) = real_step(4, |c| c[1].as_mut().unwrap()[5] = value);
        assert!(
            matches!(run, Err(chiaroscuro::ChiaroscuroError::Crypto(_))),
            "{value:e}: {:?}",
            run.err()
        );
    }
}

/// The lane plan decides how many ciphertexts carry a contribution, and
/// nothing a node computes. ε reaches a computation step only through the
/// plan's value envelope, so one step at ε = 5 and at ε = 5·10⁻⁷ runs the
/// same schedule under two layouts — 2 ciphertexts of 4 lanes a push, and
/// 4 of 2, the two-lane shape of the plan before the denominator cap — and
/// must decode every estimate to the same bits: a node samples its peers
/// from a stream its crypto draws nothing from, and an aggregate's
/// integers do not depend on how its lanes are laid out. (The link has no
/// bandwidth term: a frame's length would move its delivery time.)
#[test]
fn the_lane_plan_leaves_every_estimate_bit_identical() {
    let n = 16;
    let layout = chiaroscuro::noise::SlotLayout {
        k: 2,
        series_len: 3,
    };
    let contributions: Vec<Option<Vec<f64>>> = (0..n)
        .map(|i| {
            let mut v = vec![0.0; layout.total()];
            let series = [[1.0, 2.0, 3.0], [10.0, 10.0, 10.0]][i % 2];
            let block = &mut v[(i % 2) * 4..][..4];
            block[..3].copy_from_slice(&series);
            block[3] = 1.0;
            Some(v)
        })
        .collect();
    let config = ChiaroscuroConfig {
        k: 2,
        gossip_cycles: 10,
        ..ChiaroscuroConfig::test_real()
    };
    let crypto =
        chiaroscuro::rounds::CryptoContext::from_config(&config, &mut StdRng::seed_from_u64(3))
            .unwrap();
    let sharded = ShardedConfig {
        shards: 4,
        link: cs_net::LinkConfig {
            latency: Duration::from_micros(300),
            jitter: Duration::from_micros(150),
            loss: 0.02,
            bandwidth_bytes_per_sec: None,
        },
        ..ShardedConfig::default()
    };
    let [wide, two_lanes] = [5.0, 5e-7].map(|epsilon| {
        let config = ChiaroscuroConfig {
            epsilon,
            ..config.clone()
        };
        cs_net::run_step_sharded(&config, &layout, &contributions, &crypto, 11, &sharded, &[])
            .unwrap()
    });
    let per_push = |run: &cs_net::StepRun| run.reports[0].ops.encryptions;
    assert_eq!((per_push(&wide), per_push(&two_lanes)), (2, 4));
    let bits = |run: &cs_net::StepRun| -> Vec<Option<Vec<u64>>> {
        let estimates = run.outcome.estimates.iter();
        estimates
            .map(|e| {
                let e = e.as_ref()?;
                let values = e.sums.iter().flatten().chain(&e.counts);
                Some(values.map(|v| v.to_bits()).collect())
            })
            .collect()
    };
    assert!(wide.outcome.estimates.iter().all(Option::is_some));
    assert_eq!(
        bits(&wide),
        bits(&two_lanes),
        "estimates moved with the lanes"
    );
    assert_eq!(
        wide.snapshot.gossip.messages,
        two_lanes.snapshot.gossip.messages
    );
    assert!(wide.snapshot.gossip.bytes < two_lanes.snapshot.gossip.bytes);
    for run in [&wide, &two_lanes] {
        assert_eq!(
            run.outcome.pushes_capped, 0,
            "lock-step pushes stay under the cap"
        );
        assert_eq!(run.metrics.counter("gossip.pushes_capped"), 0);
    }
}

/// Everything the golden-timeline test pins about one step: per-class
/// `[messages, bytes, dropped]`, the deterministic `exec.*` counters, and
/// FNV-1a hashes of the estimates' bit patterns and of the serialized
/// traces.
#[derive(Debug, PartialEq)]
struct Timeline {
    gossip: [u64; 3],
    decrypt: [u64; 3],
    control: [u64; 3],
    in_shard: u64,
    cross_shard: u64,
    epochs: u64,
    estimates: u64,
    traces: u64,
}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash = (*hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
}

fn timeline_of(step: &cs_net::StepRun) -> Timeline {
    let class = |c: &cs_net::transport::ClassCounts| [c.messages, c.bytes, c.dropped];
    let mut estimates = 0xCBF2_9CE4_8422_2325u64;
    for id in 0..step.reports.len() {
        match step.estimate(id) {
            None => fnv1a(&mut estimates, &[0]),
            Some(est) => {
                fnv1a(&mut estimates, &[1]);
                for v in est.sums.iter().flatten().chain(&est.counts) {
                    fnv1a(&mut estimates, &v.to_bits().to_le_bytes());
                }
            }
        }
    }
    let mut traces = 0xCBF2_9CE4_8422_2325u64;
    fnv1a(
        &mut traces,
        serde_json::to_string(&step.traces).unwrap().as_bytes(),
    );
    Timeline {
        gossip: class(&step.snapshot.gossip),
        decrypt: class(&step.snapshot.decrypt),
        control: class(&step.snapshot.control),
        in_shard: step.metrics.counter("exec.deliveries.in_shard"),
        cross_shard: step.metrics.counter("exec.deliveries.cross_shard"),
        epochs: step.metrics.counter("exec.epochs"),
        estimates,
        traces,
    }
}

/// The executor accounts a cross-shard frame by its *computed* length
/// (`Message::encoded_len` + the trace block) — no frame is serialized in
/// process. These timelines were recorded on the commit that still ran
/// every cross-shard message through `encode_frame_traced` →
/// `decode_frame_traced`: the loss/jitter draws, the bandwidth delay
/// (24-byte trace block included), every counter, estimate bit and trace
/// byte must reproduce them exactly, at one worker and at the machine's
/// worker count.
///
/// The packed half's `decrypt`, `in_shard`, `cross_shard`, `epochs` and
/// `traces` were re-recorded when the round asked exactly `threshold`
/// members (60 frames where asking the whole committee took 88; no estimate
/// bit moved), and with the `estimates` hash once more when only the
/// members came to decrypt: 3 members × (request + share) and 13
/// non-members × (release request + release), 61 + 1 dropped frames and
/// 14 697 B → 32 + 0 and 3 864 B; 30 fewer deliveries (42/180 → 36/156)
/// and a round that closes sooner (epochs 28 → 25). The three members'
/// estimate bits are the parent's, node by node, and non-member `i` holds
/// member `i % 3`'s — which is how the cause was confirmed. `gossip`,
/// `control` and the plain half did not move.
///
/// The packed half was re-recorded once more when `FastEncryptor` started
/// drawing its exponent from `⌈|n|/2⌉` bits: a node encrypts its
/// contribution with randomizers drawn from its *own* RNG — the one that
/// then samples its gossip peers — and a 128-bit exponent takes two words
/// from that stream where the 320-bit one took five, so every node's peer
/// choices moved. With them moved the in/cross-shard split (97/364 → 95/366,
/// 461 deliveries either way), which frames the 2 % link loses (gossip
/// 158 delivered + 2 dropped → 157 + 3, 160 sent either way), the mixing
/// order and so the `estimates` bits, and, with new ciphertext bytes, gossip
/// `bytes` and the `traces` hash. `decrypt`, `control` and `epochs` are the
/// values recorded before. Drawing and discarding the three extra words per
/// randomizer reproduces every old field except the ciphertext-derived ones
/// (`traces`, one byte of `decrypt`), which is how the cause was confirmed.
/// The plain half builds no `FastEncryptor` and did not move.
///
/// Both halves were re-recorded when a participant started folding its
/// noise share into its contribution before encrypting, so a push carries
/// one block of `k·(series_len+1)` = 12 slots where it carried two. Plain
/// half: gossip `bytes` 1 218 159 → 736 911, which is 5 013 delivered
/// frames × 12 slots × 8 B; the `estimates` bits (one rounding of the sum
/// where there were two) and the `traces` hash (frame lengths) follow, and
/// every count — gossip 5 013 + 107 dropped, `control`, 4 130 / 66 270
/// in/cross-shard, 40 epochs — is the value recorded before. Packed half:
/// 12 slots in 2 lanes are 6 ciphertexts a push where there were 12, gossip
/// `bytes` 137 358 → 73 310 over the same 157 + 3 frames; `decrypt` is 60
/// frames as before (one byte longer: new ciphertext values), `control` and
/// `epochs` did not move. The in/cross-shard split moved 95/366 → 91/370
/// (461 either way) by the mechanism of the paragraph above: a node now
/// draws 6 contribution randomizers, not 12, from the RNG that then samples
/// its peers. Encrypting the contribution a second time and discarding the
/// result puts the split back at 95/366 with every count as recorded, and
/// leaves only ciphertext-derived fields different (gossip `bytes` 73 315,
/// `decrypt` 28 500, the two hashes), which is how the cause was confirmed.
///
/// The packed half's `decrypt` bytes, `epochs` and `traces` were re-recorded
/// when a requester started folding its snapshot into the lanes' unused
/// headroom before the decryption round (`StepCipher::fold`): the same 60
/// decrypt-class frames + 1 dropped carry 15 250 B where they carried
/// 28 498 — a request and each answer to it are as wide as the snapshot
/// folds to, not the 6 ciphertexts of a push. Shorter frames spend less
/// time on the 20 MB/s link (≈ 11 µs less a frame on average), so decrypt
/// deliveries land earlier in virtual time: one more epoch window holds an
/// event (30 → 31) and the `traces` hash, which covers event times, follows. With the link's bandwidth term off, parent and
/// change produce the same `epochs` (30) and the same `traces` hash, and
/// differ in the `decrypt` bytes alone — which is how the cause was
/// confirmed. Frame counts, `gossip`, `control`, the in/cross-shard split
/// and the `estimates` hash are the values recorded before (the folded
/// decryption recovers every estimate bit), and the plain half has no
/// ciphertext to fold.
///
/// Both halves were re-recorded when every participant started drawing its
/// noise shares from its own stream (`Participant::begin_iteration`) and
/// `cs_dp::gamma::gamma` started drawing `U` first and returning an
/// underflowed share after that one word. The engine's master stream now
/// gives one word per iteration to the participants where their samplers
/// took thousands from it, and `step_seed` is the next draw on that stream:
/// a different step seed is a different link-loss and peer-choice schedule,
/// so every count moved a little (plain gossip 5 013 + 107 dropped →
/// 5 037 + 83 of the same 5 120 sent, control 64 060 + 1 220 → 64 025 +
/// 1 255; packed gossip 157 + 3 → 158 + 2, decrypt 60 → 61 frames, control
/// 237 + 3 → 238 + 2, in/cross-shard 91/370 → 88/374), the plain half's
/// 4 130 / 66 270 split and both halves' epochs (40, 31) did not, and the
/// byte totals and both hashes follow. Taking the iteration word from a
/// fork of the master stream and burning on the stream itself what the old
/// contribution loop drew (2 · 12 old-order gamma draws per live
/// participant) puts `step_seed` back: the plain half then reproduces every
/// recorded field, `traces` included, except the `estimates` hash (the
/// shares are different numbers), and the packed half every count, leaving
/// only ciphertext-derived fields different (gossip and `decrypt` `bytes`
/// by a byte or two, the two hashes) — which is how the cause was
/// confirmed. Nothing below the engine changed.
///
/// Both halves were re-recorded on purpose when the termination votes were
/// deleted: a finished node no longer broadcasts one to every peer, and no
/// host waits for them. `control` goes to 0 in both halves (64 025 + 1 255
/// dropped plain, 238 + 2 packed: 256·255 and 16·15 votes, all of them
/// control traffic); the deliveries fall by exactly the votes sent (plain
/// 4 130 / 66 270 → 290 / 4 830, packed 88 / 374 → 40 / 182 — every
/// remaining delivery is a gossip or decrypt frame sent, 5 120 and 222);
/// the packed half closes three windows sooner (epochs 31 → 28), its last
/// windows having held nothing but votes in flight; and the `traces` hash,
/// which covers every send, follows. `gossip`, `decrypt` (retries
/// included), the plain half's 40 epochs and both `estimates` hashes are
/// the values recorded before: a node votes only after its last push, so
/// deleting the votes moves no push's send sequence — the key of its loss
/// and jitter draws — and the replies a member sent after its own vote,
/// whose sequence numbers did move, lose and re-ask the same number of
/// frames on this schedule. No estimate bit could move: a node's estimate
/// is its own snapshot, and the vote never fed one.
///
/// The packed half was re-recorded once more for two causes, confirmed
/// apart. The stream fork: a node's crypto draws — its contribution's
/// randomizers, and those of forwards its pool cannot serve — moved to a
/// stream of their own, so the stream it samples its peers from no longer
/// depends on how many ciphertexts it encrypts. Applied alone to the
/// previous commit (its lane plan still 6 ciphertexts a push), the fork
/// moves the in/cross-shard split 40/182 → 42/180 (222 either way), the
/// `estimates` hash to the value below, gossip and `decrypt` `bytes` by a
/// few bytes (73 780, 15 639: new ciphertext values) and the `traces` hash;
/// frame counts and `epochs` stay. The lane plan: the push-sum denominator
/// is capped and the lanes sized for the cap, 3 ciphertexts of 4 lanes a
/// push where there were 6 of 2. On top of the fork it moves only what a
/// ciphertext count can move — gossip `bytes` 73 780 → 41 550 over the same
/// 158 + 2 frames, `decrypt` 15 639 → 15 785 over the same 61 + 1 (each
/// request and answer 3 wide: the 6 wide lanes folded in pairs, the 3
/// narrow ones do not fold) and the `traces` hash, which covers frame
/// lengths. The `estimates` hash, the split and `epochs` are the fork's
/// values: no estimate bit depends on the lanes, which is what
/// `the_lane_plan_leaves_every_estimate_bit_identical` holds every commit
/// to. The plain half has neither lanes nor a crypto
/// stream, and did not move.
///
/// The packed half was re-recorded once more when in-process nodes lost
/// their construction-time randomizer pool: a forward's randomizers come
/// from the node's crypto stream instead of a pool seeded by
/// `(step_seed, node)`. Ciphertext values move, frame counts do not, and
/// wire v5 wrote each one at its minimal length, so only what covers
/// ciphertext lengths moved: `decrypt` bytes 15 785 → 15 783 and `traces`
/// 9 721 234 553 778 720 074 → 3 863 194 933 759 812 303. Wire v6 (fixed-
/// width blocks, docs/benchmarks.md) re-pinned bytes 41 550 → 39 974,
/// 15 783 → 14 697 and `traces`; counts, split, epochs, estimates stayed.
/// A randomizer never changes a plaintext.
///
/// Re-pinned when only the leader, node 0, decrypted and the others
/// fetched its release: two of the 32 decrypt frames are releases, not
/// share vectors (3 864 → 3 272 B), split 36/156 → 34/158, `traces` moved;
/// `estimates` is the parent's run hashed with node 0's estimate everywhere.
#[test]
fn sharded_timeline_matches_the_recorded_golden_values() {
    let link = cs_net::LinkConfig {
        latency: Duration::from_micros(300),
        jitter: Duration::from_micros(150),
        loss: 0.02,
        bandwidth_bytes_per_sec: Some(20_000_000),
    };
    let run = |engine: &Engine, series: &[TimeSeries], sharded: &ShardedConfig| {
        [1usize, 0].map(|workers| {
            let mut backend = NetBackend::sharded(ShardedConfig {
                workers,
                ..sharded.clone()
            });
            engine.run_with_backend(series, &mut backend).unwrap();
            timeline_of(backend.last_step().expect("one step ran"))
        })
    };

    // Plain (simulated-crypto) step, 256 nodes.
    let (series, _) = blobs(256, 5, 67);
    let engine = Engine::new(ChiaroscuroConfig {
        k: 2,
        max_iterations: 1,
        gossip_cycles: 20,
        epsilon: 50.0,
        ..ChiaroscuroConfig::demo_simulated()
    })
    .unwrap();
    let sharded = ShardedConfig {
        shards: 16,
        trace: true,
        link: link.clone(),
        ..ShardedConfig::default()
    };
    let plain = Timeline {
        gossip: [5037, 740_439, 83],
        decrypt: [0, 0, 0],
        control: [0, 0, 0],
        in_shard: 290,
        cross_shard: 4830,
        epochs: 40,
        estimates: 6_997_497_537_324_381_149,
        traces: 16_461_281_230_549_215_536,
    };
    for got in run(&engine, &series, &sharded) {
        assert_eq!(got, plain, "plain 256-node timeline moved");
    }

    // Packed real-crypto step, 16 nodes: ciphertext pushes, decrypt
    // requests, shares and releases all cross shards under the same link.
    let (series, _) = blobs(16, 5, 71);
    let sharded = ShardedConfig {
        shards: 4,
        trace: true,
        link,
        ..ShardedConfig::default()
    };
    let packed = Timeline {
        gossip: [158, 39_974, 2],
        decrypt: [32, 3_272, 0],
        control: [0, 0, 0],
        in_shard: 34,
        cross_shard: 158,
        epochs: 25,
        estimates: 6_769_411_433_915_777_973,
        traces: 5_647_206_221_879_040_844,
    };
    for got in run(&real_engine(10), &series, &sharded) {
        assert_eq!(got, packed, "packed 16-node timeline moved");
    }
}
