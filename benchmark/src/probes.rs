//! Direct layer probes: each layer's public functions, timed on inputs
//! shaped like the workload's (its modulus, lane plan, slot count,
//! population, push frame). Run only in the traced run, one span per
//! probe under a `probes` root; the real-crypto probes (`bigint.*`,
//! `crypto.*`, `gossip.hepush_*`) run only on the real-crypto workloads.

use crate::measure::Metric;
use crate::stats::median;
use crate::trace::{Recorder, SpanId};
use crate::workload::Workload;
use chiaroscuro::noise::{contribution_vector, SlotLayout};
use chiaroscuro::rounds::{plan_packed_codec, CryptoContext};
use cs_bigint::multi_exp::multi_exp;
use cs_bigint::{BigUint, MontgomeryCtx};
use cs_crypto::{Ciphertext, RandomizerPool};
use cs_dp::NoiseShareGenerator;
use cs_gossip::homomorphic_pushsum::HePushSumNode;
use cs_gossip::pushsum::PushSumNode;
use cs_gossip::{FailureModel, Network, Overlay};
use cs_net::wire::{decode_frame, encode_frame, Message};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Every probe metric with its unit, in report order. A run that does not
/// probe (or a workload the probe does not apply to) reports 0.
pub const PROBES: [(&str, &str); 22] = [
    ("bigint.mont_mul_ns", "ns"),
    ("bigint.pow_mod_us", "us"),
    ("bigint.multi_exp_us", "us"),
    ("crypto.encrypt_packed_us", "us"),
    ("crypto.add_us", "us"),
    ("crypto.pow2_scale_us", "us"),
    ("crypto.rerandomize_pool_us", "us"),
    ("crypto.rerandomize_cold_us", "us"),
    ("crypto.pool_refill_us_per_randomizer", "us"),
    ("crypto.partial_decrypt_us", "us"),
    ("crypto.combine_us", "us"),
    ("crypto.pack_us", "us"),
    ("crypto.unpack_us", "us"),
    ("crypto.lanes", "count"),
    ("crypto.ciphertexts_per_push", "count"),
    ("net.wire_roundtrip_us", "us"),
    ("net.wire_frame_bytes", "B"),
    ("gossip.cycle_ms", "ms"),
    ("gossip.hepush_split_absorb_us", "us"),
    ("kmeans.assign_all_ms", "ms"),
    ("dp.noise_shares_us_per_node", "us"),
    ("timeseries.dataset_build_ms", "ms"),
];

/// Wall-clock each timed probe may use.
const PROBE_BUDGET: Duration = Duration::from_millis(60);
const MIN_REPS: usize = 5;
const MAX_REPS: usize = 2000;

struct Prober<'a> {
    recorder: &'a mut Recorder,
    root: SpanId,
    job: u64,
    values: Vec<(&'static str, f64)>,
}

impl Prober<'_> {
    fn set(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }

    /// Median seconds of one call of `op`, repeated until the budget or
    /// the repetition cap is reached.
    fn time(&mut self, name: &'static str, scale: f64, mut op: impl FnMut()) {
        let span = self.recorder.start(name, self.root, self.job);
        let started = Instant::now();
        let mut samples = Vec::new();
        while samples.len() < MIN_REPS
            || (samples.len() < MAX_REPS && started.elapsed() < PROBE_BUDGET)
        {
            let t = Instant::now();
            op();
            samples.push(t.elapsed().as_secs_f64());
        }
        self.recorder.end(span);
        self.set(name, median(&samples) * scale);
    }
}

/// The metric list of a run that did not probe.
pub fn not_run() -> Vec<Metric> {
    finish(Vec::new())
}

fn finish(values: Vec<(&'static str, f64)>) -> Vec<Metric> {
    PROBES
        .iter()
        .map(|&(name, unit)| {
            let value = values
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |&(_, v)| v);
            Metric {
                name,
                unit,
                value,
                samples: vec![value],
            }
        })
        .collect()
}

pub fn run(w: &Workload, seed: u64, recorder: &mut Recorder) -> Result<Vec<Metric>, String> {
    let root = recorder.start("probes", None, seed);
    let mut p = Prober {
        recorder,
        root,
        job: seed,
        values: Vec::new(),
    };
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9_20BE);
    let cfg = w.config(seed);

    // timeseries / kmeans / dp: the engine-local work of one iteration.
    let mut series = w.dataset(seed);
    let layout = SlotLayout {
        k: w.k,
        series_len: series[0].len(),
    };
    p.time("timeseries.dataset_build_ms", 1e3, || {
        series = black_box(w.dataset(seed));
    });
    let centroids: Vec<_> = series.iter().take(w.k).cloned().collect();
    p.time("kmeans.assign_all_ms", 1e3, || {
        black_box(cs_kmeans::assign_all(&series, &centroids, cfg.distance));
    });
    let shares = NoiseShareGenerator::new(w.population, 1.0);
    let values = contribution_vector(&layout, series[0].values(), 0, &shares, &mut rng);
    p.time("dp.noise_shares_us_per_node", 1e6, || {
        black_box(contribution_vector(
            &layout,
            series[0].values(),
            0,
            &shares,
            &mut rng,
        ));
    });

    // gossip: one cycle of the plaintext push-sum simulator at the
    // workload's population and vector width.
    let nodes: Vec<PushSumNode> = (0..w.population)
        .map(|_| PushSumNode::new(values.clone(), 1.0))
        .collect();
    let mut network = Network::new(nodes, Overlay::Full, FailureModel::none(), seed);
    p.time("gossip.cycle_ms", 1e3, || network.run_cycle());

    let push = match CryptoContext::from_config(&cfg, &mut StdRng::seed_from_u64(cfg.seed))
        .map_err(|e| format!("probe keygen: {e}"))?
    {
        CryptoContext::Simulated { .. } => Message::PlainPush {
            iteration: 1,
            weight: 0.5,
            slots: values.clone(),
        },
        CryptoContext::Real {
            tkp,
            pk,
            codec,
            fast,
            plans,
            ..
        } => {
            let enc = fast.ok_or("real-crypto workloads run packed")?;
            let packed = plan_packed_codec(&cfg, &pk, &codec, &layout, w.population)
                .map_err(|e| format!("lane plan: {e}"))?;
            let split = layout.noise_offset();
            p.set("crypto.lanes", packed.lanes() as f64);
            p.set(
                "crypto.ciphertexts_per_push",
                2.0 * packed.ciphertexts_for(split) as f64,
            );

            // bigint, at the ciphertext modulus n^(s+1).
            let mont = MontgomeryCtx::new(pk.n_s1());
            let a = cs_bigint::rng::random_below(&mut rng, pk.n_s1());
            let b = cs_bigint::rng::random_below(&mut rng, pk.n_s1());
            let e1 = cs_bigint::rng::random_below(&mut rng, pk.n());
            let e2 = cs_bigint::rng::random_below(&mut rng, pk.n());
            p.time("bigint.mont_mul_ns", 1e9, || {
                black_box(mont.mul_mod(&a, &b));
            });
            p.time("bigint.pow_mod_us", 1e6, || {
                black_box(mont.pow_mod(&a, &e1));
            });
            let terms = [(a.clone(), e1.clone()), (b.clone(), e2.clone())];
            p.time("bigint.multi_exp_us", 1e6, || {
                black_box(multi_exp(&mont, &terms));
            });

            // crypto, on one node's packed contribution.
            let mut plaintexts: Vec<BigUint> = Vec::new();
            p.time("crypto.pack_us", 1e6, || {
                plaintexts = packed
                    .pack(&values[..split])
                    .expect("contribution fits its lanes");
            });
            p.time("crypto.unpack_us", 1e6, || {
                black_box(
                    packed
                        .unpack_aggregate(&plaintexts, split, 0, 1.0, 1)
                        .expect("a fresh contribution is inside the headroom"),
                );
            });
            let m = plaintexts[0].clone();
            let mut c = enc.encrypt(&m, &mut rng);
            p.time("crypto.encrypt_packed_us", 1e6, || {
                c = enc.encrypt(&m, &mut rng);
            });
            let c2 = enc.encrypt(&m, &mut rng);
            p.time("crypto.add_us", 1e6, || {
                black_box(pk.add(&c, &c2));
            });
            p.time("crypto.pow2_scale_us", 1e6, || {
                black_box(pk.scalar_mul_pow2(&c, 1));
            });
            p.time("crypto.rerandomize_cold_us", 1e6, || {
                black_box(enc.rerandomize(&c, &mut rng));
            });
            let mut pool = RandomizerPool::new(enc.clone());
            let batch = 8;
            p.time(
                "crypto.pool_refill_us_per_randomizer",
                1e6 / batch as f64,
                || {
                    pool.refill(batch, &mut rng);
                },
            );
            p.time("crypto.rerandomize_pool_us", 1e6, || {
                if pool.is_empty() {
                    // Refills stay outside what the hot path would pay,
                    // but inside this sample: keep them rare.
                    pool.refill(64, &mut rng);
                }
                black_box(pool.rerandomize(&c, &mut rng));
            });
            let share = &tkp.shares()[0];
            p.time("crypto.partial_decrypt_us", 1e6, || {
                black_box(share.partial_decrypt(&c));
            });
            let partials: Vec<_> = tkp.shares()[..tkp.params().threshold]
                .iter()
                .map(|s| s.partial_decrypt(&c))
                .collect();
            let combine = || plans.combine(&pk, tkp.params(), tkp.delta(), &partials);
            if combine().map_err(|e| format!("combine probe: {e}"))? != m {
                return Err("combine probe did not recover the plaintext".to_string());
            }
            p.time("crypto.combine_us", 1e6, || {
                black_box(combine().expect("combined once already"));
            });

            // gossip over ciphertexts: one split + absorb of a node's
            // whole vector, re-randomized from the fixed-base encryptor.
            let cipher: Vec<Ciphertext> = (0..2 * packed.ciphertexts_for(split))
                .map(|_| enc.encrypt(&m, &mut rng))
                .collect();
            let node = |weight| {
                HePushSumNode::from_ciphertexts(pk.clone(), cipher.clone(), weight, cfg.rerandomize)
                    .with_encryptor(enc.clone())
            };
            let (mut sender, mut receiver) = (node(1.0), node(1.0));
            p.time("gossip.hepush_split_absorb_us", 1e6, || {
                let push = sender.split_push(&mut rng);
                receiver.absorb(&push);
            });

            Message::PackedPush {
                iteration: 1,
                denom_exp: 1,
                weight: 0.5,
                buckets: layout.total() as u32,
                slots: cipher,
            }
        }
    };

    // net: the workload's gossip frame through the wire codec.
    let mut frame = encode_frame(&push);
    p.time("net.wire_roundtrip_us", 1e6, || {
        frame = encode_frame(&push);
        black_box(decode_frame(&frame).expect("a frame we just encoded"));
    });
    p.set("net.wire_frame_bytes", frame.len() as f64);

    let Prober {
        recorder, values, ..
    } = p;
    recorder.end(root);
    Ok(finish(values))
}
