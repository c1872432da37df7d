//! E4 — the demo's headline claim (3): "costs remain affordable given the
//! resources of today's personal devices".
//!
//! Three tables, mirroring the demo's cost screens:
//!
//! 1. measured per-operation Damgård-Jurik costs across key sizes (the
//!    demo's "actual average measures performed beforehand");
//! 2. the effect of the decryption threshold `t` (a demo mutable parameter)
//!    on combination cost;
//! 3. per-participant per-iteration cost of a realistic configuration,
//!    extrapolated from 10³ simulated participants to the paper's 10⁶
//!    target — per-participant gossip work is population-independent — and
//!    what the step's leader, its worst node, pays: the participant's gossip
//!    plus its own partial decryptions and every combine.

use chiaroscuro::cost::{crypto_seconds, DecryptionOps};
use chiaroscuro::{ChiaroscuroConfig, CryptoMode, Engine};
use cs_bench::datasets::UseCase;
use cs_bench::{f, human_bytes, ExpArgs, Table};
use cs_crypto::{CryptoCostProfile, KeyGenOptions, ThresholdParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args = ExpArgs::parse();
    let mut rng = StdRng::seed_from_u64(44);
    let reps = if args.quick { 2 } else { 4 };

    // ---- Table 1: op costs vs key size ------------------------------------
    let key_sizes: &[usize] = if args.quick {
        &[512]
    } else {
        &[512, 1024, 2048]
    };
    let mut t1 = Table::new(
        "E4.1 measured Damgård-Jurik op costs (µs)",
        &[
            "key_bits",
            "s",
            "encrypt",
            "add",
            "pow2_scale",
            "rerandomize",
            "partial_dec",
            "combine(t=3)",
            "ciphertext",
        ],
    );
    let mut profiles: Vec<CryptoCostProfile> = Vec::new();
    for &bits in key_sizes {
        let profile = CryptoCostProfile::measure(
            &KeyGenOptions {
                modulus_bits: bits,
                s: 1,
                safe_primes: false,
            },
            ThresholdParams {
                threshold: 3,
                parties: 5,
            },
            reps,
            &mut rng,
        );
        t1.row(vec![
            bits.to_string(),
            "1".into(),
            f(profile.encrypt_us, 0),
            f(profile.add_us, 1),
            f(profile.scalar_pow2_us, 1),
            f(profile.rerandomize_us, 0),
            f(profile.partial_decrypt_us, 0),
            f(profile.combine_us, 0),
            human_bytes(profile.ciphertext_bytes as f64),
        ]);
        profiles.push(profile);
    }
    // Degree s = 2 at the smallest key: message space n² at the same n.
    let profile_s2 = CryptoCostProfile::measure(
        &KeyGenOptions {
            modulus_bits: 512,
            s: 2,
            safe_primes: false,
        },
        ThresholdParams {
            threshold: 3,
            parties: 5,
        },
        reps,
        &mut rng,
    );
    t1.row(vec![
        "512".into(),
        "2".into(),
        f(profile_s2.encrypt_us, 0),
        f(profile_s2.add_us, 1),
        f(profile_s2.scalar_pow2_us, 1),
        f(profile_s2.rerandomize_us, 0),
        f(profile_s2.partial_decrypt_us, 0),
        f(profile_s2.combine_us, 0),
        human_bytes(profile_s2.ciphertext_bytes as f64),
    ]);
    t1.emit(&args, "e4_op_costs");

    // ---- Table 2: threshold sweep ------------------------------------------
    let mut t2 = Table::new(
        "E4.2 threshold decryption cost vs t (512-bit key)",
        &["threshold_t", "parties_l", "partial_dec_us", "combine_us"],
    );
    for &(t, l) in &[(3usize, 8usize), (5, 8), (8, 8), (5, 16)] {
        let p = CryptoCostProfile::measure(
            &KeyGenOptions {
                modulus_bits: 512,
                s: 1,
                safe_primes: false,
            },
            ThresholdParams {
                threshold: t,
                parties: l,
            },
            reps,
            &mut rng,
        );
        t2.row(vec![
            t.to_string(),
            l.to_string(),
            f(p.partial_decrypt_us, 0),
            f(p.combine_us, 0),
        ]);
    }
    t2.emit(&args, "e4_threshold_sweep");

    // ---- Table 3: per-participant iteration cost + extrapolation ----------
    let population = if args.quick { 150 } else { 1000 };
    let use_case = UseCase::Electricity;
    let ds = use_case.build(population, 55);
    let mut t3 = Table::new(
        "E4.3 per-participant cost per iteration (simulated run, measured profiles)",
        &[
            "profile",
            "crypto_s/participant",
            "crypto_s/leader",
            "bytes/participant",
            "network@10^3",
            "network@10^6",
        ],
    );
    for profile in profiles.iter().chain(std::iter::once(&profile_s2)) {
        let mut cfg = ChiaroscuroConfig::demo_simulated();
        cfg.crypto = CryptoMode::Simulated {
            modulus_bits: profile.key_bits,
            s: profile.s,
        };
        cfg.k = use_case.default_k();
        cfg.epsilon = 1.0;
        cfg.value_bound = use_case.value_bound();
        cfg.max_iterations = 3;
        cfg.gossip_cycles = if args.quick { 20 } else { 30 };
        let t = cfg.threshold.threshold as u64;
        let out = Engine::new(cfg).unwrap().run(&ds.series).unwrap();
        let iters = out.log.records.len().max(1) as f64;
        let per_iter_bytes = out.log.total_bytes_per_participant() / iters;
        // Everyone pays the gossip side; the leader computes one partial
        // decryption in t and every combine, t − 1 other members the rest.
        let (mut per_iter_s, mut per_leader_s) = (0.0, 0.0);
        for r in &out.log.records {
            let (c, alive) = (&r.cost, r.alive.max(1) as f64);
            let gossip_s = crypto_seconds(profile, &c.ops, &DecryptionOps::default());
            let decrypt_s = crypto_seconds(profile, &Default::default(), &c.decrypt_ops);
            let leader = DecryptionOps {
                partial_decryptions: c.decrypt_ops.partial_decryptions / t,
                combinations: c.decrypt_ops.combinations,
                ..DecryptionOps::default()
            };
            let leader_s = crypto_seconds(profile, &Default::default(), &leader);
            per_iter_s += (gossip_s + decrypt_s) / alive / iters;
            per_leader_s += (gossip_s / alive + leader_s) / iters;
        }
        t3.row(vec![
            format!("{}bit/s={}", profile.key_bits, profile.s),
            f(per_iter_s, 2),
            f(per_leader_s, 2),
            human_bytes(per_iter_bytes),
            human_bytes(per_iter_bytes * 1e3),
            human_bytes(per_iter_bytes * 1e6),
        ]);
    }
    t3.emit(&args, "e4_iteration_costs");

    println!(
        "expected shape: costs grow ~cubically with key size; per-participant\n\
         cost is independent of the population (only total network volume\n\
         scales), which is the paper's scalability argument; so is the\n\
         leader's, since one node decrypts per step."
    );
}
