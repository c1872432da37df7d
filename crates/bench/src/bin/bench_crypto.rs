//! `bench_crypto` — the crypto fast path's machine-readable scorecard.
//!
//! Measures the crypto layer's kernels — the per-bucket cost of the
//! Damgård-Jurik pipeline (encrypt, homomorphic add, threshold decrypt)
//! **packed vs unpacked**, the combine and multi-exponentiation fast paths
//! against their oracles, and the per-key rows below — and writes
//! `BENCH_CRYPTO.json` so the repository keeps a comparable record of the
//! fast path across PRs. Each layer is measured once: whole computation
//! steps are `bench_summary`'s rows (`BENCH_net.json`, the packed
//! real-crypto step included), whole jobs csbench's workloads.
//!
//! ```sh
//! cargo run --release -p cs_bench --bin bench_crypto              # full
//! cargo run ... -- --quick --out target/BENCH_CRYPTO_quick.json   # smoke
//! cargo run ... -- --check   # exit non-zero if packing regressed
//! cargo run ... -- --out target/BENCH_CRYPTO.json
//! ```
//!
//! `--quick` needs `--out`: a smoke document never replaces the committed
//! full one.
//!
//! `--check` is the CI regression gate: the packed per-bucket encrypt (and
//! encrypt+decrypt) cost must stay below the unpacked baseline measured in
//! the *same run* — machine-speed-independent — and, when a committed
//! `BENCH_CRYPTO.json` is readable, below twice its recorded unpacked
//! baseline (the absolute guard; slack ×2 absorbs runner variance).
//!
//! The per-key rows time the operations a key pays — `mont_mul`, `mont_sqr`,
//! `pow_mod` at the ciphertext modulus `n²`, one fixed-base `randomizer` and
//! one `partial_decrypt_honest`, a partial decryption by a share after a
//! serde round-trip (what every committee member runs). Each records the
//! Montgomery `engine` its `n²` ran on: at `256b` the scalar engine's
//! stack-array kernels (≤ 8 limbs), at `1024b`/`2048b` the IFMA engine on a
//! CPU with AVX-512 IFMA and the scalar engine's slices elsewhere. A full
//! run keeps the committed rows of an engine it did not run, so the
//! document holds both engines' figures. `--check` holds each row of the
//! engine it ran on below twice its committed figure, both measured in
//! units of their own run's `pow_mod@256b` (the yardstick: a kernel no
//! wide row shares), so a quick run on a slower machine compares like with
//! like; it names the rows it skipped.
//! Next to each `randomizer` row a `randomizer_table` row records what the
//! randomizers cost a device up front: the build time of the
//! `FastEncryptor` and, in `bytes`, the fixed-base table it keeps resident.

use cs_bench::{f, Table};
use cs_bigint::multi_exp::multi_exp;
use cs_bigint::rng::random_below;
use cs_bigint::MontgomeryCtx;
use cs_crypto::threshold::{combine_partials_naive, CombinePlanCache};
use cs_crypto::{
    Ciphertext, FastEncryptor, FixedPointCodec, KeyGenOptions, KeyShare, PackedCodec,
    ThresholdKeyPair, ThresholdParams,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Buckets per measured vector. The per-op rows report per-bucket cost,
/// so the width is arbitrary; 24 is what `BENCH_CRYPTO.json`'s rows were
/// recorded with.
const BUCKETS: usize = 24;

/// One measurement row.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct CryptoBenchEntry {
    /// Operation (`encrypt`, `add`, `decrypt`, `combine`, `multi_exp`, or a
    /// per-key row).
    name: String,
    /// `packed`/`unpacked`, the fast path or its oracle, or the key size.
    mode: String,
    /// Buckets the unit carried (kernel invocations on the per-key rows).
    buckets: usize,
    /// Wall-clock of the measured unit, milliseconds.
    total_ms: f64,
    /// Cost per bucket, microseconds.
    per_bucket_us: f64,
    /// Resident fixed-base table bytes (`randomizer_table` rows), 0
    /// elsewhere.
    bytes: u64,
    /// The Montgomery engine of a per-key row (`scalar`/`ifma`); empty on
    /// the other rows.
    engine: String,
    /// A per-key row's `per_bucket_us` over its own run's `pow_mod@256b`
    /// (what `--check` compares); 0 on the other rows.
    yardsticks: f64,
}

/// The whole document.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct CryptoBenchSummary {
    /// Document schema tag.
    schema: String,
    /// Whether the quick (smoke) workload was used.
    quick: bool,
    /// Lanes per ciphertext under the benched envelope.
    lanes: usize,
    /// The measurements.
    entries: Vec<CryptoBenchEntry>,
}

struct Ctx {
    tkp: ThresholdKeyPair,
    enc: Arc<FastEncryptor>,
    codec: PackedCodec,
    fp: FixedPointCodec,
}

const USAGE: &str = "usage: bench_crypto [--quick] [--check] [--out PATH]";

/// The command line: `--quick`, `--check`, and the document's path.
fn cli(args: impl IntoIterator<Item = String>) -> Result<([bool; 2], PathBuf), (i32, String)> {
    cs_bench::doc_args(args, USAGE, ["--quick", "--check"], "BENCH_CRYPTO.json")
}

fn main() {
    let ([quick, check], out) =
        cli(std::env::args().skip(1)).unwrap_or_else(|e| cs_bench::exit_with(e));

    // Shared key material: test-size keys (the envelope of every in-repo
    // real-crypto run), a 2-of-3 committee, and a packed plan sized for a
    // population of 64 with a modest denominator budget — the per-op
    // envelope; gossip-scale denominators are exercised by
    // `bench_summary`'s step rows.
    let mut rng = StdRng::seed_from_u64(0xBE7C);
    let tkp = ThresholdKeyPair::generate(
        &KeyGenOptions::insecure_test_size(),
        ThresholdParams {
            threshold: 2,
            parties: 3,
        },
        &mut rng,
    )
    .expect("valid params");
    let pk = Arc::new(tkp.public().clone());
    let enc = Arc::new(FastEncryptor::new(pk.clone(), &mut rng));
    let fp = FixedPointCodec::new(20);
    let codec =
        PackedCodec::plan(fp, 16.0, 64, 8, pk.n_s().bit_len()).expect("plan fits test keys");
    let ctx = Ctx {
        tkp,
        enc,
        codec,
        fp,
    };

    let reps = if quick { 4 } else { 16 };
    let mut entries = Vec::new();
    entries.extend(bench_encrypt(&ctx, reps, &mut rng));
    entries.extend(bench_add(&ctx, reps, &mut rng));
    entries.extend(bench_decrypt(&ctx, reps.min(6), &mut rng));
    entries.extend(bench_combine(&ctx, reps.min(6), &mut rng));
    entries.extend(bench_multi_exp(&ctx, reps, &mut rng));
    for bits in WIDE_KEY_BITS {
        entries.extend(bench_wide_key(bits, reps, &mut rng));
    }
    let unit = mode_us(&entries, YARDSTICK.0, YARDSTICK.1).expect("the yardstick is measured");
    for e in entries.iter_mut().filter(|e| !e.engine.is_empty()) {
        e.yardsticks = e.per_bucket_us / unit;
    }

    let mut table = Table::new(
        "crypto fast path: packed vs unpacked",
        &["name", "mode", "buckets", "total_ms", "us/bucket"],
    );
    for e in &entries {
        table.row(vec![
            e.name.clone(),
            e.mode.clone(),
            e.buckets.to_string(),
            f(e.total_ms, 3),
            f(e.per_bucket_us, 2),
        ]);
    }
    println!("{}", table.render());
    for e in entries.iter().filter(|e| e.name == TABLE_ROW) {
        println!(
            "randomizer@{}: fixed-base table {:.1} MiB, built in {:.0} ms",
            e.mode,
            e.bytes as f64 / (1 << 20) as f64,
            e.total_ms
        );
    }
    for name in ["encrypt", "add", "decrypt"] {
        if let Some(s) = speedup(&entries, name) {
            println!("{name}: packed is {s:.1}x cheaper per bucket");
        }
    }
    if let (Some(e), Some(d)) = (
        per_bucket(&entries, "encrypt"),
        per_bucket(&entries, "decrypt"),
    ) {
        let ratio = (e.0 + d.0) / (e.1 + d.1);
        println!("encrypt+decrypt: packed is {ratio:.1}x cheaper per bucket");
    }

    let committed = read_committed_baseline();
    let summary = CryptoBenchSummary {
        schema: "chiaroscuro-bench-crypto/v2".to_string(),
        quick,
        lanes: ctx.codec.lanes(),
        entries: match (&committed, quick) {
            (Some(committed), false) => with_other_engines(&entries, committed),
            _ => entries.clone(),
        },
    };
    let json = serde_json::to_string_pretty(&summary).expect("summary serializes");
    std::fs::write(&out, &json).expect("write BENCH_CRYPTO.json");
    println!("[json written to {}]", out.display());

    if check {
        run_check(&entries, committed.as_ref());
    }
}

/// `entries`, then the committed per-key rows of every key and engine this
/// run did not measure: a machine runs one engine per key, and the
/// document keeps the other's figures.
fn with_other_engines(
    entries: &[CryptoBenchEntry],
    committed: &CryptoBenchSummary,
) -> Vec<CryptoBenchEntry> {
    let ran = |k: &CryptoBenchEntry| {
        entries
            .iter()
            .any(|e| (&e.mode, &e.engine) == (&k.mode, &k.engine))
    };
    let kept = committed
        .entries
        .iter()
        .filter(|k| !k.engine.is_empty() && !ran(k))
        .filter(|k| k.name == TABLE_ROW || WIDE_ROWS.contains(&k.name.as_str()));
    entries.iter().chain(kept).cloned().collect()
}

/// `(unpacked, packed)` per-bucket microseconds for a measurement name.
fn per_bucket(entries: &[CryptoBenchEntry], name: &str) -> Option<(f64, f64)> {
    let find = |mode: &str| {
        entries
            .iter()
            .find(|e| e.name == name && e.mode == mode)
            .map(|e| e.per_bucket_us)
    };
    Some((find("unpacked")?, find("packed")?))
}

fn speedup(entries: &[CryptoBenchEntry], name: &str) -> Option<f64> {
    let (u, p) = per_bucket(entries, name)?;
    (p > 0.0).then_some(u / p)
}

/// Per-bucket microseconds for `(name, mode)` in this run's entries.
fn mode_us(entries: &[CryptoBenchEntry], name: &str, mode: &str) -> Option<f64> {
    entries
        .iter()
        .find(|e| e.name == name && e.mode == mode)
        .map(|e| e.per_bucket_us)
}

/// The CI gate: the fast paths must not regress against their same-run
/// baselines (machine-speed-independent), and packed threshold decryption
/// must stay under an absolute per-bucket ceiling (the tentpole budget of
/// the CRT + multi-exp PR — it sat at 67 µs/bucket before).
fn run_check(entries: &[CryptoBenchEntry], committed: Option<&CryptoBenchSummary>) {
    let mut failures = Vec::new();
    for name in ["encrypt", "decrypt"] {
        match per_bucket(entries, name) {
            Some((unpacked, packed)) if packed < unpacked => {}
            Some((unpacked, packed)) => failures.push(format!(
                "{name}: packed {packed:.2} us/bucket >= unpacked baseline {unpacked:.2}"
            )),
            None => failures.push(format!("{name}: measurement missing")),
        }
    }
    // Plan-cached combine and the Straus kernel against their same-run
    // naive oracles: the fast path must actually be the fast path.
    for (name, slow, fast) in [
        ("combine", "naive", "plan"),
        ("multi_exp", "naive", "straus"),
    ] {
        match (mode_us(entries, name, slow), mode_us(entries, name, fast)) {
            (Some(s), Some(f)) if f < s => {}
            (Some(s), Some(f)) => failures.push(format!(
                "{name}: {fast} {f:.2} us/bucket >= {slow} baseline {s:.2}"
            )),
            _ => failures.push(format!("{name}: measurement missing")),
        }
    }
    // Absolute ceiling on the packed decrypt hot path (partials + combine +
    // unpack). Test-size keys on any release build clear this with a wide
    // margin once CRT decomposition is in; only losing the fast path again
    // would breach it.
    const PACKED_DECRYPT_CEILING_US: f64 = 30.0;
    match mode_us(entries, "decrypt", "packed") {
        Some(packed) if packed <= PACKED_DECRYPT_CEILING_US => {}
        Some(packed) => failures.push(format!(
            "decrypt: packed {packed:.2} us/bucket exceeds the {PACKED_DECRYPT_CEILING_US:.0} us \
             absolute ceiling"
        )),
        None => failures.push("decrypt: packed measurement missing".into()),
    }
    // Relative guard against drift, when a committed baseline is readable:
    // each per-key row against the committed row of the engine it ran on,
    // both in units of their own run's yardstick.
    if let Some(committed) = committed {
        let mut skipped = Vec::new();
        for (bits, name) in WIDE_KEY_BITS
            .iter()
            .flat_map(|bits| WIDE_ROWS.map(|name| (bits, name)))
        {
            let mode = wide_mode(*bits);
            let Some(now) = entries.iter().find(|e| e.name == name && e.mode == mode) else {
                failures.push(format!("{name}@{mode}: measurement missing"));
                continue;
            };
            let row = format!("{name}@{mode} ({})", now.engine);
            if (name, mode.as_str()) == YARDSTICK {
                skipped.push(format!("{row}: the yardstick"));
                continue;
            }
            let was = committed.entries.iter().find(|e| {
                (&e.name, &e.mode, &e.engine) == (&now.name, &now.mode, &now.engine)
                    && e.yardsticks > 0.0
            });
            match was {
                Some(was) if now.yardsticks >= was.yardsticks * 2.0 => failures.push(format!(
                    "{row}: {:.3} yardsticks exceeds 2x the committed {:.3}",
                    now.yardsticks, was.yardsticks
                )),
                Some(_) => {}
                None => skipped.push(format!("{row}: no committed row of its engine")),
            }
        }
        if !skipped.is_empty() {
            println!("[check] per-key rows skipped: {}", skipped.join("; "));
        }
        for name in ["encrypt", "decrypt"] {
            if let (Some((_, packed)), Some((committed_unpacked, _))) = (
                per_bucket(entries, name),
                per_bucket(&committed.entries, name),
            ) {
                if packed >= committed_unpacked * 2.0 {
                    failures.push(format!(
                        "{name}: packed {packed:.2} us/bucket exceeds 2x the committed \
                         unpacked baseline {committed_unpacked:.2}"
                    ));
                }
            }
        }
    }
    if failures.is_empty() {
        println!("[check] crypto fast paths within budget");
    } else {
        for f in &failures {
            eprintln!("[check] REGRESSION: {f}");
        }
        std::process::exit(1);
    }
}

fn read_committed_baseline() -> Option<CryptoBenchSummary> {
    let text = std::fs::read_to_string("BENCH_CRYPTO.json").ok()?;
    let doc: CryptoBenchSummary = serde_json::from_str(&text).ok()?;
    (!doc.quick).then_some(doc)
}

/// A signed bucket vector shaped like a real contribution.
fn bucket_values() -> Vec<f64> {
    (0..BUCKETS)
        .map(|b| (b as f64 * 0.73 - 7.5) * if b % 2 == 0 { 1.0 } else { -1.0 })
        .collect()
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn entry(name: &str, mode: &str, total_ms: f64) -> CryptoBenchEntry {
    CryptoBenchEntry {
        name: name.into(),
        mode: mode.into(),
        buckets: BUCKETS,
        total_ms,
        per_bucket_us: total_ms * 1e3 / BUCKETS as f64,
        bytes: 0,
        engine: String::new(),
        yardsticks: 0.0,
    }
}

/// Key sizes of the per-key rows: the test key every in-repo real-crypto run
/// uses, then two deployment-grade ones.
const WIDE_KEY_BITS: [usize; 3] = [256, 1024, 2048];

/// The `mode` of a wide-key row.
fn wide_mode(bits: usize) -> String {
    format!("{bits}b")
}

/// The rows measured per wide key, in table order.
const WIDE_ROWS: [&str; 5] = [
    "mont_mul",
    "mont_sqr",
    "pow_mod",
    "randomizer",
    "partial_decrypt_honest",
];

/// The per-key row `--check` measures every other one in: a 256-bit key's
/// exponentiation at `n²`, on the scalar engine's stack arrays.
const YARDSTICK: (&str, &str) = ("pow_mod", "256b");

/// The ungated row that follows each `randomizer` row: `total_ms` is one
/// `FastEncryptor::new` (the generic `h^(n^s)` plus the table fill), `bytes`
/// the table's size.
const TABLE_ROW: &str = "randomizer_table";

/// Squarings per `mont_sqr` sample: long enough that the conversions into
/// and out of Montgomery form around the chain are under 1 % of it.
const SQR_CHAIN: u32 = 256;

/// A row of the wide-key table: `units` kernel invocations per sample on
/// `engine`, `per_bucket_us` the cost of one.
fn wide_entry(
    name: &str,
    bits: usize,
    engine: &str,
    units: usize,
    samples: &mut [f64],
) -> CryptoBenchEntry {
    let total_ms = median(samples);
    CryptoBenchEntry {
        buckets: units,
        per_bucket_us: total_ms * 1e3 / units as f64,
        engine: engine.into(),
        ..entry(name, &wide_mode(bits), total_ms)
    }
}

/// Per-operation cost at a `bits`-bit key (plain primes, as csbench's
/// `sharded_packed_2048b` generates them): the Montgomery kernels and a
/// full exponentiation at `n²`, one randomizer from the 8-tooth fixed-base
/// comb table and one partial decryption by a share rebuilt from its
/// serialized form.
fn bench_wide_key(bits: usize, reps: usize, rng: &mut StdRng) -> Vec<CryptoBenchEntry> {
    let tkp = ThresholdKeyPair::generate(
        &KeyGenOptions {
            modulus_bits: bits,
            s: 1,
            safe_primes: false,
        },
        ThresholdParams {
            threshold: 2,
            parties: 3,
        },
        rng,
    )
    .expect("valid params");
    let pk = Arc::new(tkp.public().clone());
    let built = Instant::now();
    let enc = FastEncryptor::new(pk.clone(), rng);
    let table_build_ms = built.elapsed().as_secs_f64() * 1e3;
    let mont = MontgomeryCtx::new(pk.n_s1());
    let a = random_below(rng, pk.n_s1());
    let b = random_below(rng, pk.n_s1());
    let e = random_below(rng, pk.n());
    let c = enc.encrypt(&random_below(rng, pk.n_s()), rng);
    let wire = serde_json::to_string(&tkp.shares()[0]).expect("share serializes");
    let honest: KeyShare = serde_json::from_str(&wire).expect("share deserializes");

    let time = |reps: usize, op: &mut dyn FnMut()| -> Vec<f64> {
        (0..reps)
            .map(|_| {
                let t = Instant::now();
                op();
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect()
    };
    // One `mul_mod` is two Montgomery products: conversion in, product out.
    let mut mul = time(reps * 16, &mut || {
        black_box(mont.mul_mod(black_box(&a), black_box(&b)));
    });
    let mut sqr = time(reps * 4, &mut || {
        black_box(mont.pow_mod_pow2(black_box(&a), SQR_CHAIN));
    });
    let mut pow = time(reps.min(6), &mut || {
        black_box(mont.pow_mod(black_box(&a), black_box(&e)));
    });
    let mut randomizer = time(reps, &mut || {
        black_box(enc.randomizer(rng));
    });
    let mut honest_partial = time(reps.min(6), &mut || {
        black_box(honest.partial_decrypt(black_box(&c)));
    });
    let units = [2, SQR_CHAIN as usize, 1, 1, 1];
    let samples = [
        &mut mul,
        &mut sqr,
        &mut pow,
        &mut randomizer,
        &mut honest_partial,
    ];
    let engine = mont.engine();
    let mut rows: Vec<CryptoBenchEntry> = WIDE_ROWS
        .iter()
        .zip(units)
        .zip(samples)
        .map(|((name, units), samples)| wide_entry(name, bits, engine, units, samples))
        .collect();
    let after_randomizer = 1 + rows
        .iter()
        .position(|e| e.name == "randomizer")
        .expect("randomizer is a wide row");
    rows.insert(
        after_randomizer,
        CryptoBenchEntry {
            bytes: enc.table().table_bytes() as u64,
            ..wide_entry(TABLE_ROW, bits, engine, 1, &mut [table_build_ms])
        },
    );
    rows
}

/// Encrypts the bucket vector: per-bucket `PublicKey::encrypt` vs packed
/// lanes through the fixed-base encryptor.
fn bench_encrypt(ctx: &Ctx, reps: usize, rng: &mut StdRng) -> Vec<CryptoBenchEntry> {
    let pk = ctx.tkp.public();
    let values = bucket_values();
    let mut unpacked = Vec::with_capacity(reps);
    let mut packed = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        let cts: Vec<Ciphertext> = values
            .iter()
            .map(|&v| pk.encrypt(&ctx.fp.encode(v, pk.n_s()).unwrap(), rng))
            .collect();
        unpacked.push(t.elapsed().as_secs_f64() * 1e3);
        assert_eq!(cts.len(), BUCKETS);

        let t = Instant::now();
        let pts = ctx.codec.pack(&values).unwrap();
        let cts: Vec<Ciphertext> = pts.iter().map(|m| ctx.enc.encrypt(m, rng)).collect();
        packed.push(t.elapsed().as_secs_f64() * 1e3);
        assert_eq!(cts.len(), ctx.codec.ciphertexts_for(BUCKETS));
    }
    vec![
        entry("encrypt", "unpacked", median(&mut unpacked)),
        entry("encrypt", "packed", median(&mut packed)),
    ]
}

/// Homomorphic addition of two whole bucket vectors.
fn bench_add(ctx: &Ctx, reps: usize, rng: &mut StdRng) -> Vec<CryptoBenchEntry> {
    let pk = ctx.tkp.public();
    let values = bucket_values();
    let unpacked_cts: Vec<Ciphertext> = values
        .iter()
        .map(|&v| pk.encrypt(&ctx.fp.encode(v, pk.n_s()).unwrap(), rng))
        .collect();
    let packed_cts: Vec<Ciphertext> = ctx
        .codec
        .pack(&values)
        .unwrap()
        .iter()
        .map(|m| ctx.enc.encrypt(m, rng))
        .collect();
    let mut unpacked = Vec::with_capacity(reps);
    let mut packed = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        let sum: Vec<Ciphertext> = unpacked_cts.iter().map(|c| pk.add(c, c)).collect();
        unpacked.push(t.elapsed().as_secs_f64() * 1e3);
        assert_eq!(sum.len(), BUCKETS);

        let t = Instant::now();
        let sum: Vec<Ciphertext> = packed_cts.iter().map(|c| pk.add(c, c)).collect();
        packed.push(t.elapsed().as_secs_f64() * 1e3);
        assert_eq!(sum.len(), packed_cts.len());
    }
    vec![
        entry("add", "unpacked", median(&mut unpacked)),
        entry("add", "packed", median(&mut packed)),
    ]
}

/// Threshold decryption (2 partials + combine) of the whole bucket vector,
/// plus the unpack on the packed side.
fn bench_decrypt(ctx: &Ctx, reps: usize, rng: &mut StdRng) -> Vec<CryptoBenchEntry> {
    let pk = ctx.tkp.public();
    let values = bucket_values();
    let unpacked_cts: Vec<Ciphertext> = values
        .iter()
        .map(|&v| pk.encrypt(&ctx.fp.encode(v, pk.n_s()).unwrap(), rng))
        .collect();
    let packed_cts: Vec<Ciphertext> = ctx
        .codec
        .pack(&values)
        .unwrap()
        .iter()
        .map(|m| ctx.enc.encrypt(m, rng))
        .collect();
    let decrypt = |c: &Ciphertext| {
        let partials = vec![
            ctx.tkp.shares()[0].partial_decrypt(c),
            ctx.tkp.shares()[1].partial_decrypt(c),
        ];
        ctx.tkp.combine(&partials).expect("enough shares")
    };
    // The packed side runs the protocol's actual hot path: a per-committee
    // plan cache (persistent across steps in every substrate) and one
    // batched combine per ciphertext vector.
    let plans = CombinePlanCache::new();
    let params = ctx.tkp.params();
    let delta = ctx.tkp.delta().clone();
    let mut unpacked = Vec::with_capacity(reps);
    let mut packed = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        let raws: Vec<_> = unpacked_cts.iter().map(decrypt).collect();
        unpacked.push(t.elapsed().as_secs_f64() * 1e3);
        assert_eq!(raws.len(), BUCKETS);

        let t = Instant::now();
        let groups: Vec<Vec<_>> = packed_cts
            .iter()
            .map(|c| {
                vec![
                    ctx.tkp.shares()[0].partial_decrypt(c),
                    ctx.tkp.shares()[1].partial_decrypt(c),
                ]
            })
            .collect();
        let raws = plans
            .combine_batch(pk, params, &delta, &groups)
            .expect("enough shares");
        let ints = ctx
            .codec
            .unpack_integers(&raws, BUCKETS, 0, 1.0, 1)
            .expect("within headroom");
        packed.push(t.elapsed().as_secs_f64() * 1e3);
        assert_eq!(ints.len(), BUCKETS);
    }
    vec![
        entry("decrypt", "unpacked", median(&mut unpacked)),
        entry("decrypt", "packed", median(&mut packed)),
    ]
}

/// Share combination alone (partials precomputed): the naive per-share
/// `pow_mod` path vs the [`CombinePlanCache`] batch path (Straus
/// multi-exponentiation + one batched Lagrange-denominator inversion) the
/// protocol substrates actually run.
fn bench_combine(ctx: &Ctx, reps: usize, rng: &mut StdRng) -> Vec<CryptoBenchEntry> {
    let pk = ctx.tkp.public();
    let params = ctx.tkp.params();
    let delta = ctx.tkp.delta().clone();
    let values = bucket_values();
    let groups: Vec<Vec<cs_crypto::PartialDecryption>> = values
        .iter()
        .map(|&v| {
            let c = pk.encrypt(&ctx.fp.encode(v, pk.n_s()).unwrap(), rng);
            vec![
                ctx.tkp.shares()[0].partial_decrypt(&c),
                ctx.tkp.shares()[1].partial_decrypt(&c),
            ]
        })
        .collect();
    let mut naive = Vec::with_capacity(reps);
    let mut plan = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        let raws: Vec<_> = groups
            .iter()
            .map(|g| combine_partials_naive(pk, params, &delta, g).expect("enough shares"))
            .collect();
        naive.push(t.elapsed().as_secs_f64() * 1e3);
        assert_eq!(raws.len(), BUCKETS);

        // A fresh cache per rep: the measurement includes the one-time plan
        // build, exactly what the first combine of a committee subset pays.
        let cache = CombinePlanCache::new();
        let t = Instant::now();
        let raws = cache
            .combine_batch(pk, params, &delta, &groups)
            .expect("enough shares");
        plan.push(t.elapsed().as_secs_f64() * 1e3);
        assert_eq!(raws.len(), BUCKETS);
    }
    vec![
        entry("combine", "naive", median(&mut naive)),
        entry("combine", "plan", median(&mut plan)),
    ]
}

/// The multi-exponentiation kernel under combine: `Π bᵢ^{eᵢ} mod n²` for
/// threshold-many Lagrange-sized exponents, sequential `pow_mod` + product
/// vs the shared-squaring-chain Straus evaluator.
fn bench_multi_exp(ctx: &Ctx, reps: usize, rng: &mut StdRng) -> Vec<CryptoBenchEntry> {
    let pk = ctx.tkp.public();
    let mont = MontgomeryCtx::new(pk.n_s1());
    // Exponents the size of `2·λ_{0,i}·Δ`-style integers on a 3-party
    // committee: a few hundred bits, matching the combine hot loop.
    let terms: Vec<(cs_bigint::BigUint, cs_bigint::BigUint)> = (0..BUCKETS)
        .map(|_| (random_below(rng, pk.n_s1()), random_below(rng, pk.n_s())))
        .collect();
    let mut naive = Vec::with_capacity(reps);
    let mut straus = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        let mut acc_naive = cs_bigint::BigUint::one() % pk.n_s1();
        for (base, exp) in &terms {
            acc_naive = mont.mul_mod(&acc_naive, &mont.pow_mod(base, exp));
        }
        naive.push(t.elapsed().as_secs_f64() * 1e3);

        let t = Instant::now();
        let mut acc_straus = cs_bigint::BigUint::one() % pk.n_s1();
        for chunk in terms.chunks(3) {
            acc_straus = mont.mul_mod(&acc_straus, &multi_exp(&mont, chunk));
        }
        straus.push(t.elapsed().as_secs_f64() * 1e3);
        assert_eq!(acc_naive, acc_straus);
    }
    vec![
        entry("multi_exp", "naive", median(&mut naive)),
        entry("multi_exp", "straus", median(&mut straus)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(args: &[&str]) -> Result<([bool; 2], PathBuf), (i32, String)> {
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
        assert_eq!(flags, [false, true]);
        assert_eq!(out, PathBuf::from("x.json"));
        assert_eq!(parsed(&[]).unwrap().1, PathBuf::from("BENCH_CRYPTO.json"));
    }
}
