//! E9 (extension) — PAA dimensionality reduction vs cost and quality.
//!
//! The protocol's per-iteration crypto and network cost is linear in the
//! series length `T` (the encrypted aggregate has `2k(T+1)` slots).
//! Participants can apply Piecewise Aggregate Approximation locally —
//! before anything leaves the device — and cluster the reduced series. This
//! experiment sweeps the reduction factor and reports the cost saved (bytes
//! and ciphertext operations per participant, whose proportionality is the
//! claim) vs the quality kept, with the quality always evaluated in the
//! *original* space (reduced centroids are expanded back).

use chiaroscuro::{compare_with_baseline, ChiaroscuroConfig, Engine};
use cs_bench::datasets::{rescale_epsilon, UseCase};
use cs_bench::{f, human_bytes, ExpArgs, Table};
use cs_timeseries::paa::Paa;
use cs_timeseries::TimeSeries;

fn main() {
    let args = ExpArgs::parse();
    let population = if args.quick { 200 } else { 1000 };
    let use_case = UseCase::Electricity;
    let ds = use_case.build(population, 99);
    let full_len = ds.series_len();

    let mut table = Table::new(
        "E9 PAA reduction: cost vs quality (quality measured in the original space)",
        &[
            "segments",
            "reduction",
            "inertia_ratio",
            "ari_vs_baseline",
            "bytes/participant",
            "ct_ops/participant",
        ],
    );

    let mut segment_grid = vec![full_len, full_len / 2, full_len / 4, 6];
    segment_grid.dedup();
    for &segments in &segment_grid {
        let paa = Paa::new(full_len, segments);
        let reduced = paa.reduce_all(&ds.series);

        let mut cfg = ChiaroscuroConfig::demo_simulated();
        cfg.k = use_case.default_k();
        cfg.epsilon = rescale_epsilon(0.1, population);
        cfg.value_bound = use_case.value_bound();
        cfg.max_iterations = if args.quick { 5 } else { 8 };
        cfg.gossip_cycles = if args.quick { 20 } else { 30 };
        cfg.seed = 2016;
        let out = Engine::new(cfg).unwrap().run(&reduced).unwrap();

        // Expand the reduced centroids back and judge them against the
        // original-resolution data and baseline.
        let expanded: Vec<TimeSeries> = out.centroids.iter().map(|c| paa.expand(c)).collect();
        let report = compare_with_baseline(
            &ds.series,
            &expanded,
            cs_timeseries::Distance::SquaredEuclidean,
            7,
        );
        let iters = out.log.records.len().max(1) as f64;
        // Ciphertext operations per participant: the counts a measured
        // profile would price.
        let mut ct_ops = 0.0;
        for r in &out.log.records {
            let (o, d) = (&r.cost.ops, &r.cost.decrypt_ops);
            let n = o.encryptions + o.additions + o.pow2_scalings + o.rerandomizations;
            let n = n + d.partial_decryptions + d.combinations;
            ct_ops += n as f64 / r.alive.max(1) as f64;
        }
        table.row(vec![
            segments.to_string(),
            format!("{:.1}x", paa.reduction_factor()),
            f(report.inertia_ratio, 3),
            f(report.ari_vs_baseline, 3),
            human_bytes(out.log.total_bytes_per_participant() / iters),
            f(ct_ops / iters, 0),
        ]);
    }
    table.emit(&args, "e9_paa_reduction");

    println!(
        "expected shape: bytes and ciphertext operations scale down ~linearly\n\
         with the reduction factor; quality degrades slowly at first (smooth\n\
         daily profiles compress well), then sharply once segments stop\n\
         resolving the morning/evening peaks."
    );
}
