//! Demo-scale end-to-end runs in simulated-crypto mode (the paper's own
//! large-population setting) on both use-case generators.

use chiaroscuro::config::CODEC_SCALE_BITS;
use chiaroscuro::noise::SlotLayout;
use chiaroscuro::rounds::{lane_plan, CryptoContext};
use chiaroscuro::{compare_with_baseline, ChiaroscuroConfig, CryptoMode, Engine};
use cs_crypto::FixedPointCodec;
use cs_net::{NetBackend, ShardedConfig};
use cs_timeseries::datasets::cer::{self, CerConfig};
use cs_timeseries::datasets::numed::{self, NumedConfig};
use cs_timeseries::normalize::Normalization;
use cs_timeseries::TimeSeries;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn cer_series(n: usize, seed: u64) -> Vec<TimeSeries> {
    let ds = cer::generate(
        &CerConfig {
            households: n,
            days: 1,
            readings_per_day: 24,
            ..Default::default()
        },
        &mut StdRng::seed_from_u64(seed),
    );
    Normalization::ZScore.apply_all(&ds.series)
}

fn base_config(eps: f64) -> ChiaroscuroConfig {
    let mut cfg = ChiaroscuroConfig::demo_simulated();
    cfg.k = 4;
    cfg.epsilon = eps;
    cfg.value_bound = 4.0;
    cfg.max_iterations = 8;
    cfg.gossip_cycles = 25;
    cfg
}

#[test]
fn electricity_run_reaches_reasonable_quality() {
    let series = cer_series(400, 1);
    let out = Engine::new(base_config(400.0))
        .unwrap()
        .run(&series)
        .unwrap();
    let report = compare_with_baseline(
        &series,
        &out.centroids,
        cs_timeseries::Distance::SquaredEuclidean,
        7,
    );
    assert!(
        report.inertia_ratio < 2.5,
        "high-ε electricity run too far from baseline: {}",
        report.inertia_ratio
    );
}

#[test]
fn tumor_growth_run_recovers_cohort_structure() {
    let ds = numed::generate(
        &NumedConfig {
            patients: 400,
            weeks: 20,
            ..Default::default()
        },
        &mut StdRng::seed_from_u64(2),
    );
    let series = Normalization::ZScore.apply_all(&ds.series);
    let out = Engine::new(base_config(400.0))
        .unwrap()
        .run(&series)
        .unwrap();
    let ari = cs_kmeans::adjusted_rand_index(&out.assignment, &ds.labels);
    assert!(ari > 0.4, "cohort recovery too weak: ARI {ari}");
}

#[test]
fn movement_trends_downward_and_log_exports() {
    let series = cer_series(300, 3);
    let out = Engine::new(base_config(600.0))
        .unwrap()
        .run(&series)
        .unwrap();
    let first = out.log.records.first().unwrap().movement;
    let last = out.log.records.last().unwrap().movement;
    assert!(
        last < first,
        "centroid movement should shrink: {first} → {last}"
    );
    // JSON/CSV exports are well-formed and complete.
    let json = out.log.to_json();
    let parsed: chiaroscuro::ExecutionLog = serde_json::from_str(&json).unwrap();
    assert_eq!(parsed.records.len(), out.log.records.len());
    let csv = out.log.to_csv();
    assert_eq!(csv.lines().count(), out.log.records.len() + 1);
}

#[test]
fn more_epsilon_means_less_noise_impact() {
    let series = cer_series(300, 4);
    let impact = |eps: f64| {
        let out = Engine::new(base_config(eps)).unwrap().run(&series).unwrap();
        out.log.records.iter().map(|r| r.noise_impact).sum::<f64>() / out.log.records.len() as f64
    };
    let noisy = impact(30.0);
    let clean = impact(3000.0);
    assert!(
        clean < noisy * 0.5,
        "100× more budget must cut the perturbation: {noisy} vs {clean}"
    );
}

#[test]
fn per_participant_views_stay_coherent() {
    // Gossip gives every participant its own approximation; those views must
    // agree with each other up to the gossip error, not diverge.
    let series = cer_series(200, 5);
    let out = Engine::new(base_config(800.0))
        .unwrap()
        .run(&series)
        .unwrap();
    let canonical = &out.centroids;
    let mut max_gap: f64 = 0.0;
    for view in &out.per_participant_centroids {
        for (c, v) in canonical.iter().zip(view) {
            let gap = cs_timeseries::Distance::Euclidean.compute(c, v);
            max_gap = max_gap.max(gap);
        }
    }
    assert!(
        max_gap < 2.0,
        "participant views diverged too much: {max_gap}"
    );
}

#[test]
fn churn_population_still_produces_result() {
    // Scripted on the sharded executor: each step one node crashes and
    // rejoins mid-gossip and another crashes for good; links lose 5 %.
    let series = cer_series(250, 6);
    let cfg = base_config(500.0);
    let mut sharded = ShardedConfig::default();
    sharded.link.loss = 0.05;
    for step in 0..cfg.max_iterations {
        let (node, ms) = (31 * step + 5, std::time::Duration::from_millis);
        sharded.churn = sharded
            .churn
            .crash(step, ms(4), node)
            .rejoin(step, ms(14), node)
            .crash(step, ms(8), node + 15);
    }
    let engine = Engine::new(cfg).unwrap();
    let mut backend = NetBackend::sharded(sharded);
    let out = engine.run_with_backend(&series, &mut backend).unwrap();
    assert_eq!(out.centroids.len(), 4);
    assert!(out.iterations >= 1);
    // Some participants crashed mid-run, but every iteration retained a
    // functioning population.
    for r in &out.log.records {
        assert!(r.alive > 200, "alive {} too low", r.alive);
    }
}

/// One lane plan for every host: a real 256-bit, s = 1 key's step cipher
/// and the cycle simulator's keyless plan for a key shape of that size ship
/// the same ciphertexts.
#[test]
fn one_plan_for_every_host() {
    let real = ChiaroscuroConfig {
        k: 2,
        gossip_cycles: 30,
        ..ChiaroscuroConfig::test_real()
    };
    let simulated = ChiaroscuroConfig {
        crypto: CryptoMode::Simulated {
            modulus_bits: 256,
            s: 1,
        },
        ..real.clone()
    };
    let mut rng = StdRng::seed_from_u64(61);
    let crypto = CryptoContext::from_config(&real, &mut rng).unwrap();
    let CryptoContext::Simulated { plaintext_bits, .. } =
        CryptoContext::from_config(&simulated, &mut rng).unwrap()
    else {
        panic!("simulated mode");
    };
    assert_eq!(plaintext_bits, 256);
    let fp = FixedPointCodec::new(CODEC_SCALE_BITS);
    for (k, series_len, population) in [(2, 3, 4), (2, 3, 1000), (2, 24, 8), (5, 24, 64)] {
        let layout = SlotLayout { k, series_len };
        let cipher = crypto
            .step_cipher(&real, &layout, population)
            .unwrap()
            .unwrap();
        let keyless = lane_plan(&simulated, &fp, &layout, population, plaintext_bits).unwrap();
        let at = format!("k = {k}, series_len = {series_len}, P = {population}");
        assert_eq!(
            cipher.ciphertexts(),
            keyless.ciphertexts_for(layout.total()),
            "{at}"
        );
        assert_eq!(
            cipher.lane_headroom_bits(),
            keyless.headroom_bits() as u64,
            "{at}"
        );
        assert_eq!(
            cipher.denominator_cap(),
            keyless.denominator_cap(population),
            "{at}"
        );
    }
}
