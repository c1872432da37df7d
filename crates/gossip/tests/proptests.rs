//! Property-based tests for the gossip layer: conservation and convergence
//! invariants must hold for arbitrary populations, values, seeds, and
//! failure settings.

use cs_bigint::BigUint;
use cs_crypto::{CryptoError, FixedPointCodec, KeyGenOptions, KeyPair, PackedCodec};
use cs_gossip::homomorphic_pushsum::{HePush, HePushSumNode};
use cs_gossip::pushsum::{max_relative_error, PushSumBlocks, PushSumNode};
use cs_gossip::{FailureModel, Network, Overlay};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, OnceLock};

fn network_from(values: &[f64], seed: u64, failure: FailureModel) -> Network<PushSumNode> {
    let nodes: Vec<PushSumNode> = values
        .iter()
        .map(|&v| PushSumNode::new(vec![v], 1.0))
        .collect();
    Network::new(nodes, Overlay::Full, failure, seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn mass_conserved_for_any_population(
        values in proptest::collection::vec(-100.0f64..100.0, 2..40),
        seed in any::<u64>(),
        cycles in 1usize..20,
    ) {
        let mut net = network_from(&values, seed, FailureModel::none());
        let mass_before: f64 = values.iter().sum();
        net.run_cycles(cycles);
        let mass_after: f64 = net.nodes().iter().map(|n| n.mass().0[0]).sum();
        prop_assert!((mass_before - mass_after).abs() < 1e-6,
            "mass drifted: {mass_before} → {mass_after}");
        let weight_after: f64 = net.nodes().iter().map(|n| n.mass().1).sum();
        prop_assert!((weight_after - values.len() as f64).abs() < 1e-9);
    }

    #[test]
    fn estimates_converge_to_true_average(
        values in proptest::collection::vec(-50.0f64..50.0, 8..32),
        seed in any::<u64>(),
    ) {
        let truth = values.iter().sum::<f64>() / values.len() as f64;
        let mut net = network_from(&values, seed, FailureModel::none());
        net.run_cycles(40);
        // The error is normalized by max(|truth|, 1e-12); when the average
        // sits near zero relative to the value spread, the *relative*
        // measure inflates — use an absolute tolerance on the value scale.
        let err = max_relative_error(net.nodes(), &[truth]) * truth.abs().max(1e-12);
        prop_assert!(err < 1e-2, "absolute error {err} after 40 cycles (values in ±50)");
    }

    #[test]
    fn message_loss_never_corrupts_mass(
        values in proptest::collection::vec(-10.0f64..10.0, 4..24),
        seed in any::<u64>(),
        drop in 0.0f64..0.9,
    ) {
        // Drops skip exchanges atomically, so mass stays exact regardless of
        // the loss rate.
        let mut net = network_from(&values, seed, FailureModel::lossy(drop));
        net.run_cycles(15);
        let mass_after: f64 = net.nodes().iter().map(|n| n.mass().0[0]).sum();
        prop_assert!((values.iter().sum::<f64>() - mass_after).abs() < 1e-6);
    }

    #[test]
    fn push_sum_is_linear_in_the_contributions(
        parts in proptest::collection::vec(
            (proptest::collection::vec(-50.0f64..50.0, 3), proptest::collection::vec(-50.0f64..50.0, 3)),
            4..24,
        ),
        seed in any::<u64>(),
        crash in 0.0f64..0.2,
        drop in 0.0f64..0.3,
    ) {
        // What lets a participant add its noise share `b` onto its data `a`
        // before gossiping: under one schedule — crashes, recoveries and
        // losses included — gossiping `[a | b]` and summing the two halves
        // of the estimate gives what gossiping `a + b` gives.
        let failure = FailureModel { crash_prob: crash, recovery_prob: 0.5, drop_prob: drop };
        let network = |values: Vec<Vec<f64>>| {
            let nodes = values.into_iter().map(|v| PushSumNode::new(v, 1.0)).collect();
            let mut net = Network::new(nodes, Overlay::Full, failure, seed);
            net.run_cycles(12);
            net
        };
        let two_blocks = network(parts.iter().map(|(a, b)| [a.clone(), b.clone()].concat()).collect());
        let folded = network(
            parts.iter().map(|(a, b)| a.iter().zip(b).map(|(x, y)| x + y).collect()).collect(),
        );
        for i in 0..parts.len() {
            prop_assert_eq!(two_blocks.is_alive(i), folded.is_alive(i));
            match (two_blocks.nodes()[i].estimate(), folded.nodes()[i].estimate()) {
                (None, None) => {}
                (Some(ab), Some(sum)) => {
                    for d in 0..3 {
                        prop_assert!((ab[d] + ab[3 + d] - sum[d]).abs() <= 1e-9,
                            "node {i} slot {d}: {} + {} vs {}", ab[d], ab[3 + d], sum[d]);
                    }
                }
                (ab, sum) => prop_assert!(false, "node {i}: {ab:?} vs {sum:?}"),
            }
        }
    }

    #[test]
    fn estimates_invariant_under_value_permutation(
        values in proptest::collection::vec(0.0f64..10.0, 6..16),
        seed in any::<u64>(),
    ) {
        // The aggregate is symmetric: shuffling who holds which value must
        // not change what the network converges to.
        let mut reversed = values.clone();
        reversed.reverse();
        let truth = values.iter().sum::<f64>() / values.len() as f64;
        let mut net_a = network_from(&values, seed, FailureModel::none());
        let mut net_b = network_from(&reversed, seed, FailureModel::none());
        net_a.run_cycles(35);
        net_b.run_cycles(35);
        prop_assert!(max_relative_error(net_a.nodes(), &[truth]) < 1e-3);
        prop_assert!(max_relative_error(net_b.nodes(), &[truth]) < 1e-3);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn a_drawn_schedule_replayed_by_blocks_is_run_cycles_bit_for_bit(
        n in 2usize..600,
        dim in 1usize..130,
        seed in any::<u64>(),
        cycles in 1usize..12,
        kind in 0usize..3,
        rates in (0.0f64..0.3, 0.0f64..0.6, 0.0f64..0.3),
        width in 0usize..4,
        threads in 0usize..4,
    ) {
        // Every slot sees the same exchanges in the same order, so the
        // blocks hold what the nodes hold, whatever the width and the thread
        // count: none, lossy and churned schedules; 1, 7, 32 or all dim + 1
        // columns per block; 1, 2, 3 or 7 threads.
        let (crash, recovery, drop) = rates;
        let failure = [
            FailureModel::none(),
            FailureModel::lossy(drop),
            FailureModel { crash_prob: crash, recovery_prob: recovery, drop_prob: drop },
        ][kind];
        let width = [1, 7, 32, dim + 1][width];
        let threads = [1, 2, 3, 7][threads];
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<(Vec<f64>, f64)> = (0..n)
            .map(|_| {
                let values = (0..dim).map(|_| rng.gen_range(-1e3..1e3)).collect();
                // Some nodes start empty, as a participant down at the step's
                // start does.
                let weight = if rng.gen_bool(0.1) { 0.0 } else { rng.gen_range(0.0..2.0) };
                (values, weight)
            })
            .collect();
        let nodes = rows.iter().map(|(v, w)| PushSumNode::new(v.clone(), *w)).collect();
        let mut reference = Network::new(nodes, Overlay::Full, failure, seed);
        let mut drawn = Network::new(vec![(); n], Overlay::Full, failure, seed);
        for i in (0..n).filter(|i| i % 5 == 3) {
            reference.set_alive(i, false);
            drawn.set_alive(i, false);
        }
        reference.run_cycles(cycles);
        let schedule = drawn.draw_cycles(cycles, 8 * (dim + 1));
        let rows = rows.iter().map(|(v, w)| (v.as_slice(), *w));
        let mut blocks = PushSumBlocks::new(dim, width, rows);
        blocks.replay(&schedule, threads);

        prop_assert_eq!(reference.traffic(), drawn.traffic());
        prop_assert_eq!(reference.cycle(), drawn.cycle());
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (i, node) in reference.nodes().iter().enumerate() {
            prop_assert_eq!(reference.is_alive(i), drawn.is_alive(i), "node {}", i);
            let (values, weight) = node.mass();
            let (replayed, replayed_weight) = blocks.mass(i);
            prop_assert_eq!(weight.to_bits(), replayed_weight.to_bits(), "node {}", i);
            prop_assert_eq!(bits(values), bits(&replayed), "node {}", i);
            prop_assert_eq!(
                node.estimate().map(|e| bits(&e)),
                blocks.estimate(i).map(|e| bits(&e)),
                "node {}", i
            );
        }
    }
}

/// One 256-bit key pair for the encrypted cases (keygen dominates).
fn keys() -> &'static KeyPair {
    static KEYS: OnceLock<KeyPair> = OnceLock::new();
    KEYS.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0xCA9_0001);
        KeyPair::generate(&KeyGenOptions::insecure_test_size(), &mut rng)
    })
}

/// What a requester decodes at push-sum state `(denom, weight)`: its
/// plaintexts stacked by the codec's decrypt-time fold, then unfolded.
fn unfold(
    codec: &PackedCodec,
    plaintexts: &[BigUint],
    slots: usize,
    denom: u32,
    weight: f64,
) -> Result<Vec<i128>, CryptoError> {
    let fold = codec.fold(denom, weight);
    let folded: Vec<BigUint> = plaintexts
        .chunks(fold.group)
        .map(|run| {
            run.iter()
                .enumerate()
                .fold(BigUint::zero(), |acc, (m, pt)| {
                    &acc + &(pt << (m * fold.unit_bits as usize))
                })
        })
        .collect();
    codec.unfold_integers(&folded, slots, denom, weight)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The denominator cap under any schedule: random splits (each to a
    /// random peer), deliveries in any order, crashes and rejoins. A split
    /// at the cap is skipped — the node keeps its mass — so no node ever
    /// carries an exponent past the cap, every contribution's integer mass
    /// is conserved exactly, and every node's aggregate decodes inside the
    /// lane plan sized for the cap: never `LaneHeadroomExceeded`.
    #[test]
    fn the_denominator_cap_holds_and_conserves_mass(
        population in 2usize..7,
        cap_floor in 1u32..7,
        slots in 1usize..7,
        values in proptest::collection::vec(-16.0f64..16.0, 42),
        ops in proptest::collection::vec((0u8..6, 0usize..64, 0usize..64), 0..120),
        seed in any::<u64>(),
    ) {
        let kp = keys();
        let pk = Arc::new(kp.public().clone());
        let fp = FixedPointCodec::new(8);
        let codec = PackedCodec::plan(fp, 16.0, population, cap_floor, pk.n_s().bit_len()).unwrap();
        let cap = codec.denominator_cap(population);
        prop_assert_eq!(cap, cap_floor);
        let mut rng = StdRng::seed_from_u64(seed);
        let contributions: Vec<&[f64]> = values.chunks(slots).take(population).collect();
        let mut nodes: Vec<HePushSumNode> = contributions
            .iter()
            .map(|v| {
                let cipher = codec.pack(v).unwrap().iter().map(|m| pk.encrypt(m, &mut rng)).collect();
                HePushSumNode::from_ciphertexts(pk.clone(), cipher, 1.0, false)
                    .with_denominator_cap(cap)
            })
            .collect();
        let mut alive = vec![true; population];
        let mut in_flight: Vec<(usize, HePush)> = Vec::new();
        let mut skipped = 0u64;
        for (kind, a, b) in ops {
            let (i, j) = (a % population, b % population);
            match kind {
                0 | 1 if alive[i] && i != j => match nodes[i].try_split_push(&mut rng) {
                    Some(push) => {
                        prop_assert!(push.denom_exp <= cap);
                        in_flight.push((j, push));
                    }
                    None => skipped += 1,
                },
                2 | 3 if !in_flight.is_empty() => {
                    let at = b % in_flight.len();
                    let to = in_flight[at].0;
                    if alive[to] {
                        let (_, push) = in_flight.swap_remove(at);
                        nodes[to].absorb(&push);
                    }
                }
                4 => alive[i] = false,
                5 => alive[i] = true,
                _ => {}
            }
            prop_assert!(nodes.iter().all(|n| n.denominator_exp() <= cap));
        }
        // Everyone comes back and every push lands.
        for (to, push) in in_flight.drain(..) {
            nodes[to].absorb(&push);
        }
        let capped: u64 = nodes.iter().map(HePushSumNode::pushes_capped).sum();
        prop_assert_eq!(capped, skipped);
        prop_assert_eq!(nodes.iter().map(|n| n.weight()).sum::<f64>(), population as f64);

        // Σ_i ints_i · 2^(cap − k_i) = 2^cap · Σ contributions, per bucket.
        let mut mass = vec![0i128; slots];
        for node in &nodes {
            prop_assert!(node.denominator_exp() <= cap);
            let plaintexts: Vec<_> = node.ciphertexts().iter().map(|c| kp.private().decrypt(c)).collect();
            let ints = unfold(&codec, &plaintexts, slots, node.denominator_exp(), node.weight());
            prop_assert!(ints.is_ok(), "{:?} at {:?}", ints, node);
            for (m, v) in mass.iter_mut().zip(ints.unwrap()) {
                *m += v << (cap - node.denominator_exp());
            }
        }
        for (s, m) in mass.iter().enumerate() {
            let fixed: i128 = contributions.iter().map(|v| (v[s] * fp.scale()).round() as i128).sum();
            prop_assert_eq!(*m, fixed << cap, "bucket {}", s);
        }
    }
}
