//! What the TCP host's and the sharded executor's unit tests share, so the
//! two suites stay comparable: the one-step fixture, and the table of churn
//! scenarios both substrates must survive.

use crate::churn::{ChurnEvent, ChurnKind};
use crate::executor::{run_step_sharded, ShardedConfig};
use crate::runtime::{run_step_over_tcp, NetConfig, StepRun};
use crate::transport::LinkConfig;
use chiaroscuro::config::ChiaroscuroConfig;
use chiaroscuro::noise::{contribution_vector, SlotLayout};
use chiaroscuro::rounds::{ComputationOutcome, CryptoContext};
use chiaroscuro::ChiaroscuroError;
use cs_dp::NoiseShareGenerator;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

pub(crate) fn layout() -> SlotLayout {
    SlotLayout {
        k: 2,
        series_len: 3,
    }
}

/// Two tight clusters with negligible noise so estimates are checkable:
/// even nodes hold [1,2,3] in cluster 0, odd nodes [10,10,10] in
/// cluster 1.
pub(crate) fn tiny_contributions(n: usize, seed: u64) -> Vec<Option<Vec<f64>>> {
    let layout = layout();
    let mut rng = StdRng::seed_from_u64(seed);
    let shares = NoiseShareGenerator::new(n, 1e-9);
    (0..n)
        .map(|i| {
            let series = if i % 2 == 0 {
                [1.0, 2.0, 3.0]
            } else {
                [10.0, 10.0, 10.0]
            };
            Some(contribution_vector(
                &layout,
                &series,
                i % 2,
                &shares,
                &mut rng,
            ))
        })
        .collect()
}

pub(crate) fn check_estimates(outcome: &ComputationOutcome, n: usize, tol: f64) {
    let produced = outcome.estimates.iter().flatten().count();
    assert!(
        produced > n / 2,
        "most nodes should produce estimates, got {produced}/{n}"
    );
    for (id, est) in outcome.estimates.iter().enumerate() {
        let Some(est) = est else { continue };
        let node = format!("node {id}: sums {:?}, counts {:?}", est.sums, est.counts);
        for d in 0..3 {
            for (c, want) in [[1.0, 2.0, 3.0][d], 10.0].into_iter().enumerate() {
                let mean = est.sums[c][d] / est.counts[c];
                let ok = (mean - want).abs() < tol;
                assert!(ok, "cluster{c} dim{d}: {mean} vs {want}; {node}");
            }
        }
    }
}

/// The TCP host's clocks in the unit tests: fast pacing.
pub(crate) fn fast_net() -> NetConfig {
    NetConfig {
        push_interval: Duration::from_micros(150),
        step_timeout: Duration::from_secs(30),
        ..NetConfig::default()
    }
}

/// How a [`Step`] protects its contributions (test-size keys).
#[derive(Clone, Copy, Debug)]
pub(crate) enum Crypto {
    Simulated,
    Packed,
}

/// The inputs of one computation step over [`tiny_contributions`].
pub(crate) struct Step {
    pub config: ChiaroscuroConfig,
    pub crypto: CryptoContext,
    pub contributions: Vec<Option<Vec<f64>>>,
    pub seed: u64,
}

impl Step {
    /// `n` nodes, `k = 2`, `cycles` exchanges each. `seeds` are those of
    /// key generation, the contributions, and the step.
    pub(crate) fn new(crypto: Crypto, cycles: usize, n: usize, seeds: [u64; 3]) -> Self {
        let base = match crypto {
            Crypto::Simulated => ChiaroscuroConfig::demo_simulated(),
            Crypto::Packed => ChiaroscuroConfig::test_real(),
        };
        let config = ChiaroscuroConfig {
            k: 2,
            gossip_cycles: cycles,
            ..base
        };
        let [key_seed, data_seed, seed] = seeds;
        let mut rng = StdRng::seed_from_u64(key_seed);
        Step {
            crypto: CryptoContext::from_config(&config, &mut rng).unwrap(),
            config,
            contributions: tiny_contributions(n, data_seed),
            seed,
        }
    }

    pub(crate) fn on_tcp(
        &self,
        net: &NetConfig,
        churn: &[ChurnEvent],
    ) -> Result<StepRun, ChiaroscuroError> {
        run_step_over_tcp(
            &self.config,
            &layout(),
            &self.contributions,
            &self.crypto,
            self.seed,
            net,
            churn,
        )
    }

    pub(crate) fn on_shards(
        &self,
        sharded: &ShardedConfig,
        churn: &[ChurnEvent],
    ) -> Result<StepRun, ChiaroscuroError> {
        run_step_sharded(
            &self.config,
            &layout(),
            &self.contributions,
            &self.crypto,
            self.seed,
            sharded,
            churn,
        )
    }
}

/// The substrate a [`Scenario`] runs on.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Host {
    /// [`run_step_sharded`], virtual time.
    Sharded,
    /// [`run_step_over_tcp`], wall clock.
    Tcp,
}

/// One churn scenario: a single computation step over [`tiny_contributions`]
/// under scripted failures, and what must hold of its [`StepRun`] whichever
/// substrate ran it.
pub(crate) struct Scenario {
    pub name: &'static str,
    pub population: usize,
    pub cycles: usize,
    pub crypto: Crypto,
    /// As [`Step::new`] takes them.
    pub seeds: [u64; 3],
    pub dead_at_start: &'static [usize],
    /// `(pushes, node, kind)`: the event fires `pushes` pacing intervals
    /// into the gossip phase — the same protocol moment on a substrate
    /// that paces in wall-clock microseconds and one that paces in virtual
    /// milliseconds.
    pub churn: &'static [(u32, usize, ChurnKind)],
    pub link: LinkConfig,
    pub decrypt_deadline: Duration,
    pub expect: fn(&StepRun),
}

/// The scenario table. Every row runs on every [`Host`] (see
/// [`scenario_tests`]).
pub(crate) fn scenarios() -> Vec<Scenario> {
    let plain = || Scenario {
        name: "",
        population: 0,
        cycles: 0,
        crypto: Crypto::Simulated,
        seeds: [0; 3],
        dead_at_start: &[],
        churn: &[],
        link: LinkConfig::ideal(),
        decrypt_deadline: Duration::from_secs(5),
        expect: |_| (),
    };
    vec![
        Scenario {
            name: "silent_crash_mid_gossip_is_survived",
            population: 12,
            cycles: 30,
            seeds: [5, 6, 13],
            churn: &[(13, 5, ChurnKind::Crash)],
            expect: |run| {
                assert!(!run.outcome.alive_after[5], "node 5 stays down");
                assert!(run.outcome.estimates[5].is_none());
                check_estimates(&run.outcome, 12, 0.6);
            },
            ..plain()
        },
        // The same crash, timed: no survivor waits for the dead node to
        // say anything. The TCP host runs every row with a 5 s `quiesce`,
        // which it ignores; at the commit before the termination votes
        // were deleted, this step waited that out.
        Scenario {
            name: "silent_crash_holds_no_survivor_back",
            population: 8,
            cycles: 20,
            seeds: [15, 16, 27],
            churn: &[(5, 6, ChurnKind::Crash)],
            expect: |run| {
                assert!(
                    run.elapsed < Duration::from_secs(1),
                    "the survivors waited for a dead node: {:?}",
                    run.elapsed
                );
                assert!(run.outcome.estimates[6].is_none());
                check_estimates(&run.outcome, 8, 0.6);
            },
            ..plain()
        },
        Scenario {
            name: "crash_then_rejoin_recovers_the_node",
            population: 10,
            cycles: 40,
            seeds: [7, 8, 17],
            churn: &[(7, 3, ChurnKind::Crash), (27, 3, ChurnKind::Rejoin)],
            expect: |run| {
                assert!(run.outcome.alive_after[3], "node 3 is back");
                assert!(
                    run.outcome.estimates[3].is_some(),
                    "a rejoined node finishes the step"
                );
            },
            ..plain()
        },
        Scenario {
            name: "graceful_leave_is_announced",
            population: 8,
            cycles: 25,
            seeds: [9, 10, 19],
            churn: &[(7, 2, ChurnKind::Leave)],
            expect: |run| {
                assert!(!run.outcome.alive_after[2]);
                assert!(
                    run.snapshot.control.messages > 0,
                    "the Leave announcement is control traffic"
                );
            },
            ..plain()
        },
        Scenario {
            name: "dead_at_start_nodes_hold_zero_weight",
            population: 12,
            cycles: 30,
            seeds: [11, 12, 23],
            dead_at_start: &[3, 7],
            expect: |run| {
                assert!(run.outcome.estimates[3].is_none());
                assert!(run.outcome.estimates[7].is_none());
                // Counts must reflect 10 contributors, not 12 (weights
                // normalize).
                let est = run.outcome.estimates[0].as_ref().unwrap();
                let total: f64 = est.counts.iter().sum();
                assert!((total - 1.0).abs() < 0.15, "node 0 sum {total}: {est:?}");
            },
            ..plain()
        },
        // Population of 2; the only peer leaves early. The survivor's
        // remaining push quota is unmeetable — it must finish with its own
        // mass promptly, not sit out the step deadline.
        Scenario {
            name: "lone_survivor_finishes_instead_of_stalling",
            population: 2,
            cycles: 40,
            seeds: [31, 32, 29],
            churn: &[(7, 1, ChurnKind::Leave)],
            expect: |run| {
                assert!(
                    run.elapsed < Duration::from_secs(10),
                    "survivor stalled: {:?}",
                    run.elapsed
                );
                assert!(!run.outcome.alive_after[1]);
                assert!(run.outcome.estimates[0].is_some());
            },
            ..plain()
        },
        // 25% frame loss hits the decryption round's frames too; the
        // periodic re-request must still complete every round that can
        // complete well before the step deadline.
        Scenario {
            name: "lossy_link_decrypt_round_recovers_via_retry",
            population: 6,
            cycles: 14,
            crypto: Crypto::Packed,
            seeds: [41, 42, 43],
            link: LinkConfig {
                loss: 0.25,
                ..LinkConfig::ideal()
            },
            expect: |run| {
                assert!(
                    run.elapsed < Duration::from_secs(20),
                    "decrypt round stalled: {:?}",
                    run.elapsed
                );
                let produced = run.outcome.estimates.iter().flatten().count();
                assert!(produced >= 4, "only {produced}/6 estimates under loss");
            },
            ..plain()
        },
        // 2-of-3 committee on nodes 0–2; nodes 0 and 1 silently crash
        // before the decryption round. Node 2 can never reach the threshold,
        // so no member releases — nodes 3 and 4 must give up (no estimate) at
        // the decrypt deadline, not pin the step to its hard timeout (and on
        // virtual time the deadline must not cost wall-clock at all).
        Scenario {
            name: "dead_committee_is_bounded_by_the_decrypt_deadline",
            population: 5,
            cycles: 8,
            crypto: Crypto::Packed,
            seeds: [51, 52, 53],
            churn: &[(7, 0, ChurnKind::Crash), (7, 1, ChurnKind::Crash)],
            decrypt_deadline: Duration::from_millis(600),
            expect: |run| {
                assert!(
                    run.elapsed < Duration::from_secs(15),
                    "dead committee pinned the step: {:?}",
                    run.elapsed
                );
                assert!(run.outcome.estimates[3].is_none(), "below threshold");
                assert!(run.outcome.estimates[4].is_none(), "below threshold");
            },
            ..plain()
        },
    ]
}

impl Scenario {
    /// Runs the scenario's step on `host` and checks its expectation.
    pub(crate) fn run(&self, host: Host) {
        let mut step = Step::new(self.crypto, self.cycles, self.population, self.seeds);
        for &down in self.dead_at_start {
            step.contributions[down] = None;
        }
        let events = |push_interval: Duration| -> Vec<ChurnEvent> {
            (self.churn.iter())
                .map(|&(pushes, node, kind)| ChurnEvent {
                    step: 0,
                    after: push_interval * pushes,
                    node,
                    kind,
                })
                .collect()
        };
        let run = match host {
            Host::Tcp => {
                let net = NetConfig {
                    link: self.link.clone(),
                    decrypt_deadline: self.decrypt_deadline,
                    quiesce: Duration::from_secs(5),
                    ..fast_net()
                };
                step.on_tcp(&net, &events(net.push_interval))
            }
            Host::Sharded => {
                let sharded = ShardedConfig {
                    // The link model is cross-shard only: one node per
                    // shard where the population allows it.
                    shards: self.population.min(8),
                    link: self.link.clone(),
                    decrypt_deadline: self.decrypt_deadline,
                    ..ShardedConfig::default()
                };
                step.on_shards(&sharded, &events(sharded.push_interval))
            }
        }
        .unwrap_or_else(|e| panic!("{} on {host:?}: {e}", self.name));
        (self.expect)(&run);
    }
}

/// Expands to one `#[test]` per row of [`scenarios`], named after the row
/// and run on `$host`, plus a guard that the list below is the table.
macro_rules! scenario_tests {
    ($host:expr) => {
        $crate::fixtures::scenario_tests!(
            $host;
            silent_crash_mid_gossip_is_survived
            silent_crash_holds_no_survivor_back
            crash_then_rejoin_recovers_the_node
            graceful_leave_is_announced
            dead_at_start_nodes_hold_zero_weight
            lone_survivor_finishes_instead_of_stalling
            lossy_link_decrypt_round_recovers_via_retry
            dead_committee_is_bounded_by_the_decrypt_deadline
        );
    };
    ($host:expr; $($row:ident)*) => {
        $(
            #[test]
            fn $row() {
                let table = $crate::fixtures::scenarios();
                let row = table.iter().find(|s| s.name == stringify!($row));
                row.expect("a row of the scenario table").run($host);
            }
        )*

        #[test]
        fn every_scenario_row_runs_here() {
            let rows: Vec<_> = $crate::fixtures::scenarios().iter().map(|s| s.name).collect();
            assert_eq!(rows, [$(stringify!($row)),*]);
        }
    };
}
pub(crate) use scenario_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::churn::ChurnSchedule;

    /// A churn event for a node past the population is refused by both
    /// hosts before any worker or node thread exists.
    #[test]
    fn an_out_of_range_churn_node_is_a_typed_error() {
        let step = Step::new(Crypto::Simulated, 4, 4, [1, 2, 3]);
        let churn = ChurnSchedule::none().crash(0, Duration::ZERO, 4);
        let on_shards = step.on_shards(&ShardedConfig::default(), &churn.for_step(0));
        for run in [on_shards, step.on_tcp(&fast_net(), &churn.for_step(0))] {
            let refused =
                matches!(&run, Err(ChiaroscuroError::InvalidConfig(m)) if m.contains("node 4"));
            assert!(refused, "{:?}", run.map(|r| r.elapsed));
        }
    }
}
