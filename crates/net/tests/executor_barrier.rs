//! The sharded executor's self-closing epoch barrier at its two edges, seen
//! from outside: the virtual deadline, where the worker closing a window
//! ends the step instead of publishing the next one, and one node per
//! shard — the shape of `net_step_plain_sharded@64` — where a window is a
//! barrier with next to nothing between its check-ins. The worker counts
//! run from one (the worker closes every window itself, no condvar at all)
//! to more than the machine has cores (a waiting worker's spin must give
//! way to the one that is working). The same-seed identity across worker
//! counts and the panic path are unit tests beside the executor.

use chiaroscuro::config::ChiaroscuroConfig;
use chiaroscuro::noise::SlotLayout;
use chiaroscuro::rounds::CryptoContext;
use cs_net::{run_step_sharded, ShardedConfig, StepRun};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

const NODES: usize = 64;

/// One plaintext step of 30 cycles over 64 nodes that all contribute ones,
/// so every estimate is ones whatever the mixing.
fn step(sharded: &ShardedConfig) -> StepRun {
    let layout = SlotLayout {
        k: 2,
        series_len: 3,
    };
    let config = ChiaroscuroConfig {
        k: layout.k,
        gossip_cycles: 30,
        ..ChiaroscuroConfig::demo_simulated()
    };
    let crypto = CryptoContext::from_config(&config, &mut StdRng::seed_from_u64(1)).unwrap();
    let contributions = vec![Some(vec![1.0; layout.total()]); NODES];
    run_step_sharded(&config, &layout, &contributions, &crypto, 7, sharded, &[]).unwrap()
}

#[test]
fn one_node_per_shard_completes_at_every_worker_count() {
    for workers in [1, 2, 8] {
        let run = step(&ShardedConfig {
            workers,
            ..ShardedConfig::default()
        });
        assert_eq!(run.metrics.counter("exec.deliveries.in_shard"), 0);
        assert_eq!(run.snapshot.gossip.messages, 30 * NODES as u64);
        for estimate in &run.outcome.estimates {
            let estimate = estimate.as_ref().expect("every node finishes");
            let values = estimate.sums.iter().flatten().chain(&estimate.counts);
            assert!(values.into_iter().all(|v| (v - 1.0).abs() < 1e-9));
        }
    }
}

#[test]
fn the_virtual_deadline_shuts_the_pool_down() {
    for workers in [1, 2, 8] {
        // 5 ms into 30 ms of gossip.
        let run = step(&ShardedConfig {
            workers,
            step_timeout: Duration::from_millis(5),
            ..ShardedConfig::default()
        });
        assert!(run.outcome.estimates.iter().all(|e| e.is_none()));
        assert!(run.reports.iter().all(|r| r.pushes_sent == 5));
        // One window per tick instant and one for its deliveries.
        assert_eq!(run.metrics.counter("exec.epochs"), 10);
    }
}
