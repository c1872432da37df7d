//! Execution-substrate abstraction for the computation step.
//!
//! The engine's iteration loop (assignment → computation → convergence) is
//! substrate-independent: only paper step 2 — the distributed gossip
//! aggregation of the contributions (each with its noise share already
//! folded in) and the collaborative decryption — touches a network. [`ComputationBackend`] isolates that step so `Engine::run` can
//! execute over the in-process cycle simulator (the default, Peersim-style,
//! simulated crypto only) or over a real message-passing runtime (`cs_net`'s
//! thread-per-node transport, or its sharded virtual-time executor for 10k+
//! virtual nodes) without the protocol logic forking.

use crate::config::ChiaroscuroConfig;
use crate::error::ChiaroscuroError;
use crate::noise::SlotLayout;
use crate::rounds::{run_computation_step, ComputationOutcome, CryptoContext};
use rand::rngs::StdRng;

/// An execution substrate for the distributed computation step.
///
/// Implementations receive every live participant's cleartext contribution
/// vector and must return per-participant perturbed aggregate estimates plus
/// the cost counters the engine logs. `contributions[i]` is `None` for
/// participants that were down at the start of the iteration.
pub trait ComputationBackend {
    /// Short human-readable substrate name (log/debug output).
    fn label(&self) -> &'static str;

    /// Runs one computation step (paper steps 2a–2d).
    ///
    /// `step_seed` is the engine's per-iteration seed for the substrate's
    /// own randomness (topology, pacing, loss); `rng` is the engine's master
    /// RNG, for a backend whose draws must stay on the shared deterministic
    /// stream. No backend in this workspace draws from it.
    fn run_step(
        &mut self,
        config: &ChiaroscuroConfig,
        layout: &SlotLayout,
        contributions: &[Option<Vec<f64>>],
        crypto: &CryptoContext,
        step_seed: u64,
        rng: &mut StdRng,
    ) -> Result<ComputationOutcome, ChiaroscuroError>;
}

/// The default substrate: the in-process cycle-driven gossip simulator —
/// `cs_gossip::Network` draws the step's exchanges, and
/// `cs_gossip::pushsum::PushSumBlocks` replays them slot block by slot
/// block, bit for bit what running the cycles node by node computes.
/// Simulated crypto only: a real-crypto step is refused with
/// [`ChiaroscuroError::InvalidConfig`] (see [`run_computation_step`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct SimulatorBackend;

impl ComputationBackend for SimulatorBackend {
    fn label(&self) -> &'static str {
        "cycle-simulator"
    }

    fn run_step(
        &mut self,
        config: &ChiaroscuroConfig,
        layout: &SlotLayout,
        contributions: &[Option<Vec<f64>>],
        crypto: &CryptoContext,
        step_seed: u64,
        _rng: &mut StdRng,
    ) -> Result<ComputationOutcome, ChiaroscuroError> {
        run_computation_step(config, layout, contributions, crypto, step_seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulator_backend_is_the_default_substrate() {
        assert_eq!(SimulatorBackend.label(), "cycle-simulator");
    }

    /// The cycle simulator runs simulated crypto only: however the engine
    /// reaches it, a real-crypto run is one typed refusal that names the
    /// host to use instead.
    #[test]
    fn the_cycle_simulator_refuses_real_crypto() {
        let series: Vec<cs_timeseries::TimeSeries> = (0..6)
            .map(|i| cs_timeseries::TimeSeries::new(vec![(i % 2) as f64; 4]))
            .collect();
        let mut cfg = crate::config::ChiaroscuroConfig::test_real();
        cfg.k = 2;
        let engine = crate::engine::Engine::new(cfg).unwrap();
        let runs = [
            engine.run(&series),
            engine.run_with_backend(&series, &mut SimulatorBackend),
        ];
        let hosts = ["Engine::run", "SimulatorBackend"];
        for (host, run) in hosts.into_iter().zip(runs) {
            match run {
                Err(ChiaroscuroError::InvalidConfig(msg)) => {
                    assert!(msg.contains("run_with_backend"), "{host}: {msg}")
                }
                other => panic!("{host}: expected the refusal, got {:?}", other.err()),
            }
        }
    }
}
