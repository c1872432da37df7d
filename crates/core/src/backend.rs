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
use cs_obs::{CausalTracer, TraceContext, Tracer};
use rand::rngs::StdRng;
use std::sync::Arc;

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

/// Wraps any backend with coarse causal tracing: one `step.start` /
/// `step.done` span pair per computation step, trace id = step seed.
///
/// The in-process cycle simulator executes a whole step inside one call,
/// so — unlike the message-passing substrates, which trace per node — the
/// wrapper records the substrate as a single actor. The resulting trace segments cleanly under
/// [`cs_obs::critical::analyze`] (one participant per round) and lines a
/// simulator run up against cluster timelines in the same tooling.
pub struct TracedBackend<B> {
    inner: B,
    tracer: Arc<Tracer>,
    actor: u64,
}

impl<B: ComputationBackend> TracedBackend<B> {
    /// Wraps `inner`, recording into `tracer` as `actor`.
    pub fn new(inner: B, tracer: Arc<Tracer>, actor: u64) -> Self {
        TracedBackend {
            inner,
            tracer,
            actor,
        }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }
}

impl<B: ComputationBackend> ComputationBackend for TracedBackend<B> {
    fn label(&self) -> &'static str {
        self.inner.label()
    }

    fn run_step(
        &mut self,
        config: &ChiaroscuroConfig,
        layout: &SlotLayout,
        contributions: &[Option<Vec<f64>>],
        crypto: &CryptoContext,
        step_seed: u64,
        rng: &mut StdRng,
    ) -> Result<ComputationOutcome, ChiaroscuroError> {
        let mut causal = CausalTracer::new(
            self.tracer.clone(),
            step_seed,
            self.actor,
            TraceContext::NONE,
        );
        let result = self
            .inner
            .run_step(config, layout, contributions, crypto, step_seed, rng);
        let completed = result
            .as_ref()
            .map(|o| u64::from(o.estimates.iter().any(Option::is_some)))
            .unwrap_or(0);
        causal.mark("step.done", &[("completed", completed)]);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_obs::{Clock, NodeTrace, VirtualClock};

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
        let tracer = Arc::new(Tracer::new(Arc::new(VirtualClock::new()) as Arc<dyn Clock>));
        let mut traced = TracedBackend::new(SimulatorBackend, tracer, 0);
        let runs = [
            engine.run(&series),
            engine.run_with_backend(&series, &mut SimulatorBackend),
            engine.run_with_backend(&series, &mut traced),
        ];
        let hosts = ["Engine::run", "SimulatorBackend", "TracedBackend"];
        for (host, run) in hosts.into_iter().zip(runs) {
            match run {
                Err(ChiaroscuroError::InvalidConfig(msg)) => {
                    assert!(msg.contains("run_with_backend"), "{host}: {msg}")
                }
                other => panic!("{host}: expected the refusal, got {:?}", other.err()),
            }
        }
    }

    #[test]
    fn traced_backend_records_one_round_per_engine_iteration() {
        let series: Vec<cs_timeseries::TimeSeries> = (0..12)
            .map(|i| cs_timeseries::TimeSeries::new(vec![(i % 3) as f64; 8]))
            .collect();
        let mut cfg = crate::config::ChiaroscuroConfig::demo_simulated();
        cfg.k = 2;
        cfg.max_iterations = 3;
        let tracer = Arc::new(Tracer::new(Arc::new(VirtualClock::new()) as Arc<dyn Clock>));
        let mut backend = TracedBackend::new(SimulatorBackend, tracer.clone(), 0);
        let out = crate::engine::Engine::new(cfg)
            .unwrap()
            .run_with_backend(&series, &mut backend)
            .unwrap();
        assert_eq!(backend.inner().label(), "cycle-simulator");

        let trace = NodeTrace::capture(0, &tracer);
        let starts = trace
            .events
            .iter()
            .filter(|e| e.name == "step.start")
            .count();
        let dones = trace
            .events
            .iter()
            .filter(|e| e.name == "step.done")
            .count();
        assert_eq!(starts, out.iterations, "one span pair per computation step");
        assert_eq!(dones, out.iterations);

        // The coarse trace segments under the same critical-path analyzer
        // as the per-node substrates (the simulator is the sole actor, so
        // it is trivially the straggler of every round).
        let rounds = cs_obs::critical::analyze(&cs_obs::ClusterTrace {
            traces: vec![trace],
        });
        assert_eq!(rounds.len(), out.iterations);
        assert!(rounds.iter().all(|r| r.straggler == 0));
    }
}
