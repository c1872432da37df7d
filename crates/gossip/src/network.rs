//! The cycle-driven simulator core.
//!
//! Mirrors Peersim's model: a population of protocol instances, advanced one
//! cycle at a time; in each cycle every live node (visited in randomized
//! order) initiates one exchange with a sampled peer. Exchanges are
//! synchronous shared-memory interactions, exactly like Peersim's
//! `nextCycle` calling methods on the peer object.

use crate::failure::FailureModel;
use crate::overlay::{Overlay, OverlayState};
use crate::traffic::TrafficStats;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Index of a node within a [`Network`].
pub type NodeId = usize;

/// Context handed to protocol exchanges: RNG, cycle number, and traffic
/// accounting.
pub struct ExchangeCtx<'a> {
    /// Current cycle number (0-based).
    pub cycle: u64,
    /// Initiating node.
    pub initiator: NodeId,
    /// Receiving node.
    pub target: NodeId,
    /// Deterministic RNG shared by the simulation.
    pub rng: &'a mut StdRng,
    pub(crate) traffic: &'a mut TrafficStats,
}

impl ExchangeCtx<'_> {
    /// Records one delivered message of `bytes` payload.
    pub fn record_message(&mut self, bytes: usize) {
        self.traffic.record_message(bytes);
    }
}

/// A gossip protocol advanced by the simulator.
pub trait CycleProtocol {
    /// One push exchange: the initiator (`self`) interacts with `peer`.
    ///
    /// Both sides may mutate their state; implementations must call
    /// [`ExchangeCtx::record_message`] for each message the real protocol
    /// would put on the wire.
    fn exchange(&mut self, peer: &mut Self, ctx: &mut ExchangeCtx<'_>);
}

/// A population whose state lives elsewhere: its exchanges are drawn
/// ([`Network::draw_cycles`]) and replayed by their owner
/// (`pushsum::PushSumBlocks`), so running one does nothing.
impl CycleProtocol for () {
    fn exchange(&mut self, _peer: &mut Self, _ctx: &mut ExchangeCtx<'_>) {}
}

/// A simulated population of `P` instances.
pub struct Network<P: CycleProtocol> {
    nodes: Vec<P>,
    alive: Vec<bool>,
    overlay: OverlayState,
    failure: FailureModel,
    traffic: TrafficStats,
    rng: StdRng,
    cycle: u64,
}

impl<P: CycleProtocol> Network<P> {
    /// Builds a network over the given protocol instances.
    ///
    /// Panics if fewer than two nodes are supplied or the failure model is
    /// invalid.
    pub fn new(nodes: Vec<P>, overlay: Overlay, failure: FailureModel, seed: u64) -> Self {
        assert!(nodes.len() >= 2, "need at least two nodes");
        failure.validate();
        let mut rng = StdRng::seed_from_u64(seed);
        let overlay = OverlayState::new(overlay, nodes.len(), &mut rng);
        let alive = vec![true; nodes.len()];
        Network {
            nodes,
            alive,
            overlay,
            failure,
            traffic: TrafficStats::new(),
            rng,
            cycle: 0,
        }
    }

    /// Number of nodes (live or crashed).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` iff the network has no nodes (never true post-construction).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Immutable view of all protocol instances.
    pub fn nodes(&self) -> &[P] {
        &self.nodes
    }

    /// Liveness of node `i`.
    pub fn is_alive(&self, i: NodeId) -> bool {
        self.alive[i]
    }

    /// Number of currently live nodes.
    pub fn alive_count(&self) -> usize {
        self.alive.iter().filter(|&&a| a).count()
    }

    /// Cumulative traffic counters.
    pub fn traffic(&self) -> &TrafficStats {
        &self.traffic
    }

    /// Completed cycles.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Forces the liveness of a node (experiments scripting targeted
    /// failures).
    pub fn set_alive(&mut self, i: NodeId, alive: bool) {
        self.alive[i] = alive;
    }

    /// Runs one cycle: churn step, then one initiated exchange per live node
    /// in randomized order.
    pub fn run_cycle(&mut self) {
        self.cycle_with(|nodes, ctx| {
            let (initiator, peer) = pair_mut(nodes, ctx.initiator, ctx.target);
            initiator.exchange(peer, ctx);
        });
    }

    /// Draws `cycles` cycles of exchanges without running them, for a
    /// protocol whose exchange draws nothing from the simulation RNG and
    /// puts one `message_bytes` message on the wire: `(initiator, target)`
    /// in the order [`Self::run_cycles`] would run them.
    ///
    /// Churn, visit order, targets, drops, liveness, traffic and the cycle
    /// count advance exactly as they would under `run_cycles`; the nodes are
    /// not touched. Replaying the schedule (`pushsum::PushSumBlocks`) is
    /// what running the cycles would have done to them.
    pub fn draw_cycles(&mut self, cycles: usize, message_bytes: usize) -> Vec<(u32, u32)> {
        let id = |i: NodeId| u32::try_from(i).expect("a drawn schedule indexes nodes by u32");
        let mut schedule = Vec::with_capacity(cycles * self.alive_count());
        for _ in 0..cycles {
            self.cycle_with(|_, ctx| {
                schedule.push((id(ctx.initiator), id(ctx.target)));
                ctx.record_message(message_bytes);
            });
        }
        schedule
    }

    /// One cycle's draws — churn, then the shuffled visit order, then each
    /// live initiator's target and drop draw — with `exchange` run for every
    /// exchange that goes through. [`Self::run_cycle`] and
    /// [`Self::draw_cycles`] share it, so their RNG sequences are one.
    fn cycle_with(&mut self, mut exchange: impl FnMut(&mut [P], &mut ExchangeCtx<'_>)) {
        // Churn.
        if self.failure.crash_prob > 0.0 || self.failure.recovery_prob > 0.0 {
            for i in 0..self.nodes.len() {
                if self.alive[i] {
                    if self.rng.gen::<f64>() < self.failure.crash_prob {
                        self.alive[i] = false;
                    }
                } else if self.rng.gen::<f64>() < self.failure.recovery_prob {
                    self.alive[i] = true;
                }
            }
        }

        // Randomized visit order, Peersim-style.
        let mut order: Vec<NodeId> = (0..self.nodes.len()).collect();
        order.shuffle(&mut self.rng);

        for me in order {
            if !self.alive[me] {
                self.traffic.record_initiator_down();
                continue;
            }
            let target = self.overlay.sample(me, &mut self.rng);
            if !self.alive[target] || self.rng.gen::<f64>() < self.failure.drop_prob {
                self.traffic.record_drop();
                continue;
            }
            let mut ctx = ExchangeCtx {
                cycle: self.cycle,
                initiator: me,
                target,
                rng: &mut self.rng,
                traffic: &mut self.traffic,
            };
            exchange(&mut self.nodes, &mut ctx);
        }
        self.cycle += 1;
    }

    /// Runs `n` cycles.
    pub fn run_cycles(&mut self, n: usize) {
        for _ in 0..n {
            self.run_cycle();
        }
    }
}

/// Mutable references to two distinct elements.
fn pair_mut<T>(v: &mut [T], i: usize, j: usize) -> (&mut T, &mut T) {
    assert_ne!(i, j, "pair_mut requires distinct indices");
    if i < j {
        let (lo, hi) = v.split_at_mut(j);
        (&mut lo[i], &mut hi[0])
    } else {
        let (lo, hi) = v.split_at_mut(i);
        (&mut hi[0], &mut lo[j])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Toy protocol: counts exchanges on both sides and ships 8 bytes.
    struct Counter {
        initiated: u64,
        received: u64,
    }

    impl CycleProtocol for Counter {
        fn exchange(&mut self, peer: &mut Self, ctx: &mut ExchangeCtx<'_>) {
            self.initiated += 1;
            peer.received += 1;
            ctx.record_message(8);
        }
    }

    fn counters(n: usize) -> Vec<Counter> {
        (0..n)
            .map(|_| Counter {
                initiated: 0,
                received: 0,
            })
            .collect()
    }

    #[test]
    fn every_live_node_initiates_once_per_cycle() {
        let mut net = Network::new(counters(10), Overlay::Full, FailureModel::none(), 1);
        net.run_cycles(5);
        for node in net.nodes() {
            assert_eq!(node.initiated, 5);
        }
        assert_eq!(net.traffic().messages, 50);
        assert_eq!(net.traffic().bytes, 400);
    }

    #[test]
    fn receives_are_conserved() {
        let mut net = Network::new(counters(20), Overlay::Full, FailureModel::none(), 2);
        net.run_cycles(10);
        let total_recv: u64 = net.nodes().iter().map(|n| n.received).sum();
        assert_eq!(total_recv, 200, "every initiation lands somewhere");
    }

    #[test]
    fn drops_suppress_exchanges() {
        let mut net = Network::new(counters(10), Overlay::Full, FailureModel::lossy(1.0), 3);
        net.run_cycles(4);
        assert_eq!(net.traffic().messages, 0);
        assert_eq!(net.traffic().dropped, 40);
        for node in net.nodes() {
            assert_eq!(node.initiated, 0);
        }
    }

    #[test]
    fn churn_kills_and_revives() {
        let mut net = Network::new(
            counters(50),
            Overlay::Full,
            FailureModel::churn(0.5, 0.0),
            4,
        );
        net.run_cycles(6);
        assert!(net.alive_count() < 10, "heavy churn should kill most nodes");
        // Full recovery now.
        let mut net2 = Network::new(
            counters(50),
            Overlay::Full,
            FailureModel::churn(0.0, 1.0),
            5,
        );
        net2.set_alive(0, false);
        net2.run_cycle();
        assert!(net2.is_alive(0));
    }

    #[test]
    fn dead_targets_count_as_drops() {
        let mut net = Network::new(counters(2), Overlay::Full, FailureModel::none(), 6);
        net.set_alive(1, false);
        net.run_cycle();
        // Node 0 initiates toward the only peer (dead) → drop; node 1 is
        // down → initiator_down.
        assert_eq!(net.traffic().dropped, 1);
        assert_eq!(net.traffic().initiator_down, 1);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| {
            let mut net = Network::new(counters(15), Overlay::Full, FailureModel::lossy(0.2), seed);
            net.run_cycles(8);
            (
                net.traffic().clone(),
                net.nodes().iter().map(|n| n.received).collect::<Vec<_>>(),
            )
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn pair_mut_both_orders() {
        let mut v = vec![1, 2, 3];
        {
            let (a, b) = pair_mut(&mut v, 0, 2);
            std::mem::swap(a, b);
        }
        assert_eq!(v, vec![3, 2, 1]);
        {
            let (a, b) = pair_mut(&mut v, 2, 0);
            std::mem::swap(a, b);
        }
        assert_eq!(v, vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "distinct indices")]
    fn pair_mut_same_index_panics() {
        pair_mut(&mut [1, 2], 1, 1);
    }
}
