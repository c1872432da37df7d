//! Push-sum (Kempe, Dobra & Gehrke, FOCS 2003) over plaintext vectors.
//!
//! Every node holds a value vector and a weight; each exchange halves both
//! and pushes one half to a random peer. All estimates `value/weight`
//! converge to `Σ values / Σ weights` — the mass-conservation invariant makes
//! the diffusion exact in the limit and the error decays exponentially with
//! the number of cycles. With all weights 1 the estimate is the average; with
//! a single unit weight it is the sum.
//!
//! This plaintext variant is the reference for experiment E5 (convergence
//! speed, failure sensitivity) and the computational core of the simulated
//! crypto mode.

use crate::network::{CycleProtocol, ExchangeCtx};
use serde::{Deserialize, Serialize};
use std::sync::Mutex;
use std::time::Instant;

/// One half of a push-sum exchange: the value/weight mass the initiator
/// sheds toward a peer. This is exactly what crosses the wire in a
/// message-passing deployment (`cs_net`), so the type is serializable.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PlainPush {
    /// The halved value vector being pushed.
    pub values: Vec<f64>,
    /// The halved weight being pushed.
    pub weight: f64,
}

impl PlainPush {
    /// Serialized payload size: the vector plus the weight, 8 bytes per f64.
    pub fn message_bytes(&self) -> usize {
        Self::bytes_for(self.values.len())
    }

    /// [`Self::message_bytes`] of a push over `dim` slots.
    fn bytes_for(dim: usize) -> usize {
        8 * (dim + 1)
    }
}

/// One push-sum participant.
#[derive(Clone, Debug)]
pub struct PushSumNode {
    value: Vec<f64>,
    weight: f64,
}

impl PushSumNode {
    /// Creates a node holding `value` with the given initial `weight`.
    pub fn new(value: Vec<f64>, weight: f64) -> Self {
        assert!(weight >= 0.0 && weight.is_finite(), "invalid weight");
        PushSumNode { value, weight }
    }

    /// The node's current estimate of `Σ values / Σ weights`, or `None`
    /// while its weight is numerically zero.
    pub fn estimate(&self) -> Option<Vec<f64>> {
        if self.weight <= f64::MIN_POSITIVE {
            return None;
        }
        Some(self.value.iter().map(|v| v / self.weight).collect())
    }

    /// Current mass held by this node (for conservation checks).
    pub fn mass(&self) -> (&[f64], f64) {
        (&self.value, self.weight)
    }

    /// Dimensionality of the aggregated vector.
    pub fn dim(&self) -> usize {
        self.value.len()
    }

    /// First half of one push exchange: halves the local mass and returns
    /// the shed half as a wire-ready message. The caller must deliver it to
    /// exactly one peer (or accept the mass loss, as a crashed link would).
    pub fn split_push(&mut self) -> PlainPush {
        self.split_push_into(Vec::new())
    }

    /// [`Self::split_push`] into a buffer the caller hands over — typically
    /// the `values` of a push it absorbed earlier — so a node that receives
    /// about as often as it sends allocates nothing per push. Whatever
    /// `buf` held is discarded.
    pub fn split_push_into(&mut self, mut buf: Vec<f64>) -> PlainPush {
        for v in &mut self.value {
            *v *= 0.5;
        }
        self.weight *= 0.5;
        buf.clear();
        buf.extend_from_slice(&self.value);
        PlainPush {
            values: buf,
            weight: self.weight,
        }
    }

    /// Second half of one push exchange: folds a received push into the
    /// local mass.
    pub fn absorb(&mut self, push: &PlainPush) {
        debug_assert_eq!(self.value.len(), push.values.len(), "dimension mismatch");
        for (v, p) in self.value.iter_mut().zip(&push.values) {
            *v += p;
        }
        self.weight += push.weight;
    }
}

impl CycleProtocol for PushSumNode {
    fn exchange(&mut self, peer: &mut Self, ctx: &mut ExchangeCtx<'_>) {
        debug_assert_eq!(self.value.len(), peer.value.len(), "dimension mismatch");
        // The shared-memory exchange is the message-passing one with a
        // perfect link — `split_push` then `absorb`, the same operations in
        // the same order on every slot — without materializing the push.
        for (v, p) in self.value.iter_mut().zip(&mut peer.value) {
            *v *= 0.5;
            *p += *v;
        }
        self.weight *= 0.5;
        peer.weight += self.weight;
        ctx.record_message(PlainPush::bytes_for(self.value.len()));
    }
}

/// A whole population's push-sum state, laid out to replay a drawn
/// schedule ([`crate::Network::draw_cycles`]) slot block by slot block.
///
/// Push-sum's exchange is independent per slot, so the population's value
/// columns, plus the weight as column `dim`, are cut into blocks of
/// `width` columns. Each block is its own allocation, node-major inside
/// (node `i`'s columns are one run of the block), sized by
/// [`Self::width_for`] to stay cache-resident, and is replayed whole by one
/// thread. Every slot sees the operations of [`PushSumNode`]'s exchange in
/// the schedule's order, so the result is bit for bit what
/// `Network<PushSumNode>::run_cycles` computes, whatever the width and the
/// thread count.
#[derive(Debug)]
pub struct PushSumBlocks {
    nodes: usize,
    dim: usize,
    width: usize,
    blocks: Vec<Vec<f64>>,
}

impl PushSumBlocks {
    /// Bytes one block aims at: about 32 columns at 4 000 nodes.
    const BLOCK_BYTES: usize = 1 << 20;

    /// The block width for a population of `nodes`: as many columns as fit
    /// in 1 MiB, at least one.
    pub fn width_for(nodes: usize) -> usize {
        (Self::BLOCK_BYTES / (8 * nodes.max(1))).max(1)
    }

    /// Lays out one node per row — its `dim` values and its weight, what
    /// [`PushSumNode::new`] takes — in blocks of `width` columns.
    pub fn new<'a>(
        dim: usize,
        width: usize,
        rows: impl ExactSizeIterator<Item = (&'a [f64], f64)>,
    ) -> Self {
        assert!(width > 0, "a block holds at least one column");
        let nodes = rows.len();
        let starts = (0..=dim).step_by(width);
        let mut blocks: Vec<Vec<f64>> = starts
            .map(|start| Vec::with_capacity(nodes * width.min(dim + 1 - start)))
            .collect();
        for (values, weight) in rows {
            assert_eq!(values.len(), dim, "dimension mismatch");
            assert!(weight >= 0.0 && weight.is_finite(), "invalid weight");
            let (last, full) = blocks.split_last_mut().expect("one block at least");
            for (block, chunk) in full.iter_mut().zip(values.chunks(width)) {
                block.extend_from_slice(chunk);
            }
            last.extend_from_slice(&values[full.len() * width..]);
            last.push(weight);
        }
        PushSumBlocks {
            nodes,
            dim,
            width,
            blocks,
        }
    }

    /// Replays `schedule` — each pair one exchange, initiator then target,
    /// as [`crate::Network::draw_cycles`] drew them — over every block, the
    /// blocks shared out to `threads` scoped threads (the caller's one of
    /// them). Returns the threads' summed busy time in nanoseconds.
    pub fn replay(&mut self, schedule: &[(u32, u32)], threads: usize) -> u64 {
        let threads = threads.clamp(1, self.blocks.len());
        let (dim, width) = (self.dim, self.width);
        let queue = Mutex::new(self.blocks.iter_mut().enumerate());
        let work = || {
            let started = Instant::now();
            loop {
                let next = queue.lock().expect("a replay does not panic").next();
                let Some((b, block)) = next else { break };
                replay_block(block, width.min(dim + 1 - b * width), schedule);
            }
            started.elapsed().as_nanos() as u64
        };
        if threads == 1 {
            return work();
        }
        std::thread::scope(|scope| {
            let helpers: Vec<_> = (1..threads).map(|_| scope.spawn(work)).collect();
            let mine = work();
            mine + helpers
                .into_iter()
                .map(|h| h.join().expect("a replay does not panic"))
                .sum::<u64>()
        })
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes
    }

    /// `true` iff there are no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes == 0
    }

    /// [`PushSumNode::mass`] of node `node`, gathered from the blocks.
    pub fn mass(&self, node: usize) -> (Vec<f64>, f64) {
        assert!(node < self.nodes, "node {node} out of range");
        let mut row = Vec::with_capacity(self.dim + 1);
        for block in &self.blocks {
            let w = block.len() / self.nodes;
            row.extend_from_slice(&block[node * w..(node + 1) * w]);
        }
        let weight = row.pop().expect("the weight column");
        (row, weight)
    }

    /// [`PushSumNode::estimate`] of node `node`.
    pub fn estimate(&self, node: usize) -> Option<Vec<f64>> {
        let (mut values, weight) = self.mass(node);
        if weight <= f64::MIN_POSITIVE {
            return None;
        }
        for v in &mut values {
            *v /= weight;
        }
        Some(values)
    }
}

/// One block's replay: `w` columns per node, every exchange of `schedule`
/// in order, with [`PushSumNode`]'s exchange arithmetic on each column.
fn replay_block(block: &mut [f64], w: usize, schedule: &[(u32, u32)]) {
    for &(initiator, target) in schedule {
        let (i, t) = (initiator as usize * w, target as usize * w);
        let (from, to) = if i < t {
            let (lo, hi) = block.split_at_mut(t);
            (&mut lo[i..i + w], &mut hi[..w])
        } else {
            let (lo, hi) = block.split_at_mut(i);
            (&mut hi[..w], &mut lo[t..t + w])
        };
        for (v, p) in from.iter_mut().zip(to) {
            *v *= 0.5;
            *p += *v;
        }
    }
}

/// Maximum relative error of all live nodes' estimates against the true
/// aggregate (diagnostic for convergence experiments).
pub fn max_relative_error(nodes: &[PushSumNode], truth: &[f64]) -> f64 {
    let scale = truth
        .iter()
        .map(|t| t.abs())
        .fold(0.0f64, f64::max)
        .max(1e-12);
    nodes
        .iter()
        .filter_map(|n| n.estimate())
        .map(|est| {
            est.iter()
                .zip(truth)
                .map(|(e, t)| (e - t).abs() / scale)
                .fold(0.0f64, f64::max)
        })
        .fold(0.0f64, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FailureModel, Network, Overlay};

    fn average_network(n: usize, seed: u64) -> (Network<PushSumNode>, Vec<f64>) {
        // Node i holds the scalar value i.
        let nodes: Vec<PushSumNode> = (0..n)
            .map(|i| PushSumNode::new(vec![i as f64], 1.0))
            .collect();
        let truth = vec![(n - 1) as f64 / 2.0];
        (
            Network::new(nodes, Overlay::Full, FailureModel::none(), seed),
            truth,
        )
    }

    #[test]
    fn converges_to_average() {
        let (mut net, truth) = average_network(64, 1);
        net.run_cycles(40);
        let err = max_relative_error(net.nodes(), &truth);
        assert!(err < 1e-6, "error {err}");
    }

    #[test]
    fn error_decays_roughly_exponentially() {
        let (mut net, truth) = average_network(128, 2);
        let mut errors = Vec::new();
        for _ in 0..30 {
            net.run_cycles(1);
            errors.push(max_relative_error(net.nodes(), &truth));
        }
        // Error after 30 cycles must be many orders below error after 5.
        assert!(
            errors[29] < errors[4] * 1e-3,
            "late {} vs early {}",
            errors[29],
            errors[4]
        );
    }

    #[test]
    fn mass_conservation_without_failures() {
        let (mut net, _) = average_network(32, 3);
        let total_before: f64 = net.nodes().iter().map(|n| n.mass().0[0]).sum();
        let weight_before: f64 = net.nodes().iter().map(|n| n.mass().1).sum();
        net.run_cycles(25);
        let total_after: f64 = net.nodes().iter().map(|n| n.mass().0[0]).sum();
        let weight_after: f64 = net.nodes().iter().map(|n| n.mass().1).sum();
        assert!((total_before - total_after).abs() < 1e-9);
        assert!((weight_before - weight_after).abs() < 1e-12);
    }

    #[test]
    fn sum_mode_with_single_unit_weight() {
        let n = 40;
        let mut nodes: Vec<PushSumNode> = (0..n)
            .map(|i| PushSumNode::new(vec![(i + 1) as f64], 0.0))
            .collect();
        nodes[0] = PushSumNode::new(vec![1.0], 1.0);
        let truth = (2..=n).sum::<usize>() as f64 + 1.0;
        let mut net = Network::new(nodes, Overlay::Full, FailureModel::none(), 4);
        net.run_cycles(60);
        let err = max_relative_error(net.nodes(), &[truth]);
        assert!(err < 1e-6, "error {err}");
    }

    #[test]
    fn vector_aggregation() {
        let nodes: Vec<PushSumNode> = (0..16)
            .map(|i| PushSumNode::new(vec![i as f64, 2.0 * i as f64, -1.0], 1.0))
            .collect();
        let truth = vec![7.5, 15.0, -1.0];
        let mut net = Network::new(nodes, Overlay::Full, FailureModel::none(), 5);
        net.run_cycles(40);
        assert!(max_relative_error(net.nodes(), &truth) < 1e-6);
    }

    #[test]
    fn message_loss_slows_but_does_not_break_convergence_direction() {
        // A dropped exchange is skipped atomically (the initiator does not
        // halve), so no mass is lost — loss only removes mixing steps and
        // convergence merely slows. Verify the error still shrinks.
        let nodes: Vec<PushSumNode> = (0..64)
            .map(|i| PushSumNode::new(vec![i as f64], 1.0))
            .collect();
        let truth = vec![31.5];
        let mut net = Network::new(nodes, Overlay::Full, FailureModel::lossy(0.10), 6);
        net.run_cycles(10);
        let early = max_relative_error(net.nodes(), &truth);
        net.run_cycles(40);
        let late = max_relative_error(net.nodes(), &truth);
        assert!(
            late < early,
            "error should keep shrinking: early {early}, late {late}"
        );
        assert!(late < 0.05, "late error {late}");
    }

    #[test]
    fn split_then_absorb_matches_exchange_semantics() {
        // Mass conservation across the split/absorb halves, and the push
        // itself carries exactly the shed mass.
        let mut a = PushSumNode::new(vec![4.0, 8.0], 1.0);
        let mut b = PushSumNode::new(vec![2.0, 2.0], 1.0);
        let push = a.split_push();
        assert_eq!(push.values, vec![2.0, 4.0]);
        assert_eq!(push.weight, 0.5);
        assert_eq!(push.message_bytes(), 24);
        b.absorb(&push);
        assert_eq!(a.mass().0, &[2.0, 4.0]);
        assert_eq!(a.mass().1, 0.5);
        assert_eq!(b.mass().0, &[4.0, 6.0]);
        assert_eq!(b.mass().1, 1.5);
        // A recycled buffer carries the same push, whatever it held, and is
        // reused in place when it is large enough.
        let stale = vec![9.0; 7];
        let at = stale.as_ptr();
        let push = a.split_push_into(stale);
        assert_eq!(
            (push.values.as_slice(), push.weight),
            (&[1.0, 2.0][..], 0.25)
        );
        assert_eq!(push.values.as_ptr(), at);
    }

    proptest::proptest! {
        /// The simulator's fused exchange is the message-passing one: the
        /// same value and weight bits on both sides, the same bytes
        /// recorded, over chains of exchanges in both directions.
        #[test]
        fn exchange_equals_split_push_then_absorb(
            a in proptest::collection::vec(-1e6f64..1e6, 1..40),
            scale in -3.0f64..3.0,
            weights in (0.0f64..4.0, 0.0f64..4.0),
            directions in proptest::collection::vec(proptest::prelude::any::<bool>(), 1..12),
        ) {
            let b: Vec<f64> = a.iter().map(|v| v * scale + 0.1).collect();
            let mut fused = [PushSumNode::new(a, weights.0), PushSumNode::new(b, weights.1)];
            let mut split = fused.clone();
            let mut rng = rand::SeedableRng::seed_from_u64(0);
            let mut traffic = crate::TrafficStats::new();
            let mut bytes = 0;
            for (cycle, &forward) in directions.iter().enumerate() {
                let (from, to) = if forward { (0, 1) } else { (1, 0) };
                let [x, y] = &mut fused;
                let (initiator, peer) = if forward { (x, y) } else { (y, x) };
                initiator.exchange(
                    peer,
                    &mut ExchangeCtx {
                        cycle: cycle as u64,
                        initiator: from,
                        target: to,
                        rng: &mut rng,
                        traffic: &mut traffic,
                    },
                );
                let push = split[from].split_push();
                split[to].absorb(&push);
                bytes += push.message_bytes() as u64;
            }
            for (f, s) in fused.iter().zip(&split) {
                let bits = |n: &PushSumNode| -> Vec<u64> {
                    n.value.iter().chain([&n.weight]).map(|v| v.to_bits()).collect()
                };
                proptest::prop_assert_eq!(bits(f), bits(s));
            }
            proptest::prop_assert_eq!(traffic.messages, directions.len() as u64);
            proptest::prop_assert_eq!(traffic.bytes, bytes);
        }
    }

    #[test]
    fn partial_view_converges_too() {
        let nodes: Vec<PushSumNode> = (0..64)
            .map(|i| PushSumNode::new(vec![i as f64], 1.0))
            .collect();
        let truth = vec![31.5];
        let mut net = Network::new(
            nodes,
            Overlay::PartialView { view_size: 5 },
            FailureModel::none(),
            7,
        );
        net.run_cycles(60);
        assert!(max_relative_error(net.nodes(), &truth) < 1e-4);
    }
}
