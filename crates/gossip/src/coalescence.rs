//! Coalescence aggregation: exactly-once merge-and-forward.
//!
//! An alternative encrypted-sum gossip kept as an ablation baseline for the
//! homomorphic push-sum (the demo paper does not pin the aggregation down;
//! DESIGN.md §3.1 justifies our primary choice). Every node starts holding a
//! *bucket* — its encrypted contribution with contributor count 1. On each
//! exchange a bucket holder deposits its entire bucket at the peer, which
//! merges (homomorphic addition; counts add). Buckets never split, so every
//! contribution is counted exactly once; the number of buckets shrinks as
//! they collide, concentrating partial sums at few nodes.
//!
//! Compared to push-sum: exact partial sums (no approximation *within* a
//! bucket) but slow tail — the last few buckets take many cycles to meet,
//! which is exactly what experiment E5's ablation shows.

use crate::network::{CycleProtocol, ExchangeCtx};
use cs_crypto::{Ciphertext, PublicKey};
use std::sync::Arc;

/// An aggregated partial sum: encrypted slot-wise total plus contributor
/// count.
#[derive(Clone, Debug)]
pub struct Bucket {
    /// Slot-wise encrypted sums.
    pub cipher: Vec<Ciphertext>,
    /// Number of contributions merged into this bucket.
    pub contributors: u64,
}

/// One participant in the coalescence aggregation.
#[derive(Clone)]
pub struct CoalescenceNode {
    pk: Arc<PublicKey>,
    bucket: Option<Bucket>,
}

impl CoalescenceNode {
    /// Creates a node holding its own single-contribution bucket.
    pub fn new(pk: Arc<PublicKey>, cipher: Vec<Ciphertext>) -> Self {
        CoalescenceNode {
            pk,
            bucket: Some(Bucket {
                cipher,
                contributors: 1,
            }),
        }
    }

    /// The bucket currently held, if any.
    pub fn bucket(&self) -> Option<&Bucket> {
        self.bucket.as_ref()
    }

    /// `true` iff this node still holds a bucket.
    fn holds_bucket(&self) -> bool {
        self.bucket.is_some()
    }

    /// Decrypts the held partial sum (diagnostics).
    #[cfg(test)]
    fn decrypt_partial(
        &self,
        sk: &cs_crypto::PrivateKey,
    ) -> Option<(Vec<cs_bigint::BigUint>, u64)> {
        self.bucket.as_ref().map(|b| {
            (
                b.cipher.iter().map(|c| sk.decrypt(c)).collect(),
                b.contributors,
            )
        })
    }
}

impl CycleProtocol for CoalescenceNode {
    fn exchange(&mut self, peer: &mut Self, ctx: &mut ExchangeCtx<'_>) {
        let Some(incoming) = self.bucket.take() else {
            return; // nothing to deposit; a real node would skip the send
        };
        ctx.record_message(incoming.cipher.len() * self.pk.ciphertext_bytes() + 8);
        match &mut peer.bucket {
            Some(existing) => {
                debug_assert_eq!(existing.cipher.len(), incoming.cipher.len());
                for (e, i) in existing.cipher.iter_mut().zip(&incoming.cipher) {
                    *e = self.pk.add(e, i);
                }
                existing.contributors += incoming.contributors;
            }
            None => peer.bucket = Some(incoming),
        }
    }
}

/// Number of buckets still in the network (aggregation progress metric).
pub fn bucket_count(nodes: &[CoalescenceNode]) -> usize {
    nodes.iter().filter(|n| n.holds_bucket()).count()
}

/// Total contributors across all buckets (conservation invariant: always
/// equals the initial population).
pub fn total_contributors(nodes: &[CoalescenceNode]) -> u64 {
    nodes
        .iter()
        .filter_map(|n| n.bucket())
        .map(|b| b.contributors)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FailureModel, Network, Overlay};
    use cs_bigint::BigUint;
    use cs_crypto::{KeyGenOptions, KeyPair};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(n: usize, seed: u64) -> (KeyPair, Vec<CoalescenceNode>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let kp = KeyPair::generate(&KeyGenOptions::insecure_test_size(), &mut rng);
        let pk = Arc::new(kp.public().clone());
        let nodes = (0..n)
            .map(|i| {
                let c = pk.encrypt(&BigUint::from(i as u64 + 1), &mut rng);
                CoalescenceNode::new(pk.clone(), vec![c])
            })
            .collect();
        (kp, nodes)
    }

    #[test]
    fn buckets_shrink_and_conserve_contributors() {
        let n = 32;
        let (_kp, nodes) = setup(n, 1);
        let mut net = Network::new(nodes, Overlay::Full, FailureModel::none(), 2);
        assert_eq!(bucket_count(net.nodes()), n);
        net.run_cycles(10);
        let remaining = bucket_count(net.nodes());
        assert!(remaining < n / 2, "buckets should coalesce: {remaining}");
        assert_eq!(total_contributors(net.nodes()), n as u64);
    }

    #[test]
    fn partial_sums_are_exact() {
        // The sum over all buckets must equal the exact total at any time.
        let n = 16;
        let (kp, nodes) = setup(n, 3);
        let mut net = Network::new(nodes, Overlay::Full, FailureModel::none(), 4);
        net.run_cycles(6);
        let total: u64 = net
            .nodes()
            .iter()
            .filter_map(|node| node.decrypt_partial(kp.private()))
            .map(|(vals, _)| vals[0].to_u64().unwrap())
            .sum();
        let expected: u64 = (1..=n as u64).sum();
        assert_eq!(total, expected);
    }

    #[test]
    fn single_bucket_holds_complete_sum() {
        let n = 12;
        let (kp, nodes) = setup(n, 5);
        let mut net = Network::new(nodes, Overlay::Full, FailureModel::none(), 6);
        // Run long enough that coalescence completes (slow tail!).
        for _ in 0..300 {
            net.run_cycle();
            if bucket_count(net.nodes()) == 1 {
                break;
            }
        }
        if bucket_count(net.nodes()) == 1 {
            let (vals, contributors) = net
                .nodes()
                .iter()
                .find(|n| n.holds_bucket())
                .unwrap()
                .decrypt_partial(kp.private())
                .unwrap();
            assert_eq!(contributors, n as u64);
            assert_eq!(vals[0].to_u64().unwrap(), (1..=n as u64).sum::<u64>());
        } else {
            // The tail really is slow sometimes; the invariant still holds.
            assert_eq!(total_contributors(net.nodes()), n as u64);
        }
    }

    #[test]
    fn empty_handed_nodes_send_nothing() {
        let (_kp, nodes) = setup(4, 7);
        let mut net = Network::new(nodes, Overlay::Full, FailureModel::none(), 8);
        net.run_cycles(50);
        // After coalescence only bucket holders transmit (a lone bucket keeps
        // hopping: ~1 message/cycle), so traffic must sit far below the
        // 4 × 50 = 200 initiations yet above the 50 hop messages.
        let msgs = net.traffic().messages;
        assert!((50..140).contains(&msgs), "messages {msgs}");
    }
}
