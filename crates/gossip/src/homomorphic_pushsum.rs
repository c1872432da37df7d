//! Push-sum over additively-homomorphic ciphertexts.
//!
//! The paper's central building block: "a gossip sum algorithm working on
//! additively-homomorphic encrypted data". Classic push-sum halves a node's
//! value each exchange — impossible on a ciphertext, since multiplying the
//! plaintext by the modular inverse of 2 wrecks fixed-point encodings.
//!
//! The reconstruction (DESIGN.md §3.1) keeps push-sum's exact semantics with
//! a *denominator-exponent* representation. A node holds `(C⃗, k, w)` meaning
//! the plaintext vector `Dec(C⃗)/2^k` with push-sum weight `w`:
//!
//! * **halving** increments `k` and halves `w` — the ciphertexts are
//!   untouched;
//! * **addition** aligns denominators homomorphically:
//!   `k' = max(k₁,k₂)`, `C' = C₁^(2^(k'−k₁)) · C₂^(2^(k'−k₂))`;
//! * the cleartext weight is protocol metadata, not private data — exactly
//!   the weight any push-sum implementation must reveal to its peer.
//!
//! Plaintext magnitudes grow by `2^k`, and an absorb inherits the larger
//! `k`, so a chain of splits and absorbs cascades it past any one node's
//! own split count. A node may therefore carry a **denominator cap**
//! ([`HePushSumNode::with_denominator_cap`]): at the cap it keeps its mass
//! instead of splitting it ([`HePushSumNode::try_split_push`] returns
//! `None` and counts the skipped push), so no node — and no push — ever
//! carries a `k` above the cap, and mass is conserved by construction. The
//! packed lane plan sizes its headroom for exactly that cap. Estimates
//! converge to the same ratio as plaintext push-sum, but nobody can read
//! them until the collaborative threshold decryption at the end of the
//! computation step.

use crate::network::{CycleProtocol, ExchangeCtx};
use cs_crypto::{
    Ciphertext, FastEncryptor, FixedPointCodec, PrivateKey, PublicKey, RandomizerPool,
};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Counters for homomorphic operations (drives the demo-style cost model).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HomomorphicOpCounts {
    /// Ciphertext additions performed.
    pub additions: u64,
    /// Power-of-two scalar multiplications (with non-zero exponent).
    pub pow2_scalings: u64,
    /// Re-randomizations before forwarding.
    pub rerandomizations: u64,
    /// Initial encryptions.
    pub encryptions: u64,
}

impl HomomorphicOpCounts {
    /// Element-wise sum.
    pub fn merge(&mut self, other: &HomomorphicOpCounts) {
        self.additions += other.additions;
        self.pow2_scalings += other.pow2_scalings;
        self.rerandomizations += other.rerandomizations;
        self.encryptions += other.encryptions;
    }
}

/// One half of an encrypted push-sum exchange: the ciphertext slots shed by
/// the initiator, with the denominator exponent and weight they carry. This
/// is the exact payload a message-passing deployment (`cs_net`) serializes.
#[derive(Clone, Serialize, Deserialize)]
pub struct HePush {
    /// The pushed ciphertext slots (already re-randomized when enabled).
    pub slots: Vec<Ciphertext>,
    /// The sender's denominator exponent after halving (plaintext meaning of
    /// slot `i` is `Dec(slots[i]) / 2^denom_exp`).
    pub denom_exp: u32,
    /// The halved push-sum weight travelling with the slots.
    pub weight: f64,
}

impl std::fmt::Debug for HePush {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HePush")
            .field("slots", &self.slots.len())
            .field("denom_exp", &self.denom_exp)
            .field("weight", &self.weight)
            .finish()
    }
}

/// One participant in the encrypted push-sum.
#[derive(Clone)]
pub struct HePushSumNode {
    pk: Arc<PublicKey>,
    /// The one randomizer source of the forward re-randomizations: a pool
    /// over a [`FastEncryptor`], pre-warmed or empty (a dry pool draws
    /// [`FastEncryptor::randomizer`] from the caller's RNG).
    pool: Option<RandomizerPool>,
    cipher: Vec<Ciphertext>,
    denom_exp: u32,
    /// The denominator exponent this node never splits past.
    denom_cap: u32,
    /// Pushes skipped because the node sat at its cap.
    pushes_capped: u64,
    weight: f64,
    rerandomize: bool,
    ops: HomomorphicOpCounts,
}

impl HePushSumNode {
    /// Creates a node by fixed-point-encoding and encrypting `values`.
    pub fn from_values<R: Rng + ?Sized>(
        pk: Arc<PublicKey>,
        codec: &FixedPointCodec,
        values: &[f64],
        weight: f64,
        rerandomize: bool,
        rng: &mut R,
    ) -> Self {
        let cipher: Vec<Ciphertext> = values
            .iter()
            .map(|&v| {
                let m = codec.encode(v, pk.n_s()).expect("value in range");
                pk.encrypt(&m, rng)
            })
            .collect();
        let ops = HomomorphicOpCounts {
            encryptions: cipher.len() as u64,
            ..Default::default()
        };
        HePushSumNode {
            pk,
            pool: None,
            cipher,
            denom_exp: 0,
            denom_cap: u32::MAX,
            pushes_capped: 0,
            weight,
            rerandomize,
            ops,
        }
    }

    /// Creates a node from pre-encrypted slots (the Chiaroscuro engine
    /// encrypts contributions itself so zero-slots can use the free trivial
    /// encryption).
    pub fn from_ciphertexts(
        pk: Arc<PublicKey>,
        cipher: Vec<Ciphertext>,
        weight: f64,
        rerandomize: bool,
    ) -> Self {
        HePushSumNode {
            pk,
            pool: None,
            cipher,
            denom_exp: 0,
            denom_cap: u32::MAX,
            pushes_capped: 0,
            weight,
            rerandomize,
            ops: HomomorphicOpCounts::default(),
        }
    }

    /// Re-randomizes forwards with fresh fixed-base randomizers from `enc`:
    /// an empty pool over it ([`Self::with_pool`]).
    pub fn with_encryptor(self, enc: Arc<FastEncryptor>) -> Self {
        self.with_pool(RandomizerPool::new(enc))
    }

    /// Caps the denominator exponent: once it reaches `cap`, the node keeps
    /// its mass ([`Self::try_split_push`]). Without a cap (the default) a
    /// node splits forever.
    pub fn with_denominator_cap(mut self, cap: u32) -> Self {
        self.denom_cap = cap;
        self
    }

    /// Attaches a pre-warmed [`RandomizerPool`] (replacing any source set
    /// before): forward re-randomizations pop pooled randomizers (built
    /// during idle time) instead of paying a fixed-base exponentiation on
    /// the hot path. A dry pool falls back to fresh generation, so
    /// correctness never depends on pool sizing.
    pub fn with_pool(mut self, pool: RandomizerPool) -> Self {
        self.pool = Some(pool);
        self
    }

    /// The encrypted slots (for collaborative decryption).
    pub fn ciphertexts(&self) -> &[Ciphertext] {
        &self.cipher
    }

    /// The denominator exponent `k` (plaintext = `Dec(C)/2^k`).
    pub fn denominator_exp(&self) -> u32 {
        self.denom_exp
    }

    /// The push-sum weight.
    pub fn weight(&self) -> f64 {
        self.weight
    }

    /// The denominator exponent this node never splits past.
    pub fn denominator_cap(&self) -> u32 {
        self.denom_cap
    }

    /// Pushes [`Self::try_split_push`] skipped because the node sat at its
    /// cap.
    pub fn pushes_capped(&self) -> u64 {
        self.pushes_capped
    }

    /// Homomorphic operation counters accumulated by this node.
    pub fn op_counts(&self) -> HomomorphicOpCounts {
        self.ops
    }

    /// Number of encrypted slots.
    pub fn dim(&self) -> usize {
        self.cipher.len()
    }

    /// Decrypts this node's estimate with a full private key (tests and
    /// invariant checks; the protocol itself uses threshold decryption).
    ///
    /// Returns `None` while the weight is numerically zero.
    pub fn decrypt_estimate(&self, sk: &PrivateKey, codec: &FixedPointCodec) -> Option<Vec<f64>> {
        if self.weight <= f64::MIN_POSITIVE {
            return None;
        }
        Some(
            self.cipher
                .iter()
                .map(|c| {
                    let raw = sk.decrypt(c);
                    codec.decode(&raw, self.pk.n_s(), self.denom_exp) / self.weight
                })
                .collect(),
        )
    }

    /// The *mass* this node holds in value space: `Dec(C)/2^k` per slot
    /// (conservation diagnostics).
    pub fn decrypt_mass(&self, sk: &PrivateKey, codec: &FixedPointCodec) -> Vec<f64> {
        self.cipher
            .iter()
            .map(|c| codec.decode(&sk.decrypt(c), self.pk.n_s(), self.denom_exp))
            .collect()
    }

    /// Serialized payload size of one push message from this node.
    pub fn message_bytes(&self) -> usize {
        self.cipher.len() * self.pk.ciphertext_bytes() + 4 + 8
    }

    /// First half of one push exchange, under the cap: `None` — the node
    /// keeps all of its mass and counts the skipped push — when its
    /// denominator exponent has reached [`Self::denominator_cap`], else
    /// [`Self::split_push`]. What the protocol calls: a push never carries
    /// a denominator above the cap, and an absorb takes the larger of two
    /// denominators at or under it, so no node ever exceeds it.
    pub fn try_split_push<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<HePush> {
        if self.denom_exp >= self.denom_cap {
            self.pushes_capped += 1;
            return None;
        }
        Some(self.split_push(rng))
    }

    /// First half of one push exchange, regardless of the cap: halves the
    /// local mass (increment the denominator exponent, halve the weight —
    /// ciphertexts untouched) and returns the shed half as a wire-ready
    /// payload, re-randomized when the node is configured to do so.
    ///
    /// Panics if the node re-randomizes but was given no randomizer source
    /// ([`Self::with_encryptor`] or [`Self::with_pool`]).
    pub fn split_push<R: Rng + ?Sized>(&mut self, rng: &mut R) -> HePush {
        self.denom_exp += 1;
        self.weight *= 0.5;
        let slots: Vec<Ciphertext> = if self.rerandomize {
            let pool = self
                .pool
                .as_mut()
                .expect("a re-randomizing node needs with_encryptor or with_pool");
            self.ops.rerandomizations += self.cipher.len() as u64;
            self.cipher
                .iter()
                .map(|c| pool.rerandomize(c, rng))
                .collect()
        } else {
            self.cipher.clone()
        };
        HePush {
            slots,
            denom_exp: self.denom_exp,
            weight: self.weight,
        }
    }

    /// Second half of one push exchange: folds a received push into the
    /// local mass, aligning denominators homomorphically
    /// (`k' = max(k₁,k₂)`, `C' = C₁^(2^(k'−k₁)) · C₂^(2^(k'−k₂))`).
    pub fn absorb(&mut self, push: &HePush) {
        debug_assert_eq!(self.dim(), push.slots.len(), "dimension mismatch");
        let k_new = push.denom_exp.max(self.denom_exp);
        let incoming_shift = k_new - push.denom_exp;
        let local_shift = k_new - self.denom_exp;
        for (local, incoming) in self.cipher.iter_mut().zip(&push.slots) {
            // Equal denominators (every absorb of a lock-step run) add the
            // two ciphertexts in place: nothing is scaled, nothing copied.
            let scaled_incoming;
            let incoming = if incoming_shift > 0 {
                scaled_incoming = self.pk.scalar_mul_pow2(incoming, incoming_shift);
                self.ops.pow2_scalings += 1;
                &scaled_incoming
            } else {
                incoming
            };
            let scaled_local;
            let aligned = if local_shift > 0 {
                scaled_local = self.pk.scalar_mul_pow2(local, local_shift);
                self.ops.pow2_scalings += 1;
                &scaled_local
            } else {
                &*local
            };
            *local = self.pk.add(aligned, incoming);
            self.ops.additions += 1;
        }
        self.denom_exp = k_new;
        self.weight += push.weight;
    }
}

impl std::fmt::Debug for HePushSumNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HePushSumNode")
            .field("slots", &self.cipher.len())
            .field("denom_exp", &self.denom_exp)
            .field("denom_cap", &self.denom_cap)
            .field("weight", &self.weight)
            .finish()
    }
}

impl CycleProtocol for HePushSumNode {
    fn exchange(&mut self, peer: &mut Self, ctx: &mut ExchangeCtx<'_>) {
        debug_assert_eq!(self.dim(), peer.dim(), "dimension mismatch");
        // The shared-memory exchange is the message-passing one with a
        // perfect link: split (re-randomizing so the wire ciphertext cannot
        // be linked to this node's stored one), deliver, absorb. A node at
        // its cap sends nothing this cycle.
        if let Some(push) = self.try_split_push(ctx.rng) {
            peer.absorb(&push);
            ctx.record_message(self.message_bytes());
        }
    }
}

/// Maximum relative error of all estimates against the true aggregate,
/// decrypting with the full key (test/diagnostic helper).
pub fn max_relative_error(
    nodes: &[HePushSumNode],
    sk: &PrivateKey,
    codec: &FixedPointCodec,
    truth: &[f64],
) -> f64 {
    let scale = truth
        .iter()
        .map(|t| t.abs())
        .fold(0.0f64, f64::max)
        .max(1e-12);
    nodes
        .iter()
        .filter_map(|n| n.decrypt_estimate(sk, codec))
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
    use cs_crypto::{KeyGenOptions, KeyPair};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(
        n: usize,
        seed: u64,
    ) -> (Arc<PublicKey>, KeyPair, FixedPointCodec, Vec<HePushSumNode>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let kp = KeyPair::generate(&KeyGenOptions::insecure_test_size(), &mut rng);
        let pk = Arc::new(kp.public().clone());
        let codec = FixedPointCodec::new(20);
        let nodes: Vec<HePushSumNode> = (0..n)
            .map(|i| {
                HePushSumNode::from_values(
                    pk.clone(),
                    &codec,
                    &[i as f64, -(i as f64) * 0.5],
                    1.0,
                    false,
                    &mut rng,
                )
            })
            .collect();
        (pk, kp, codec, nodes)
    }

    #[test]
    fn converges_to_average_under_encryption() {
        let n = 16;
        let (_pk, kp, codec, nodes) = setup(n, 1);
        let truth = vec![(n - 1) as f64 / 2.0, -((n - 1) as f64) / 4.0];
        let mut net = Network::new(nodes, Overlay::Full, FailureModel::none(), 2);
        net.run_cycles(25);
        let err = max_relative_error(net.nodes(), kp.private(), &codec, &truth);
        assert!(err < 1e-3, "error {err}");
    }

    #[test]
    fn mass_conserved_in_value_space() {
        let (_pk, kp, codec, nodes) = setup(8, 3);
        let before: f64 = nodes
            .iter()
            .map(|n| n.decrypt_mass(kp.private(), &codec)[0])
            .sum();
        let mut net = Network::new(nodes, Overlay::Full, FailureModel::none(), 4);
        net.run_cycles(12);
        let after: f64 = net
            .nodes()
            .iter()
            .map(|n| n.decrypt_mass(kp.private(), &codec)[0])
            .sum();
        assert!(
            (before - after).abs() < 1e-3,
            "mass drifted: {before} → {after}"
        );
    }

    #[test]
    fn weight_conserved() {
        let (_pk, _kp, _codec, nodes) = setup(8, 5);
        let mut net = Network::new(nodes, Overlay::Full, FailureModel::none(), 6);
        net.run_cycles(15);
        let total_weight: f64 = net.nodes().iter().map(|n| n.weight()).sum();
        assert!((total_weight - 8.0).abs() < 1e-9);
    }

    #[test]
    fn matches_plaintext_pushsum_shape() {
        // Same seeds, same topology: encrypted and plaintext push-sum must
        // produce near-identical estimates (up to fixed-point granularity).
        let n = 10;
        let (_pk, kp, codec, he_nodes) = setup(n, 7);
        let ps_nodes: Vec<crate::pushsum::PushSumNode> = (0..n)
            .map(|i| crate::pushsum::PushSumNode::new(vec![i as f64, -(i as f64) * 0.5], 1.0))
            .collect();
        let mut he_net = Network::new(he_nodes, Overlay::Full, FailureModel::none(), 99);
        let mut ps_net = Network::new(ps_nodes, Overlay::Full, FailureModel::none(), 99);
        he_net.run_cycles(15);
        ps_net.run_cycles(15);
        for (he, ps) in he_net.nodes().iter().zip(ps_net.nodes()) {
            let he_est = he.decrypt_estimate(kp.private(), &codec).unwrap();
            let ps_est = ps.estimate().unwrap();
            for (a, b) in he_est.iter().zip(&ps_est) {
                assert!((a - b).abs() < 1e-3, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn rerandomization_keeps_estimates_correct() {
        let mut rng = StdRng::seed_from_u64(8);
        let kp = KeyPair::generate(&KeyGenOptions::insecure_test_size(), &mut rng);
        let pk = Arc::new(kp.public().clone());
        let codec = FixedPointCodec::new(20);
        let enc = Arc::new(FastEncryptor::new(pk.clone(), &mut rng));
        let nodes: Vec<HePushSumNode> = (0..8)
            .map(|i| {
                HePushSumNode::from_values(pk.clone(), &codec, &[i as f64], 1.0, true, &mut rng)
                    .with_encryptor(enc.clone())
            })
            .collect();
        let mut net = Network::new(nodes, Overlay::Full, FailureModel::none(), 9);
        net.run_cycles(20);
        let err = max_relative_error(net.nodes(), kp.private(), &codec, &[3.5]);
        assert!(err < 1e-3, "error {err}");
        let total_ops: u64 = net
            .nodes()
            .iter()
            .map(|n| n.op_counts().rerandomizations)
            .sum();
        assert!(total_ops > 0, "re-randomizations must be counted");
    }

    #[test]
    fn op_counting_tracks_work() {
        let (_pk, _kp, _codec, nodes) = setup(6, 10);
        let mut net = Network::new(nodes, Overlay::Full, FailureModel::none(), 11);
        net.run_cycles(5);
        let mut total = HomomorphicOpCounts::default();
        for n in net.nodes() {
            total.merge(&n.op_counts());
        }
        // 5 cycles × 6 initiations × 2 slots = 60 additions expected.
        assert_eq!(total.additions, 60);
        assert!(total.pow2_scalings > 0);
        assert_eq!(total.encryptions, 12);
    }

    #[test]
    fn split_then_absorb_conserves_mass_and_aligns_denominators() {
        let mut rng = StdRng::seed_from_u64(13);
        let (_pk, kp, codec, mut nodes) = setup(2, 14);
        let before: Vec<f64> = nodes
            .iter()
            .map(|n| n.decrypt_mass(kp.private(), &codec)[0])
            .collect();
        let (a, b) = nodes.split_at_mut(1);
        let push = a[0].split_push(&mut rng);
        assert_eq!(push.denom_exp, 1);
        assert_eq!(push.weight, 0.5);
        b[0].absorb(&push);
        assert_eq!(b[0].denominator_exp(), 1);
        assert!((b[0].weight() - 1.5).abs() < 1e-12);
        let after: f64 = nodes
            .iter()
            .map(|n| n.decrypt_mass(kp.private(), &codec)[0])
            .sum();
        assert!((after - before.iter().sum::<f64>()).abs() < 1e-6);
    }

    #[test]
    fn a_node_at_its_cap_keeps_its_mass_and_counts_the_push() {
        let mut rng = StdRng::seed_from_u64(16);
        let (_pk, kp, codec, nodes) = setup(2, 17);
        let mut nodes: Vec<HePushSumNode> = nodes
            .into_iter()
            .map(|n| n.with_denominator_cap(2))
            .collect();
        let mut sent = 0;
        for _ in 0..5 {
            if let Some(push) = nodes[0].try_split_push(&mut rng) {
                nodes[1].absorb(&push);
                sent += 1;
            }
        }
        assert_eq!((sent, nodes[0].pushes_capped()), (2, 3));
        assert_eq!(nodes[0].denominator_exp(), 2);
        assert_eq!(nodes[0].weight(), 0.25);
        // Slot 0 started at 0 on node 0 and 1 on node 1: its total stays 1.
        let mass: f64 = nodes
            .iter()
            .map(|n| n.decrypt_mass(kp.private(), &codec)[0])
            .sum();
        assert!((mass - 1.0).abs() < 1e-9, "mass {mass}");
        // Node 1 absorbed denominator 2, so both sit at the cap: a cycle of
        // the simulator sends nothing and counts two capped pushes.
        let mut net = Network::new(nodes, Overlay::Full, FailureModel::none(), 18);
        net.run_cycle();
        assert_eq!(net.traffic().messages, 0);
        let capped: u64 = net.nodes().iter().map(|n| n.pushes_capped()).sum();
        assert_eq!(capped, 3 + 2);
    }

    #[test]
    fn message_bytes_scale_with_key_and_slots() {
        let (_pk, _kp, _codec, nodes) = setup(2, 12);
        // 256-bit n → 512-bit n² → 64-byte ciphertexts; 2 slots + k + weight.
        let expected = 2 * 64 + 4 + 8;
        assert_eq!(nodes[0].message_bytes(), expected);
    }

    #[test]
    fn pooled_splits_preserve_mass_and_run_pool_dry() {
        let mut rng = StdRng::seed_from_u64(15);
        let kp = KeyPair::generate(&KeyGenOptions::insecure_test_size(), &mut rng);
        let pk = Arc::new(kp.public().clone());
        let codec = FixedPointCodec::new(20);
        let enc = Arc::new(FastEncryptor::new(pk.clone(), &mut rng));
        let mut a =
            HePushSumNode::from_values(pk.clone(), &codec, &[8.0, -4.0], 1.0, true, &mut rng)
                .with_encryptor(enc.clone());
        let mut pool = RandomizerPool::new(enc.clone());
        pool.refill(3, &mut rng);
        a = a.with_pool(pool);
        let mut b = HePushSumNode::from_values(pk, &codec, &[0.0, 0.0], 1.0, true, &mut rng)
            .with_encryptor(enc);
        // Two splits × two slots = four re-randomizations: three pooled,
        // one dry-pool fallback.
        for _ in 0..2 {
            let push = a.split_push(&mut rng);
            b.absorb(&push);
        }
        assert_eq!(a.op_counts().rerandomizations, 4);
        let mass: f64 = a
            .decrypt_mass(kp.private(), &codec)
            .iter()
            .zip(b.decrypt_mass(kp.private(), &codec).iter())
            .map(|(x, y)| x + y)
            .sum();
        assert!((mass - 4.0).abs() < 1e-6, "8 − 4 conserved, got {mass}");
    }
}
