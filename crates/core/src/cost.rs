//! Cost accounting — the demo's "privacy vs performance" axis.
//!
//! The demo displays encryption and network costs per participant, with the
//! crypto time "based on actual average measures performed beforehand". The
//! engine only counts: an [`IterationCost`] holds an iteration's operation
//! counts (measured in real mode, synthesized in simulated mode) and its
//! bytes. Seconds come at the end, from [`crypto_seconds`] and a
//! [`CryptoCostProfile`] the caller measured. Per-participant gossip work is
//! population-independent, which is precisely why the paper's approach
//! scales.
//!
//! Synthesized counts are per ciphertext of the step's lane plan
//! ([`crate::rounds::lane_plan`]), the layout every real-crypto host runs:
//! [`synthesize_ops`] and [`synthesize_decrypt_ops`] take the plan's
//! ciphertext count, never the slot count.

use cs_crypto::CryptoCostProfile;
use cs_gossip::homomorphic_pushsum::HomomorphicOpCounts;
use serde::{Deserialize, Serialize};

/// Operation counts for one iteration's collaborative decryptions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DecryptionOps {
    /// Partial decryptions computed (across the committee).
    pub partial_decryptions: u64,
    /// Share combinations performed.
    pub combinations: u64,
    /// Request/response messages exchanged.
    pub messages: u64,
    /// Bytes moved by decryption traffic.
    pub bytes: u64,
}

impl DecryptionOps {
    /// Element-wise sum.
    pub fn merge(&mut self, other: &DecryptionOps) {
        self.partial_decryptions += other.partial_decryptions;
        self.combinations += other.combinations;
        self.messages += other.messages;
        self.bytes += other.bytes;
    }
}

/// Cost counters of one protocol iteration.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct IterationCost {
    /// Gossip messages delivered.
    pub gossip_messages: u64,
    /// Gossip payload bytes.
    pub gossip_bytes: u64,
    /// Homomorphic op counts (gossip side).
    pub ops: HomomorphicOpCounts,
    /// Decryption op counts, messages and bytes.
    pub decrypt_ops: DecryptionOps,
}

impl IterationCost {
    /// Gossip and decryption bytes per participant, over `participants`.
    pub fn bytes_per_participant(&self, participants: usize) -> f64 {
        (self.gossip_bytes + self.decrypt_ops.bytes) as f64 / participants.max(1) as f64
    }
}

/// Seconds of crypto work `ops` and `decrypt_ops` cost at the measured
/// profile `p`'s per-operation prices, summed over whoever performed them.
/// Divide by the participants for the participant's share, or price the
/// decryptions alone and divide by the committee for a member's.
pub fn crypto_seconds(
    p: &CryptoCostProfile,
    ops: &HomomorphicOpCounts,
    decrypt_ops: &DecryptionOps,
) -> f64 {
    let total_us = ops.encryptions as f64 * p.encrypt_us
        + ops.additions as f64 * p.add_us
        + ops.pow2_scalings as f64 * p.scalar_pow2_us
        + ops.rerandomizations as f64 * p.rerandomize_us
        + decrypt_ops.partial_decryptions as f64 * p.partial_decrypt_us
        + decrypt_ops.combinations as f64 * p.combine_us;
    total_us / 1e6
}

/// Synthesizes the homomorphic op counts a real host would have produced
/// for a step whose lane plan ships `ciphertexts` per contribution, for
/// simulated-mode accounting:
///
/// * every participant encrypts its whole contribution — a noise share
///   sits on every slot, so no ciphertext ships as a free trivial
///   encryption;
/// * every delivered gossip message carries `ciphertexts` additions, up to
///   `ciphertexts` pow2-rescalings, and — when enabled — `ciphertexts`
///   re-randomizations.
pub fn synthesize_ops(
    ciphertexts: usize,
    participants: usize,
    delivered_messages: u64,
    rerandomize: bool,
) -> HomomorphicOpCounts {
    let per_push = delivered_messages * ciphertexts as u64;
    HomomorphicOpCounts {
        encryptions: (participants * ciphertexts) as u64,
        additions: per_push,
        pow2_scalings: per_push,
        rerandomizations: if rerandomize { per_push } else { 0 },
    }
}

/// Decryption ops for one iteration under the leader rule: one node
/// decrypts, the lowest-id live committee member. Its snapshot folds to
/// `leader_width` ciphertexts ([`crate::rounds::StepCipher::width`];
/// unfolded, all of the plan's ciphertexts), threshold-decrypted — its own
/// partials and those of the `t − 1` members it asks — and each of the
/// `adopters` other participants fetches a release of `release_values`
/// values (`SlotLayout::total()`) instead. `None`: no live member, nothing
/// decrypted.
pub fn synthesize_decrypt_ops(
    leader_width: Option<usize>,
    threshold: usize,
    ciphertext_bytes: usize,
    adopters: usize,
    release_values: usize,
) -> DecryptionOps {
    let (d, w) = leader_width.map_or((0, 0), |w| (1, w as u64));
    let t = threshold as u64;
    let asked = t.saturating_sub(1);
    let a = adopters as u64;
    DecryptionOps {
        partial_decryptions: w * t,
        combinations: w,
        // The leader's request to each of the t − 1 it asks and their
        // replies; an adopter's request and the release that answers it.
        messages: d * 2 * asked + a * 2,
        bytes: 2 * asked * w * ciphertext_bytes as u64 + a * 8 * release_values as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iteration_cost_aggregates_time() {
        let profile = CryptoCostProfile {
            key_bits: 2048,
            s: 1,
            threshold: 3,
            encrypt_us: 100.0,
            add_us: 1.0,
            scalar_pow2_us: 10.0,
            rerandomize_us: 100.0,
            partial_decrypt_us: 200.0,
            combine_us: 1000.0,
            ciphertext_bytes: 512,
        };
        let ops = HomomorphicOpCounts {
            encryptions: 10,
            additions: 100,
            pow2_scalings: 50,
            rerandomizations: 0,
        };
        let dec = DecryptionOps {
            partial_decryptions: 30,
            combinations: 10,
            messages: 20,
            bytes: 1000,
        };
        let cost = IterationCost {
            gossip_messages: 1,
            gossip_bytes: 5000,
            ops,
            decrypt_ops: dec,
        };
        let (n, members) = (10, 4);
        // (10*100 + 100*1 + 50*10 + 30*200 + 10*1000) µs / 10 = 1.76 ms.
        let participant = crypto_seconds(&profile, &cost.ops, &cost.decrypt_ops) / n as f64;
        assert!((participant - 1.76e-3).abs() < 1e-12);
        assert!((cost.bytes_per_participant(n) - 600.0).abs() < 1e-9);
        // A member pays the gossip side like everyone and the decryptions
        // split over the committee: the participant's share shifted by the
        // decryptions' (1/members − 1/n).
        let none = (HomomorphicOpCounts::default(), DecryptionOps::default());
        let member = crypto_seconds(&profile, &cost.ops, &none.1) / n as f64
            + crypto_seconds(&profile, &none.0, &cost.decrypt_ops) / members as f64;
        let decrypt_us = 30.0 * 200.0 + 10.0 * 1000.0;
        let shift = decrypt_us / 1e6 * (1.0 / members as f64 - 1.0 / n as f64);
        assert!((member - (participant + shift)).abs() < 1e-12);
    }

    #[test]
    fn synthesized_ops_formulas() {
        // 3 ciphertexts a contribution, 10 participants, 100 deliveries.
        let ops = synthesize_ops(3, 10, 100, true);
        assert_eq!(ops.encryptions, 30);
        assert_eq!(ops.additions, 300);
        assert_eq!(ops.pow2_scalings, 300);
        assert_eq!(ops.rerandomizations, 300);
        let ops = synthesize_ops(3, 10, 100, false);
        assert_eq!(ops.rerandomizations, 0);
    }

    #[test]
    fn synthesized_decrypt_ops_formulas() {
        // A 3-of-10 committee's leader, nobody else.
        let d = synthesize_decrypt_ops(Some(8), 3, 512, 0, 125);
        assert_eq!(d.partial_decryptions, 24);
        assert_eq!(d.combinations, 8);
        assert_eq!(d.messages, 4);
        assert_eq!(d.bytes, 2 * 2 * 8 * 512);
        // A folded leader is charged for what it asks: w·t; each of 40
        // adopters for one request and one 125-value release.
        let d = synthesize_decrypt_ops(Some(3), 3, 512, 40, 125);
        assert_eq!(d.partial_decryptions, 9);
        assert_eq!(d.combinations, 3);
        assert_eq!(d.messages, 4 + 80);
        assert_eq!(d.bytes, 2 * 2 * 3 * 512 + 40 * 8 * 125);
        // No live member: nothing is decrypted, the adopters still ask.
        let d = synthesize_decrypt_ops(None, 3, 512, 40, 125);
        assert_eq!((d.partial_decryptions, d.combinations), (0, 0));
        assert_eq!((d.messages, d.bytes), (80, 40 * 8 * 125));
    }
}
