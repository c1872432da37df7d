//! Cost accounting — the demo's "privacy vs performance" axis.
//!
//! The demo displays encryption and network costs per participant, with the
//! crypto time "based on actual average measures performed beforehand". The
//! [`CostModel`] turns operation counts (measured in real mode, synthesized
//! in simulated mode) into per-participant wall-clock using a
//! [`CryptoCostProfile`]. Per-participant gossip work is
//! population-independent, which is precisely why the paper's approach
//! scales.
//!
//! Synthesized counts are per ciphertext of the step's lane plan
//! ([`crate::rounds::lane_plan`]), the layout every real-crypto host runs:
//! [`synthesize_ops`] and [`synthesize_decrypt_ops`] take the plan's
//! ciphertext count, never the slot count.

use cs_crypto::CryptoCostProfile;
use cs_gossip::homomorphic_pushsum::HomomorphicOpCounts;
use cs_gossip::TrafficStats;
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

/// Cost summary of one protocol iteration.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct IterationCost {
    /// Gossip messages delivered.
    pub gossip_messages: u64,
    /// Gossip payload bytes.
    pub gossip_bytes: u64,
    /// Decryption messages.
    pub decrypt_messages: u64,
    /// Decryption bytes.
    pub decrypt_bytes: u64,
    /// Homomorphic op counts (gossip side).
    pub ops: HomomorphicOpCounts,
    /// Decryption op counts.
    pub decrypt_ops: DecryptionOps,
    /// Estimated crypto seconds per participant for this iteration.
    pub crypto_seconds_per_participant: f64,
    /// Network bytes per participant.
    pub bytes_per_participant: f64,
}

/// Converts op counts into time using a measured profile.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CostModel {
    profile: CryptoCostProfile,
}

impl CostModel {
    /// Creates a model from a (measured or nominal) profile.
    pub fn new(profile: CryptoCostProfile) -> Self {
        CostModel { profile }
    }

    /// Assembles an [`IterationCost`] from raw counters.
    pub fn iteration_cost(
        &self,
        ops: HomomorphicOpCounts,
        decrypt_ops: DecryptionOps,
        gossip_traffic: &TrafficStats,
        participants: usize,
    ) -> IterationCost {
        let p = &self.profile;
        let total_us = ops.encryptions as f64 * p.encrypt_us
            + ops.additions as f64 * p.add_us
            + ops.pow2_scalings as f64 * p.scalar_pow2_us
            + ops.rerandomizations as f64 * p.rerandomize_us
            + decrypt_ops.partial_decryptions as f64 * p.partial_decrypt_us
            + decrypt_ops.combinations as f64 * p.combine_us;
        let n = participants.max(1) as f64;
        IterationCost {
            gossip_messages: gossip_traffic.messages,
            gossip_bytes: gossip_traffic.bytes,
            decrypt_messages: decrypt_ops.messages,
            decrypt_bytes: decrypt_ops.bytes,
            ops,
            decrypt_ops,
            crypto_seconds_per_participant: total_us / n / 1e6,
            bytes_per_participant: (gossip_traffic.bytes + decrypt_ops.bytes) as f64 / n,
        }
    }
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

/// Decryption ops for one iteration under the committee rule: only the
/// live committee members decrypt. Member `i` has the `widths[i]`
/// ciphertexts its snapshot folds to ([`crate::rounds::StepCipher::width`];
/// unfolded, all of the plan's ciphertexts) threshold-decrypted — its own
/// partials and those of the `t − 1` members it asks — and each of the
/// `adopters` other participants fetches one member's release of
/// `release_values` values (`SlotLayout::total()`) instead.
pub fn synthesize_decrypt_ops(
    widths: &[usize],
    threshold: usize,
    ciphertext_bytes: usize,
    adopters: usize,
    release_values: usize,
) -> DecryptionOps {
    let d = widths.len() as u64;
    let s = widths.iter().sum::<usize>() as u64;
    let t = threshold as u64;
    let asked = t.saturating_sub(1);
    let a = adopters as u64;
    DecryptionOps {
        partial_decryptions: s * t,
        combinations: s,
        // A member's request to each of the t − 1 it asks and their
        // replies; an adopter's request and the release that answers it.
        messages: d * 2 * asked + a * 2,
        bytes: 2 * asked * s * ciphertext_bytes as u64 + a * 8 * release_values as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iteration_cost_aggregates_time() {
        let model = CostModel::new(CryptoCostProfile {
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
        });
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
        let mut traffic = TrafficStats::new();
        traffic.record_message(5000);
        let cost = model.iteration_cost(ops, dec, &traffic, 10);
        // (10*100 + 100*1 + 50*10 + 30*200 + 10*1000) µs / 10 / 1e6
        let want = (1000.0 + 100.0 + 500.0 + 6000.0 + 10_000.0) / 10.0 / 1e6;
        assert!((cost.crypto_seconds_per_participant - want).abs() < 1e-12);
        assert_eq!(cost.gossip_bytes, 5000);
        assert!((cost.bytes_per_participant - 600.0).abs() < 1e-9);
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
        // 10 members of a 3-of-10 committee, nobody else.
        let d = synthesize_decrypt_ops(&[8; 10], 3, 512, 0, 125);
        assert_eq!(d.partial_decryptions, 240);
        assert_eq!(d.combinations, 80);
        assert_eq!(d.messages, 40);
        assert_eq!(d.bytes, 10 * 2 * 2 * 8 * 512);
        // Folded members are charged for what they ask: Σ wᵢ·t; each of 40
        // adopters for one request and one 125-value release.
        let d = synthesize_decrypt_ops(&[8, 4, 3], 3, 512, 40, 125);
        assert_eq!(d.partial_decryptions, 45);
        assert_eq!(d.combinations, 15);
        assert_eq!(d.messages, 12 + 80);
        assert_eq!(d.bytes, 2 * 2 * 15 * 512 + 40 * 8 * 125);
    }
}
