//! Step-phase profiling: where one Chiaroscuro computation step spends
//! its time.
//!
//! The paper's computation step decomposes into five phases with very
//! different cost profiles — contribution **encrypt**ion (fixed-base
//! exponentiations, once per node per step), **gossip** (the message work:
//! push-sum splits and absorbs — homomorphic in real-crypto mode — and
//! whatever the host spends moving and handling the messages), the
//! committee's **decrypt-share** service (one partial decryption per
//! requested ciphertext), **combine** (Lagrange recombination of partial
//! decryptions), and **unpack** (the requester's lane work: stacking a
//! snapshot's lanes before the round, extracting them after). A
//! [`PhaseProfile`] holds per-phase nanosecond totals; the sans-IO protocol
//! node accumulates one, every substrate ships it home in its report, and
//! the per-node profiles sum ([`PhaseProfile::plus`]) into the step outcome
//! that `bench_summary --profile` emits.
//!
//! The node times its crypto phases itself, a few clock reads per
//! operation that costs micro- to milliseconds. Nothing reads a clock per
//! message: **gossip is booked by the host** — by the wall-clock pump once
//! per turn, from the frames' arrival to the end of the node's poll, net of
//! what the node's own timers booked meanwhile; by the sharded executor
//! once per shard, as the workers' busy time in that shard's windows less
//! the node-timed phases inside them.
//!
//! Profiles measure *wall-clock*, which is a side channel: nothing
//! protocol-visible reads them, so enabling profiling cannot perturb the
//! sharded executor's byte-identical determinism (locked by
//! `sharded_e2e`).

use serde::{Deserialize, Serialize};

/// The five phases of one computation step.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StepPhase {
    /// Contribution encryption at node construction.
    Encrypt,
    /// The message work — push-sum splits and absorbs (homomorphic in
    /// real-crypto mode), decoding, routing — booked by the host, not the
    /// node: per turn by the wall-clock pump, per shard by the executor,
    /// around the whole cycle loop by the cycle simulator.
    Gossip,
    /// Serving partial decryptions as a committee member.
    DecryptShare,
    /// The Lagrange combine of partials.
    Combine,
    /// Lane stacking (before the decryption round) and extraction (after
    /// it) of a packed aggregate.
    Unpack,
}

impl StepPhase {
    /// Stable lowercase name (metric keys, JSON fields).
    pub fn name(self) -> &'static str {
        match self {
            StepPhase::Encrypt => "encrypt",
            StepPhase::Gossip => "gossip",
            StepPhase::DecryptShare => "decrypt_share",
            StepPhase::Combine => "combine",
            StepPhase::Unpack => "unpack",
        }
    }

    /// All phases, in step order.
    pub const ALL: [StepPhase; 5] = [
        StepPhase::Encrypt,
        StepPhase::Gossip,
        StepPhase::DecryptShare,
        StepPhase::Combine,
        StepPhase::Unpack,
    ];
}

/// Per-phase time totals (nanoseconds) for one node or, summed, for one
/// whole step.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseProfile {
    /// Contribution encryption.
    pub encrypt_ns: u64,
    /// Host-booked message work (see [`StepPhase::Gossip`]).
    pub gossip_ns: u64,
    /// Committee partial-decryption service.
    pub decrypt_share_ns: u64,
    /// Noise fold + Lagrange combine.
    pub combine_ns: u64,
    /// Packed-lane aggregate stacking and extraction.
    pub unpack_ns: u64,
}

impl PhaseProfile {
    /// Adds `ns` to one phase's total.
    pub fn add(&mut self, phase: StepPhase, ns: u64) {
        *self.slot_mut(phase) += ns;
    }

    /// One phase's total.
    pub fn get(&self, phase: StepPhase) -> u64 {
        match phase {
            StepPhase::Encrypt => self.encrypt_ns,
            StepPhase::Gossip => self.gossip_ns,
            StepPhase::DecryptShare => self.decrypt_share_ns,
            StepPhase::Combine => self.combine_ns,
            StepPhase::Unpack => self.unpack_ns,
        }
    }

    fn slot_mut(&mut self, phase: StepPhase) -> &mut u64 {
        match phase {
            StepPhase::Encrypt => &mut self.encrypt_ns,
            StepPhase::Gossip => &mut self.gossip_ns,
            StepPhase::DecryptShare => &mut self.decrypt_share_ns,
            StepPhase::Combine => &mut self.combine_ns,
            StepPhase::Unpack => &mut self.unpack_ns,
        }
    }

    /// Element-wise sum — fold per-node profiles into a step profile.
    pub fn plus(&self, other: &PhaseProfile) -> PhaseProfile {
        PhaseProfile {
            encrypt_ns: self.encrypt_ns + other.encrypt_ns,
            gossip_ns: self.gossip_ns + other.gossip_ns,
            decrypt_share_ns: self.decrypt_share_ns + other.decrypt_share_ns,
            combine_ns: self.combine_ns + other.combine_ns,
            unpack_ns: self.unpack_ns + other.unpack_ns,
        }
    }

    /// Time across all phases.
    pub fn total_ns(&self) -> u64 {
        StepPhase::ALL.iter().map(|&p| self.get(p)).sum()
    }
}

/// Times a closure and books it into `profile` under `phase`.
pub fn timed<T>(profile: &mut PhaseProfile, phase: StepPhase, f: impl FnOnce() -> T) -> T {
    let start = std::time::Instant::now();
    let out = f();
    profile.add(phase, start.elapsed().as_nanos() as u64);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_sum_per_phase() {
        let mut a = PhaseProfile::default();
        a.add(StepPhase::Encrypt, 10);
        a.add(StepPhase::Gossip, 20);
        let mut b = PhaseProfile::default();
        b.add(StepPhase::Gossip, 5);
        b.add(StepPhase::Unpack, 1);
        let sum = a.plus(&b);
        assert_eq!(sum.encrypt_ns, 10);
        assert_eq!(sum.gossip_ns, 25);
        assert_eq!(sum.unpack_ns, 1);
        assert_eq!(sum.total_ns(), 36);
    }

    #[test]
    fn timed_books_into_the_right_phase() {
        let mut p = PhaseProfile::default();
        let out = timed(&mut p, StepPhase::Combine, || 7);
        assert_eq!(out, 7);
        assert_eq!(p.decrypt_share_ns, 0);
        // Duration is environment-dependent; only the slot choice is
        // asserted (a zero-length closure may book 0 ns).
        assert_eq!(p.total_ns(), p.combine_ns);
    }

    #[test]
    fn profile_roundtrips_through_serde_json() {
        let mut p = PhaseProfile::default();
        for (i, phase) in StepPhase::ALL.into_iter().enumerate() {
            p.add(phase, (i as u64 + 1) * 100);
        }
        let json = serde_json::to_string(&p).unwrap();
        let back: PhaseProfile = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p);
    }
}
