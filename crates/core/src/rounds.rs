//! The distributed computation step (paper §II-B, step 2).
//!
//! Given every live participant's contribution vector (its data with its
//! noise share already folded in, see [`crate::noise::SlotLayout`]), a step:
//!
//! 2a–2c. gossips the encrypted perturbed means: one homomorphic push-sum
//!        over the one-block vector. The paper's separate noise gossip (2b)
//!        and slotwise merge (2c) would see the same mixing weights, and
//!        push-sum is linear, so the merge happened in cleartext at each
//!        contributor, before encryption;
//! 2d.    collaboratively decrypts each participant's perturbed estimate via
//!        threshold partial decryptions.
//!
//! This module decides the step's data format for every host
//! ([`lane_plan`], [`StepCipher`]) and runs the cycle simulator's step
//! ([`run_computation_step`]): the identical dataflow on plaintext
//! (`cs_gossip::pushsum`), its homomorphic work synthesized into the cost
//! counters per ciphertext of that same lane plan — the demo's own trick.
//! Real crypto runs on `cs_net`'s message-passing hosts.

use crate::config::{ChiaroscuroConfig, CryptoMode, CODEC_SCALE_BITS};
use crate::cost::{synthesize_decrypt_ops, synthesize_ops, DecryptionOps};
use crate::engine::{local_chunks, map_chunked};
use crate::error::ChiaroscuroError;
use crate::noise::SlotLayout;
use cs_bigint::BigUint;
use cs_crypto::threshold::{CombinePlanCache, ThresholdKeyPair};
use cs_crypto::{Ciphertext, FastEncryptor, FixedPointCodec, PackedCodec, PublicKey};
use cs_gossip::homomorphic_pushsum::{HePushSumNode, HomomorphicOpCounts};
use cs_gossip::pushsum::PushSumBlocks;
use cs_gossip::{FailureModel, Network, Overlay, TrafficStats};
use cs_obs::phase::{PhaseProfile, StepPhase};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

/// Crypto state shared by all iterations of a run.
pub enum CryptoContext {
    /// Real Damgård-Jurik pipeline.
    Real {
        /// Dealer output: public key + committee key shares.
        tkp: Box<ThresholdKeyPair>,
        /// Shared public key handle.
        pk: Arc<PublicKey>,
        /// Fixed-point codec.
        codec: FixedPointCodec,
        /// Fixed-base fast encryptor every step's [`StepCipher`] encrypts
        /// and re-randomizes with. Always `Some` from
        /// [`CryptoContext::from_config`]; an `Option` only because csbench
        /// destructures it as one. A context built by hand without it
        /// plans no step.
        fast: Option<Arc<FastEncryptor>>,
        /// Per-committee-subset combine plans (Lagrange exponents and the
        /// `(4Δ²)^{-1}` constant), shared across every step of the run.
        plans: Arc<CombinePlanCache>,
    },
    /// Plaintext pipeline with synthesized operation counts.
    Simulated {
        /// Ciphertext size used for byte accounting: `n^(s+1)`'s bytes.
        ciphertext_bytes: usize,
        /// The key shape's `modulus_bits · s`: the lane plan's `n^s` width.
        plaintext_bits: usize,
    },
}

impl CryptoContext {
    /// Builds the context from the configuration (runs the dealer in real
    /// mode).
    pub fn from_config(
        config: &ChiaroscuroConfig,
        rng: &mut StdRng,
    ) -> Result<Self, ChiaroscuroError> {
        match &config.crypto {
            CryptoMode::Real { keygen } => {
                let tkp = ThresholdKeyPair::generate(keygen, config.threshold, rng)?;
                let pk = Arc::new(tkp.public().clone());
                // The encryptor's generator draws from a *forked* stream,
                // so building it takes no word from the master RNG: the
                // initial centroids and the noise are what they would be
                // without it.
                let mut enc_rng = StdRng::seed_from_u64(config.seed ^ 0xFA57_E6C5_97B1_D003);
                let fast = Arc::new(FastEncryptor::new(pk.clone(), &mut enc_rng));
                Ok(CryptoContext::Real {
                    tkp: Box::new(tkp),
                    pk,
                    codec: FixedPointCodec::new(CODEC_SCALE_BITS),
                    fast: Some(fast),
                    plans: Arc::new(CombinePlanCache::new()),
                })
            }
            &CryptoMode::Simulated { modulus_bits, s } => Ok(CryptoContext::Simulated {
                ciphertext_bytes: (modulus_bits * (s as usize + 1)).div_ceil(8),
                plaintext_bits: modulus_bits * s as usize,
            }),
        }
    }

    /// The run's decryption [`committee`]; empty in simulated mode.
    pub fn committee(&self, population: usize) -> Vec<usize> {
        match self {
            CryptoContext::Real { tkp, .. } => committee(tkp.params().parties, population),
            CryptoContext::Simulated { .. } => Vec::new(),
        }
    }

    /// The ciphertext layout of one step over `population` nodes; `None` in
    /// simulated mode, where nothing is encrypted.
    pub fn step_cipher(
        &self,
        config: &ChiaroscuroConfig,
        layout: &SlotLayout,
        population: usize,
    ) -> Result<Option<StepCipher>, ChiaroscuroError> {
        match self {
            CryptoContext::Real { pk, fast, .. } => {
                let enc = fast.as_ref().ok_or_else(|| {
                    ChiaroscuroError::InvalidConfig("real crypto without its fast encryptor".into())
                })?;
                StepCipher::plan(config, pk, enc, layout, population).map(Some)
            }
            CryptoContext::Simulated { .. } => Ok(None),
        }
    }
}

/// The decryption committee of a `population`-node run keyed for `parties`
/// shares: the first `parties` nodes, in share order — the dealer hands
/// share `j` to node `j`.
pub fn committee(parties: usize, population: usize) -> Vec<usize> {
    (0..parties.min(population)).collect()
}

/// The smallest denominator cap a lane plan may enforce on a schedule of
/// `cycles` pushes per node over `population` nodes:
/// `2·cycles + bits(P)`.
///
/// A node's own splits raise its denominator exponent by one per push,
/// and an absorb inherits the larger exponent, so a chain of pushes
/// cascades it further wherever pushes are not in lock-step. Measured
/// uncapped (docs/benchmarks.md, "What the lanes carry"): the sharded
/// executor reaches exactly `cycles`, an 8-daemon cluster ≈ 1.8·`cycles`
/// at the median and up to 2.7× at the 99th percentile, the TCP loopback
/// host 2–3× at the median. The floor
/// covers the median of the asynchronous hosts with `bits(P)` to spare,
/// and the widening in [`lane_plan`] covers the tail: at the
/// benchmark's and the tests' shapes at most ≈ 1 % of pushes meet the cap
/// on any host.
///
/// One public rule of the two numbers every host knows before a step, so
/// the sharded executor, the TCP host and every `csnoded` of a cluster
/// plan the same lanes.
pub fn denominator_floor(cycles: usize, population: usize) -> u32 {
    let pop_bits = usize::BITS - population.leading_zeros();
    (cycles as u32).saturating_mul(2).saturating_add(pop_bits)
}

/// Plans the packed lane layout for one computation step under a
/// `plaintext_bits`-bit `n^s`: keyless, so the cycle simulator prices the
/// layout [`StepCipher::plan`] runs.
///
/// The envelope is **public** protocol metadata only — the population
/// size, the per-participant exchange budget, and a magnitude bound
/// derived from the configured `value_bound` plus the ε-derived noise
/// scale (64× the worst-iteration Laplace scale; a share exceeding that
/// has probability `≈ e^{-64}` and would surface as a typed
/// [`cs_crypto::CryptoError::LaneOverflow`], never a silent wrap). Nothing
/// data-dependent enters the plan, so the ciphertext count on the wire
/// leaks nothing about any participant's values, and every real-crypto
/// substrate — the `cs_net` hosts and every `csnoded` — derives the
/// identical layout from configuration alone.
///
/// The headroom holds a denominator exponent the protocol *enforces*: a
/// split-absorb chain would otherwise cascade a node's exponent past its
/// own split count with nothing to bound it, so a node at the cap keeps
/// its mass instead of pushing ([`HePushSumNode::try_split_push`]). Two
/// steps pick the lanes:
///
/// 1. **the fewest ciphertexts** — lanes as narrow as
///    [`denominator_floor`]`(cycles, P)` allows, and so as many per
///    ciphertext as fit;
/// 2. **the widest lane that keeps that count** ([`PackedCodec::widened`])
///    — every bit a ciphertext has to spare goes to the headroom, which
///    raises the cap ([`PackedCodec::denominator_cap`]) the step enforces
///    and leaves the decrypt-time fold more to stack into.
///
/// Where the floor's lane overflows 126 bits — `2·cycles + bits(P) +
/// bits(P+1) + value_bits > 126` — the plan is refused with the codec's
/// typed error.
pub fn lane_plan(
    config: &ChiaroscuroConfig,
    codec: &FixedPointCodec,
    layout: &SlotLayout,
    population: usize,
    plaintext_bits: usize,
) -> Result<PackedCodec, ChiaroscuroError> {
    // Worst per-iteration Laplace scale under the uniform budget split;
    // the 64× tail margin also absorbs moderately front-loaded strategies.
    let noise_scale =
        config.sensitivity(layout.series_len) * config.max_iterations as f64 / config.epsilon;
    let max_abs = config.value_bound.max(1.0) + 64.0 * noise_scale;
    let floor = denominator_floor(config.gossip_cycles, population);
    let narrowest = PackedCodec::plan(*codec, max_abs, population, floor, plaintext_bits)?;
    Ok(narrowest.widened(layout.total(), plaintext_bits))
}

/// [`lane_plan`] under `pk`'s plaintext modulus.
pub fn plan_packed_codec(
    config: &ChiaroscuroConfig,
    pk: &PublicKey,
    codec: &FixedPointCodec,
    layout: &SlotLayout,
    population: usize,
) -> Result<PackedCodec, ChiaroscuroError> {
    lane_plan(config, codec, layout, population, pk.n_s().bit_len())
}

/// How one computation step's contributions become ciphertexts and its
/// decrypted aggregates become values — the one place that data format is
/// decided: one [`PackedCodec`] lane vector per ciphertext, under the
/// [`FastEncryptor`]'s fixed-base encryption and re-randomization. Every
/// real-crypto substrate — the `cs_net` runtimes, a `csnoded` process —
/// plans one from public inputs alone (see
/// [`lane_plan`]), so the whole population agrees on it without
/// coordination. A schedule the lane plan cannot hold is refused here, as a
/// typed error, before any node exists. The plan's denominator cap travels
/// with it: every node built here enforces it.
#[derive(Clone)]
pub struct StepCipher {
    pk: Arc<PublicKey>,
    layout: SlotLayout,
    rerandomize: bool,
    codec: PackedCodec,
    /// The denominator exponent no node of the step splits past.
    denom_cap: u32,
    enc: Arc<FastEncryptor>,
}

impl StepCipher {
    /// Plans the step's lane layout around the run's fast encryptor.
    pub fn plan(
        config: &ChiaroscuroConfig,
        pk: &Arc<PublicKey>,
        enc: &Arc<FastEncryptor>,
        layout: &SlotLayout,
        population: usize,
    ) -> Result<Self, ChiaroscuroError> {
        let fp = FixedPointCodec::new(CODEC_SCALE_BITS);
        let codec = lane_plan(config, &fp, layout, population, pk.n_s().bit_len())?;
        Ok(StepCipher {
            pk: pk.clone(),
            layout: *layout,
            rerandomize: config.rerandomize,
            codec,
            denom_cap: codec.denominator_cap(population),
            enc: enc.clone(),
        })
    }

    /// The public key every ciphertext of the step is under.
    pub fn public_key(&self) -> &Arc<PublicKey> {
        &self.pk
    }

    /// The byte width every ciphertext and partial decryption of the step
    /// travels at on the wire: `byte_len(n^(s+1))`, a public constant of the
    /// run.
    pub fn key_width(&self) -> u16 {
        self.pk.ciphertext_bytes() as u16
    }

    /// Ciphertexts a node gossips and snapshots for decryption: one per
    /// lane group.
    pub fn ciphertexts(&self) -> usize {
        self.codec.ciphertexts_for(self.layout.total())
    }

    /// The lane plan's carry headroom in bits — the watermark the
    /// lane-headroom audit checks.
    pub fn lane_headroom_bits(&self) -> u64 {
        self.codec.headroom_bits() as u64
    }

    /// The denominator exponent every node of the step is capped at — the
    /// largest its lanes' headroom holds.
    pub fn denominator_cap(&self) -> u32 {
        self.denom_cap
    }

    /// Whether [`Self::node`] can encrypt `contribution`: every value
    /// finite and inside the planned lane range. What a host asks about a
    /// contribution it did not build itself, so one out-of-range value is a
    /// failed step instead of a panic on whichever thread constructs the
    /// node.
    pub fn admits(&self, contribution: &[f64]) -> Result<(), ChiaroscuroError> {
        self.codec.pack(contribution)?;
        Ok(())
    }

    /// Builds one participant's push-sum node: encrypts `contribution` at
    /// weight 1, or — for a participant down at step start — holds zero
    /// weight over *unbiased* trivial zeros (the lane bias must travel
    /// exactly with the weight mass). The node is capped at
    /// [`Self::denominator_cap`] and re-randomizes its forwards through the
    /// step's [`FastEncryptor`]. Returns the node and the number of real
    /// encryptions performed.
    pub fn node<R: Rng + ?Sized>(
        &self,
        contribution: Option<&[f64]>,
        rng: &mut R,
    ) -> Result<(HePushSumNode, u64), ChiaroscuroError> {
        let (cipher, weight, encryptions) = match contribution {
            None => (vec![self.pk.trivial_zero(); self.ciphertexts()], 0.0, 0),
            Some(values) => {
                let plaintexts = self.codec.pack(values)?;
                let cipher: Vec<Ciphertext> = plaintexts
                    .iter()
                    .map(|m| self.enc.encrypt(m, rng))
                    .collect();
                let encryptions = cipher.len() as u64;
                (cipher, 1.0, encryptions)
            }
        };
        let node =
            HePushSumNode::from_ciphertexts(self.pk.clone(), cipher, weight, self.rerandomize)
                .with_encryptor(self.enc.clone())
                .with_denominator_cap(self.denom_cap);
        Ok((node, encryptions))
    }

    /// What a node at push-sum state `(denom_exp, weight)` has decrypted in
    /// place of its `snapshot`: each run of [`cs_crypto::LaneFold::group`]
    /// ciphertexts stacked into the lanes' unused headroom of one,
    /// `C' = Π_m C_m^(2^(m·unit_bits))` — the decryption round costs per
    /// ciphertext, and most of what it would decrypt is
    /// planned-for-but-empty carry space. The group size is a function of
    /// metadata every push carries in clear, so the request's width reveals
    /// nothing new. Each scaling is counted in `ops.pow2_scalings`
    /// (`unit_bits` squarings; the product that joins it to the next
    /// ciphertext is one multiplication, not counted).
    pub fn fold(
        &self,
        snapshot: &[Ciphertext],
        denom_exp: u32,
        weight: f64,
        ops: &mut HomomorphicOpCounts,
    ) -> Vec<Ciphertext> {
        let fold = self.codec.fold(denom_exp, weight);
        let folded: Vec<Ciphertext> = snapshot
            .chunks(fold.group)
            .map(|run| {
                // Horner from the top of the lane down: every ciphertext
                // but the first is raised `m·unit_bits` in total.
                let (last, below) = run.split_last().expect("chunks are non-empty");
                below.iter().rev().fold(last.clone(), |acc, c| {
                    self.pk
                        .add(&self.pk.scalar_mul_pow2(&acc, fold.unit_bits), c)
                })
            })
            .collect();
        ops.pow2_scalings += (snapshot.len() - folded.len()) as u64;
        folded
    }

    /// Ciphertexts [`Self::fold`] leaves of a snapshot at push-sum state
    /// `(denom_exp, weight)` — the width of that node's decryption request
    /// and of every answer to it.
    pub fn width(&self, denom_exp: u32, weight: f64) -> usize {
        let group = self.codec.fold(denom_exp, weight).group;
        self.ciphertexts().div_ceil(group)
    }

    /// Whether a committee member serves a decryption request of `width`
    /// ciphertexts: any width a fold can produce — `⌈ciphertexts / g⌉` for
    /// an integer `g ≥ 1`. Which `g` is the requester's to know (it follows
    /// from its push-sum state); a width off that grid is nobody's.
    pub fn serves_width(&self, width: usize) -> bool {
        let full = self.ciphertexts();
        (1..=full).any(|g| full.div_ceil(g) == width)
    }

    /// Decodes a node's combined plaintexts — one per ciphertext of
    /// [`Self::fold`] at the same push-sum state `(denom_exp, weight)` —
    /// into its perturbed aggregates. A vector of any other width, or an
    /// aggregate that outran its planned headroom, is a typed error, never
    /// silently-wrapped values.
    pub fn decode(
        &self,
        raws: &[BigUint],
        denom_exp: u32,
        weight: f64,
    ) -> Result<PerturbedAggregates, ChiaroscuroError> {
        let values = self
            .codec
            .unfold_aggregate(raws, self.layout.total(), denom_exp, weight)?;
        Ok(assemble_aggregates(&self.layout, |slot| values[slot]))
    }
}

/// One participant's decrypted, perturbed aggregate estimates.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PerturbedAggregates {
    /// Per-cluster perturbed sums (`k × series_len`), noise already folded
    /// in.
    pub sums: Vec<Vec<f64>>,
    /// Per-cluster perturbed counts.
    pub counts: Vec<f64>,
}

/// Arranges final per-slot perturbed values into per-cluster sums and
/// counts. `slot_value(i)` must return the perturbed value of slot `i`
/// (push-sum weight already divided out).
///
/// Shared by every execution substrate — the plaintext simulator,
/// [`StepCipher::decode`] and the `cs_net` message-passing runtime's
/// plaintext path — so the slot→cluster bookkeeping exists exactly once.
pub fn assemble_aggregates(
    layout: &SlotLayout,
    mut slot_value: impl FnMut(usize) -> f64,
) -> PerturbedAggregates {
    let mut sums = vec![vec![0.0; layout.series_len]; layout.k];
    let mut counts = vec![0.0; layout.k];
    for slot in 0..layout.total() {
        let value = slot_value(slot);
        let j = slot / layout.per_cluster();
        let d = slot % layout.per_cluster();
        if d == layout.series_len {
            counts[j] = value;
        } else {
            sums[j][d] = value;
        }
    }
    PerturbedAggregates { sums, counts }
}

/// Result of one computation step.
#[derive(Clone, Debug)]
pub struct ComputationOutcome {
    /// Per-participant estimates (`None` for participants that were down or
    /// whose push-sum weight vanished).
    pub estimates: Vec<Option<PerturbedAggregates>>,
    /// Homomorphic work performed (or synthesized).
    pub ops: HomomorphicOpCounts,
    /// Decryption work performed (or synthesized).
    pub decrypt_ops: DecryptionOps,
    /// Gossip traffic of this step.
    pub traffic: TrafficStats,
    /// Pushes skipped because the pushing node sat at the step's
    /// denominator cap (`gossip.pushes_capped`): it kept its mass for that
    /// tick. 0 in simulated mode, which has no lanes.
    pub pushes_capped: u64,
    /// Live participants when the step ended.
    pub alive_after: Vec<bool>,
    /// Population-summed per-phase time (encrypt / gossip / decrypt-share /
    /// combine / unpack). A measurement side channel: estimates, traffic
    /// and op counts never depend on it, so same-seed runs stay
    /// deterministic with profiling on.
    pub phases: PhaseProfile,
}

/// Runs the computation step on the cycle simulator: the paper's
/// experiment shape, plaintext push-sum with the homomorphic work
/// synthesized into the cost counters per ciphertext of the step's
/// [`lane_plan`]. A shape the plan refuses fails the step as on a real host.
///
/// `contributions[i]` is `Some(vector)` for participants alive at the start
/// of the iteration and `None` for crashed ones: they hold zero weight and
/// sit the step out. Nothing else fails — no message is lost, no one crashes
/// mid-step; churn and loss are scripted on the `cs_net` hosts.
///
/// The cycle simulator runs simulated crypto only: a real-crypto context is
/// refused with [`ChiaroscuroError::InvalidConfig`]. Real crypto runs in
/// process on `cs_net`'s sharded executor, through
/// `Engine::run_with_backend(&mut NetBackend::sharded(..))`.
pub fn run_computation_step(
    config: &ChiaroscuroConfig,
    layout: &SlotLayout,
    contributions: &[Option<Vec<f64>>],
    crypto: &CryptoContext,
    step_seed: u64,
) -> Result<ComputationOutcome, ChiaroscuroError> {
    let population = contributions.len();
    simulate_step(
        config,
        layout,
        contributions,
        crypto,
        step_seed,
        local_chunks(population),
        PushSumBlocks::width_for(population),
    )
}

/// [`run_computation_step`]'s simulation on `threads` threads, over slot
/// blocks `width` columns wide: the network draws the whole step's
/// exchanges, then [`PushSumBlocks`] replays them block by block. Neither
/// knob moves a bit of the outcome.
pub(crate) fn simulate_step(
    config: &ChiaroscuroConfig,
    layout: &SlotLayout,
    contributions: &[Option<Vec<f64>>],
    crypto: &CryptoContext,
    step_seed: u64,
    threads: usize,
    width: usize,
) -> Result<ComputationOutcome, ChiaroscuroError> {
    let &CryptoContext::Simulated {
        ciphertext_bytes,
        plaintext_bits,
    } = crypto
    else {
        return Err(ChiaroscuroError::InvalidConfig(
            "the cycle simulator runs simulated crypto only; run real crypto with \
             run_with_backend(&mut NetBackend::sharded(..))"
                .into(),
        ));
    };
    let dim = layout.total();
    let fp = FixedPointCodec::new(CODEC_SCALE_BITS);
    let ciphertexts =
        lane_plan(config, &fp, layout, contributions.len(), plaintext_bits)?.ciphertexts_for(dim);
    let mut phases = PhaseProfile::default();
    // The push-sum state lives in the blocks; the network only draws who
    // meets whom.
    let mut net = Network::new(
        vec![(); contributions.len()],
        Overlay::Full,
        FailureModel::none(),
        step_seed,
    );
    for (i, c) in contributions.iter().enumerate() {
        if c.is_none() {
            net.set_alive(i, false);
        }
    }
    let absent = vec![0.0; dim];
    let lay_out = || {
        let started = Instant::now();
        let rows = contributions.iter().map(|c| match c {
            Some(values) => (values.as_slice(), 1.0),
            None => (absent.as_slice(), 0.0),
        });
        let blocks = PushSumBlocks::new(dim, width, rows);
        (blocks, started.elapsed().as_nanos() as u64)
    };
    // The draw and the layout are independent: with a second thread, the
    // layout runs beside the draw, off the step's critical path.
    let (schedule, drawn_ns, (mut blocks, laid_ns)) = std::thread::scope(|scope| {
        let laid = (threads > 1).then(|| scope.spawn(lay_out));
        let started = Instant::now();
        let schedule = net.draw_cycles(config.gossip_cycles, ciphertexts * ciphertext_bytes);
        let drawn_ns = started.elapsed().as_nanos() as u64;
        let laid = laid.map_or_else(lay_out, |h| h.join().expect("a layout does not panic"));
        (schedule, drawn_ns, laid)
    });
    let replay_ns = blocks.replay(&schedule, threads);
    phases.add(StepPhase::Gossip, drawn_ns + laid_ns + replay_ns);

    let mut alive_after: Vec<bool> = (0..net.len()).map(|i| net.is_alive(i)).collect();
    let traffic = net.traffic().clone();

    let (estimates, combine_ns) = map_chunked(&mut alive_after, threads, |i, &mut alive| {
        if !alive {
            return None;
        }
        let est = blocks.estimate(i)?;
        Some(assemble_aggregates(layout, |slot| est[slot]))
    });
    phases.add(StepPhase::Combine, combine_ns);
    // Priced by the leader rule the real hosts run: the lowest-id live
    // member of the committee — the first `parties` nodes — decrypts its
    // own snapshot, unfolded (the fold reads a node's denominator exponent,
    // which the plaintext replay has not); every other node that ends with
    // an estimate adopts a release.
    let parties = config.threshold.parties.min(estimates.len());
    let leader = estimates[..parties].iter().any(Option::is_some);
    let adopters = estimates.iter().flatten().count() - usize::from(leader);

    let participants = contributions.iter().filter(|c| c.is_some()).count();
    let ops = synthesize_ops(
        ciphertexts,
        participants,
        traffic.messages,
        config.rerandomize,
    );
    let decrypt_ops = synthesize_decrypt_ops(
        leader.then_some(ciphertexts),
        config.threshold.threshold,
        ciphertext_bytes,
        adopters,
        dim,
    );

    Ok(ComputationOutcome {
        estimates,
        ops,
        decrypt_ops,
        traffic,
        pushes_capped: 0,
        alive_after,
        phases,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::contribution_vector;
    use cs_dp::NoiseShareGenerator;
    use rand::SeedableRng;

    fn layout() -> SlotLayout {
        SlotLayout {
            k: 2,
            series_len: 3,
        }
    }

    /// Builds contributions for a tiny 2-cluster population with negligible
    /// noise so estimates are checkable.
    fn tiny_contributions(n: usize, rng: &mut StdRng) -> Vec<Option<Vec<f64>>> {
        let layout = layout();
        let shares = NoiseShareGenerator::new(n, 1e-9);
        (0..n)
            .map(|i| {
                let series = if i % 2 == 0 {
                    [1.0, 2.0, 3.0]
                } else {
                    [10.0, 10.0, 10.0]
                };
                Some(contribution_vector(&layout, &series, i % 2, &shares, rng))
            })
            .collect()
    }

    fn check_estimates(outcome: &ComputationOutcome, n: usize) {
        let produced = outcome.estimates.iter().flatten().count();
        assert!(produced > n / 2, "most nodes should produce estimates");
        for est in outcome.estimates.iter().flatten() {
            // Ratio sums/counts recovers the cluster means: cluster 0 →
            // [1,2,3], cluster 1 → [10,10,10]. Gossip error tolerance wide.
            for d in 0..3 {
                let mean0 = est.sums[0][d] / est.counts[0];
                let mean1 = est.sums[1][d] / est.counts[1];
                let want0 = [1.0, 2.0, 3.0][d];
                assert!(
                    (mean0 - want0).abs() < 0.3,
                    "cluster0 dim{d}: {mean0} vs {want0}"
                );
                assert!((mean1 - 10.0).abs() < 0.5, "cluster1 dim{d}: {mean1}");
            }
        }
    }

    #[test]
    fn simulated_step_recovers_means() {
        let mut rng = StdRng::seed_from_u64(1);
        let config = ChiaroscuroConfig {
            k: 2,
            gossip_cycles: 30,
            ..ChiaroscuroConfig::demo_simulated()
        };
        let contributions = tiny_contributions(16, &mut rng);
        let crypto = CryptoContext::from_config(&config, &mut rng).unwrap();
        let outcome = run_computation_step(&config, &layout(), &contributions, &crypto, 7).unwrap();
        check_estimates(&outcome, 16);
        assert!(outcome.ops.encryptions > 0, "synthesized encryption counts");
        assert!(outcome.traffic.messages > 0);
    }

    /// The cycle simulator prices per ciphertext of the step's lane plan;
    /// the leader's snapshot — the lowest-id live committee member's — is
    /// decrypted unfolded, and every other participant adopts a release of
    /// the layout's values.
    #[test]
    fn a_simulated_step_is_priced_at_the_lane_plan() {
        let config = ChiaroscuroConfig::demo_simulated();
        let layout = SlotLayout {
            k: 4,
            series_len: 24,
        };
        let mut contributions = vec![Some(vec![0.5; layout.total()]); 40];
        contributions[9] = None;
        let crypto = CryptoContext::from_config(&config, &mut StdRng::seed_from_u64(3)).unwrap();
        let CryptoContext::Simulated {
            ciphertext_bytes,
            plaintext_bits,
        } = crypto
        else {
            panic!("simulated mode");
        };
        // The demo's 2 048-bit, s = 1 key shape: `n²`'s 512 B a ciphertext
        // and a 2 048-bit plan, what `sim_cer_4k`'s byte accounting rests on.
        assert_eq!((ciphertext_bytes, plaintext_bits), (512, 2048));
        let fp = FixedPointCodec::new(CODEC_SCALE_BITS);
        let ciphertexts = lane_plan(&config, &fp, &layout, 40, plaintext_bits)
            .unwrap()
            .ciphertexts_for(layout.total());
        assert!(1 < ciphertexts && ciphertexts < layout.total());

        let outcome = run_computation_step(&config, &layout, &contributions, &crypto, 5).unwrap();
        let (traffic, estimates) = (&outcome.traffic, outcome.estimates.iter().flatten().count());
        assert!(traffic.messages > 0);
        // The demo's committee is the first 16 nodes; node 9 sits the step
        // out, so node 0 leads and the other 38 participants adopt.
        assert_eq!((config.threshold.parties, estimates), (16, 39));
        assert_eq!(outcome.ops.encryptions, 39 * ciphertexts as u64);
        let push_bytes = (ciphertexts * ciphertext_bytes) as u64;
        assert_eq!(traffic.bytes, traffic.messages * push_bytes);
        let t = config.threshold.threshold;
        let priced =
            synthesize_decrypt_ops(Some(ciphertexts), t, ciphertext_bytes, 38, layout.total());
        assert_eq!(outcome.decrypt_ops, priced);
        assert_eq!(priced.partial_decryptions, (ciphertexts * t) as u64);
        let asked = (t - 1) * ciphertexts * ciphertext_bytes;
        let release = 8 * layout.total();
        assert_eq!(priced.bytes, (2 * asked + 38 * release) as u64);
    }

    /// The decrypt-time fold through a real threshold decryption: a node's
    /// snapshot decrypted ciphertext by ciphertext and unpacked the old way,
    /// and the same snapshot folded, decrypted and decoded, are the same
    /// `PerturbedAggregates` bit for bit — at every depth of a gossip that
    /// leaves the three nodes at different denominators and weights — from
    /// fewer ciphertexts, refused at any other width.
    #[test]
    fn folded_threshold_decryption_recovers_the_unfolded_aggregates() {
        let mut rng = StdRng::seed_from_u64(51);
        let config = ChiaroscuroConfig {
            k: 2,
            ..ChiaroscuroConfig::test_real()
        };
        let layout = SlotLayout {
            k: 2,
            series_len: 24,
        };
        let crypto = CryptoContext::from_config(&config, &mut rng).unwrap();
        let CryptoContext::Real { tkp, plans, .. } = &crypto else {
            panic!("real mode");
        };
        let cipher = crypto.step_cipher(&config, &layout, 3).unwrap().unwrap();
        let codec = &cipher.codec;
        let decrypt = |cts: &[Ciphertext]| {
            // Members 2 and 0 answer: each partial decryption of every
            // ciphertext, grouped per ciphertext for the batched combine.
            let groups: Vec<Vec<_>> = (cts.iter())
                .map(|c| [2, 0].map(|m| tkp.shares()[m].partial_decrypt(c)).to_vec())
                .collect();
            plans
                .combine_batch(cipher.public_key(), config.threshold, tkp.delta(), &groups)
                .unwrap()
        };
        let mut nodes: Vec<HePushSumNode> = (0..3)
            .map(|i| {
                let values: Vec<f64> = (0..layout.total())
                    .map(|s| ((s * 7 + i * 3) % 17) as f64 * 0.37 - 3.0)
                    .collect();
                cipher.node(Some(&values), &mut rng).unwrap().0
            })
            .collect();
        let bits = |a: &PerturbedAggregates| -> Vec<u64> {
            let values = a.sums.iter().flatten().chain(&a.counts);
            values.map(|v| v.to_bits()).collect()
        };
        let mut folded_any = false;
        for (from, to) in [(0, 1), (0, 1), (0, 2), (1, 2), (2, 0), (1, 0), (1, 0)] {
            let push = nodes[from].split_push(&mut rng);
            nodes[to].absorb(&push);
            for node in &nodes {
                let (denom, weight) = (node.denominator_exp(), node.weight());
                let unfolded = decrypt(node.ciphertexts());
                let values = codec
                    .unpack_aggregate(&unfolded, layout.total(), denom, weight, 1)
                    .unwrap();
                let want = assemble_aggregates(&layout, |slot| values[slot]);

                let mut ops = HomomorphicOpCounts::default();
                let snapshot = cipher.fold(node.ciphertexts(), denom, weight, &mut ops);
                assert_eq!(snapshot.len(), cipher.width(denom, weight));
                assert!(cipher.serves_width(snapshot.len()));
                assert_eq!(
                    ops.pow2_scalings as usize,
                    cipher.ciphertexts() - snapshot.len()
                );
                folded_any |= snapshot.len() < cipher.ciphertexts();
                let got = cipher.decode(&decrypt(&snapshot), denom, weight).unwrap();
                assert_eq!(
                    bits(&got),
                    bits(&want),
                    "denominator {denom}, weight {weight}"
                );
                if snapshot.len() < cipher.ciphertexts() {
                    assert!(cipher.decode(&unfolded, denom, weight).is_err());
                }
            }
        }
        assert!(folded_any, "a fresh snapshot leaves headroom to fold into");
    }

    #[test]
    fn lane_plan_is_feasible_on_the_default_real_config() {
        // The demo-scale exchange budget on test-size keys plans at every
        // population, and every plan's cap holds the floor.
        let mut rng = StdRng::seed_from_u64(31);
        let config = ChiaroscuroConfig {
            gossip_cycles: 30, // demo-scale exchange budget on test-size keys
            ..ChiaroscuroConfig::test_real()
        };
        let crypto = CryptoContext::from_config(&config, &mut rng).unwrap();
        let CryptoContext::Real { pk, codec, .. } = &crypto else {
            panic!("real mode");
        };
        for population in [2usize, 8, 64, 1000] {
            let plan = plan_packed_codec(&config, pk, codec, &layout(), population)
                .unwrap_or_else(|e| panic!("population {population}: {e}"));
            assert!(plan.lanes() >= 1);
            let floor = denominator_floor(config.gossip_cycles, population);
            assert!(
                plan.denominator_cap(population) >= floor,
                "population {population}: cap {} under the floor {floor}",
                plan.denominator_cap(population)
            );
        }

        // Where the plan stops. A lane holds at most 126 bits and the
        // floor's lane is `value_bits + bits(P+1) + 2·cycles + bits(P)` of
        // them, so a schedule plans while `cycles ≤ (126 − value_bits −
        // bits(P+1) − bits(P)) / 2`: at the demo's 24-point series (36
        // value bits) and P = 8, 41 cycles. The 42nd is a typed refusal,
        // never a lane that could wrap.
        let demo_series = SlotLayout {
            k: 2,
            series_len: 24,
        };
        for (cycles, plans) in [(41, true), (42, false)] {
            let config = ChiaroscuroConfig {
                gossip_cycles: cycles,
                ..config.clone()
            };
            match plan_packed_codec(&config, pk, codec, &demo_series, 8) {
                Ok(plan) => {
                    assert!(plans, "{cycles} cycles planned");
                    assert_eq!(plan.value_bits(), 36);
                }
                Err(ChiaroscuroError::Crypto(cs_crypto::CryptoError::InvalidParameters(_))) => {
                    assert!(!plans, "{cycles} cycles refused")
                }
                Err(e) => panic!("{cycles} cycles: untyped refusal {e}"),
            }
        }
    }

    #[test]
    fn out_of_envelope_contributions_are_typed_errors() {
        // 1e30 overflows a planned lane but not a 256-bit plaintext; 1e300
        // overflows both. Neither may reach a panic.
        for value in [1e30, 1e300] {
            let mut rng = StdRng::seed_from_u64(41);
            let config = ChiaroscuroConfig {
                k: 2,
                gossip_cycles: 4,
                ..ChiaroscuroConfig::test_real()
            };
            let mut contributions = tiny_contributions(4, &mut rng);
            contributions[1].as_mut().unwrap()[5] = value;
            let crypto = CryptoContext::from_config(&config, &mut rng).unwrap();
            let cipher = crypto.step_cipher(&config, &layout(), 4).unwrap().unwrap();
            let verdict = cipher.admits(contributions[1].as_ref().unwrap());
            assert!(verdict.is_err(), "{value:e}");
            let node = cipher.node(contributions[1].as_deref(), &mut rng);
            assert!(node.is_err(), "{value:e}");
        }
    }

    #[test]
    fn dead_participants_get_no_estimates_and_contribute_nothing() {
        let mut rng = StdRng::seed_from_u64(6);
        let config = ChiaroscuroConfig {
            k: 2,
            gossip_cycles: 25,
            ..ChiaroscuroConfig::demo_simulated()
        };
        let mut contributions = tiny_contributions(12, &mut rng);
        contributions[3] = None;
        contributions[7] = None;
        let crypto = CryptoContext::from_config(&config, &mut rng).unwrap();
        let outcome =
            run_computation_step(&config, &layout(), &contributions, &crypto, 11).unwrap();
        assert!(outcome.estimates[3].is_none());
        assert!(outcome.estimates[7].is_none());
        // Counts must reflect 10 contributors, not 12.
        let est = outcome.estimates[0].as_ref().unwrap();
        let total: f64 = est.counts.iter().sum();
        assert!((total - 1.0).abs() < 0.1, "normalized count sum {total}");
    }
}
