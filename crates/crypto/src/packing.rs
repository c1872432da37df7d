//! Ciphertext packing: many fixed-point buckets in one Damgård-Jurik
//! plaintext.
//!
//! The plaintext space `Z_{n^s}` is thousands of bits wide, yet the
//! protocol's per-bucket payloads (one histogram/centroid coordinate each)
//! need only a few dozen bits — encrypting one bucket per ciphertext wastes
//! almost the entire space and pays one full exponentiation per bucket.
//! [`PackedCodec`] lays out `B` buckets in disjoint *lanes* of the
//! plaintext, so a single ciphertext carries a whole contribution vector
//! and every homomorphic addition sums all lanes at once.
//!
//! ## Lane layout
//!
//! ```text
//! plaintext = Σ_j  lane_j · 2^(j·lane_bits),     lane_bits = value + headroom
//!
//!   msb ──────────────────────────────────────────────────── lsb
//!   │ lane_{L-1} │ … │   lane_1   │           lane_0          │
//!   │            │   │            │ headroom bits │ value bits│
//! ```
//!
//! Each lane stores a **biased** value, `x + bias` with
//! `bias = 2^(value_bits-1)`, so lanes are always non-negative and a
//! negative bucket can never borrow from its neighbour. Under the
//! homomorphic operations the protocol uses — lane-wise addition and
//! multiplication by powers of two (the push-sum denominator alignment) —
//! the bias mass travels *exactly* with the push-sum weight: an aggregate
//! lane holds `Σ_i c_i·(x_i + bias)` where the integer coefficients satisfy
//! `Σ_i c_i = weight · 2^denom_exp`, both of which are cleartext protocol
//! metadata. Unpacking therefore subtracts `weight · 2^denom_exp · bias`
//! and rescales — no secret bookkeeping.
//!
//! ## Headroom arithmetic
//!
//! A lane must absorb the largest possible aggregate without carrying into
//! its neighbour. With population `≤ P`, denominator exponents `≤ K`, and
//! one biased vector per contribution (a contribution is one vector, its
//! noise share folded in before packing), an aggregate's lane sum is a
//! combination `Σ_i c_i·(x_i + bias)` whose coefficients sum to the carry
//! multiplier `weight · 2^denom_exp ≤ P · 2^K`:
//!
//! ```text
//! lane_sum < P · 2^K · 2^value_bits < 2^(⌈log₂(P+1)⌉ + K + value_bits)
//! ```
//!
//! so `headroom_bits = ⌈log₂(P+1)⌉ + K` suffices, and
//! [`PackedCodec::plan`] sizes lanes that way. `K` is a rule the protocol
//! enforces, not a forecast: a push-sum node whose denominator exponent
//! has reached the cap keeps its mass instead of splitting it, so no
//! aggregate ever carries more than [`PackedCodec::denominator_cap`] — the
//! `K` a plan's headroom affords. [`PackedCodec::widened`] spends what a
//! ciphertext has left over on that cap: the same ciphertext count, fewer
//! and wider lanes. Saturation is never silent all the same: packing a
//! value that does not fit returns [`CryptoError::LaneOverflow`], and
//! unpacking an aggregate whose carry multiplier exceeds the planned
//! headroom returns [`CryptoError::LaneHeadroomExceeded`].
//!
//! ## Decrypt-time fold
//!
//! The headroom is sized for the cap; the aggregate a node actually ends
//! with is usually below it, and by how much
//! is public: every lane sum is `< 2^value_bits · weight · 2^denom_exp`, a
//! product of the plan and of push-sum metadata every push carries in
//! clear. So before the threshold decryption — whose cost is per
//! ciphertext, whatever the plaintext holds — a requester can stack `g`
//! ciphertexts into the unused headroom of one:
//!
//! ```text
//! u = value_bits + bits(weight · 2^denom_exp) + 1     every lane sum < 2^u
//! g = lane_bits / u                                   (1 = fold nothing)
//! C' = Π_m C_m^(2^(m·u))        m-th ciphertext of each run of g
//!
//!   │        lane_j of C'  (lane_bits)           │
//!   │ … │ lane_j of C_2 │ lane_j of C_1 │ lane_j of C_0 │
//!   │   │    u bits     │    u bits     │    u bits     │
//! ```
//!
//! [`PackedCodec::fold`] is that rule and [`PackedCodec::unfold_aggregate`]
//! reads the stacked lanes back. The fold never asks more of a lane than
//! the plan gave it (`g·u ≤ lane_bits`), so headroom planning is untouched,
//! and an aggregate that outran its headroom folds to itself and meets the
//! same typed error as before.

use crate::{CryptoError, FixedPointCodec};
use cs_bigint::BigUint;
use serde::{Deserialize, Serialize};

/// Packs fixed-point buckets into disjoint lanes of `Z_{n^s}`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PackedCodec {
    fp: FixedPointCodec,
    value_bits: u32,
    headroom_bits: u32,
    lanes: usize,
}

/// How an aggregate's ciphertexts stack for decryption — the value of
/// [`PackedCodec::fold`], a function of cleartext push-sum metadata.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LaneFold {
    /// Consecutive ciphertexts folded into one (`g ≥ 1`; 1 folds nothing).
    pub group: usize,
    /// Bits each stacked lane sum occupies (`u`): ciphertext `m` of a group
    /// is scaled by `2^(m·unit_bits)`.
    pub unit_bits: u32,
}

/// Number of bits needed to represent `v` (0 for 0).
fn bits_for(v: u128) -> u32 {
    128 - v.leading_zeros()
}

impl PackedCodec {
    /// Plans a lane layout for the given protocol envelope.
    ///
    /// * `fp` — the per-bucket fixed-point resolution;
    /// * `max_abs_value` — public bound on any single bucket's magnitude;
    /// * `max_population` — upper bound on the aggregating population `P`;
    /// * `max_denom_exp` — the push-sum denominator exponent `K` the
    ///   protocol caps aggregates at;
    /// * `plaintext_bits` — the bit length of the plaintext modulus `n^s`
    ///   the lanes must fit below; nothing else of the key enters a plan.
    ///
    /// Errors with [`CryptoError::InvalidParameters`] when even a single
    /// lane does not fit `n^s`, or a lane would exceed 126 bits.
    pub fn plan(
        fp: FixedPointCodec,
        max_abs_value: f64,
        max_population: usize,
        max_denom_exp: u32,
        plaintext_bits: usize,
    ) -> Result<PackedCodec, CryptoError> {
        if !(max_abs_value.is_finite() && max_abs_value >= 0.0) {
            return Err(CryptoError::InvalidParameters(
                "packed value bound must be finite and non-negative",
            ));
        }
        let max_fixed = (max_abs_value * fp.scale()).ceil();
        if max_fixed >= 2f64.powi(100) {
            return Err(CryptoError::InvalidParameters(
                "packed value bound too large for lane arithmetic",
            ));
        }
        // bias = 2^(value_bits-1) must strictly exceed the largest encoded
        // magnitude (+1 rounding slack).
        let value_bits = bits_for(max_fixed as u128 + 1) + 2;
        let headroom_bits = bits_for(max_population as u128 + 1) + max_denom_exp;
        let lane_bits = (value_bits + headroom_bits) as usize;
        if value_bits + headroom_bits > 126 {
            return Err(CryptoError::InvalidParameters(
                "packed lane exceeds 126 bits; shrink the envelope",
            ));
        }
        // Lanes must sit strictly below n^s; reserving the top bit keeps
        // every packable plaintext < n^s by construction.
        let lanes = plaintext_bits.saturating_sub(1) / lane_bits;
        if lanes == 0 {
            return Err(CryptoError::InvalidParameters(
                "plaintext space too small for one packed lane",
            ));
        }
        Ok(PackedCodec {
            fp,
            value_bits,
            headroom_bits,
            lanes,
        })
    }

    /// Builds a codec from explicit lane parameters (tests and tooling; use
    /// [`PackedCodec::plan`] for protocol envelopes).
    pub fn from_parts(
        fp: FixedPointCodec,
        value_bits: u32,
        headroom_bits: u32,
        lanes: usize,
    ) -> Result<PackedCodec, CryptoError> {
        if value_bits < 2 || value_bits + headroom_bits > 126 || lanes == 0 {
            return Err(CryptoError::InvalidParameters(
                "packed lane parameters out of range",
            ));
        }
        Ok(PackedCodec {
            fp,
            value_bits,
            headroom_bits,
            lanes,
        })
    }

    /// Buckets per ciphertext.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Width of one lane in bits (value + headroom).
    pub fn lane_bits(&self) -> u32 {
        self.value_bits + self.headroom_bits
    }

    /// Bits reserved for the biased value in each lane.
    pub fn value_bits(&self) -> u32 {
        self.value_bits
    }

    /// Bits reserved for aggregation carries in each lane.
    pub fn headroom_bits(&self) -> u32 {
        self.headroom_bits
    }

    /// The per-bucket fixed-point codec.
    pub fn fixed_point(&self) -> &FixedPointCodec {
        &self.fp
    }

    /// The lane bias `2^(value_bits-1)` added to every packed value.
    pub fn bias(&self) -> i128 {
        1i128 << (self.value_bits - 1)
    }

    /// Largest encoded magnitude a lane accepts (`bias − 1` on the
    /// fixed-point grid).
    pub fn value_capacity(&self) -> i128 {
        self.bias() - 1
    }

    /// Ciphertexts needed to carry `slots` buckets.
    pub fn ciphertexts_for(&self, slots: usize) -> usize {
        slots.div_ceil(self.lanes)
    }

    /// This plan at the widest lane that still carries `slots` buckets in
    /// [`Self::ciphertexts_for`]`(slots)` ciphertexts of a
    /// `plaintext_bits`-bit `n^s`: as few
    /// lanes per ciphertext as that count needs, each as wide as the
    /// plaintext space (and the 126-bit lane arithmetic) allows. Every bit
    /// gained goes to the headroom, so the value range is unchanged and the
    /// [`Self::denominator_cap`] only grows.
    pub fn widened(&self, slots: usize, plaintext_bits: usize) -> PackedCodec {
        let ciphertexts = self.ciphertexts_for(slots);
        if ciphertexts == 0 {
            return *self;
        }
        let lanes = slots.div_ceil(ciphertexts);
        let lane_bits = (plaintext_bits.saturating_sub(1) / lanes).min(126) as u32;
        PackedCodec {
            headroom_bits: lane_bits.max(self.lane_bits()) - self.value_bits,
            lanes,
            ..*self
        }
    }

    /// The largest denominator exponent an aggregate of at most
    /// `max_population` contributions may carry under this plan: the `K`
    /// of the headroom rule (module docs), `headroom − ⌈log₂(P+1)⌉`. What a
    /// push-sum node must not split past.
    pub fn denominator_cap(&self, max_population: usize) -> u32 {
        self.headroom_bits
            .saturating_sub(bits_for(max_population as u128 + 1))
    }

    /// Packs a bucket vector into plaintexts, `lanes()` buckets each (the
    /// last one padded with biased zeros). Bucket `i` lands in lane
    /// `i % lanes()` of plaintext `i / lanes()`.
    ///
    /// Errors with [`CryptoError::LaneOverflow`] when a value exceeds the
    /// lane's biased range.
    pub fn pack(&self, values: &[f64]) -> Result<Vec<BigUint>, CryptoError> {
        let lane_bits = self.lane_bits() as usize;
        let mut out = Vec::with_capacity(self.ciphertexts_for(values.len()));
        for (chunk_idx, chunk) in values.chunks(self.lanes).enumerate() {
            let mut pt = BigUint::zero();
            for (lane, &v) in chunk.iter().enumerate() {
                let slot = chunk_idx * self.lanes + lane;
                let biased = self.biased_lane_value(v, slot)?;
                pt = &pt + &(BigUint::from(biased) << (lane * lane_bits));
            }
            // Padding lanes in the trailing plaintext still carry the bias
            // (every lane of every contribution must, so the bias mass stays
            // proportional to the push-sum weight).
            for lane in chunk.len()..self.lanes {
                pt = &pt + &(BigUint::from(self.bias() as u128) << (lane * lane_bits));
            }
            out.push(pt);
        }
        Ok(out)
    }

    /// Encodes one bucket as its biased lane value.
    fn biased_lane_value(&self, v: f64, slot: usize) -> Result<u128, CryptoError> {
        if !v.is_finite() {
            return Err(CryptoError::EncodingOverflow);
        }
        let scaled = (v * self.fp.scale()).round();
        if scaled.abs() >= 2f64.powi(100) {
            return Err(CryptoError::LaneOverflow { slot });
        }
        let fixed = scaled as i128;
        let biased = fixed + self.bias();
        if biased < 0 || biased >= (1i128 << self.value_bits) {
            return Err(CryptoError::LaneOverflow { slot });
        }
        Ok(biased as u128)
    }

    /// The integer carry multiplier `weight · 2^denom_exp = Σ_i c_i` of an
    /// aggregate, or an error when it is not usable.
    fn carry_multiplier(&self, denom_exp: u32, weight: f64) -> Result<u128, CryptoError> {
        let mult_f = weight * (denom_exp as f64).exp2();
        if !(mult_f.is_finite() && mult_f >= 0.5) {
            return Err(CryptoError::InvalidParameters(
                "aggregate weight too small to unbias packed lanes",
            ));
        }
        // A multiplier near u128::MAX (hostile/corrupt denominator — the
        // wire carries it as a raw u32) would saturate the cast and
        // overflow the headroom comparison; any such value is far beyond
        // every plannable headroom, so refuse with the saturation error.
        if mult_f >= 2f64.powi(126) {
            return Err(CryptoError::LaneHeadroomExceeded);
        }
        Ok(mult_f.round() as u128)
    }

    /// How the ciphertexts of an aggregate at push-sum state
    /// `(denom_exp, weight)` fold for decryption (module docs, "Decrypt-time
    /// fold"). The identity — `group` 1 — when nothing fits beside a lane
    /// sum, and when the carry multiplier is unusable or beyond the planned
    /// headroom: decoding then fails exactly as it does without a fold.
    pub fn fold(&self, denom_exp: u32, weight: f64) -> LaneFold {
        let Ok(mult) = self.carry_multiplier(denom_exp, weight) else {
            return self.no_fold();
        };
        let unit_bits = self.value_bits + bits_for(mult) + 1;
        match (self.lane_bits() / unit_bits) as usize {
            0 | 1 => self.no_fold(),
            group => LaneFold { group, unit_bits },
        }
    }

    /// The identity fold: every ciphertext its own group, the whole lane
    /// its unit.
    fn no_fold(&self) -> LaneFold {
        LaneFold {
            group: 1,
            unit_bits: self.lane_bits(),
        }
    }

    /// Recovers the exact per-bucket aggregate integers
    /// `Σ_i c_i · x_i` (on the fixed-point grid) from decrypted aggregate
    /// plaintexts.
    ///
    /// * `slots` — number of real buckets (trailing padding lanes are
    ///   dropped);
    /// * `denom_exp`, `weight` — the aggregate's push-sum metadata;
    /// * `bias_count` — how many biased vectors were folded into each lane:
    ///   1, which is all the protocol produces. The headroom rule budgets
    ///   for one; an aggregate of two packed vectors added lane-wise
    ///   decodes only while twice its carry multiplier still fits.
    ///
    /// Errors with [`CryptoError::LaneHeadroomExceeded`] when the carry
    /// multiplier exceeds the planned headroom — lane sums could have
    /// wrapped, so nothing is returned rather than silently-wrong values.
    pub fn unpack_integers(
        &self,
        plaintexts: &[BigUint],
        slots: usize,
        denom_exp: u32,
        weight: f64,
        bias_count: u32,
    ) -> Result<Vec<i128>, CryptoError> {
        let unfolded = self.no_fold();
        self.lane_integers(plaintexts, slots, denom_exp, weight, bias_count, unfolded)
    }

    /// [`Self::unpack_integers`] of a vector folded by [`Self::fold`] at the
    /// same `(denom_exp, weight)`: `⌈ciphertexts_for(slots) / group⌉`
    /// plaintexts, one biased vector in each lane sum.
    pub fn unfold_integers(
        &self,
        plaintexts: &[BigUint],
        slots: usize,
        denom_exp: u32,
        weight: f64,
    ) -> Result<Vec<i128>, CryptoError> {
        let fold = self.fold(denom_exp, weight);
        self.lane_integers(plaintexts, slots, denom_exp, weight, 1, fold)
    }

    /// Reads bucket `s` at bit `lane·lane_bits + m·unit_bits` of plaintext
    /// `c / group`, for `c = s / lanes`, `lane = s % lanes`, `m = c % group`.
    fn lane_integers(
        &self,
        plaintexts: &[BigUint],
        slots: usize,
        denom_exp: u32,
        weight: f64,
        bias_count: u32,
        fold: LaneFold,
    ) -> Result<Vec<i128>, CryptoError> {
        if plaintexts.len() != self.ciphertexts_for(slots).div_ceil(fold.group) {
            return Err(CryptoError::InvalidParameters(
                "packed plaintext count does not match the bucket count",
            ));
        }
        let mult = self.carry_multiplier(denom_exp, weight)?;
        if bias_count as u128 * mult > 1u128 << self.headroom_bits {
            return Err(CryptoError::LaneHeadroomExceeded);
        }
        let lane_bits = self.lane_bits() as usize;
        let unit_bits = fold.unit_bits as usize;
        let unit_modulus = BigUint::one() << unit_bits;
        let bias_mass = mult as i128 * bias_count as i128 * self.bias();
        let mut out = Vec::with_capacity(slots);
        for slot in 0..slots {
            let (ciphertext, lane) = (slot / self.lanes, slot % self.lanes);
            let pt = &plaintexts[ciphertext / fold.group];
            let at = lane * lane_bits + ciphertext % fold.group * unit_bits;
            let raw = &(pt >> at) % &unit_modulus;
            let raw = raw.to_u128().expect("lane fits 126 bits by construction") as i128;
            out.push(raw - bias_mass);
        }
        Ok(out)
    }

    /// Decodes an aggregate to per-bucket estimates, already normalized by
    /// the push-sum `weight` (the bias removal needs it anyway):
    /// `estimate_j = (lane_j − bias·weight·2^denom_exp·bias_count) /
    /// (scale · weight · 2^denom_exp)`.
    pub fn unpack_aggregate(
        &self,
        plaintexts: &[BigUint],
        slots: usize,
        denom_exp: u32,
        weight: f64,
        bias_count: u32,
    ) -> Result<Vec<f64>, CryptoError> {
        let ints = self.unpack_integers(plaintexts, slots, denom_exp, weight, bias_count)?;
        self.normalize(ints, denom_exp, weight)
    }

    /// [`Self::unpack_aggregate`] of a vector folded by [`Self::fold`] at
    /// the same `(denom_exp, weight)` — what a requester decodes after the
    /// decryption round.
    pub fn unfold_aggregate(
        &self,
        plaintexts: &[BigUint],
        slots: usize,
        denom_exp: u32,
        weight: f64,
    ) -> Result<Vec<f64>, CryptoError> {
        let ints = self.unfold_integers(plaintexts, slots, denom_exp, weight)?;
        self.normalize(ints, denom_exp, weight)
    }

    fn normalize(
        &self,
        ints: Vec<i128>,
        denom_exp: u32,
        weight: f64,
    ) -> Result<Vec<f64>, CryptoError> {
        let mult = self.carry_multiplier(denom_exp, weight)? as f64;
        let denom = self.fp.scale() * mult;
        Ok(ints.into_iter().map(|i| i as f64 / denom).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A test-size `n^s`.
    const PLAINTEXT_BITS: usize = 256;

    fn codec() -> PackedCodec {
        PackedCodec::plan(FixedPointCodec::new(12), 16.0, 64, 10, PLAINTEXT_BITS).unwrap()
    }

    #[test]
    fn plan_sizes_lanes_from_the_envelope() {
        let c = codec();
        // |x| ≤ 16 on a 2^12 grid → 17 bits + bias + slack.
        assert!(c.value_bits() >= 18, "value bits {}", c.value_bits());
        // population 64 (⌈log₂ 65⌉ = 7 bits) at denominators ≤ 10.
        assert_eq!(c.headroom_bits(), 17);
        assert_eq!(c.denominator_cap(64), 10);
        assert!(c.lanes() >= 4, "lanes {}", c.lanes());
        assert!(c.lanes() * c.lane_bits() as usize <= 255);
    }

    #[test]
    fn widening_keeps_the_ciphertext_count_and_grows_the_cap() {
        let c = codec();
        for slots in [1usize, 7, 12, 13, 50] {
            let w = c.widened(slots, PLAINTEXT_BITS);
            assert_eq!(
                w.ciphertexts_for(slots),
                c.ciphertexts_for(slots),
                "{slots}"
            );
            assert_eq!(w.value_bits(), c.value_bits());
            assert!(w.lanes() <= c.lanes() && w.lanes() <= slots.max(1));
            assert!(w.lanes() * w.lane_bits() as usize <= 255);
            assert!(w.lane_bits() <= 126);
            assert!(w.denominator_cap(64) >= c.denominator_cap(64));
        }
        // One bucket has the plaintext to itself, up to the 126-bit lane.
        let one = c.widened(1, PLAINTEXT_BITS);
        assert_eq!((one.lanes(), one.lane_bits()), (1, 126));
    }

    #[test]
    fn pack_unpack_roundtrip_identity_aggregate() {
        let c = codec();
        let values = [1.5, -2.25, 0.0, 15.9, -15.9, 3.625, 0.5];
        let pts = c.pack(&values).unwrap();
        assert_eq!(pts.len(), c.ciphertexts_for(values.len()));
        // A single contribution is an aggregate with weight 1, denom 0.
        let back = c.unpack_aggregate(&pts, values.len(), 0, 1.0, 1).unwrap();
        for (v, b) in values.iter().zip(&back) {
            assert!((v - b).abs() < 2.0 / c.fixed_point().scale(), "{v} vs {b}");
        }
    }

    #[test]
    fn lane_addition_matches_scalar_addition() {
        let c = codec();
        let a = [1.0, -3.5, 7.25, -0.125];
        let b = [2.5, 3.5, -7.25, 10.0];
        let pa = c.pack(&a).unwrap();
        let pb = c.pack(&b).unwrap();
        let sum: Vec<BigUint> = pa.iter().zip(&pb).map(|(x, y)| x + y).collect();
        // Two weight-1 vectors added: weight 2, denom 0.
        let back = c.unpack_aggregate(&sum, a.len(), 0, 2.0, 1).unwrap();
        for i in 0..a.len() {
            let want = (a[i] + b[i]) / 2.0;
            assert!((back[i] - want).abs() < 2.0 / c.fixed_point().scale());
        }
    }

    #[test]
    fn pow2_scaling_matches_denominator_alignment() {
        let c = codec();
        let a = [4.0, -1.0];
        let pa = c.pack(&a).unwrap();
        // Multiply the plaintext by 2^3 — denominator exponent 3, weight 1.
        let scaled: Vec<BigUint> = pa.iter().map(|p| p << 3usize).collect();
        let back = c.unpack_aggregate(&scaled, a.len(), 3, 1.0, 1).unwrap();
        for (v, b) in a.iter().zip(&back) {
            assert!((v - b).abs() < 2.0 / c.fixed_point().scale());
        }
    }

    #[test]
    fn value_overflow_is_typed() {
        let c = codec();
        let err = c.pack(&[1e9]).unwrap_err();
        assert!(matches!(err, CryptoError::LaneOverflow { slot: 0 }));
        let err = c.pack(&[0.0, -1e9]).unwrap_err();
        assert!(matches!(err, CryptoError::LaneOverflow { slot: 1 }));
        assert!(matches!(
            c.pack(&[f64::NAN]).unwrap_err(),
            CryptoError::EncodingOverflow
        ));
    }

    #[test]
    fn headroom_saturation_is_typed() {
        let c = codec();
        let pts = c.pack(&[1.0]).unwrap();
        // Carry multiplier far beyond the planned population × 2^denom.
        let budget = 1u32 << 20;
        let err = c
            .unpack_aggregate(&pts, 1, budget.trailing_zeros() + 20, 1e6, 1)
            .unwrap_err();
        assert_eq!(err, CryptoError::LaneHeadroomExceeded);
    }

    #[test]
    fn hostile_denominator_is_typed_not_a_panic() {
        // A corrupt wire frame can claim any u32 denominator exponent; the
        // carry multiplier must refuse values beyond every plannable
        // headroom instead of saturating the u128 cast and overflowing.
        let c = codec();
        let pts = c.pack(&[1.0]).unwrap();
        for denom in [130u32, 500, 1023, u32::MAX] {
            let err = c.unpack_integers(&pts, 1, denom, 1.0, 1).unwrap_err();
            assert!(
                matches!(
                    err,
                    CryptoError::LaneHeadroomExceeded | CryptoError::InvalidParameters(_)
                ),
                "denom {denom}: {err:?}"
            );
        }
    }

    #[test]
    fn plan_rejects_impossible_envelopes() {
        // A 20-bit plaintext space holds no 69-bit lane.
        assert!(matches!(
            PackedCodec::plan(FixedPointCodec::new(20), 10.0, 1000, 30, 20),
            Err(CryptoError::InvalidParameters(_))
        ));
    }

    #[test]
    fn padding_lanes_carry_bias() {
        let c = codec();
        // One bucket → the remaining lanes are biased zeros; unpacking a
        // full plaintext's worth of lanes must decode those to 0.
        let pts = c.pack(&[2.0]).unwrap();
        let all = c
            .unpack_aggregate(&pts, 1.min(c.lanes()), 0, 1.0, 1)
            .unwrap();
        assert!((all[0] - 2.0).abs() < 1e-3);
        let ints = c.unpack_integers(&pts, 1, 0, 1.0, 1).unwrap();
        assert_eq!(ints.len(), 1);
    }
}
