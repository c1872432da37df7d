//! Threshold Damgård-Jurik decryption.
//!
//! Chiaroscuro requires that "the decryption is performed collaboratively by
//! any subset of participants provided it is sufficiently large". This module
//! implements the Damgård-Jurik threshold construction:
//!
//! 1. a dealer generates the key pair and Shamir-shares the decryption
//!    exponent `d` over `Z_{n^s·λ(n)}` among `l` parties with threshold `t`
//!    (the paper assumes an initialized population — the dealer models the
//!    setup phase);
//! 2. each party computes a partial decryption `c_i = c^(2Δ·s_i)` with
//!    `Δ = l!`;
//! 3. any `t` partials combine to `c' = Π c_i^(2·λ^S_{0,i}) = c^(4Δ²·d)`,
//!    from which the plaintext is extracted with the discrete-log algorithm
//!    and a final multiplication by `(4Δ²)^{-1} mod n^s`.

use crate::keys::CrtContext;
use crate::shamir::{self, Share};
use crate::{Ciphertext, CryptoError, KeyGenOptions, KeyPair, PublicKey};
use cs_bigint::multi_exp::{batch_inverse, multi_exp_signed, MultiExpTerm};
use cs_bigint::{BigInt, BigUint};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Threshold configuration: `threshold` out of `parties`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ThresholdParams {
    /// Minimum number of partial decryptions needed.
    pub threshold: usize,
    /// Total number of key shares dealt.
    pub parties: usize,
}

impl ThresholdParams {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), CryptoError> {
        if self.threshold == 0 {
            return Err(CryptoError::InvalidParameters("threshold must be >= 1"));
        }
        if self.threshold > self.parties {
            return Err(CryptoError::InvalidParameters(
                "threshold cannot exceed parties",
            ));
        }
        Ok(())
    }
}

/// Process-local CRT acceleration for one key share: the shared per-prime
/// contexts plus this share's exponent reduced mod each unit-group order.
/// Never serialized (see [`CrtContext`]'s scope note).
#[derive(Clone, Debug)]
struct ShareCrt {
    ctx: Arc<CrtContext>,
    exp_p: BigUint,
    exp_q: BigUint,
}

/// One party's share of the decryption key.
#[derive(Clone, Debug)]
pub struct KeyShare {
    index: u64,
    value: BigUint,
    /// `2Δ·s_i`, precomputed — the exponent of every partial decryption.
    exponent: BigUint,
    /// CRT fast path for the exponentiation; present when dealt in-process
    /// from a keypair that knows its factorization, absent on shares that
    /// crossed a serialization boundary.
    crt: Option<ShareCrt>,
    pk: PublicKey,
}

impl KeyShare {
    /// The 1-based share index.
    pub fn index(&self) -> u64 {
        self.index
    }

    /// The public key this share belongs to.
    pub fn public(&self) -> &PublicKey {
        &self.pk
    }

    /// Computes this party's partial decryption `c^(2Δ·s_i) mod n^(s+1)`.
    ///
    /// Runs the CRT fast path (half-width moduli, group-order-reduced
    /// exponents) when the share was dealt in-process; shares rebuilt from
    /// the wire take the generic full-width path. Both produce identical
    /// bytes for unit ciphertexts — [`Self::partial_decrypt_slow`] is the
    /// differential oracle.
    pub fn partial_decrypt(&self, c: &Ciphertext) -> PartialDecryption {
        let value = match &self.crt {
            Some(crt) => crt
                .ctx
                .pow_mod_reduced(c.as_biguint(), &crt.exp_p, &crt.exp_q),
            None => self.pk.mont().pow_mod(c.as_biguint(), &self.exponent),
        };
        PartialDecryption {
            index: self.index,
            value,
        }
    }

    /// Partial decryption through the generic full-width path, ignoring
    /// any CRT context — the differential oracle for the fast path.
    pub fn partial_decrypt_slow(&self, c: &Ciphertext) -> PartialDecryption {
        PartialDecryption {
            index: self.index,
            value: self.pk.mont().pow_mod(c.as_biguint(), &self.exponent),
        }
    }

    /// Whether this share carries the process-local CRT hint.
    pub fn has_crt_hint(&self) -> bool {
        self.crt.is_some()
    }

    /// A copy of this share without the CRT hint (the state a share is in
    /// after a serde roundtrip).
    pub fn without_crt(&self) -> KeyShare {
        KeyShare {
            crt: None,
            ..self.clone()
        }
    }

    /// Rebuilds a share from its wire parts (deserialization path — the
    /// caller vouches that `value` is a genuine Shamir share of the key
    /// behind `pk` and that `exponent = 2Δ·value` for the committee's Δ).
    /// Wire shares carry no CRT context.
    pub fn from_parts(index: u64, value: BigUint, exponent: BigUint, pk: PublicKey) -> Self {
        KeyShare {
            index,
            value,
            exponent,
            crt: None,
            pk,
        }
    }
}

impl Serialize for KeyShare {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        (&self.index, &self.value, &self.exponent, &self.pk).serialize(serializer)
    }
}

impl<'de> Deserialize<'de> for KeyShare {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let (index, value, exponent, pk): (u64, BigUint, BigUint, PublicKey) =
            Deserialize::deserialize(deserializer)?;
        if index == 0 {
            return Err(serde::de::Error::custom("share index must be >= 1"));
        }
        Ok(KeyShare::from_parts(index, value, exponent, pk))
    }
}

impl PartialEq for KeyShare {
    fn eq(&self, other: &Self) -> bool {
        self.index == other.index
            && self.value == other.value
            && self.exponent == other.exponent
            && self.pk == other.pk
    }
}

impl Eq for KeyShare {}

/// A partial decryption contributed by one party.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PartialDecryption {
    index: u64,
    value: BigUint,
}

impl PartialDecryption {
    /// The contributing party's 1-based index.
    pub fn index(&self) -> u64 {
        self.index
    }

    /// Serialized size in bytes.
    pub fn byte_len(&self) -> usize {
        self.value.byte_len() + 8
    }

    /// The raw partial-decryption group element (wire codec access).
    pub fn value(&self) -> &BigUint {
        &self.value
    }

    /// Rebuilds a partial decryption from its wire parts.
    pub fn from_parts(index: u64, value: BigUint) -> Self {
        PartialDecryption { index, value }
    }
}

/// The dealer's output: public key, all key shares, and parameters.
///
/// ```
/// use cs_bigint::BigUint;
/// use cs_crypto::{KeyGenOptions, ThresholdKeyPair, ThresholdParams};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let tkp = ThresholdKeyPair::generate(
///     &KeyGenOptions::insecure_test_size(),
///     ThresholdParams { threshold: 2, parties: 3 },
///     &mut rng,
/// ).unwrap();
/// let c = tkp.public().encrypt(&BigUint::from(7u64), &mut rng);
/// let partials: Vec<_> = tkp.shares()[..2].iter().map(|s| s.partial_decrypt(&c)).collect();
/// assert_eq!(tkp.combine(&partials).unwrap(), BigUint::from(7u64));
/// ```
#[derive(Clone, Debug)]
pub struct ThresholdKeyPair {
    keypair: KeyPair,
    shares: Vec<KeyShare>,
    params: ThresholdParams,
    delta: BigUint,
}

impl ThresholdKeyPair {
    /// Runs the dealer: generates a key pair and Shamir-shares `d`.
    pub fn generate<R: Rng + ?Sized>(
        opts: &KeyGenOptions,
        params: ThresholdParams,
        rng: &mut R,
    ) -> Result<ThresholdKeyPair, CryptoError> {
        params.validate()?;
        let keypair = KeyPair::generate(opts, rng);
        Ok(Self::deal_from_keypair(keypair, params, rng))
    }

    /// Shares an existing key pair (lets tests reuse expensive keygen).
    pub fn deal_from_keypair<R: Rng + ?Sized>(
        keypair: KeyPair,
        params: ThresholdParams,
        rng: &mut R,
    ) -> ThresholdKeyPair {
        let pk = keypair.public().clone();
        let sharing_modulus = pk.n_s() * keypair.private().lambda();
        let raw_shares: Vec<Share> = shamir::split(
            keypair.private().d(),
            params.threshold,
            params.parties,
            &sharing_modulus,
            rng,
        );
        let delta = shamir::delta(params.parties);
        let two_delta = delta.mul_u64(2);
        // The dealer holds the factorization, so every share it deals gets
        // the process-local CRT fast path (reduced exponents + shared
        // contexts). Serialization strips it; see `CrtContext`.
        let crt_ctx = keypair.private().crt().cloned();
        let shares = raw_shares
            .into_iter()
            .map(|s| {
                let exponent = &two_delta * &s.value;
                let crt = crt_ctx.as_ref().map(|ctx| {
                    let (exp_p, exp_q) = ctx.reduce_exp(&exponent);
                    ShareCrt {
                        ctx: ctx.clone(),
                        exp_p,
                        exp_q,
                    }
                });
                KeyShare {
                    index: s.index,
                    exponent,
                    value: s.value,
                    crt,
                    pk: pk.clone(),
                }
            })
            .collect();
        ThresholdKeyPair {
            keypair,
            shares,
            params,
            delta,
        }
    }

    /// The public key.
    pub fn public(&self) -> &PublicKey {
        self.keypair.public()
    }

    /// All dealt key shares (an in-process host hands share `j` to node `j`).
    pub fn shares(&self) -> &[KeyShare] {
        &self.shares
    }

    /// Threshold parameters.
    pub fn params(&self) -> ThresholdParams {
        self.params
    }

    /// The dealer's `Δ = parties!` scaling constant (what
    /// [`delta_for`] computes from the party count).
    pub fn delta(&self) -> &BigUint {
        &self.delta
    }

    /// The underlying non-threshold key pair — test/baseline use only; a
    /// real deployment's dealer erases it after dealing.
    pub fn as_keypair(&self) -> &KeyPair {
        &self.keypair
    }

    /// Combines at least `threshold` partial decryptions into the plaintext.
    pub fn combine(&self, partials: &[PartialDecryption]) -> Result<BigUint, CryptoError> {
        combine_partials(self.public(), self.params, &self.delta, partials)
    }
}

/// Validates the first `threshold` partials of a combine call and returns
/// their indices, in arrival order.
fn validated_subset_indices(
    params: ThresholdParams,
    partials: &[PartialDecryption],
) -> Result<Vec<u64>, CryptoError> {
    if partials.len() < params.threshold {
        return Err(CryptoError::NotEnoughShares {
            got: partials.len(),
            need: params.threshold,
        });
    }
    let subset = &partials[..params.threshold];
    let mut indices = Vec::with_capacity(subset.len());
    for p in subset {
        if p.index == 0 || p.index > params.parties as u64 {
            return Err(CryptoError::ShareIndexOutOfRange(p.index));
        }
        indices.push(p.index);
    }
    // Duplicate check on a sorted copy: O(t log t), not the O(t²)
    // `contains` scan this used to be.
    let mut sorted = indices.clone();
    sorted.sort_unstable();
    for w in sorted.windows(2) {
        if w[0] == w[1] {
            return Err(CryptoError::DuplicateShareIndex(w[0]));
        }
    }
    Ok(indices)
}

/// Combines partial decryptions without needing the dealer object (the
/// protocol layer only has the public key and parameters).
///
/// Builds a one-shot [`CombinePlan`] for the subset and evaluates it —
/// Straus multi-exponentiation, one inversion. Callers that decrypt many
/// ciphertexts against the same committee subset should cache the plan in
/// a [`CombinePlanCache`] instead of re-deriving the Lagrange data per
/// call. [`combine_partials_naive`] keeps the per-partial `pow_mod` path
/// as the differential oracle.
pub fn combine_partials(
    pk: &PublicKey,
    params: ThresholdParams,
    delta: &BigUint,
    partials: &[PartialDecryption],
) -> Result<BigUint, CryptoError> {
    let indices = validated_subset_indices(params, partials)?;
    let plan = CombinePlan::new(pk, params, delta, &indices)?;
    plan.combine(pk, &partials[..params.threshold])
}

/// The pre-Straus reference combine: one full `pow_mod` per partial and a
/// `mod_inverse` per negative Lagrange coefficient (plus one for `4Δ²`).
/// Kept verbatim as the differential oracle for [`combine_partials`] and
/// [`CombinePlan`]; every production caller uses the fast path.
pub fn combine_partials_naive(
    pk: &PublicKey,
    params: ThresholdParams,
    delta: &BigUint,
    partials: &[PartialDecryption],
) -> Result<BigUint, CryptoError> {
    let indices = validated_subset_indices(params, partials)?;
    let subset = &partials[..params.threshold];

    // c' = Π c_i^(2·λ_{0,i}); negative coefficients exponentiate the group
    // inverse.
    let n_s1 = pk.n_s1();
    let mut acc = BigUint::one();
    for p in subset {
        let lambda = shamir::lagrange_at_zero(&indices, p.index, delta);
        let two_lambda = &lambda * &BigInt::from(2u64);
        let exp_mag = two_lambda.magnitude().clone();
        let base = if two_lambda.is_negative() {
            p.value.mod_inverse(n_s1).ok_or(CryptoError::NotAUnit)?
        } else {
            p.value.clone()
        };
        let factor = pk.mont().pow_mod(&base, &exp_mag);
        acc = pk.mont().mul_mod(&acc, &factor);
    }

    // acc = (1+n)^(4Δ²·m); recover m.
    let four_delta_sq = delta.square().mul_u64(4);
    let scaled = pk.dlog_one_plus_n(&acc);
    let inv = four_delta_sq
        .mod_inverse(pk.n_s())
        .ok_or(CryptoError::NotAUnit)?;
    Ok(scaled.mod_mul(&inv, pk.n_s()))
}

/// Precomputed combine data for one (committee subset, key) pair: the
/// `2λ_{0,i}` Lagrange magnitudes and signs, and `(4Δ²)^{-1} mod n^s`.
///
/// Deriving these costs `t` exact integer Lagrange evaluations plus one
/// extended-gcd inversion — work that is identical for every ciphertext a
/// given subset ever combines, which is why the protocol layers cache
/// plans per subset ([`CombinePlanCache`]) instead of re-deriving them on
/// every bucket of every step.
///
/// Evaluation is a Straus interleaved multi-exponentiation: all `t`
/// partials share one squaring chain, positive-λ factors accumulate into a
/// numerator and negative-λ factors into a denominator, and a single
/// inversion (batched across ciphertexts in [`Self::combine_batch`])
/// replaces the per-partial `mod_inverse` calls of the naive path.
#[derive(Clone, Debug)]
pub struct CombinePlan {
    /// The subset's share indices, in plan order.
    indices: Vec<u64>,
    /// Per index: `|2λ_{0,i}|` and whether the coefficient is negative.
    terms: Vec<(BigUint, bool)>,
    /// `(4Δ²)^{-1} mod n^s`.
    four_delta_sq_inv: BigUint,
}

impl CombinePlan {
    /// Derives the plan for a committee subset given as share indices
    /// (exactly `threshold` of them, each in `1..=parties`, no duplicates).
    pub fn new(
        pk: &PublicKey,
        params: ThresholdParams,
        delta: &BigUint,
        indices: &[u64],
    ) -> Result<CombinePlan, CryptoError> {
        params.validate()?;
        if indices.len() != params.threshold {
            return Err(CryptoError::NotEnoughShares {
                got: indices.len(),
                need: params.threshold,
            });
        }
        let mut sorted = indices.to_vec();
        sorted.sort_unstable();
        for w in sorted.windows(2) {
            if w[0] == w[1] {
                return Err(CryptoError::DuplicateShareIndex(w[0]));
            }
        }
        let mut terms = Vec::with_capacity(indices.len());
        for &i in indices {
            if i == 0 || i > params.parties as u64 {
                return Err(CryptoError::ShareIndexOutOfRange(i));
            }
            let two_lambda = &shamir::lagrange_at_zero(indices, i, delta) * &BigInt::from(2u64);
            terms.push((two_lambda.magnitude().clone(), two_lambda.is_negative()));
        }
        let four_delta_sq_inv = delta
            .square()
            .mul_u64(4)
            .mod_inverse(pk.n_s())
            .ok_or(CryptoError::NotAUnit)?;
        Ok(CombinePlan {
            indices: indices.to_vec(),
            terms,
            four_delta_sq_inv,
        })
    }

    /// The subset this plan was derived for, in plan order.
    pub fn indices(&self) -> &[u64] {
        &self.indices
    }

    /// Straus-evaluates the numerator/denominator pair for one
    /// ciphertext's partials. Partials must cover exactly this plan's
    /// subset (any order).
    fn split_products(
        &self,
        pk: &PublicKey,
        partials: &[PartialDecryption],
    ) -> Result<(BigUint, BigUint), CryptoError> {
        let mut exp_terms = Vec::with_capacity(self.indices.len());
        for (&idx, (mag, neg)) in self.indices.iter().zip(&self.terms) {
            let p = partials
                .iter()
                .find(|p| p.index == idx)
                .ok_or(CryptoError::MismatchedShares)?;
            exp_terms.push(MultiExpTerm {
                base: p.value.clone(),
                exp: mag.clone(),
                negative: *neg,
            });
        }
        if partials.len() != self.indices.len() {
            return Err(CryptoError::MismatchedShares);
        }
        Ok(multi_exp_signed(pk.mont(), &exp_terms))
    }

    /// Recovers the plaintext from the combined group element
    /// `(1+n)^(4Δ²·m)`.
    fn finish(&self, pk: &PublicKey, acc: &BigUint) -> BigUint {
        let scaled = pk.dlog_one_plus_n(acc);
        scaled.mod_mul(&self.four_delta_sq_inv, pk.n_s())
    }

    /// Combines one ciphertext's partial decryptions into the plaintext.
    pub fn combine(
        &self,
        pk: &PublicKey,
        partials: &[PartialDecryption],
    ) -> Result<BigUint, CryptoError> {
        let (num, den) = self.split_products(pk, partials)?;
        let acc = if den.is_one() {
            num
        } else {
            let den_inv = den.mod_inverse(pk.n_s1()).ok_or(CryptoError::NotAUnit)?;
            pk.mont().mul_mod(&num, &den_inv)
        };
        Ok(self.finish(pk, &acc))
    }

    /// Combines many ciphertexts decrypted by the same subset, amortizing
    /// the denominator inversions across the whole batch with Montgomery's
    /// trick: one extended-gcd for the entire batch instead of one per
    /// ciphertext.
    pub fn combine_batch(
        &self,
        pk: &PublicKey,
        groups: &[Vec<PartialDecryption>],
    ) -> Result<Vec<BigUint>, CryptoError> {
        let mut nums = Vec::with_capacity(groups.len());
        let mut dens = Vec::with_capacity(groups.len());
        for partials in groups {
            let (num, den) = self.split_products(pk, partials)?;
            nums.push(num);
            dens.push(den);
        }
        let den_invs = batch_inverse(pk.mont(), &dens).ok_or(CryptoError::NotAUnit)?;
        Ok(nums
            .iter()
            .zip(&den_invs)
            .map(|(num, den_inv)| {
                let acc = pk.mont().mul_mod(num, den_inv);
                self.finish(pk, &acc)
            })
            .collect())
    }
}

/// A per-run cache of [`CombinePlan`]s keyed by committee subset.
///
/// Interior-locked so one cache can be shared across worker threads (the
/// sharded executor) or across a daemon's steps behind an `Arc`. The map
/// stays tiny: a run sees at most `C(parties, threshold)` distinct
/// subsets, and test committees are 2-of-3.
#[derive(Debug, Default)]
pub struct CombinePlanCache {
    plans: Mutex<HashMap<Vec<u64>, Arc<CombinePlan>>>,
}

impl CombinePlanCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the cached plan for a subset, deriving and inserting it on
    /// first sight. The key is the *sorted* index set — arrival order does
    /// not fragment the cache.
    pub fn plan_for(
        &self,
        pk: &PublicKey,
        params: ThresholdParams,
        delta: &BigUint,
        indices: &[u64],
    ) -> Result<Arc<CombinePlan>, CryptoError> {
        let mut key = indices.to_vec();
        key.sort_unstable();
        if let Some(plan) = self.plans.lock().expect("plan cache lock").get(&key) {
            return Ok(plan.clone());
        }
        let plan = Arc::new(CombinePlan::new(pk, params, delta, indices)?);
        self.plans
            .lock()
            .expect("plan cache lock")
            .insert(key, plan.clone());
        Ok(plan)
    }

    /// Validates and combines one ciphertext's partials through the cached
    /// plan for their subset.
    pub fn combine(
        &self,
        pk: &PublicKey,
        params: ThresholdParams,
        delta: &BigUint,
        partials: &[PartialDecryption],
    ) -> Result<BigUint, CryptoError> {
        let indices = validated_subset_indices(params, partials)?;
        let plan = self.plan_for(pk, params, delta, &indices)?;
        plan.combine(pk, &partials[..params.threshold])
    }

    /// Combines many ciphertexts decrypted by one subset (the subset of
    /// the first group; all groups must match it), batching the inversions.
    pub fn combine_batch(
        &self,
        pk: &PublicKey,
        params: ThresholdParams,
        delta: &BigUint,
        groups: &[Vec<PartialDecryption>],
    ) -> Result<Vec<BigUint>, CryptoError> {
        let Some(first) = groups.first() else {
            return Ok(Vec::new());
        };
        let indices = validated_subset_indices(params, first)?;
        let plan = self.plan_for(pk, params, delta, &indices)?;
        let trimmed: Vec<Vec<PartialDecryption>> = groups
            .iter()
            .map(|g| {
                if g.len() < params.threshold {
                    Err(CryptoError::NotEnoughShares {
                        got: g.len(),
                        need: params.threshold,
                    })
                } else {
                    Ok(g[..params.threshold].to_vec())
                }
            })
            .collect::<Result<_, _>>()?;
        plan.combine_batch(pk, &trimmed)
    }
}

/// `Δ = parties!`, re-exported for callers that combine without a dealer.
pub fn delta_for(parties: usize) -> BigUint {
    shamir::delta(parties)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_bigint::rng::random_below;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(seed: u64, t: usize, l: usize, s: u32) -> (ThresholdKeyPair, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let tkp = ThresholdKeyPair::generate(
            &KeyGenOptions::insecure_test_size_s(s),
            ThresholdParams {
                threshold: t,
                parties: l,
            },
            &mut rng,
        )
        .unwrap();
        (tkp, rng)
    }

    #[test]
    fn threshold_decryption_roundtrip() {
        let (tkp, mut rng) = setup(200, 3, 5, 1);
        let m = BigUint::from(123_456_789u64);
        let c = tkp.public().encrypt(&m, &mut rng);
        let partials: Vec<_> = tkp.shares()[..3]
            .iter()
            .map(|sh| sh.partial_decrypt(&c))
            .collect();
        assert_eq!(tkp.combine(&partials).unwrap(), m);
    }

    #[test]
    fn any_subset_of_shares_works() {
        let (tkp, mut rng) = setup(201, 2, 4, 1);
        let m = BigUint::from(42u64);
        let c = tkp.public().encrypt(&m, &mut rng);
        let all: Vec<_> = tkp
            .shares()
            .iter()
            .map(|sh| sh.partial_decrypt(&c))
            .collect();
        for a in 0..4 {
            for b in 0..4 {
                if a == b {
                    continue;
                }
                let subset = vec![all[a].clone(), all[b].clone()];
                assert_eq!(tkp.combine(&subset).unwrap(), m, "subset ({a},{b})");
            }
        }
    }

    #[test]
    fn extra_shares_are_ignored_beyond_threshold() {
        let (tkp, mut rng) = setup(202, 2, 5, 1);
        let m = BigUint::from(7u64);
        let c = tkp.public().encrypt(&m, &mut rng);
        let all: Vec<_> = tkp
            .shares()
            .iter()
            .map(|sh| sh.partial_decrypt(&c))
            .collect();
        assert_eq!(tkp.combine(&all).unwrap(), m);
    }

    #[test]
    fn threshold_matches_plain_decryption() {
        let (tkp, mut rng) = setup(203, 3, 4, 1);
        let m = random_below(&mut rng, tkp.public().n_s());
        let c = tkp.public().encrypt(&m, &mut rng);
        let partials: Vec<_> = tkp.shares()[1..4]
            .iter()
            .map(|sh| sh.partial_decrypt(&c))
            .collect();
        assert_eq!(tkp.combine(&partials).unwrap(), m);
        assert_eq!(tkp.as_keypair().private().decrypt(&c), m);
    }

    #[test]
    fn degree_two_threshold() {
        let (tkp, mut rng) = setup(204, 2, 3, 2);
        let m = tkp.public().n().add_u64(999); // exceeds n, needs s=2
        let c = tkp.public().encrypt(&m, &mut rng);
        let partials: Vec<_> = tkp.shares()[..2]
            .iter()
            .map(|sh| sh.partial_decrypt(&c))
            .collect();
        assert_eq!(tkp.combine(&partials).unwrap(), m);
    }

    #[test]
    fn too_few_shares_error() {
        let (tkp, mut rng) = setup(205, 3, 5, 1);
        let c = tkp.public().encrypt(&BigUint::one(), &mut rng);
        let partials: Vec<_> = tkp.shares()[..2]
            .iter()
            .map(|sh| sh.partial_decrypt(&c))
            .collect();
        assert!(matches!(
            tkp.combine(&partials),
            Err(CryptoError::NotEnoughShares { got: 2, need: 3 })
        ));
    }

    #[test]
    fn duplicate_share_error() {
        let (tkp, mut rng) = setup(206, 2, 3, 1);
        let c = tkp.public().encrypt(&BigUint::one(), &mut rng);
        let p = tkp.shares()[0].partial_decrypt(&c);
        assert!(matches!(
            tkp.combine(&[p.clone(), p]),
            Err(CryptoError::DuplicateShareIndex(1))
        ));
    }

    #[test]
    fn homomorphic_sum_then_threshold_decrypt() {
        // The Chiaroscuro shape: gossip-summed ciphertext, then collaborative
        // decryption.
        let (tkp, mut rng) = setup(207, 3, 6, 1);
        let pk = tkp.public();
        let mut acc = pk.trivial_zero();
        for v in [10u64, 20, 30, 40] {
            acc = pk.add(&acc, &pk.encrypt(&BigUint::from(v), &mut rng));
        }
        let partials: Vec<_> = tkp.shares()[2..5]
            .iter()
            .map(|sh| sh.partial_decrypt(&acc))
            .collect();
        assert_eq!(tkp.combine(&partials).unwrap(), BigUint::from(100u64));
    }

    #[test]
    fn invalid_params_rejected() {
        let mut rng = StdRng::seed_from_u64(208);
        let r = ThresholdKeyPair::generate(
            &KeyGenOptions::insecure_test_size(),
            ThresholdParams {
                threshold: 4,
                parties: 3,
            },
            &mut rng,
        );
        assert!(r.is_err());
    }

    #[test]
    fn fast_combine_matches_naive_all_subsets() {
        // 2-of-4 exercises negative Lagrange coefficients on most subsets.
        let (tkp, mut rng) = setup(220, 2, 4, 1);
        let m = random_below(&mut rng, tkp.public().n_s());
        let c = tkp.public().encrypt(&m, &mut rng);
        let all: Vec<_> = tkp
            .shares()
            .iter()
            .map(|sh| sh.partial_decrypt(&c))
            .collect();
        for a in 0..4 {
            for b in 0..4 {
                if a == b {
                    continue;
                }
                let subset = vec![all[a].clone(), all[b].clone()];
                let fast =
                    combine_partials(tkp.public(), tkp.params(), &tkp.delta, &subset).unwrap();
                let naive = combine_partials_naive(tkp.public(), tkp.params(), &tkp.delta, &subset)
                    .unwrap();
                assert_eq!(fast, naive, "subset ({a},{b})");
                assert_eq!(fast, m, "subset ({a},{b})");
            }
        }
    }

    #[test]
    fn partial_decrypt_crt_matches_slow_path() {
        let (tkp, mut rng) = setup(221, 2, 3, 2);
        let m = random_below(&mut rng, tkp.public().n_s());
        let c = tkp.public().encrypt(&m, &mut rng);
        for sh in tkp.shares() {
            assert!(sh.has_crt_hint(), "dealer-local shares carry CRT");
            let stripped = sh.without_crt();
            assert!(!stripped.has_crt_hint());
            let fast = sh.partial_decrypt(&c);
            assert_eq!(fast, sh.partial_decrypt_slow(&c), "share {}", sh.index());
            assert_eq!(fast, stripped.partial_decrypt(&c), "share {}", sh.index());
        }
    }

    #[test]
    fn plan_cache_combine_matches_oneshot() {
        let (tkp, mut rng) = setup(222, 3, 5, 1);
        let cache = CombinePlanCache::new();
        for _ in 0..3 {
            let m = random_below(&mut rng, tkp.public().n_s());
            let c = tkp.public().encrypt(&m, &mut rng);
            // Arrival order differs from sorted order; the cache key must not
            // fragment.
            let partials: Vec<_> = [3usize, 0, 4]
                .iter()
                .map(|&i| tkp.shares()[i].partial_decrypt(&c))
                .collect();
            let cached = cache
                .combine(tkp.public(), tkp.params(), &tkp.delta, &partials)
                .unwrap();
            assert_eq!(cached, m);
        }
    }

    #[test]
    fn plan_combine_batch_matches_per_ciphertext() {
        let (tkp, mut rng) = setup(223, 2, 4, 1);
        let cache = CombinePlanCache::new();
        let mut groups = Vec::new();
        let mut expected = Vec::new();
        for _ in 0..5 {
            let m = random_below(&mut rng, tkp.public().n_s());
            let c = tkp.public().encrypt(&m, &mut rng);
            // Subset {2,4}: one negative Lagrange coefficient.
            let partials = vec![
                tkp.shares()[1].partial_decrypt(&c),
                tkp.shares()[3].partial_decrypt(&c),
            ];
            groups.push(partials);
            expected.push(m);
        }
        let batched = cache
            .combine_batch(tkp.public(), tkp.params(), &tkp.delta, &groups)
            .unwrap();
        assert_eq!(batched, expected);
        assert!(cache
            .combine_batch(tkp.public(), tkp.params(), &tkp.delta, &[])
            .unwrap()
            .is_empty());
    }

    #[test]
    fn plan_rejects_bad_subsets() {
        let (tkp, mut rng) = setup(224, 2, 3, 1);
        let pk = tkp.public();
        let params = tkp.params();
        assert!(matches!(
            CombinePlan::new(pk, params, &tkp.delta, &[1]),
            Err(CryptoError::NotEnoughShares { got: 1, need: 2 })
        ));
        assert!(matches!(
            CombinePlan::new(pk, params, &tkp.delta, &[2, 2]),
            Err(CryptoError::DuplicateShareIndex(2))
        ));
        assert!(matches!(
            CombinePlan::new(pk, params, &tkp.delta, &[1, 4]),
            Err(CryptoError::ShareIndexOutOfRange(4))
        ));
        assert!(matches!(
            CombinePlan::new(pk, params, &tkp.delta, &[0, 1]),
            Err(CryptoError::ShareIndexOutOfRange(0))
        ));
        // A plan evaluated against partials from a different subset is
        // rejected, not silently miscombined.
        let plan = CombinePlan::new(pk, params, &tkp.delta, &[1, 2]).unwrap();
        let c = pk.encrypt(&BigUint::from(5u64), &mut rng);
        let wrong = vec![
            tkp.shares()[0].partial_decrypt(&c),
            tkp.shares()[2].partial_decrypt(&c),
        ];
        assert!(matches!(
            plan.combine(pk, &wrong),
            Err(CryptoError::MismatchedShares)
        ));
    }

    #[test]
    fn index_rejection_matches_between_fast_and_naive() {
        let (tkp, mut rng) = setup(225, 2, 3, 1);
        let c = tkp.public().encrypt(&BigUint::one(), &mut rng);
        let p1 = tkp.shares()[0].partial_decrypt(&c);
        let mut forged = tkp.shares()[1].partial_decrypt(&c);
        forged.index = 9;
        for partials in [
            vec![p1.clone(), p1.clone()],
            vec![p1.clone(), forged.clone()],
            vec![p1.clone()],
        ] {
            let fast = combine_partials(tkp.public(), tkp.params(), &tkp.delta, &partials);
            let naive = combine_partials_naive(tkp.public(), tkp.params(), &tkp.delta, &partials);
            assert_eq!(
                format!("{:?}", fast.as_ref().err()),
                format!("{:?}", naive.as_ref().err()),
                "fast and naive must reject identically"
            );
            assert!(fast.is_err());
        }
    }

    #[test]
    fn wire_deserialized_shares_take_generic_path() {
        let (tkp, mut rng) = setup(226, 2, 3, 1);
        let sh = &tkp.shares()[0];
        let json = serde_json::to_string(sh).unwrap();
        let back: KeyShare = serde_json::from_str(&json).unwrap();
        // The CRT hint is factorization knowledge — it must never survive
        // serialization (a committee member with it could decrypt alone).
        assert!(!back.has_crt_hint());
        assert_eq!(&back, sh);
        let c = tkp.public().encrypt(&BigUint::from(77u64), &mut rng);
        assert_eq!(back.partial_decrypt(&c), sh.partial_decrypt(&c));
    }
}
