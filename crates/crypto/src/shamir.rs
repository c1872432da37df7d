//! Shamir secret sharing over `Z_M` for an arbitrary (not necessarily prime)
//! modulus, as used by threshold Damgård-Jurik.
//!
//! Over a non-prime modulus, Lagrange interpolation at 0 cannot divide by
//! arbitrary denominators; the Damgård-Jurik construction sidesteps this with
//! the `Δ = l!` factor, which makes every Lagrange coefficient an integer
//! (computed here exactly with [`BigInt`]).

use cs_bigint::rng::random_below;
use cs_bigint::{BigInt, BigUint};
use rand::Rng;

/// A share `(index, f(index) mod M)` with a 1-based index.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Share {
    /// 1-based evaluation point.
    pub index: u64,
    /// `f(index) mod M`.
    pub value: BigUint,
}

/// Splits `secret` into `parties` shares with reconstruction threshold
/// `threshold` (any `threshold` shares suffice; fewer reveal nothing beyond
/// the modulus).
///
/// The polynomial is `f(x) = secret + a_1 x + … + a_{t-1} x^{t-1} mod M`
/// with uniformly random coefficients.
///
/// Panics if `threshold == 0`, `threshold > parties`, or `M <= 1`.
pub fn split<R: Rng + ?Sized>(
    secret: &BigUint,
    threshold: usize,
    parties: usize,
    modulus: &BigUint,
    rng: &mut R,
) -> Vec<Share> {
    assert!(threshold >= 1, "threshold must be at least 1");
    assert!(threshold <= parties, "threshold cannot exceed parties");
    assert!(*modulus > 1u64, "modulus must exceed 1");
    let mut coeffs = Vec::with_capacity(threshold);
    coeffs.push(secret % modulus);
    for _ in 1..threshold {
        coeffs.push(random_below(rng, modulus));
    }
    (1..=parties as u64)
        .map(|i| Share {
            index: i,
            value: eval_poly(&coeffs, i, modulus),
        })
        .collect()
}

/// Horner evaluation of `f(x) mod M`.
fn eval_poly(coeffs: &[BigUint], x: u64, modulus: &BigUint) -> BigUint {
    let xb = BigUint::from(x);
    let mut acc = BigUint::zero();
    for c in coeffs.iter().rev() {
        acc = acc.mod_mul(&xb, modulus).mod_add(c, modulus);
    }
    acc
}

/// `Δ = l!` as a big integer.
pub fn delta(parties: usize) -> BigUint {
    let mut acc = BigUint::one();
    for k in 2..=parties as u64 {
        acc = acc.mul_u64(k);
    }
    acc
}

/// The integer Lagrange coefficient `λ^S_{0,i} = Δ · Π_{j∈S, j≠i} j/(j−i)`
/// (an exact integer thanks to the `Δ` factor).
///
/// `subset` holds the distinct 1-based indices in `S`; `i` must be in it.
pub fn lagrange_at_zero(subset: &[u64], i: u64, delta: &BigUint) -> BigInt {
    debug_assert!(subset.contains(&i));
    let mut num = BigInt::from_biguint(delta.clone());
    let mut den = BigInt::one();
    for &j in subset {
        if j == i {
            continue;
        }
        num = &num * &BigInt::from(j);
        den = &den * &BigInt::from(j as i64 - i as i64);
    }
    let (q, r) = num.div_rem(&den);
    debug_assert!(r.is_zero(), "Δ must clear the Lagrange denominator");
    q
}

/// Reconstructs `Δ · secret mod M` from `threshold` shares (sanity/test
/// helper; the production path interpolates in the exponent — see
/// [`crate::threshold`]).
#[cfg(test)]
fn reconstruct_delta_secret(shares: &[Share], parties: usize, modulus: &BigUint) -> BigUint {
    let d = delta(parties);
    let subset: Vec<u64> = shares.iter().map(|s| s.index).collect();
    let mut acc = BigInt::zero();
    for share in shares {
        let lambda = lagrange_at_zero(&subset, share.index, &d);
        acc = &acc + &(&lambda * &BigInt::from_biguint(share.value.clone()));
    }
    acc.mod_floor(modulus)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn delta_is_factorial() {
        assert_eq!(delta(1), BigUint::one());
        assert_eq!(delta(5), BigUint::from(120u64));
        assert_eq!(delta(10), BigUint::from(3628800u64));
    }

    #[test]
    fn reconstruction_from_any_threshold_subset() {
        let mut rng = StdRng::seed_from_u64(1);
        let modulus = BigUint::from(1_000_003u64 * 999_983); // composite
        let secret = BigUint::from(123_456u64);
        let (t, l) = (3usize, 5usize);
        let shares = split(&secret, t, l, &modulus, &mut rng);
        let d = delta(l);
        let want = secret.mod_mul(&d, &modulus);

        // every 3-subset of the 5 shares reconstructs Δ·secret
        for a in 0..l {
            for b in a + 1..l {
                for c in b + 1..l {
                    let subset = vec![shares[a].clone(), shares[b].clone(), shares[c].clone()];
                    assert_eq!(
                        reconstruct_delta_secret(&subset, l, &modulus),
                        want,
                        "subset ({a},{b},{c})"
                    );
                }
            }
        }
    }

    #[test]
    fn more_shares_than_threshold_also_work() {
        let mut rng = StdRng::seed_from_u64(2);
        let modulus = BigUint::from(7919u64 * 7907);
        let secret = BigUint::from(4242u64);
        let shares = split(&secret, 2, 4, &modulus, &mut rng);
        let got = reconstruct_delta_secret(&shares, 4, &modulus);
        assert_eq!(got, secret.mod_mul(&delta(4), &modulus));
    }

    #[test]
    fn single_party_degenerate_case() {
        let mut rng = StdRng::seed_from_u64(3);
        let modulus = BigUint::from(101u64);
        let secret = BigUint::from(60u64);
        let shares = split(&secret, 1, 1, &modulus, &mut rng);
        assert_eq!(shares[0].value, secret, "t=1 share is the secret itself");
        assert_eq!(
            reconstruct_delta_secret(&shares, 1, &modulus),
            secret,
            "Δ = 1! = 1"
        );
    }

    #[test]
    fn below_threshold_does_not_reconstruct() {
        // Statistical check: with t=3, two shares interpolated as if t were 2
        // give the wrong answer (overwhelmingly).
        let mut rng = StdRng::seed_from_u64(4);
        let modulus = BigUint::from(1_000_000_007u64);
        let secret = BigUint::from(5u64);
        let shares = split(&secret, 3, 5, &modulus, &mut rng);
        let got = reconstruct_delta_secret(&shares[..2], 5, &modulus);
        assert_ne!(got, secret.mod_mul(&delta(5), &modulus));
    }

    #[test]
    fn lagrange_coefficients_sum_property() {
        // Σ_i λ_{0,i} = Δ when interpolating the constant polynomial 1.
        let d = delta(4);
        let subset = [1u64, 2, 4];
        let sum = subset.iter().fold(BigInt::zero(), |acc, &i| {
            &acc + &lagrange_at_zero(&subset, i, &d)
        });
        assert_eq!(sum, BigInt::from_biguint(d));
    }

    #[test]
    #[should_panic(expected = "threshold cannot exceed parties")]
    fn invalid_threshold_panics() {
        let mut rng = StdRng::seed_from_u64(5);
        split(&BigUint::one(), 6, 5, &BigUint::from(101u64), &mut rng);
    }
}
