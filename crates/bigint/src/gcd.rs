//! Greatest common divisor, extended Euclid, and modular inverse.

use crate::{BigInt, BigUint};

impl BigUint {
    /// Greatest common divisor (Euclid's algorithm).
    pub fn gcd(&self, other: &BigUint) -> BigUint {
        let mut a = self.clone();
        let mut b = other.clone();
        while !b.is_zero() {
            let r = &a % &b;
            a = b;
            b = r;
        }
        a
    }

    /// Least common multiple, `self · other / gcd(self, other)`. Zero if
    /// either argument is zero (`lcm(0, x) = 0` by convention); it never
    /// panics.
    pub fn lcm(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        let g = self.gcd(other);
        &(self / &g) * other
    }

    /// Modular inverse: the unique `x` in `[0, m)` with
    /// `self * x ≡ 1 (mod m)`, or `None` when `gcd(self, m) != 1`.
    ///
    /// With `a = self mod m` of several limbs and an odd modulus — what the
    /// cryptosystem inverts — a binary extended GCD runs in one scratch
    /// buffer (`inverse_odd`). Otherwise the roles swap: with
    /// `y = m⁻¹ mod a`, `m·y = 1 + a·k` for some `0 < k < m`, so
    /// `a·(m − k) ≡ 1 (mod m)`; `y` takes one machine word's Euclid when
    /// `a` fits a word (a small constant such as `k!` or `4Δ²`) and the
    /// binary GCD when `a` is odd and `m` even.
    pub fn mod_inverse(&self, m: &BigUint) -> Option<BigUint> {
        if m.is_zero() {
            return None;
        }
        if m.is_one() {
            return Some(BigUint::zero());
        }
        let reduced;
        let a = if self < m {
            self
        } else {
            reduced = self % m;
            &reduced
        };
        if a.is_zero() {
            return None;
        }
        if a.is_one() {
            return Some(BigUint::one());
        }
        if m.is_odd() && a.limb_len() > 1 {
            return inverse_odd(a, m);
        }
        let y = match a.to_u64() {
            Some(w) => BigUint::from(inverse_word(m.div_rem_u64(w).1, w)?),
            None if a.is_odd() => inverse_odd(&(m % a), a)?,
            None => return None,
        };
        let k = &(&(m * &y) - &BigUint::one()) / a;
        Some(m - &k)
    }
}

/// `a⁻¹ mod m` on machine words (`a < m`), `None` if they share a factor.
fn inverse_word(a: u64, m: u64) -> Option<u64> {
    let (mut r0, mut r1) = (i128::from(m), i128::from(a));
    let (mut t0, mut t1) = (0i128, 1i128);
    while r1 != 0 {
        let q = r0 / r1;
        (r0, r1) = (r1, r0 - q * r1);
        (t0, t1) = (t1, t0 - q * t1);
    }
    (r0 == 1).then(|| t0.rem_euclid(i128::from(m)) as u64)
}

/// Steps one round of [`inverse_odd`] takes on its operands' 64-bit
/// approximations: the low `BATCH` bits of each are exact, the rest are the
/// top 33 bits of the pair's common length, and the round's update factors
/// stay within `±2^BATCH`.
const BATCH: u32 = 31;

/// `y⁻¹ mod m` for an odd `m` and `y < m`, `None` if they share a factor:
/// Pornin's optimized binary GCD ("Optimized Binary GCD for Modular
/// Inversion", 2020). It keeps `a ≡ u·y` and `b ≡ v·y (mod m)`, starting
/// from `(a, b) = (y, m)`; each round runs [`BATCH`] binary-GCD steps on
/// one machine word per operand and applies their combined factors to the
/// full-length `a, b, u, v` at once, dividing by `2^BATCH` (modulo `m` for
/// `u, v`). When `a` reaches zero, `b = gcd(y, m)`. Every value lives in one
/// scratch buffer of `6·limbs(m)` words; nothing else is allocated until the
/// result.
fn inverse_odd(y: &BigUint, m: &BigUint) -> Option<BigUint> {
    let len = m.limb_len();
    let mut scratch = vec![0u64; 6 * len];
    let (a, rest) = scratch.split_at_mut(len);
    let (b, rest) = rest.split_at_mut(len);
    let (u, rest) = rest.split_at_mut(len);
    let (v, rest) = rest.split_at_mut(len);
    let (next0, next1) = rest.split_at_mut(len);
    a[..y.limb_len()].copy_from_slice(y.limbs());
    b.copy_from_slice(m.limbs());
    u[0] = 1;
    let m = m.limbs();
    // −m⁻¹ mod 2^64 by Newton–Hensel lifting (3 → 96 correct bits).
    let mut m_inv = m[0];
    for _ in 0..5 {
        m_inv = m_inv.wrapping_mul(2u64.wrapping_sub(m[0].wrapping_mul(m_inv)));
    }
    let m_neg_inv = m_inv.wrapping_neg();
    while a.iter().any(|&w| w != 0) {
        let [mut f0, mut g0, mut f1, mut g1] = divsteps(approximate(a, b), approximate(b, a));
        if combine(next0, a, f0, b, g0, m, 0) < 0 {
            negate(next0);
            (f0, g0) = (-f0, -g0);
        }
        if combine(next1, a, f1, b, g1, m, 0) < 0 {
            negate(next1);
            (f1, g1) = (-f1, -g1);
        }
        a.copy_from_slice(next0);
        b.copy_from_slice(next1);
        combine_mod(next0, u, f0, v, g0, m, m_neg_inv);
        combine_mod(next1, u, f1, v, g1, m, m_neg_inv);
        u.copy_from_slice(next0);
        v.copy_from_slice(next1);
    }
    let unit = b[0] == 1 && b[1..].iter().all(|&w| w == 0);
    unit.then(|| BigUint::from_limbs(v.to_vec()))
}

/// `x`'s 64-bit stand-in for one round: its low `BATCH` bits, then the 33
/// bits below the larger of `x`'s and `other`'s bit lengths (at least 64,
/// so a pair that fits a word is taken exactly).
fn approximate(x: &[u64], other: &[u64]) -> u64 {
    let bits = |w: &[u64]| match w.iter().rposition(|&l| l != 0) {
        Some(i) => 64 * i + 64 - w[i].leading_zeros() as usize,
        None => 0,
    };
    let n = bits(x).max(bits(other)).max(64);
    let (i, shift) = ((n - 33) / 64, (n - 33) % 64);
    let mut top = x[i] >> shift;
    if shift > 0 && i + 1 < x.len() {
        top |= x[i + 1] << (64 - shift);
    }
    (x[0] & ((1 << BATCH) - 1)) | (top << BATCH)
}

/// [`BATCH`] binary-GCD steps on approximations `a` and `b` (odd): halve
/// `a` when even, otherwise subtract the smaller from the larger (swapping
/// them first if `a` is the smaller) and halve. Returns `[f0, g0, f1, g1]`
/// with `a' · 2^BATCH = a·f0 + b·g0` and `b' · 2^BATCH = a·f1 + b·g1` for
/// the full-length values the approximations stand for.
fn divsteps(mut a: u64, mut b: u64) -> [i64; 4] {
    let (mut f0, mut g0, mut f1, mut g1) = (1i64, 0i64, 0i64, 1i64);
    for _ in 0..BATCH {
        if a & 1 == 1 {
            if a < b {
                (a, b) = (b, a);
                (f0, f1) = (f1, f0);
                (g0, g1) = (g1, g0);
            }
            a -= b;
            f0 -= f1;
            g0 -= g1;
        }
        a >>= 1;
        f1 <<= 1;
        g1 <<= 1;
    }
    [f0, g0, f1, g1]
}

/// `out = (x·f + y·g + z·q) / 2^BATCH` in two's complement over
/// `out.len()` limbs, returning the signed word above them. `x, y, z` are
/// non-negative and as long as `out`; the sum's low `BATCH` bits are zero.
fn combine(out: &mut [u64], x: &[u64], f: i64, y: &[u64], g: i64, z: &[u64], q: u64) -> i64 {
    let (f, g, q) = (i128::from(f), i128::from(g), i128::from(q));
    let mut carry = 0i128;
    let mut prev = 0u64;
    for i in 0..out.len() {
        let t = i128::from(x[i]) * f + i128::from(y[i]) * g + i128::from(z[i]) * q + carry;
        let word = t as u64;
        carry = t >> 64;
        if i > 0 {
            out[i - 1] = (prev >> BATCH) | (word << (64 - BATCH));
        }
        prev = word;
    }
    let last = out.len() - 1;
    out[last] = (prev >> BATCH) | ((carry as u64) << (64 - BATCH));
    (carry >> BATCH) as i64
}

/// Two's-complement negation in place: a negative [`combine`] result whose
/// magnitude fits `x` becomes that magnitude.
fn negate(x: &mut [u64]) {
    let mut carry = 1;
    for w in x {
        let (sum, overflow) = (!*w).overflowing_add(carry);
        *w = sum;
        carry = u64::from(overflow);
    }
}

/// `out = (x·f + y·g) / 2^BATCH mod m` for `x, y` in `[0, m)` and
/// `|f| + |g| ≤ 2^BATCH`: adding the multiple of `m` that clears the low
/// `BATCH` bits makes the division exact and leaves the quotient in
/// `(−m, 2m)`, one correction away from `[0, m)`. `m_neg_inv` is
/// `−m⁻¹ mod 2^64`.
fn combine_mod(out: &mut [u64], x: &[u64], f: i64, y: &[u64], g: i64, m: &[u64], m_neg_inv: u64) {
    let low = x[0]
        .wrapping_mul(f as u64)
        .wrapping_add(y[0].wrapping_mul(g as u64));
    let q = low.wrapping_mul(m_neg_inv) & ((1 << BATCH) - 1);
    let top = combine(out, x, f, y, g, m, q);
    if top < 0 {
        let mut carry = false;
        for (w, &mw) in out.iter_mut().zip(m) {
            let (s1, c1) = w.overflowing_add(mw);
            let (s2, c2) = s1.overflowing_add(u64::from(carry));
            *w = s2;
            carry = c1 || c2;
        }
    } else if top > 0 || BigUint::cmp_limbs(out, m) != std::cmp::Ordering::Less {
        let mut borrow = false;
        for (w, &mw) in out.iter_mut().zip(m) {
            let (d1, b1) = w.overflowing_sub(mw);
            let (d2, b2) = d1.overflowing_sub(u64::from(borrow));
            *w = d2;
            borrow = b1 || b2;
        }
    }
}

/// Extended Euclidean algorithm: returns `(g, x, y)` with
/// `a*x + b*y = g = gcd(a, b)` (`g >= 0`). The textbook division form, kept
/// as the reference `mod_inverse` is tested against.
pub fn extended_gcd(a: &BigInt, b: &BigInt) -> (BigInt, BigInt, BigInt) {
    let (mut old_r, mut r) = (a.clone(), b.clone());
    let (mut old_s, mut s) = (BigInt::one(), BigInt::zero());
    let (mut old_t, mut t) = (BigInt::zero(), BigInt::one());
    while !r.is_zero() {
        let (q, rem) = old_r.div_rem(&r);
        old_r = std::mem::replace(&mut r, rem);
        let new_s = &old_s - &(&q * &s);
        old_s = std::mem::replace(&mut s, new_s);
        let new_t = &old_t - &(&q * &t);
        old_t = std::mem::replace(&mut t, new_t);
    }
    if old_r.is_negative() {
        (-old_r, -old_s, -old_t)
    } else {
        (old_r, old_s, old_t)
    }
}

/// Solves a two-congruence CRT system: the unique `x mod (m1*m2)` with
/// `x ≡ r1 (mod m1)` and `x ≡ r2 (mod m2)`, for coprime `m1, m2`.
///
/// Returns `None` if the moduli are not coprime.
pub fn crt_pair(r1: &BigUint, m1: &BigUint, r2: &BigUint, m2: &BigUint) -> Option<BigUint> {
    // x = r1 + m1 * ((r2 - r1) * m1^{-1} mod m2)
    let m1_inv = m1.mod_inverse(m2)?;
    let r1m = r1 % m1;
    let diff = BigInt::from_biguint(r2 % m2) - BigInt::from_biguint(&r1m % m2);
    let k = (&BigInt::from_biguint(m1_inv) * &diff).mod_floor(m2);
    Some(&r1m + &(m1 * &k))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcd_known_values() {
        let a = BigUint::from(48u64);
        let b = BigUint::from(36u64);
        assert_eq!(a.gcd(&b), BigUint::from(12u64));
        assert_eq!(a.gcd(&BigUint::zero()), a);
        assert_eq!(BigUint::zero().gcd(&b), b);
    }

    #[test]
    fn lcm_known_values() {
        assert_eq!(
            BigUint::from(4u64).lcm(&BigUint::from(6u64)),
            BigUint::from(12u64)
        );
        assert!(BigUint::zero().lcm(&BigUint::from(5u64)).is_zero());
    }

    #[test]
    fn extended_gcd_bezout_identity() {
        let a = BigInt::from(240i64);
        let b = BigInt::from(46i64);
        let (g, x, y) = extended_gcd(&a, &b);
        assert_eq!(g, BigInt::from(2i64));
        assert_eq!(&(&a * &x) + &(&b * &y), g);
    }

    #[test]
    fn mod_inverse_roundtrip() {
        let m = BigUint::from(1_000_000_007u64);
        let a = BigUint::from(123_456_789u64);
        let inv = a.mod_inverse(&m).unwrap();
        assert_eq!((&a * &inv) % &m, BigUint::one());
    }

    #[test]
    fn mod_inverse_of_non_coprime_is_none() {
        let m = BigUint::from(12u64);
        assert!(BigUint::from(4u64).mod_inverse(&m).is_none());
        assert!(BigUint::from(5u64).mod_inverse(&m).is_some());
    }

    #[test]
    fn mod_inverse_large_value_reduced_first() {
        let m = BigUint::from(97u64);
        let a = BigUint::from(97u64 * 5 + 3);
        let inv = a.mod_inverse(&m).unwrap();
        assert_eq!((&a % &m * &inv) % &m, BigUint::one());
    }

    #[test]
    fn crt_pair_reconstructs() {
        // x ≡ 2 mod 3, x ≡ 3 mod 5 → x = 8 mod 15
        let x = crt_pair(
            &BigUint::from(2u64),
            &BigUint::from(3u64),
            &BigUint::from(3u64),
            &BigUint::from(5u64),
        )
        .unwrap();
        assert_eq!(x, BigUint::from(8u64));
    }

    #[test]
    fn crt_pair_non_coprime_fails() {
        assert!(crt_pair(
            &BigUint::from(1u64),
            &BigUint::from(4u64),
            &BigUint::from(2u64),
            &BigUint::from(6u64),
        )
        .is_none());
    }
}
