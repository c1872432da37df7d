//! Modular arithmetic entry points on [`BigUint`].
//!
//! These are the convenience, allocation-per-call APIs. Hot loops (the
//! cryptosystem, the homomorphic push-sum) hold a [`crate::MontgomeryCtx`]
//! and call it directly to amortize the context setup.

use crate::{BigUint, MontgomeryCtx};

impl BigUint {
    /// `(self + rhs) mod m`. Both operands are reduced first.
    pub fn mod_add(&self, rhs: &BigUint, m: &BigUint) -> BigUint {
        assert!(!m.is_zero(), "zero modulus");
        let a = self % m;
        let b = rhs % m;
        let s = &a + &b;
        if s >= *m {
            &s - m
        } else {
            s
        }
    }

    /// `(self - rhs) mod m`, wrapping into `[0, m)`.
    pub fn mod_sub(&self, rhs: &BigUint, m: &BigUint) -> BigUint {
        assert!(!m.is_zero(), "zero modulus");
        let a = self % m;
        let b = rhs % m;
        if a >= b {
            &a - &b
        } else {
            &(&a + m) - &b
        }
    }

    /// `(self * rhs) mod m`.
    pub fn mod_mul(&self, rhs: &BigUint, m: &BigUint) -> BigUint {
        assert!(!m.is_zero(), "zero modulus");
        &(self * rhs) % m
    }

    /// `self^exp mod m`.
    ///
    /// Odd moduli (every modulus in this codebase's crypto) take the
    /// Montgomery fast path; even moduli fall back to square-and-multiply
    /// with division-based reduction.
    pub fn mod_pow(&self, exp: &BigUint, m: &BigUint) -> BigUint {
        assert!(!m.is_zero(), "zero modulus");
        if m.is_one() {
            return BigUint::zero();
        }
        if m.is_odd() {
            return MontgomeryCtx::new(m).pow_mod(self, exp);
        }
        // Generic binary exponentiation for even moduli.
        let mut base = self % m;
        let mut acc = BigUint::one();
        let bits = exp.bit_len();
        for i in 0..bits {
            if exp.bit(i) {
                acc = acc.mod_mul(&base, m);
            }
            if i + 1 < bits {
                base = base.mod_mul(&base, m);
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use crate::BigUint;

    fn b(v: u64) -> BigUint {
        BigUint::from(v)
    }

    #[test]
    fn mod_add_wraps() {
        let m = b(10);
        assert_eq!(b(7).mod_add(&b(8), &m), b(5));
        assert_eq!(b(17).mod_add(&b(28), &m), b(5), "operands reduced first");
    }

    #[test]
    fn mod_sub_wraps_negative() {
        let m = b(10);
        assert_eq!(b(3).mod_sub(&b(8), &m), b(5));
        assert_eq!(b(8).mod_sub(&b(3), &m), b(5));
    }

    #[test]
    fn mod_pow_odd_and_even_moduli_agree_with_naive() {
        // 3^20 = 3486784401
        for m in [97u64, 96u64] {
            let got = b(3).mod_pow(&b(20), &b(m));
            assert_eq!(got.to_u64(), Some(3486784401u64 % m), "mod {m}");
        }
    }

    #[test]
    fn mod_pow_modulus_one_is_zero() {
        assert!(b(5).mod_pow(&b(3), &b(1)).is_zero());
    }

    #[test]
    fn mod_pow_large_exponent_fermat() {
        // 2^(p-1) mod p = 1 for prime p (Fermat), exercised through the
        // public dispatcher rather than MontgomeryCtx directly.
        let p = b(1_000_000_007);
        assert_eq!(b(2).mod_pow(&p.sub_u64(1), &p), BigUint::one());
    }
}
