//! Division for [`BigUint`]: single-limb short division and Knuth's
//! Algorithm D for multi-limb divisors (TAOCP vol. 2, 4.3.1).

use crate::BigUint;
use std::ops::{Div, Rem};

impl BigUint {
    /// Quotient and remainder by a single limb. Panics on division by zero.
    pub fn div_rem_u64(&self, divisor: u64) -> (BigUint, u64) {
        assert!(divisor != 0, "division by zero");
        if self.is_zero() {
            return (BigUint::zero(), 0);
        }
        let mut quotient = vec![0u64; self.limbs.len()];
        let mut rem = 0u64;
        for (i, &limb) in self.limbs.iter().enumerate().rev() {
            let cur = (rem as u128) << 64 | limb as u128;
            quotient[i] = (cur / divisor as u128) as u64;
            rem = (cur % divisor as u128) as u64;
        }
        (BigUint::from_limbs(quotient), rem)
    }

    /// Quotient and remainder. Panics on division by zero.
    ///
    /// Multi-limb divisors use Knuth Algorithm D: normalize so the divisor's
    /// top bit is set, estimate each quotient limb from the top 128 bits,
    /// correct the (at most two) over-estimates, multiply-subtract, and
    /// un-normalize the remainder.
    pub fn div_rem(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        assert!(!divisor.is_zero(), "division by zero");
        if self < divisor {
            return (BigUint::zero(), self.clone());
        }
        if divisor.limbs.len() == 1 {
            let (q, r) = self.div_rem_u64(divisor.limbs[0]);
            return (q, BigUint::from(r));
        }

        let n = divisor.limbs.len();
        let m = self.limbs.len() - n;

        // D1: normalize so v[n-1] has its top bit set.
        let shift = divisor.limbs[n - 1].leading_zeros() as usize;
        let v = shl_limbs(&divisor.limbs, shift);
        let mut u = shl_limbs(&self.limbs, shift);
        u.resize(self.limbs.len() + 1, 0); // u gets one extra high limb

        let mut q = vec![0u64; m + 1];
        let v_top = v[n - 1];
        let v_next = v[n - 2];

        // D2-D7: main loop over quotient positions.
        for j in (0..=m).rev() {
            // D3: estimate qhat from the top two limbs of the current window.
            let num = (u[j + n] as u128) << 64 | u[j + n - 1] as u128;
            let mut qhat = num / v_top as u128;
            let mut rhat = num % v_top as u128;
            // Correct while the two-limb test shows overestimation.
            while qhat >> 64 != 0 || qhat * v_next as u128 > (rhat << 64 | u[j + n - 2] as u128) {
                qhat -= 1;
                rhat += v_top as u128;
                if rhat >> 64 != 0 {
                    break;
                }
            }
            let mut qhat = qhat as u64;

            // D4: u[j..j+n+1] -= qhat * v
            let mut borrow = 0i128;
            let mut carry = 0u128;
            for i in 0..n {
                let p = qhat as u128 * v[i] as u128 + carry;
                carry = p >> 64;
                let t = u[j + i] as i128 - (p as u64) as i128 + borrow;
                u[j + i] = t as u64;
                borrow = t >> 64; // arithmetic shift: 0 or -1
            }
            let t = u[j + n] as i128 - carry as i128 + borrow;
            u[j + n] = t as u64;
            borrow = t >> 64;

            // D5-D6: if we subtracted too much (probability ~2/2^64), add back.
            if borrow != 0 {
                qhat -= 1;
                let mut carry = 0u64;
                for i in 0..n {
                    let t = u[j + i] as u128 + v[i] as u128 + carry as u128;
                    u[j + i] = t as u64;
                    carry = (t >> 64) as u64;
                }
                u[j + n] = u[j + n].wrapping_add(carry);
            }
            q[j] = qhat;
        }

        // D8: un-normalize the remainder.
        let rem = shr_limbs(&u[..n], shift);
        (BigUint::from_limbs(q), BigUint::from_limbs(rem))
    }

    /// `self / 2`, truncating.
    pub fn half(&self) -> BigUint {
        self >> 1
    }
}

/// Left-shifts limbs by `shift < 64` bits, possibly appending a limb.
fn shl_limbs(limbs: &[u64], shift: usize) -> Vec<u64> {
    debug_assert!(shift < 64);
    if shift == 0 {
        return limbs.to_vec();
    }
    let mut out = Vec::with_capacity(limbs.len() + 1);
    let mut carry = 0u64;
    for &limb in limbs {
        out.push(limb << shift | carry);
        carry = limb >> (64 - shift);
    }
    if carry != 0 {
        out.push(carry);
    }
    out
}

/// Right-shifts limbs by `shift < 64` bits.
fn shr_limbs(limbs: &[u64], shift: usize) -> Vec<u64> {
    debug_assert!(shift < 64);
    if shift == 0 {
        return limbs.to_vec();
    }
    let mut out = vec![0u64; limbs.len()];
    let mut carry = 0u64;
    for (i, &limb) in limbs.iter().enumerate().rev() {
        out[i] = limb >> shift | carry;
        carry = limb << (64 - shift);
    }
    out
}

impl Div<&BigUint> for &BigUint {
    type Output = BigUint;
    fn div(self, rhs: &BigUint) -> BigUint {
        self.div_rem(rhs).0
    }
}

impl Div for BigUint {
    type Output = BigUint;
    fn div(self, rhs: BigUint) -> BigUint {
        self.div_rem(&rhs).0
    }
}

impl Rem<&BigUint> for &BigUint {
    type Output = BigUint;
    fn rem(self, rhs: &BigUint) -> BigUint {
        self.div_rem(rhs).1
    }
}

impl Rem for BigUint {
    type Output = BigUint;
    fn rem(self, rhs: BigUint) -> BigUint {
        self.div_rem(&rhs).1
    }
}

impl Rem<&BigUint> for BigUint {
    type Output = BigUint;
    fn rem(self, rhs: &BigUint) -> BigUint {
        self.div_rem(rhs).1
    }
}

impl Div<&BigUint> for BigUint {
    type Output = BigUint;
    fn div(self, rhs: &BigUint) -> BigUint {
        self.div_rem(rhs).0
    }
}

#[cfg(test)]
mod tests {
    use crate::BigUint;

    #[test]
    fn div_rem_u64_cross_check() {
        let a = 0x1234_5678_9abc_def0_1122_3344_5566_7788u128;
        let d = 0x9999_1111u64;
        let (q, r) = BigUint::from(a).div_rem_u64(d);
        assert_eq!(q.to_u128(), Some(a / d as u128));
        assert_eq!(r, (a % d as u128) as u64);
    }

    #[test]
    fn div_rem_small_cases() {
        let (q, r) = BigUint::from(7u64).div_rem(&BigUint::from(3u64));
        assert_eq!((q.to_u64(), r.to_u64()), (Some(2), Some(1)));
        let (q, r) = BigUint::from(3u64).div_rem(&BigUint::from(7u64));
        assert_eq!((q.to_u64(), r.to_u64()), (Some(0), Some(3)));
    }

    #[test]
    fn div_rem_multi_limb_identity() {
        // Reconstruct: a = q*d + r with r < d, for structured operands.
        let a = BigUint::from_limbs(vec![
            0xdead_beef_dead_beef,
            0x0123_4567_89ab_cdef,
            0xfeed_face_cafe_f00d,
            0x0fed_cba9_8765_4321,
        ]);
        let d = BigUint::from_limbs(vec![0xffff_ffff_0000_0001, 0x8000_0000_0000_0000]);
        let (q, r) = a.div_rem(&d);
        assert!(r < d);
        assert_eq!(&(&q * &d) + &r, a);
    }

    #[test]
    fn div_rem_triggers_correction_path() {
        // Divisor with v_top = MAX forces qhat estimates at the boundary.
        let d = BigUint::from_limbs(vec![0, u64::MAX]);
        let a = &(&d * &d) + &BigUint::from(12345u64);
        let (q, r) = a.div_rem(&d);
        assert_eq!(q, d);
        assert_eq!(r, BigUint::from(12345u64));
    }

    #[test]
    fn div_by_self_and_one() {
        let a = BigUint::from_limbs(vec![1, 2, 3]);
        let (q, r) = a.div_rem(&a);
        assert!(q.is_one() && r.is_zero());
        let (q, r) = a.div_rem(&BigUint::one());
        assert_eq!(q, a);
        assert!(r.is_zero());
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let _ = BigUint::from(1u64).div_rem(&BigUint::zero());
    }
}
