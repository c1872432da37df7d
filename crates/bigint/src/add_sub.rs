//! Addition and subtraction for [`BigUint`].

use crate::BigUint;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// Adds `b` into `a` (both little-endian), returning the final carry.
pub(crate) fn add_assign_limbs(a: &mut Vec<u64>, b: &[u64]) {
    if a.len() < b.len() {
        a.resize(b.len(), 0);
    }
    let mut carry = 0u64;
    for (i, &bv) in b.iter().enumerate() {
        let (s1, c1) = a[i].overflowing_add(bv);
        let (s2, c2) = s1.overflowing_add(carry);
        a[i] = s2;
        carry = (c1 as u64) + (c2 as u64);
    }
    if carry != 0 {
        for limb in a.iter_mut().skip(b.len()) {
            let (s, c) = limb.overflowing_add(carry);
            *limb = s;
            carry = c as u64;
            if carry == 0 {
                break;
            }
        }
        if carry != 0 {
            a.push(carry);
        }
    }
}

/// Subtracts `b` from `a` in place. Panics in debug builds if `b > a`;
/// callers must guarantee `a >= b`.
pub(crate) fn sub_assign_limbs(a: &mut [u64], b: &[u64]) {
    debug_assert!(BigUint::cmp_limbs(a, b) != std::cmp::Ordering::Less);
    let mut borrow = 0u64;
    for (i, &bv) in b.iter().enumerate() {
        let (d1, b1) = a[i].overflowing_sub(bv);
        let (d2, b2) = d1.overflowing_sub(borrow);
        a[i] = d2;
        borrow = (b1 as u64) + (b2 as u64);
    }
    if borrow != 0 {
        for limb in a.iter_mut().skip(b.len()) {
            let (d, b) = limb.overflowing_sub(borrow);
            *limb = d;
            borrow = b as u64;
            if borrow == 0 {
                break;
            }
        }
    }
    debug_assert_eq!(borrow, 0, "subtraction underflow");
}

impl BigUint {
    /// `self - other`, or `None` if the result would be negative.
    fn checked_sub(&self, other: &BigUint) -> Option<BigUint> {
        if self < other {
            return None;
        }
        let mut limbs = self.limbs.clone();
        sub_assign_limbs(&mut limbs, &other.limbs);
        Some(BigUint::from_limbs(limbs))
    }

    /// `|self - other|`.
    pub fn abs_diff(&self, other: &BigUint) -> BigUint {
        if self >= other {
            self - other
        } else {
            other - self
        }
    }

    /// Adds a single `u64`.
    pub fn add_u64(&self, rhs: u64) -> BigUint {
        let mut limbs = self.limbs.clone();
        add_assign_limbs(&mut limbs, &[rhs]);
        BigUint::from_limbs(limbs)
    }

    /// Subtracts a single `u64`; panics if the result would be negative.
    pub fn sub_u64(&self, rhs: u64) -> BigUint {
        let mut limbs = self.limbs.clone();
        sub_assign_limbs(&mut limbs, &[rhs]);
        BigUint::from_limbs(limbs)
    }
}

impl Add<&BigUint> for &BigUint {
    type Output = BigUint;
    fn add(self, rhs: &BigUint) -> BigUint {
        let mut limbs = self.limbs.clone();
        add_assign_limbs(&mut limbs, &rhs.limbs);
        BigUint::from_limbs(limbs)
    }
}

impl Add for BigUint {
    type Output = BigUint;
    fn add(mut self, rhs: BigUint) -> BigUint {
        add_assign_limbs(&mut self.limbs, &rhs.limbs);
        self.normalize();
        self
    }
}

impl Add<&BigUint> for BigUint {
    type Output = BigUint;
    fn add(mut self, rhs: &BigUint) -> BigUint {
        add_assign_limbs(&mut self.limbs, &rhs.limbs);
        self.normalize();
        self
    }
}

impl AddAssign<&BigUint> for BigUint {
    fn add_assign(&mut self, rhs: &BigUint) {
        add_assign_limbs(&mut self.limbs, &rhs.limbs);
        self.normalize();
    }
}

impl Sub<&BigUint> for &BigUint {
    type Output = BigUint;
    /// Panics if `rhs > self`.
    fn sub(self, rhs: &BigUint) -> BigUint {
        self.checked_sub(rhs)
            .expect("BigUint subtraction underflow")
    }
}

impl Sub for BigUint {
    type Output = BigUint;
    fn sub(self, rhs: BigUint) -> BigUint {
        &self - &rhs
    }
}

impl Sub<&BigUint> for BigUint {
    type Output = BigUint;
    fn sub(self, rhs: &BigUint) -> BigUint {
        &self - rhs
    }
}

impl SubAssign<&BigUint> for BigUint {
    fn sub_assign(&mut self, rhs: &BigUint) {
        sub_assign_limbs(&mut self.limbs, &rhs.limbs);
        self.normalize();
    }
}

#[cfg(test)]
mod tests {
    use crate::BigUint;

    #[test]
    fn add_with_carry_chain() {
        let a = BigUint::from(u64::MAX);
        let b = BigUint::from(1u64);
        assert_eq!(&a + &b, BigUint::from(u64::MAX as u128 + 1));
    }

    #[test]
    fn add_carry_propagates_through_many_limbs() {
        // (2^192 - 1) + 1 = 2^192
        let a = BigUint::from_limbs(vec![u64::MAX; 3]);
        let sum = a.add_u64(1);
        assert_eq!(sum.limbs(), &[0, 0, 0, 1]);
    }

    #[test]
    fn sub_roundtrips_add() {
        let a = BigUint::from(0xdead_beef_dead_beefu64);
        let b = BigUint::from(0x1234_5678u64);
        assert_eq!(&(&a + &b) - &b, a);
    }

    #[test]
    fn sub_with_borrow_chain() {
        // 2^192 - 1
        let a = BigUint::from_limbs(vec![0, 0, 0, 1]);
        let d = a.sub_u64(1);
        assert_eq!(d.limbs(), &[u64::MAX, u64::MAX, u64::MAX]);
    }

    #[test]
    fn checked_sub_underflow_is_none() {
        assert!(BigUint::from(1u64)
            .checked_sub(&BigUint::from(2u64))
            .is_none());
    }

    #[test]
    fn abs_diff_symmetric() {
        let a = BigUint::from(100u64);
        let b = BigUint::from(250u64);
        assert_eq!(a.abs_diff(&b), BigUint::from(150u64));
        assert_eq!(b.abs_diff(&a), BigUint::from(150u64));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = &BigUint::from(1u64) - &BigUint::from(2u64);
    }
}
