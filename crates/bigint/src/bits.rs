//! Bit-level accessors for [`BigUint`].

use crate::BigUint;

impl BigUint {
    /// Returns bit `i` (little-endian position; bit 0 is the least
    /// significant). Out-of-range bits are `0`.
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / 64;
        if limb >= self.limbs.len() {
            return false;
        }
        self.limbs[limb] >> (i % 64) & 1 == 1
    }

    /// The `len < 64` bits starting at bit `lo`, as an integer: one window
    /// digit of an exponent. Out-of-range bits are `0`.
    pub(crate) fn bits_at(&self, lo: usize, len: usize) -> usize {
        debug_assert!(len < 64);
        let (limb, shift) = (lo / 64, lo % 64);
        let get = |i: usize| self.limbs.get(i).copied().unwrap_or(0);
        let mut v = get(limb) >> shift;
        if shift + len > 64 {
            v |= get(limb + 1) << (64 - shift);
        }
        (v & ((1 << len) - 1)) as usize
    }

    /// Sets bit `i` to `value`, growing the limb vector if needed.
    pub fn set_bit(&mut self, i: usize, value: bool) {
        let limb = i / 64;
        if value {
            if limb >= self.limbs.len() {
                self.limbs.resize(limb + 1, 0);
            }
            self.limbs[limb] |= 1 << (i % 64);
        } else if limb < self.limbs.len() {
            self.limbs[limb] &= !(1 << (i % 64));
            self.normalize();
        }
    }

    /// `true` iff the value is even (zero counts as even).
    #[inline]
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// `true` iff the value is odd.
    #[inline]
    pub fn is_odd(&self) -> bool {
        !self.is_even()
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.limbs.iter().map(|l| l.count_ones() as usize).sum()
    }

    /// Number of trailing zero bits; `None` for the value zero.
    pub fn trailing_zeros(&self) -> Option<usize> {
        for (i, &limb) in self.limbs.iter().enumerate() {
            if limb != 0 {
                return Some(i * 64 + limb.trailing_zeros() as usize);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use crate::BigUint;

    #[test]
    fn bit_get_set_roundtrip() {
        let mut v = BigUint::zero();
        v.set_bit(0, true);
        v.set_bit(100, true);
        assert!(v.bit(0) && v.bit(100));
        assert!(!v.bit(50) && !v.bit(101));
        assert_eq!(v.count_ones(), 2);
        v.set_bit(100, false);
        assert_eq!(v, BigUint::one());
    }

    #[test]
    fn bits_at_matches_bit_by_bit() {
        let v = BigUint::from_limbs(vec![0x0123_4567_89ab_cdef, 0xfedc_ba98_7654_3210, 0x5a]);
        for lo in 0..200 {
            for len in [0usize, 1, 4, 8, 12, 63] {
                let want = (0..len).fold(0usize, |d, b| d | (v.bit(lo + b) as usize) << b);
                assert_eq!(v.bits_at(lo, len), want, "lo={lo} len={len}");
            }
        }
    }

    #[test]
    fn clearing_top_bit_normalizes() {
        let mut v = BigUint::zero();
        v.set_bit(64, true);
        assert_eq!(v.limb_len(), 2);
        v.set_bit(64, false);
        assert!(v.is_zero());
        assert_eq!(v.limb_len(), 0);
    }

    #[test]
    fn parity() {
        assert!(BigUint::zero().is_even());
        assert!(BigUint::one().is_odd());
        assert!(BigUint::from(u64::MAX).is_odd());
        assert!(BigUint::from(1u128 << 64).is_even());
    }

    #[test]
    fn trailing_zeros_across_limbs() {
        assert_eq!(BigUint::zero().trailing_zeros(), None);
        assert_eq!(BigUint::one().trailing_zeros(), Some(0));
        assert_eq!(BigUint::from(1u128 << 100).trailing_zeros(), Some(100));
    }
}
