//! Montgomery modular multiplication and exponentiation for odd moduli.
//!
//! All Damgård-Jurik moduli (`n`, `n^s`, `n^(s+1)`) are odd, so modular
//! exponentiation — the dominant cost of encryption, decryption shares, and
//! push-sum rescaling — always takes this fast path. The implementation is
//! the word-level CIOS (Coarsely Integrated Operand Scanning) algorithm with
//! a 4-bit fixed window for exponentiation.

use crate::BigUint;

/// Largest limb count served by the fixed-width kernels below. Moduli up to
/// `8 × 64 = 512` bits — every prime-power and `n^(s+1)` modulus in the test
/// parameter sets — run on stack arrays with fully unrolled loops; larger
/// moduli fall back to the heap-allocating generic routines. That includes
/// production keys: the CRT sides of a 2048-bit key (`p²`, `q²`) are 32
/// limbs each and take the dynamic path, as csbench's `sharded_packed_2048b`
/// workload shows.
const FIXED_MAX_LIMBS: usize = 8;

/// Fixed-width CIOS Montgomery multiplication: `a·b·R^{-1} mod n` with all
/// state in registers/stack. `K ≤ FIXED_MAX_LIMBS`.
#[inline(always)]
fn mmul_k<const K: usize>(a: &[u64; K], b: &[u64; K], n: &[u64; K], n0_inv: u64) -> [u64; K] {
    let mut t = [0u64; K];
    let mut t_hi = 0u64; // t[K]
    let mut t_hi2 = 0u64; // t[K+1] (0 or 1)
    for &ai in a.iter() {
        // t += ai * b
        let mut carry = 0u128;
        for j in 0..K {
            let s = t[j] as u128 + ai as u128 * b[j] as u128 + carry;
            t[j] = s as u64;
            carry = s >> 64;
        }
        let s = t_hi as u128 + carry;
        t_hi = s as u64;
        t_hi2 = (s >> 64) as u64;

        // m = t[0] * n0_inv mod 2^64; then t = (t + m*n) / 2^64
        let m = t[0].wrapping_mul(n0_inv);
        let s = t[0] as u128 + m as u128 * n[0] as u128;
        debug_assert_eq!(s as u64, 0);
        let mut carry = s >> 64;
        for j in 1..K {
            let s = t[j] as u128 + m as u128 * n[j] as u128 + carry;
            t[j - 1] = s as u64;
            carry = s >> 64;
        }
        let s = t_hi as u128 + carry;
        t[K - 1] = s as u64;
        let s2 = t_hi2 as u128 + (s >> 64);
        t_hi = s2 as u64;
        t_hi2 = 0;
        debug_assert_eq!(s2 >> 64, 0);
    }
    let _ = t_hi2;
    if t_hi != 0 || !lt_k(&t, n) {
        sub_k(&mut t, n);
    }
    t
}

/// Fixed-width Montgomery squaring (separated operand scanning, off-diagonal
/// products doubled). Scratch is sized for `FIXED_MAX_LIMBS`; only the first
/// `2K + 1` slots are touched.
#[inline(always)]
fn msqr_k<const K: usize>(a: &[u64; K], n: &[u64; K], n0_inv: u64) -> [u64; K] {
    let mut t = [0u64; 2 * FIXED_MAX_LIMBS + 1];
    for i in 0..K {
        let ai = a[i];
        let mut carry = 0u128;
        for j in (i + 1)..K {
            let s = t[i + j] as u128 + ai as u128 * a[j] as u128 + carry;
            t[i + j] = s as u64;
            carry = s >> 64;
        }
        t[i + K] = carry as u64;
    }
    // Double the off-diagonal triangle …
    let mut carry = 0u64;
    for limb in t.iter_mut().take(2 * K) {
        let next = *limb >> 63;
        *limb = (*limb << 1) | carry;
        carry = next;
    }
    debug_assert_eq!(carry, 0);
    // … and add the diagonal squares.
    let mut carry = 0u128;
    for i in 0..K {
        let sq = a[i] as u128 * a[i] as u128;
        let s = t[2 * i] as u128 + (sq as u64) as u128 + carry;
        t[2 * i] = s as u64;
        let s = t[2 * i + 1] as u128 + (sq >> 64) + (s >> 64);
        t[2 * i + 1] = s as u64;
        carry = s >> 64;
    }
    debug_assert_eq!(carry, 0);

    // Montgomery reduction: K rounds of t += m·n·2^(64i), then shift.
    for i in 0..K {
        let m = t[i].wrapping_mul(n0_inv);
        let mut carry = 0u128;
        for j in 0..K {
            let s = t[i + j] as u128 + m as u128 * n[j] as u128 + carry;
            t[i + j] = s as u64;
            carry = s >> 64;
        }
        let mut idx = i + K;
        while carry != 0 {
            let s = t[idx] as u128 + carry;
            t[idx] = s as u64;
            carry = s >> 64;
            idx += 1;
        }
    }
    let mut out = [0u64; K];
    out.copy_from_slice(&t[K..2 * K]);
    if t[2 * K] != 0 || !lt_k(&out, n) {
        sub_k(&mut out, n);
    }
    out
}

/// `a < b` over fixed-width limb arrays (little-endian).
#[inline(always)]
fn lt_k<const K: usize>(a: &[u64; K], b: &[u64; K]) -> bool {
    for j in (0..K).rev() {
        if a[j] != b[j] {
            return a[j] < b[j];
        }
    }
    false
}

/// `a -= n` in place; any top borrow cancels against the caller's carry limb.
#[inline(always)]
fn sub_k<const K: usize>(a: &mut [u64; K], n: &[u64; K]) {
    let mut borrow = 0u64;
    for j in 0..K {
        let (d1, b1) = a[j].overflowing_sub(n[j]);
        let (d2, b2) = d1.overflowing_sub(borrow);
        a[j] = d2;
        borrow = (b1 as u64) + (b2 as u64);
    }
}

/// Reusable Montgomery context for a fixed odd modulus.
///
/// ```
/// use cs_bigint::{BigUint, MontgomeryCtx};
///
/// let p = BigUint::from(1_000_000_007u64); // odd prime
/// let ctx = MontgomeryCtx::new(&p);
/// // Fermat: a^(p-1) ≡ 1 (mod p)
/// let a = BigUint::from(42u64);
/// assert!(ctx.pow_mod(&a, &p.sub_u64(1)).is_one());
/// ```
#[derive(Clone, Debug)]
pub struct MontgomeryCtx {
    /// The modulus `n` (odd, > 1).
    n: Vec<u64>,
    /// `-n^{-1} mod 2^64`.
    n0_inv: u64,
    /// `R² mod n` where `R = 2^(64·limbs)`; converts into Montgomery form.
    rr: Vec<u64>,
    /// `R mod n`: the Montgomery representation of 1.
    one: Vec<u64>,
}

impl MontgomeryCtx {
    /// Builds a context for an odd modulus `> 1`.
    ///
    /// Panics if `n` is even or `<= 1`.
    pub fn new(n: &BigUint) -> Self {
        assert!(
            n.is_odd() && !n.is_one(),
            "Montgomery requires an odd modulus > 1"
        );
        let limbs = n.limbs().to_vec();
        let k = limbs.len();

        // n0_inv = -n^{-1} mod 2^64 via Newton-Hensel lifting:
        // x_{i+1} = x_i * (2 - n*x_i) doubles correct low bits each step.
        let n0 = limbs[0];
        let mut x = n0; // correct to 3 bits for odd n0? Start: x ≡ n0^{-1} mod 2^3.
        for _ in 0..5 {
            x = x.wrapping_mul(2u64.wrapping_sub(n0.wrapping_mul(x)));
        }
        debug_assert_eq!(n0.wrapping_mul(x), 1);
        let n0_inv = x.wrapping_neg();

        // R mod n and R² mod n via plain division (setup cost only).
        let r = BigUint::one() << (64 * k);
        let one = (&r % n).limbs().to_vec();
        let rr = (&(&r * &r) % n).limbs().to_vec();

        MontgomeryCtx {
            n: limbs,
            n0_inv,
            rr: pad(rr, k),
            one: pad(one, k),
        }
    }

    /// The modulus.
    pub fn modulus(&self) -> BigUint {
        BigUint::from_limbs(self.n.clone())
    }

    /// Number of limbs of the modulus.
    fn k(&self) -> usize {
        self.n.len()
    }

    /// CIOS Montgomery multiplication: returns `a·b·R^{-1} mod n` for
    /// `a, b < n` given as padded limb slices of length `k`.
    pub(crate) fn mont_mul(&self, a: &[u64], b: &[u64]) -> Vec<u64> {
        let k = self.k();
        debug_assert!(a.len() == k && b.len() == k);
        macro_rules! fixed {
            ($K:literal) => {{
                let a: &[u64; $K] = a.try_into().unwrap();
                let b: &[u64; $K] = b.try_into().unwrap();
                let n: &[u64; $K] = self.n.as_slice().try_into().unwrap();
                return mmul_k(a, b, n, self.n0_inv).to_vec();
            }};
        }
        match k {
            1 => fixed!(1),
            2 => fixed!(2),
            3 => fixed!(3),
            4 => fixed!(4),
            5 => fixed!(5),
            6 => fixed!(6),
            7 => fixed!(7),
            8 => fixed!(8),
            _ => {}
        }
        // t has k+2 limbs: accumulator for the running sum.
        let mut t = vec![0u64; k + 2];
        for &ai in a.iter() {
            // t += ai * b
            let mut carry = 0u128;
            for j in 0..k {
                let s = t[j] as u128 + ai as u128 * b[j] as u128 + carry;
                t[j] = s as u64;
                carry = s >> 64;
            }
            let s = t[k] as u128 + carry;
            t[k] = s as u64;
            t[k + 1] = (s >> 64) as u64;

            // m = t[0] * n0_inv mod 2^64; then t = (t + m*n) / 2^64
            let m = t[0].wrapping_mul(self.n0_inv);
            let s = t[0] as u128 + m as u128 * self.n[0] as u128;
            debug_assert_eq!(s as u64, 0);
            let mut carry = s >> 64;
            for j in 1..k {
                let s = t[j] as u128 + m as u128 * self.n[j] as u128 + carry;
                t[j - 1] = s as u64;
                carry = s >> 64;
            }
            let s = t[k] as u128 + carry;
            t[k - 1] = s as u64;
            let s2 = t[k + 1] as u128 + (s >> 64);
            t[k] = s2 as u64;
            t[k + 1] = 0;
            debug_assert_eq!(s2 >> 64, 0);
        }
        // Final conditional subtraction: t may be in [0, 2n).
        let needs_sub =
            t[k] != 0 || BigUint::cmp_limbs(&t[..k], &self.n) != std::cmp::Ordering::Less;
        let mut out = t;
        if needs_sub {
            let mut borrow = 0u64;
            #[allow(clippy::needless_range_loop)] // lockstep over out and self.n
            for j in 0..k {
                let (d1, b1) = out[j].overflowing_sub(self.n[j]);
                let (d2, b2) = d1.overflowing_sub(borrow);
                out[j] = d2;
                borrow = (b1 as u64) + (b2 as u64);
            }
            out[k] = out[k].wrapping_sub(borrow);
            debug_assert_eq!(out[k], 0);
        }
        out.truncate(k);
        out
    }

    /// Montgomery squaring: returns `a²·R^{-1} mod n` for `a < n`.
    ///
    /// Separated-operand-scanning form: the full double-width square is
    /// computed first (off-diagonal products counted once and doubled, so
    /// ~k²/2 word multiplications instead of k²), then reduced with k
    /// Montgomery reduction rounds — ~25% fewer word multiplications than
    /// `mont_mul(a, a)`, and squarings dominate every exponentiation chain.
    pub(crate) fn mont_sqr(&self, a: &[u64]) -> Vec<u64> {
        let k = self.k();
        debug_assert_eq!(a.len(), k);
        macro_rules! fixed {
            ($K:literal) => {{
                let a: &[u64; $K] = a.try_into().unwrap();
                let n: &[u64; $K] = self.n.as_slice().try_into().unwrap();
                return msqr_k(a, n, self.n0_inv).to_vec();
            }};
        }
        match k {
            1 => fixed!(1),
            2 => fixed!(2),
            3 => fixed!(3),
            4 => fixed!(4),
            5 => fixed!(5),
            6 => fixed!(6),
            7 => fixed!(7),
            8 => fixed!(8),
            _ => {}
        }
        // t = a² over 2k limbs (+1 guard limb for reduction carries).
        let mut t = vec![0u64; 2 * k + 1];
        for i in 0..k {
            let mut carry = 0u128;
            for j in (i + 1)..k {
                let s = t[i + j] as u128 + a[i] as u128 * a[j] as u128 + carry;
                t[i + j] = s as u64;
                carry = s >> 64;
            }
            t[i + k] = carry as u64;
        }
        // Double the off-diagonal triangle …
        let mut carry = 0u64;
        for limb in t.iter_mut().take(2 * k) {
            let next = *limb >> 63;
            *limb = (*limb << 1) | carry;
            carry = next;
        }
        debug_assert_eq!(carry, 0);
        // … and add the diagonal squares.
        let mut carry = 0u128;
        for i in 0..k {
            let sq = a[i] as u128 * a[i] as u128;
            let s = t[2 * i] as u128 + (sq as u64) as u128 + carry;
            t[2 * i] = s as u64;
            let s = t[2 * i + 1] as u128 + (sq >> 64) + (s >> 64);
            t[2 * i + 1] = s as u64;
            carry = s >> 64;
        }
        debug_assert_eq!(carry, 0);

        // Montgomery reduction: k rounds of t += m·n·2^(64i), then shift.
        for i in 0..k {
            let m = t[i].wrapping_mul(self.n0_inv);
            let mut carry = 0u128;
            for j in 0..k {
                let s = t[i + j] as u128 + m as u128 * self.n[j] as u128 + carry;
                t[i + j] = s as u64;
                carry = s >> 64;
            }
            let mut idx = i + k;
            while carry != 0 {
                let s = t[idx] as u128 + carry;
                t[idx] = s as u64;
                carry = s >> 64;
                idx += 1;
            }
        }
        let needs_sub =
            t[2 * k] != 0 || BigUint::cmp_limbs(&t[k..2 * k], &self.n) != std::cmp::Ordering::Less;
        let mut out = t[k..=2 * k].to_vec();
        if needs_sub {
            let mut borrow = 0u64;
            #[allow(clippy::needless_range_loop)] // lockstep over out and self.n
            for j in 0..k {
                let (d1, b1) = out[j].overflowing_sub(self.n[j]);
                let (d2, b2) = d1.overflowing_sub(borrow);
                out[j] = d2;
                borrow = (b1 as u64) + (b2 as u64);
            }
            out[k] = out[k].wrapping_sub(borrow);
            debug_assert_eq!(out[k], 0);
        }
        out.truncate(k);
        out
    }

    /// The Montgomery representation of 1 (for chain accumulators).
    pub(crate) fn one_mont(&self) -> Vec<u64> {
        self.one.clone()
    }

    /// Converts `a < n` into Montgomery form (`a·R mod n`).
    pub(crate) fn to_mont(&self, a: &BigUint) -> Vec<u64> {
        debug_assert!(*a < self.modulus());
        self.mont_mul(&pad(a.limbs().to_vec(), self.k()), &self.rr)
    }

    /// Converts out of Montgomery form (`a·R^{-1} mod n`).
    #[allow(clippy::wrong_self_convention)] // "from Montgomery domain", not a constructor
    pub(crate) fn from_mont(&self, a: &[u64]) -> BigUint {
        let k = self.k();
        let one = pad(vec![1], k);
        BigUint::from_limbs(self.mont_mul(a, &one))
    }

    /// `a · b mod n` for `a, b < n`.
    pub fn mul_mod(&self, a: &BigUint, b: &BigUint) -> BigUint {
        // (a·R) · b · R⁻¹ = a·b: one operand in Montgomery form cancels the
        // reduction's R⁻¹, so the product never needs converting back.
        debug_assert!(*b < self.modulus());
        let b = pad(b.limbs().to_vec(), self.k());
        BigUint::from_limbs(self.mont_mul(&self.to_mont(a), &b))
    }

    /// `base^exp mod n` with a windowed square-and-multiply chain.
    ///
    /// `base` is reduced mod `n` first; `exp` may be any size. The window
    /// width adapts to the exponent: 4-bit windows (15-entry table) for
    /// long exponents, plain binary for short ones where building the
    /// table would cost more multiplications than it saves.
    pub fn pow_mod(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        if exp.is_zero() {
            return BigUint::one() % self.modulus();
        }
        let base = base % &self.modulus();
        let base_m = if base.is_zero() {
            return BigUint::zero();
        } else {
            self.to_mont(&base)
        };

        // Fixed-width fast path: the whole chain (window table, squarings,
        // multiplies) lives in stack arrays — no per-operation allocation.
        macro_rules! fixed {
            ($K:literal) => {{
                return self.pow_windowed_fixed::<$K>(&base_m, exp);
            }};
        }
        match self.k() {
            1 => fixed!(1),
            2 => fixed!(2),
            3 => fixed!(3),
            4 => fixed!(4),
            5 => fixed!(5),
            6 => fixed!(6),
            7 => fixed!(7),
            8 => fixed!(8),
            _ => {}
        }

        let bits = exp.bit_len();
        let window = if bits >= 32 { 4usize } else { 1 };

        // Precompute base^1 .. base^(2^w − 1) in Montgomery form.
        let mut table = Vec::with_capacity((1 << window) - 1);
        table.push(base_m.clone());
        for i in 1..(1 << window) - 1 {
            let prev: &Vec<u64> = &table[i - 1];
            table.push(self.mont_mul(prev, &base_m));
        }

        // Process the exponent in windows, most significant first:
        // acc = acc^(2^w) · base^digit per window, starting from acc = 1.
        let top_window = bits.div_ceil(window);
        let mut acc = self.one.clone();
        for w in (0..top_window).rev() {
            if w + 1 != top_window {
                for _ in 0..window {
                    acc = self.mont_sqr(&acc);
                }
            }
            let mut digit = 0usize;
            for b in (0..window).rev() {
                let bit_idx = w * window + b;
                digit <<= 1;
                if bit_idx < bits && exp.bit(bit_idx) {
                    digit |= 1;
                }
            }
            if digit != 0 {
                acc = self.mont_mul(&acc, &table[digit - 1]);
            }
        }
        self.from_mont(&acc)
    }

    /// Windowed exponentiation specialized to a `K`-limb modulus: identical
    /// chain to the generic [`Self::pow_mod`] body, but every intermediate
    /// is a stack array and the CIOS/SOS inner loops unroll at compile time.
    fn pow_windowed_fixed<const K: usize>(&self, base_m: &[u64], exp: &BigUint) -> BigUint {
        let n: &[u64; K] = self.n.as_slice().try_into().unwrap();
        let n0 = self.n0_inv;
        let base: &[u64; K] = base_m.try_into().unwrap();

        let bits = exp.bit_len();
        let window = if bits >= 32 { 4usize } else { 1 };
        let table_len = (1usize << window) - 1;
        let mut table = [[0u64; K]; 15];
        table[0] = *base;
        for i in 1..table_len {
            table[i] = mmul_k(&table[i - 1], base, n, n0);
        }

        let top_window = bits.div_ceil(window);
        let mut acc: [u64; K] = self.one.as_slice().try_into().unwrap();
        for w in (0..top_window).rev() {
            if w + 1 != top_window {
                for _ in 0..window {
                    acc = msqr_k(&acc, n, n0);
                }
            }
            let mut digit = 0usize;
            for b in (0..window).rev() {
                let bit_idx = w * window + b;
                digit <<= 1;
                if bit_idx < bits && exp.bit(bit_idx) {
                    digit |= 1;
                }
            }
            if digit != 0 {
                acc = mmul_k(&acc, &table[digit - 1], n, n0);
            }
        }
        self.from_mont(&acc)
    }

    /// `base^(2^j) mod n`: exactly `j` Montgomery squarings, no window
    /// table. The push-sum denominator alignment multiplies plaintexts by
    /// small powers of two on every absorbed message, so skipping the
    /// table build that a generic [`Self::pow_mod`] would pay matters.
    pub fn pow_mod_pow2(&self, base: &BigUint, j: u32) -> BigUint {
        let base = base % &self.modulus();
        if base.is_zero() {
            return BigUint::zero();
        }
        let acc = self.to_mont(&base);
        macro_rules! fixed {
            ($K:literal) => {{
                let n: &[u64; $K] = self.n.as_slice().try_into().unwrap();
                let mut a: [u64; $K] = acc.as_slice().try_into().unwrap();
                for _ in 0..j {
                    a = msqr_k(&a, n, self.n0_inv);
                }
                return self.from_mont(&a);
            }};
        }
        match self.k() {
            1 => fixed!(1),
            2 => fixed!(2),
            3 => fixed!(3),
            4 => fixed!(4),
            5 => fixed!(5),
            6 => fixed!(6),
            7 => fixed!(7),
            8 => fixed!(8),
            _ => {}
        }
        let mut acc = acc;
        for _ in 0..j {
            acc = self.mont_sqr(&acc);
        }
        self.from_mont(&acc)
    }
}

fn pad(mut v: Vec<u64>, k: usize) -> Vec<u64> {
    v.resize(k.max(v.len()), 0);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_mul_mod(a: u128, b: u128, m: u128) -> u128 {
        // Only valid when operands fit in u64 so the product fits u128.
        (a * b) % m
    }

    #[test]
    fn mul_mod_matches_naive_u64() {
        let m = BigUint::from(0xffff_ffff_ffff_ffc5u64); // odd
        let ctx = MontgomeryCtx::new(&m);
        let a = BigUint::from(0x1234_5678_9abc_def1u64);
        let b = BigUint::from(0x0fed_cba9_8765_4321u64);
        let got = ctx.mul_mod(&a, &b);
        let want = naive_mul_mod(
            0x1234_5678_9abc_def1u128,
            0x0fed_cba9_8765_4321u128,
            0xffff_ffff_ffff_ffc5u128,
        );
        assert_eq!(got.to_u128(), Some(want));
    }

    /// `mul_mod` against schoolbook `(a·b) % n` on both sides of
    /// `FIXED_MAX_LIMBS`: the fixed-width kernels (1, 8 limbs) and the
    /// dynamic path (32, 64 limbs), including the edge operands.
    #[test]
    fn mul_mod_matches_schoolbook_across_limb_counts() {
        // xorshift64*: deterministic, full-width limbs.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        for k in [1usize, 8, 32, 64] {
            let mut limbs: Vec<u64> = (0..k).map(|_| next()).collect();
            limbs[0] |= 1; // odd
            limbs[k - 1] |= 1 << 63; // exactly k limbs
            let n = BigUint::from_limbs(limbs);
            let ctx = MontgomeryCtx::new(&n);
            let n_minus_1 = n.sub_u64(1);
            let mut operands = vec![BigUint::zero(), BigUint::one(), n_minus_1];
            for _ in 0..6 {
                operands.push(&BigUint::from_limbs((0..k).map(|_| next()).collect()) % &n);
            }
            for a in &operands {
                for b in &operands {
                    assert_eq!(ctx.mul_mod(a, b), &(a * b) % &n, "{k}-limb modulus");
                }
            }
        }
    }

    #[test]
    fn pow_mod_matches_fermat() {
        // p prime → a^(p-1) ≡ 1 (mod p)
        let p = BigUint::from(1_000_000_007u64);
        let ctx = MontgomeryCtx::new(&p);
        let a = BigUint::from(123_456u64);
        assert_eq!(ctx.pow_mod(&a, &p.sub_u64(1)), BigUint::one());
    }

    #[test]
    fn pow_mod_edge_exponents() {
        let m = BigUint::from(101u64);
        let ctx = MontgomeryCtx::new(&m);
        let a = BigUint::from(7u64);
        assert_eq!(ctx.pow_mod(&a, &BigUint::zero()), BigUint::one());
        assert_eq!(ctx.pow_mod(&a, &BigUint::one()), a);
        assert_eq!(
            ctx.pow_mod(&BigUint::zero(), &BigUint::from(5u64)),
            BigUint::zero()
        );
    }

    #[test]
    fn pow_mod_multi_limb_modulus() {
        // Compare against repeated mul_mod for a 192-bit modulus.
        let m = BigUint::from_limbs(vec![0xffff_ffff_ffff_fff1, 0xabcd, 0x1]);
        let m = if m.is_even() { m.add_u64(1) } else { m };
        let ctx = MontgomeryCtx::new(&m);
        let a = BigUint::from_limbs(vec![0xdead_beef, 0xcafe]);
        let mut expect = BigUint::one();
        for _ in 0..37 {
            expect = ctx.mul_mod(&expect, &a);
        }
        assert_eq!(ctx.pow_mod(&a, &BigUint::from(37u64)), expect);
    }

    #[test]
    fn base_reduced_before_exponentiation() {
        let m = BigUint::from(97u64);
        let ctx = MontgomeryCtx::new(&m);
        let big_base = BigUint::from(97u64 * 3 + 5);
        assert_eq!(
            ctx.pow_mod(&big_base, &BigUint::from(10u64)),
            ctx.pow_mod(&BigUint::from(5u64), &BigUint::from(10u64))
        );
    }

    #[test]
    #[should_panic(expected = "odd modulus")]
    fn even_modulus_rejected() {
        MontgomeryCtx::new(&BigUint::from(100u64));
    }

    #[test]
    fn mont_sqr_matches_mont_mul_self() {
        use crate::rng::random_below;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(99);
        // Moduli from 1 to 8 limbs, values spanning the full range.
        for limbs in 1..=8usize {
            let m = {
                let v = crate::rng::random_bits(&mut rng, limbs * 64);
                if v.is_even() {
                    v.add_u64(1)
                } else {
                    v
                }
            };
            if m.is_one() {
                continue;
            }
            let ctx = MontgomeryCtx::new(&m);
            for _ in 0..25 {
                let a = random_below(&mut rng, &m);
                let am = pad(a.limbs().to_vec(), ctx.k());
                assert_eq!(
                    ctx.mont_sqr(&am),
                    ctx.mont_mul(&am, &am),
                    "limbs={limbs} a={a:?}"
                );
            }
            // Edge values: 0, 1, m−1.
            for a in [BigUint::zero(), BigUint::one(), m.sub_u64(1)] {
                let am = pad(a.limbs().to_vec(), ctx.k());
                assert_eq!(ctx.mont_sqr(&am), ctx.mont_mul(&am, &am));
            }
        }
    }

    #[test]
    fn pow_mod_pow2_matches_generic() {
        let m = BigUint::from_limbs(vec![0xffff_ffff_ffff_ff43, 0xabc]);
        let ctx = MontgomeryCtx::new(&m);
        let base = BigUint::from(0x1234_5678u64);
        for j in [0u32, 1, 5, 13, 30] {
            assert_eq!(
                ctx.pow_mod_pow2(&base, j),
                ctx.pow_mod(&base, &(BigUint::one() << j as usize)),
                "j={j}"
            );
        }
        assert!(ctx.pow_mod_pow2(&BigUint::zero(), 4).is_zero());
    }

    #[test]
    fn pow_mod_short_exponents_match_long_path_semantics() {
        // Exponents straddling the adaptive-window threshold agree with
        // iterated multiplication.
        let m = BigUint::from_limbs(vec![0xffff_ffff_ffff_fff1, 0x7]);
        let ctx = MontgomeryCtx::new(&m);
        let a = BigUint::from(3u64);
        let mut expect = BigUint::one();
        for e in 1..=64u64 {
            expect = ctx.mul_mod(&expect, &a);
            assert_eq!(ctx.pow_mod(&a, &BigUint::from(e)), expect, "e={e}");
        }
    }
}
