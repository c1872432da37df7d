//! The wide-modulus Montgomery engine: radix-2^52 almost-Montgomery
//! multiplication on AVX-512 IFMA.
//!
//! A residue is `N` words of 52 bits, one per `u64`, with `N` the fewest
//! multiple of 8 (one vector) that holds `bits(n) + 2` bits, and
//! `R = 2^(52·N)`. Because `R ≥ 4n`, the almost-Montgomery product of two
//! values below `2n` is again below `2n` without a final subtraction
//! (Gueron and Krasnov, *Accelerating big integer arithmetic using Intel
//! IFMA extensions*, ARITH 2016): values inside the domain live in
//! `[0, 2n)`, and [`Ifma::value`] makes them canonical on the way out.
//!
//! The kernel is operand scanning, one multiplier word per row. A row adds
//! `a·b_i` and `y·n` (the low 52 bits of each word product with
//! `vpmadd52luq`), drops the now-zero bottom word with one `valignq` across
//! the accumulator's vectors, then adds the high 52 bits (`vpmadd52huq`)
//! one position down. Accumulator words are left unnormalised until the
//! end: a row adds less than `2^54` to a word, so `N ≤ 128` rows stay
//! below `2^62`. The bottom word's carry and the reduction digit `y` are
//! tracked in a general-purpose register, so a row moves one word out of
//! the vector unit and none back in.
//!
//! [`Ifma::new`] returns an engine only on a CPU that reports `avx512f`
//! and `avx512ifma`, which is what makes the kernel's `unsafe` calls
//! sound. This is the crate's only module with `unsafe` code.

#![allow(unsafe_code)]

use crate::BigUint;

/// Bits per word.
const WORD_BITS: usize = 52;

/// The low [`WORD_BITS`] bits of a word.
const MASK: u64 = (1 << WORD_BITS) - 1;

/// Words per vector.
const LANES: usize = 8;

/// Widest residue the kernel is built for, in vectors: 128 words, moduli of
/// up to 6 654 bits (a 2048-bit key's `n³`).
const MAX_VECTORS: usize = 16;

/// A modulus prepared for the IFMA kernel.
#[derive(Clone, Debug)]
pub(crate) struct Ifma {
    /// The modulus in [`Self::words`] 52-bit words.
    m: Vec<u64>,
    /// `−n^{-1} mod 2^52`.
    k0: u64,
}

impl Ifma {
    /// The engine for an odd modulus `n` with `n0_inv = −n^{-1} mod 2^64`,
    /// or `None` if this CPU lacks AVX-512 IFMA or `n` is wider than the
    /// kernel.
    pub(crate) fn new(n: &BigUint, n0_inv: u64) -> Option<Self> {
        let words = (n.bit_len() + 2)
            .div_ceil(WORD_BITS)
            .next_multiple_of(LANES);
        if words > MAX_VECTORS * LANES || !detected() {
            return None;
        }
        let mut m = vec![0u64; words];
        load(&mut m, n.limbs());
        Some(Ifma {
            m,
            k0: n0_inv & MASK,
        })
    }

    /// Words per residue.
    pub(crate) fn words(&self) -> usize {
        self.m.len()
    }

    /// `log2 R`.
    pub(crate) fn r_bits(&self) -> usize {
        WORD_BITS * self.words()
    }

    /// `out = a·b·R^{-1} mod n`, in `[0, 2n)`, for `a, b < 2n`.
    pub(crate) fn mul(&self, out: &mut [u64], a: &[u64], b: &[u64]) {
        // SAFETY: `Ifma::new` builds an `Ifma` only on a CPU that reported
        // `avx512f` and `avx512ifma`.
        unsafe { kernel::amm(out, a, b, &self.m, self.k0) };
    }

    /// `out` = `a < R` in words.
    pub(crate) fn load(&self, out: &mut [u64], a: &BigUint) {
        load(out, a.limbs());
    }

    /// The canonical residue of an in-domain `x < 2n`, as an integer.
    pub(crate) fn value(&self, x: &[u64]) -> BigUint {
        let mut x = x.to_vec();
        if x.iter().rev().cmp(self.m.iter().rev()).is_ge() {
            let mut borrow = 0u64;
            for (w, &m) in x.iter_mut().zip(&self.m) {
                let d = w.wrapping_sub(m).wrapping_sub(borrow);
                *w = d & MASK;
                borrow = d >> 63;
            }
            debug_assert_eq!(borrow, 0, "an in-domain value is below 2n");
        }
        integer(&x)
    }
}

/// The integer that normalised 52-bit `words` spell, as they stand.
pub(crate) fn integer(words: &[u64]) -> BigUint {
    let mut limbs = vec![0u64; (WORD_BITS * words.len()).div_ceil(64)];
    for (i, &w) in words.iter().enumerate() {
        let (limb, shift) = (WORD_BITS * i / 64, WORD_BITS * i % 64);
        limbs[limb] |= w << shift;
        if shift + WORD_BITS > 64 {
            limbs[limb + 1] |= w >> (64 - shift);
        }
    }
    BigUint::from_limbs(limbs)
}

/// Whether this CPU runs the kernel.
fn detected() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512ifma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// `out` = the 64-bit `limbs` in 52-bit words (`limbs` below `2^(52·out.len())`).
fn load(out: &mut [u64], limbs: &[u64]) {
    debug_assert!(limbs.len() * 64 <= WORD_BITS * out.len() + 63);
    for (i, w) in out.iter_mut().enumerate() {
        let (limb, shift) = (WORD_BITS * i / 64, WORD_BITS * i % 64);
        let lo = limbs.get(limb).copied().unwrap_or(0) as u128;
        let hi = limbs.get(limb + 1).copied().unwrap_or(0) as u128;
        *w = ((hi << 64 | lo) >> shift) as u64 & MASK;
    }
}

#[cfg(target_arch = "x86_64")]
mod kernel {
    use super::{LANES, MASK, WORD_BITS};
    use std::arch::x86_64::*;

    /// Almost-Montgomery multiplication, `out = a·b·R^{-1} mod m` in
    /// `[0, 2m)` for `a, b < 2m`, every slice `N = 8·vectors` normalised
    /// words.
    ///
    /// # Safety
    ///
    /// The CPU must support `avx512f` and `avx512ifma`.
    pub(super) unsafe fn amm(out: &mut [u64], a: &[u64], b: &[u64], m: &[u64], k0: u64) {
        macro_rules! by_vectors {
            ($($l:literal)*) => {
                match m.len() / LANES {
                    // SAFETY: the caller vouches for the CPU features.
                    $($l => unsafe { amm_l::<$l>(out, a, b, m, k0) },)*
                    _ => unreachable!("Ifma::new bounds the width"),
                }
            };
        }
        by_vectors!(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16)
    }

    /// [`amm`] over `L` vectors, the accumulator and both operands' vectors
    /// in registers where they fit.
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn amm_l<const L: usize>(out: &mut [u64], a: &[u64], b: &[u64], m: &[u64], k0: u64) {
        let n = L * LANES;
        assert!(out.len() == n && a.len() == n && b.len() == n && m.len() == n);
        let zero = _mm512_setzero_si512();
        let (mut av, mut mv, mut acc) = ([zero; L], [zero; L], [zero; L]);
        for v in 0..L {
            // SAFETY: `a` and `m` hold `8·L` words (asserted), so words
            // `8v..8v+8` are in bounds; `loadu` has no alignment demand.
            unsafe {
                av[v] = _mm512_loadu_si512(a[LANES * v..].as_ptr().cast());
                mv[v] = _mm512_loadu_si512(m[LANES * v..].as_ptr().cast());
            }
        }
        let (a0, m0) = (a[0] as u128, m[0] as u128);
        // The bottom word's carry, owed to the next row's bottom word.
        let mut carry = 0u64;
        for &bi in b {
            // The bottom word as the low products will leave it, and the
            // digit that clears it.
            let bottom = _mm_cvtsi128_si64(_mm512_castsi512_si128(acc[0])) as u64;
            let t = bottom + carry + ((a0 * bi as u128) as u64 & MASK);
            let y = t.wrapping_mul(k0) & MASK;
            carry = (t + ((m0 * y as u128) as u64 & MASK)) >> WORD_BITS;
            let (bv, yv) = (_mm512_set1_epi64(bi as i64), _mm512_set1_epi64(y as i64));
            for v in 0..L {
                acc[v] = _mm512_madd52lo_epu64(acc[v], av[v], bv);
                acc[v] = _mm512_madd52lo_epu64(acc[v], mv[v], yv);
            }
            // The bottom word is zero mod 2^52 (its carry is held above):
            // shift everything down a word.
            for v in 0..L - 1 {
                acc[v] = _mm512_alignr_epi64::<1>(acc[v + 1], acc[v]);
            }
            acc[L - 1] = _mm512_alignr_epi64::<1>(zero, acc[L - 1]);
            for v in 0..L {
                acc[v] = _mm512_madd52hi_epu64(acc[v], av[v], bv);
                acc[v] = _mm512_madd52hi_epu64(acc[v], mv[v], yv);
            }
        }
        for (v, &x) in acc.iter().enumerate() {
            // SAFETY: `out` holds `8·L` words (asserted).
            unsafe { _mm512_storeu_si512(out[LANES * v..].as_mut_ptr().cast(), x) };
        }
        for w in out.iter_mut() {
            let s = *w + carry;
            *w = s & MASK;
            carry = s >> WORD_BITS;
        }
        debug_assert_eq!(carry, 0, "the product is below 2m < R");
    }
}

#[cfg(not(target_arch = "x86_64"))]
mod kernel {
    /// Never called: `Ifma::new` returns `None` off x86-64.
    ///
    /// # Safety
    ///
    /// None needed; it panics.
    pub(super) unsafe fn amm(_: &mut [u64], _: &[u64], _: &[u64], _: &[u64], _: u64) {
        unreachable!("Ifma::new returns None off x86-64")
    }
}
