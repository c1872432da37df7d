//! Fixed-base windowed modular exponentiation.
//!
//! The generic [`MontgomeryCtx::pow_mod`] spends one squaring per exponent
//! bit plus one multiplication per window of a few bits. When the *base* is
//! known ahead of time and many exponents will be raised to it — the
//! Damgård-Jurik randomizer base `h^(n^s)` on the encryption hot path, the
//! generator `(1+n)` when the binomial shortcut does not apply — all the
//! squarings can be paid once, at table-build time: precompute
//! `base^(d · 2^(w·i))` for every window position `i` and digit `d`, and an
//! exponentiation collapses to one Montgomery multiplication per non-zero
//! window. For a `B`-bit exponent that is ≤ `B/w` multiplications instead
//! of `B` squarings + `B/w` multiplications — a ~4–5× reduction at `w = 4`,
//! ~9× at `w = 8` (at `2^w` times the table size and build cost, so wide
//! windows only pay off for tables that serve very many exponentiations).

use crate::{BigUint, MontgomeryCtx};

/// Default window width in bits. 4 keeps the table at `15 · ⌈bits/4⌉`
/// entries — the sweet spot when a table serves tens-to-hundreds of
/// exponentiations. Callers that reuse one table across thousands of
/// exponentiations (the gossip re-randomization path) should pick a wider
/// window via [`FixedBaseExp::with_window`].
const DEFAULT_WINDOW_BITS: usize = 4;

/// Precomputed fixed-base exponentiation table for one `(base, modulus)`
/// pair, valid for exponents up to a declared bit length (larger exponents
/// transparently fall back to the generic square-and-multiply path).
///
/// ```
/// use cs_bigint::{BigUint, FixedBaseExp, MontgomeryCtx};
///
/// let m = BigUint::from(1_000_000_007u64);
/// let ctx = MontgomeryCtx::new(&m);
/// let base = BigUint::from(42u64);
/// let fixed = FixedBaseExp::new(&ctx, &base, 128);
/// let e = BigUint::from(123_456_789u64);
/// assert_eq!(fixed.pow_mod(&e), ctx.pow_mod(&base, &e));
/// ```
#[derive(Clone, Debug)]
pub struct FixedBaseExp {
    ctx: MontgomeryCtx,
    /// The base reduced mod n (kept for the oversized-exponent fallback).
    base: BigUint,
    /// `base^(d · 2^(window_bits·i))` in Montgomery form for window `i` and
    /// digit `d ≥ 1`, as one flat run of `k`-limb entries (see
    /// [`Self::entry`]): the 1024-bit-exponent, 8-bit-window table of a
    /// 2048-bit key's randomizers is 128 × 255 = 32 640 entries of 64
    /// limbs, ~16 MiB, in a single allocation. Empty for a zero base.
    table: Vec<u64>,
    window_bits: usize,
    max_exp_bits: usize,
}

impl FixedBaseExp {
    /// Builds the window tables for exponents of up to `max_exp_bits` bits
    /// at the default 4-bit window.
    ///
    /// Table cost: `⌈max_exp_bits/4⌉ · 15` modulus-sized entries, built with
    /// one Montgomery multiplication each — amortized after a handful of
    /// exponentiations.
    pub fn new(ctx: &MontgomeryCtx, base: &BigUint, max_exp_bits: usize) -> Self {
        Self::with_window(ctx, base, max_exp_bits, DEFAULT_WINDOW_BITS)
    }

    /// Builds the window tables with an explicit window width (1..=12
    /// bits). Wider windows trade `(2^w − 1) · ⌈bits/w⌉` table entries —
    /// built once, one Montgomery multiplication each — for `⌈bits/w⌉`
    /// multiplications per exponentiation.
    ///
    /// Panics if `window_bits` is outside `1..=12` (a 13-bit window table
    /// would already be megabytes per position — a misuse, not a tuning).
    pub fn with_window(
        ctx: &MontgomeryCtx,
        base: &BigUint,
        max_exp_bits: usize,
        window_bits: usize,
    ) -> Self {
        assert!(
            (1..=12).contains(&window_bits),
            "window_bits must be in 1..=12"
        );
        let digits = (1usize << window_bits) - 1; // non-zero digits per window
        let base = base % ctx.modulus();
        let windows = max_exp_bits.max(1).div_ceil(window_bits);
        let mut table = Vec::new();
        if !base.is_zero() {
            let k = ctx.limbs();
            table = vec![0u64; windows * digits * k];
            let mut scratch = vec![0u64; ctx.scratch_len()];
            // Each entry is the one before it times the window's first entry
            // `base^(2^(window_bits·i))`; the entry after a window's last
            // digit, `base^(2^w · 2^(wi))`, is the next window's first.
            ctx.to_mont_into(&mut table[..k], &base, &mut scratch);
            for e in 1..windows * digits {
                let (done, rest) = table.split_at_mut(e * k);
                let first = (e - 1) / digits * digits * k;
                ctx.mont_mul_into(
                    &mut rest[..k],
                    &done[(e - 1) * k..],
                    &done[first..first + k],
                    &mut scratch,
                );
            }
        }
        FixedBaseExp {
            ctx: ctx.clone(),
            base,
            table,
            window_bits,
            max_exp_bits: windows * window_bits,
        }
    }

    /// The largest exponent bit length the tables cover.
    pub fn max_exp_bits(&self) -> usize {
        self.max_exp_bits
    }

    /// The window width the tables were built with.
    pub fn window_bits(&self) -> usize {
        self.window_bits
    }

    /// The modulus the table was built for.
    pub fn modulus(&self) -> &BigUint {
        self.ctx.modulus()
    }

    /// Bytes of precomputed table this value keeps resident.
    pub fn table_bytes(&self) -> usize {
        std::mem::size_of_val(self.table.as_slice())
    }

    /// `base^(digit · 2^(window_bits·window))` for `digit ≥ 1`.
    fn entry(&self, window: usize, digit: usize) -> &[u64] {
        let k = self.ctx.limbs();
        let digits = (1usize << self.window_bits) - 1;
        &self.table[(window * digits + digit - 1) * k..][..k]
    }

    /// `base^exp mod n` using the precomputed tables: one Montgomery
    /// multiplication per non-zero window, zero squarings, and no allocation
    /// between the first multiplication and the last.
    ///
    /// Exponents longer than [`Self::max_exp_bits`] fall back to the generic
    /// [`MontgomeryCtx::pow_mod`] (correct, just not accelerated).
    pub fn pow_mod(&self, exp: &BigUint) -> BigUint {
        if exp.is_zero() {
            return BigUint::one() % self.ctx.modulus();
        }
        if self.base.is_zero() {
            return BigUint::zero();
        }
        let bits = exp.bit_len();
        if bits > self.max_exp_bits {
            return self.ctx.pow_mod(&self.base, exp);
        }
        let w = self.window_bits;
        let k = self.ctx.limbs();
        let mut buf = vec![0u64; 2 * k + self.ctx.scratch_len()];
        let (mut acc, rest) = buf.split_at_mut(k);
        let (mut tmp, scratch) = rest.split_at_mut(k);
        let mut started = false;
        for i in 0..bits.div_ceil(w) {
            let digit = exp.bits_at(i * w, w);
            if digit == 0 {
                continue;
            }
            if started {
                self.ctx
                    .mont_mul_into(tmp, acc, self.entry(i, digit), scratch);
                std::mem::swap(&mut acc, &mut tmp);
            } else {
                acc.copy_from_slice(self.entry(i, digit));
                started = true;
            }
        }
        // A non-zero exponent has a non-zero window, so `acc` is set.
        debug_assert!(started);
        self.ctx.from_mont(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_generic_pow_mod() {
        let m = BigUint::from(0xffff_ffff_ffff_ffc5u64);
        let ctx = MontgomeryCtx::new(&m);
        let base = BigUint::from(0x1234_5678u64);
        let fixed = FixedBaseExp::new(&ctx, &base, 192);
        for e in [0u64, 1, 2, 15, 16, 17, 255, u64::MAX] {
            let e = BigUint::from(e);
            assert_eq!(fixed.pow_mod(&e), ctx.pow_mod(&base, &e));
        }
    }

    #[test]
    fn all_window_widths_agree() {
        let m = BigUint::from_limbs(vec![0xffff_ffff_ffff_fff1, 0xabcd, 0x1]);
        let ctx = MontgomeryCtx::new(&m);
        let base = BigUint::from_limbs(vec![0xdead_beef, 0xcafe]);
        let e = BigUint::from_limbs(vec![0x0123_4567_89ab_cdef, 0xfedc_ba98]);
        let expect = ctx.pow_mod(&base, &e);
        for w in [1usize, 2, 3, 4, 5, 7, 8] {
            let fixed = FixedBaseExp::with_window(&ctx, &base, 192, w);
            assert_eq!(fixed.pow_mod(&e), expect, "window={w}");
            assert_eq!(fixed.window_bits(), w);
            // 3-limb entries, 2^w − 1 digits per window.
            let entries = 192usize.div_ceil(w) * ((1 << w) - 1);
            assert_eq!(fixed.table_bytes(), entries * 3 * 8, "window={w}");
        }
    }

    #[test]
    fn oversized_exponent_falls_back() {
        let m = BigUint::from(1_000_003u64);
        let ctx = MontgomeryCtx::new(&m);
        let base = BigUint::from(7u64);
        let fixed = FixedBaseExp::new(&ctx, &base, 8);
        let e = BigUint::from(u128::MAX);
        assert_eq!(fixed.pow_mod(&e), ctx.pow_mod(&base, &e));
    }

    #[test]
    fn zero_base_and_reduction() {
        let m = BigUint::from(97u64);
        let ctx = MontgomeryCtx::new(&m);
        let zero = FixedBaseExp::new(&ctx, &BigUint::zero(), 32);
        assert_eq!(zero.pow_mod(&BigUint::from(5u64)), BigUint::zero());
        assert!(zero.pow_mod(&BigUint::zero()).is_one());
        // Base ≥ n is reduced first, like the generic path.
        let big = FixedBaseExp::new(&ctx, &BigUint::from(97u64 * 3 + 5), 32);
        assert_eq!(
            big.pow_mod(&BigUint::from(10u64)),
            ctx.pow_mod(&BigUint::from(5u64), &BigUint::from(10u64))
        );
    }

    #[test]
    fn multi_limb_modulus() {
        let m = BigUint::from_limbs(vec![0xffff_ffff_ffff_fff1, 0xabcd, 0x1]);
        let ctx = MontgomeryCtx::new(&m);
        let base = BigUint::from_limbs(vec![0xdead_beef, 0xcafe]);
        let fixed = FixedBaseExp::new(&ctx, &base, 256);
        let e = BigUint::from_limbs(vec![0x0123_4567_89ab_cdef, 0xfedc_ba98]);
        assert_eq!(fixed.pow_mod(&e), ctx.pow_mod(&base, &e));
    }
}
