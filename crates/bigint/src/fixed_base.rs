//! Fixed-base comb modular exponentiation.
//!
//! The generic [`MontgomeryCtx::pow_mod`] spends one squaring per exponent
//! bit plus one multiplication per window of a few bits. When the *base* is
//! known ahead of time and many exponents will be raised to it — the
//! Damgård-Jurik randomizer base `h^(n^s)` on the encryption hot path, the
//! generator `(1+n)` when the binomial shortcut does not apply — the
//! squarings can be paid once, at table-build time. [`FixedBaseExp`] is the
//! comb of Lim and Lee (*More flexible exponentiation with precomputation*,
//! CRYPTO '94): lay the exponent's bits out as
//!
//! ```text
//! bit (c·w + t)·rows + j        column c, tooth t < w, row j < rows
//! ```
//!
//! and keep, per column, the `2^w − 1` products of its teeth's generators
//! `base^(2^((c·w + t)·rows))`. Row `j` of the exponent is then one table
//! entry per column, and the rows combine Horner-style: square, multiply
//! in the next row down. A `B`-bit exponent costs at most `⌈B/w⌉`
//! multiplications and `rows − 1` squarings, out of a table of
//! `⌈B/(w·rows)⌉ · (2^w − 1)` entries.
//!
//! At `rows = 1` the teeth of a column are `w` consecutive bits and this is
//! the plain fixed-window table: no squarings, one entry per exponent
//! window. More rows trade a few squarings for a table `rows` times
//! smaller — and once the one-row table outgrows the cache the smaller one
//! is also the faster, since each multiplication of an exponentiation reads
//! an entry no other one touches. [`FixedBaseExp::with_window`] therefore
//! derives the row count from the table's size and nothing else: the
//! one-row size over `TABLE_TARGET_BYTES`, rounded up.

use crate::{BigUint, MontgomeryCtx};

/// Default window width in bits. 4 keeps the table at `15 · ⌈bits/4⌉`
/// entries — the sweet spot when a table serves tens-to-hundreds of
/// exponentiations. Callers that reuse one table across thousands of
/// exponentiations (the gossip re-randomization path) should pick a wider
/// window via [`FixedBaseExp::with_window`].
const DEFAULT_WINDOW_BITS: usize = 4;

/// What a table is folded down to. The 8-bit one-row table of a 2048-bit
/// key's randomizers is 16 MiB (20 MiB in the IFMA engine's wider
/// residues) — every entry read is a cache miss, and a personal device
/// keeps all of it resident; at 2 MiB it is neither.
const TABLE_TARGET_BYTES: usize = 2 << 20;

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
    /// `Π_{t ∈ digit} base^(2^((column·w + t)·rows))` in Montgomery form for
    /// every column and digit `≥ 1`, as one flat run of entries of the
    /// context's residue width (see [`Self::entry`]), in a single
    /// allocation. A 2048-bit key's randomizers (1024-bit exponents, 8
    /// teeth) fold to 8 rows of 16 columns on the scalar engine — 4 080
    /// entries of 64 limbs, 2 088 960 B — and to 10 rows of 13 columns on
    /// the IFMA engine, whose residues are 80 words: 3 315 entries,
    /// 2 121 600 B. Empty for a zero base.
    table: Vec<u64>,
    window_bits: usize,
    rows: usize,
    max_exp_bits: usize,
}

impl FixedBaseExp {
    /// Builds the table for exponents of up to `max_exp_bits` bits at the
    /// default 4-bit window.
    pub fn new(ctx: &MontgomeryCtx, base: &BigUint, max_exp_bits: usize) -> Self {
        Self::with_window(ctx, base, max_exp_bits, DEFAULT_WINDOW_BITS)
    }

    /// Builds the table with an explicit window width (1..=12 bits), the
    /// comb's tooth count. Wider windows trade `2^w − 1` entries per column
    /// for `⌈bits/w⌉` multiplications per exponentiation; the row count
    /// follows from the resulting size (module docs). Building costs one
    /// squaring per covered exponent bit and one multiplication per entry
    /// that is not a generator itself.
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
        let windows = max_exp_bits.max(1).div_ceil(window_bits);
        let one_row_bytes = windows * ((1usize << window_bits) - 1) * entry_bytes(ctx);
        let rows = one_row_bytes.div_ceil(TABLE_TARGET_BYTES).clamp(1, windows);
        Self::with_rows(ctx, base, max_exp_bits, window_bits, rows)
    }

    fn with_rows(
        ctx: &MontgomeryCtx,
        base: &BigUint,
        max_exp_bits: usize,
        window_bits: usize,
        rows: usize,
    ) -> Self {
        let digits = (1usize << window_bits) - 1; // non-zero digits per column
        let base = base % ctx.modulus();
        let columns = max_exp_bits.max(1).div_ceil(window_bits * rows);
        let mut table = Vec::new();
        if !base.is_zero() {
            let k = ctx.limbs();
            table = vec![0u64; columns * digits * k];
            let mut buf = vec![0u64; 2 * k + ctx.scratch_len()];
            let (mut generator, rest) = buf.split_at_mut(k);
            let (mut tmp, scratch) = rest.split_at_mut(k);
            ctx.to_mont_into(generator, &base, scratch);
            for e in 0..columns * digits {
                let (column, digit) = (e / digits, e % digits + 1);
                let (done, rest) = table.split_at_mut(e * k);
                if digit.is_power_of_two() {
                    // A tooth's generator: the previous one raised to
                    // `2^rows`, one squaring chain through the whole table.
                    if e > 0 {
                        for _ in 0..rows {
                            ctx.mont_sqr_into(tmp, generator, scratch);
                            std::mem::swap(&mut generator, &mut tmp);
                        }
                    }
                    rest[..k].copy_from_slice(generator);
                } else {
                    // Any other digit: its lowest tooth times the rest of
                    // it, both earlier entries of this column.
                    let low = digit & digit.wrapping_neg();
                    let at = |d: usize| &done[(column * digits + d - 1) * k..][..k];
                    ctx.mont_mul_into(&mut rest[..k], at(low), at(digit ^ low), scratch);
                }
            }
        }
        FixedBaseExp {
            ctx: ctx.clone(),
            base,
            table,
            window_bits,
            rows,
            max_exp_bits: columns * window_bits * rows,
        }
    }

    /// The largest exponent bit length the table covers.
    pub fn max_exp_bits(&self) -> usize {
        self.max_exp_bits
    }

    /// The window width (tooth count) the table was built with.
    pub fn window_bits(&self) -> usize {
        self.window_bits
    }

    /// The comb's row count: an exponentiation squares `rows() − 1` times.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The modulus the table was built for.
    pub fn modulus(&self) -> &BigUint {
        self.ctx.modulus()
    }

    /// Bytes of precomputed table this value keeps resident.
    pub fn table_bytes(&self) -> usize {
        std::mem::size_of_val(self.table.as_slice())
    }

    /// Bytes of one table entry: a residue of the context's engine, so it
    /// follows the engine's residue width, not the modulus' 64-bit limbs.
    pub fn entry_bytes(&self) -> usize {
        entry_bytes(&self.ctx)
    }

    /// The product of `column`'s generators selected by `digit ≥ 1`.
    fn entry(&self, column: usize, digit: usize) -> &[u64] {
        let k = self.ctx.limbs();
        let digits = (1usize << self.window_bits) - 1;
        &self.table[(column * digits + digit - 1) * k..][..k]
    }

    /// Row `row` of `column` in `exp`: one bit from each tooth.
    fn digit(&self, exp: &BigUint, column: usize, row: usize) -> usize {
        (0..self.window_bits).fold(0, |digit, tooth| {
            let bit = exp.bit((column * self.window_bits + tooth) * self.rows + row);
            digit | usize::from(bit) << tooth
        })
    }

    /// `base^exp mod n` using the precomputed table: one Montgomery
    /// multiplication per non-zero digit, `rows − 1` squarings, and no
    /// allocation between the first multiplication and the last.
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
        let k = self.ctx.limbs();
        let mut buf = vec![0u64; 2 * k + self.ctx.scratch_len()];
        let (mut acc, rest) = buf.split_at_mut(k);
        let (mut tmp, scratch) = rest.split_at_mut(k);
        let mut started = false;
        let columns = bits.div_ceil(self.window_bits * self.rows);
        for row in (0..self.rows).rev() {
            if started {
                self.ctx.mont_sqr_into(tmp, acc, scratch);
                std::mem::swap(&mut acc, &mut tmp);
            }
            for column in 0..columns {
                let digit = self.digit(exp, column, row);
                if digit == 0 {
                    continue;
                }
                if started {
                    self.ctx
                        .mont_mul_into(tmp, acc, self.entry(column, digit), scratch);
                    std::mem::swap(&mut acc, &mut tmp);
                } else {
                    acc.copy_from_slice(self.entry(column, digit));
                    started = true;
                }
            }
        }
        // A non-zero exponent has a non-zero digit, so `acc` is set.
        debug_assert!(started);
        self.ctx.from_mont(acc)
    }
}

/// Bytes of one residue of `ctx`'s engine.
fn entry_bytes(ctx: &MontgomeryCtx) -> usize {
    std::mem::size_of::<u64>() * ctx.limbs()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
            // A table this small keeps one row: 3-limb entries, 2^w − 1
            // digits per window.
            assert_eq!(fixed.rows(), 1);
            let entries = 192usize.div_ceil(w) * ((1 << w) - 1);
            assert_eq!(fixed.table_bytes(), entries * 3 * 8, "window={w}");
        }
    }

    #[test]
    fn rows_follow_from_the_one_row_table_size() {
        // 40-limb modulus, 8-bit window. On the scalar engine an entry is
        // 40 limbs and a one-row table 81 600 B per exponent byte, so 25
        // bytes of exponent fit 2 MiB and 26 do not. On the IFMA engine an
        // entry is 56 52-bit words (2 562 bits, rounded up to a vector):
        // 114 240 B per exponent byte, so 18 bytes fit.
        let m = (BigUint::one() << 2559) + &BigUint::from(1u64);
        let base = BigUint::from(3u64);
        let engines = [
            (
                false,
                320,
                [(200usize, 1usize), (208, 2), (408, 2), (416, 3)],
            ),
            (true, 448, [(144, 1), (152, 2), (288, 2), (296, 3)]),
        ];
        for (ifma, entry_bytes, pins) in engines {
            let ctx = MontgomeryCtx::with_engine(&m, ifma);
            if (ctx.engine() == "ifma") != ifma {
                eprintln!("no avx512ifma on this CPU: the IFMA engine's rows are not run");
                continue;
            }
            for (exp_bits, rows) in pins {
                let fixed = FixedBaseExp::with_window(&ctx, &base, exp_bits, 8);
                assert_eq!(fixed.entry_bytes(), entry_bytes);
                assert_eq!(fixed.rows(), rows, "{exp_bits}-bit exponents");
                // On target to within the one column a ragged last row adds.
                assert!(fixed.table_bytes() < TABLE_TARGET_BYTES + 255 * entry_bytes);
                assert!(fixed.max_exp_bits() >= exp_bits);
                assert!(fixed.max_exp_bits() < exp_bits + 8 * rows);
                let e = (BigUint::one() << exp_bits) - &BigUint::one();
                assert_eq!(fixed.pow_mod(&e), ctx.pow_mod(&base, &e));
            }
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

    proptest! {
        /// Every comb shape agrees with the generic path: windows 1–8, rows
        /// 1–9 (including shapes whose last column is partly beyond the
        /// declared length), fixed- and wide-kernel moduli, and exponents
        /// with whole columns and whole rows zeroed, the top covered bit
        /// alone, and one bit past it (the fallback).
        #[test]
        fn comb_matches_montgomery_pow_mod(
            limbs in proptest::collection::vec(any::<u64>(), 1..12),
            base in proptest::collection::vec(any::<u64>(), 1..12),
            exp in proptest::collection::vec(any::<u64>(), 3),
            window in 1usize..=8,
            rows in 1usize..=9,
            exp_bits in 1usize..160,
            zero_column in 0usize..8,
            zero_row in 0usize..9,
        ) {
            let mut m = BigUint::from_limbs(limbs);
            m.set_bit(0, true);
            let m = m.add_u64(2);
            let ctx = MontgomeryCtx::new(&m);
            let base = BigUint::from_limbs(base);
            let fixed = FixedBaseExp::with_rows(&ctx, &base, exp_bits, window, rows);
            let covered = fixed.max_exp_bits();
            prop_assert!(covered >= exp_bits && covered < exp_bits + window * rows);

            let full = &BigUint::from_limbs(exp) % &(BigUint::one() << covered);
            let mut sparse = full.clone();
            for tooth in 0..window {
                for row in 0..rows {
                    let column = zero_column % (covered / (window * rows));
                    sparse.set_bit((column * window + tooth) * rows + row, false);
                }
                for column in 0..covered / (window * rows) {
                    sparse.set_bit((column * window + tooth) * rows + zero_row % rows, false);
                }
            }
            let top = BigUint::one() << (covered - 1);
            let past = BigUint::one() << covered;
            for e in [full, sparse, top, past, BigUint::zero(), BigUint::one()] {
                prop_assert_eq!(fixed.pow_mod(&e), ctx.pow_mod(&base, &e));
            }
        }
    }
}
