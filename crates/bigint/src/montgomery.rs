//! Montgomery modular multiplication and exponentiation for odd moduli.
//!
//! All Damgård-Jurik moduli (`n`, `n^s`, `n^(s+1)`) are odd, so modular
//! exponentiation — the dominant cost of encryption, decryption shares, and
//! push-sum rescaling — always takes this fast path. A context runs one of
//! two engines, picked once in [`MontgomeryCtx::new`] from the modulus'
//! width and the CPU:
//!
//! * the scalar engine, on 64-bit limbs with `R = 2^(64k)`: the `wide`
//!   module's double-width product or square (two multiplier limbs per
//!   pass, so two carry chains in flight) followed by its two-row
//!   reduction. Up to `FIXED_MAX_LIMBS` (8) limbs it runs on stack arrays
//!   (`mmul_k`/`msqr_k` hand the bodies constant lengths, so every row
//!   unrolls at compile time), above that on caller-owned slices. Every
//!   value it holds is canonical. It is the portable path and the other
//!   engine's oracle;
//! * from `IFMA_MIN_LIMBS` limbs up, on a CPU with AVX-512 IFMA, the
//!   `ifma` module's radix-2^52 almost-Montgomery kernel, whose in-domain
//!   values lie in `[0, 2n)`.
//!
//! Residues are opaque runs of `MontgomeryCtx::limbs` words to every
//! caller, and every exit — `MontgomeryCtx::from_mont` and the `±1`
//! checks — compares or converts canonical residues, so which engine
//! computed a result never shows in a value. Both exponentiate with the
//! same sliding window over an odd-power table whose width follows the
//! exponent's bit length.

use crate::ifma::Ifma;
use crate::{wide, BigUint};

/// Largest limb count served on stack arrays. Moduli up to `8 × 64 = 512`
/// bits — every prime-power and `n^(s+1)` modulus of a 256-bit key — run
/// with constant lengths and no heap scratch. Anything wider runs the same
/// bodies over slices, production keys included: a 2048-bit key has 32-limb
/// CRT sides (`p²`, `q²`) and a 64-limb `n²`, as csbench's
/// `sharded_packed_2048b` workload exercises.
const FIXED_MAX_LIMBS: usize = 8;

/// Narrowest modulus, in 64-bit limbs, that runs on the IFMA engine when
/// the CPU has it. A full `pow_mod` on the radix-2^52 kernel measured
/// 1.0–1.05× the scalar engine's speed at 9 limbs, 1.2× at 10, 1.2–1.65×
/// at 11–15, 1.8× at 16 (a 1024-bit prime, a 1024-bit key's CRT halves),
/// 3.6× at 32 and 4.9× at 64 (docs/benchmarks.md, "What the IFMA row
/// chain costs").
const IFMA_MIN_LIMBS: usize = 10;

/// `a·b·R^{-1} mod n` for a `K`-limb modulus, `K ≤ FIXED_MAX_LIMBS`: the
/// slice engine's product and reduction on a stack scratch.
#[inline(always)]
fn mmul_k<const K: usize>(a: &[u64; K], b: &[u64; K], n: &[u64; K], n0_inv: u64) -> [u64; K] {
    let mut t = [0u64; 2 * FIXED_MAX_LIMBS];
    let mut out = [0u64; K];
    wide::mul_into(&mut t[..2 * K], a, b);
    wide::redc(&mut out, &mut t[..2 * K], n, n0_inv);
    out
}

/// `a²·R^{-1} mod n` for a `K`-limb modulus, `K ≤ FIXED_MAX_LIMBS`.
#[inline(always)]
fn msqr_k<const K: usize>(a: &[u64; K], n: &[u64; K], n0_inv: u64) -> [u64; K] {
    let mut t = [0u64; 2 * FIXED_MAX_LIMBS];
    let mut out = [0u64; K];
    wide::sqr_into(&mut t[..2 * K], a);
    wide::redc(&mut out, &mut t[..2 * K], n, n0_inv);
    out
}

/// Runs `$body` — and returns its value from the enclosing function — with
/// `$K` bound to the modulus' limb count when the stack-array shape serves
/// it; falls through for wider moduli.
macro_rules! dispatch_fixed {
    ($k:expr, $K:ident => $body:expr) => {
        dispatch_fixed!(@arms $k, $K, $body, 1 2 3 4 5 6 7 8)
    };
    (@arms $k:expr, $K:ident, $body:expr, $($n:literal)*) => {
        match $k {
            $($n => {
                const $K: usize = $n;
                return $body;
            })*
            _ => {}
        }
    };
}

/// Window width of the sliding-window chain for a `bits`-bit exponent: the
/// `w` minimising `2^(w-1)` table entries plus one multiplication per `w + 1`
/// exponent bits. The ≈ 515-bit exponent of a 256-bit key's partial
/// decryption gets `w = 5`, a 2048-bit key's ≈ 4 100-bit one `w = 6`.
fn sliding_window_bits(bits: usize) -> usize {
    match bits {
        0..=23 => 1,
        24..=79 => 3,
        80..=239 => 4,
        240..=671 => 5,
        _ => MAX_WINDOW,
    }
}

/// The widest window `sliding_window_bits` picks.
const MAX_WINDOW: usize = 6;

/// Odd-power table entries at that width.
const MAX_TABLE: usize = 1 << (MAX_WINDOW - 1);

/// The sliding-window recoding of a non-zero exponent below its top window,
/// from the top down: per window, the squarings that precede it and its index
/// into the odd-power table (`digit >> 1`); the trailing zero bits come last,
/// as squarings with no multiplication. Each window ends on a set bit, so its
/// digit is odd.
struct Windows<'a> {
    exp: &'a BigUint,
    w: usize,
    /// Bits at and above `i` are consumed.
    i: usize,
}

impl<'a> Windows<'a> {
    /// The table index of `exp`'s top window, and the windows after it.
    fn new(exp: &'a BigUint, w: usize) -> (usize, Self) {
        let mut windows = Windows {
            exp,
            w,
            i: exp.bit_len(),
        };
        let (_, top) = windows.next().expect("a non-zero exponent has a window");
        (top.expect("the top bit is set"), windows)
    }
}

impl Iterator for Windows<'_> {
    type Item = (usize, Option<usize>);

    fn next(&mut self) -> Option<Self::Item> {
        let (exp, start) = (self.exp, self.i);
        if start == 0 {
            return None;
        }
        while self.i > 0 && !exp.bit(self.i - 1) {
            self.i -= 1;
        }
        let hi = self.i;
        if hi == 0 {
            return Some((start, None));
        }
        let mut lo = hi.saturating_sub(self.w);
        while !exp.bit(lo) {
            lo += 1;
        }
        self.i = lo;
        Some((start - lo, Some(exp.bits_at(lo, hi - lo) >> 1)))
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
    /// The modulus `n` (odd, > 1); the scalar kernels read its limbs.
    modulus: BigUint,
    /// `-n^{-1} mod 2^64`.
    n0_inv: u64,
    /// The IFMA engine, when this context runs on it.
    ifma: Option<Ifma>,
    /// `R² mod n` in the engine's words; converts into Montgomery form.
    rr: Vec<u64>,
    /// `R mod n` in the engine's words: the Montgomery representation of 1.
    one: Vec<u64>,
}

impl MontgomeryCtx {
    /// Builds a context for an odd modulus `> 1`, on the IFMA engine when
    /// the modulus has at least `IFMA_MIN_LIMBS` limbs and the CPU has
    /// AVX-512 IFMA, else on the scalar engine.
    ///
    /// Panics if `n` is even or `<= 1`.
    pub fn new(n: &BigUint) -> Self {
        Self::with_engine(n, n.limb_len() >= IFMA_MIN_LIMBS)
    }

    /// [`Self::new`] with the width test decided by the caller: `ifma`
    /// asks for the IFMA engine, which a CPU without it does not give.
    pub(crate) fn with_engine(n: &BigUint, ifma: bool) -> Self {
        assert!(
            n.is_odd() && !n.is_one(),
            "Montgomery requires an odd modulus > 1"
        );

        // n0_inv = -n^{-1} mod 2^64 via Newton-Hensel lifting:
        // x_{i+1} = x_i * (2 - n*x_i) doubles correct low bits each step.
        let n0 = n.limbs()[0];
        let mut x = n0; // correct to 3 bits for odd n0? Start: x ≡ n0^{-1} mod 2^3.
        for _ in 0..5 {
            x = x.wrapping_mul(2u64.wrapping_sub(n0.wrapping_mul(x)));
        }
        debug_assert_eq!(n0.wrapping_mul(x), 1);
        let n0_inv = x.wrapping_neg();
        let ifma = if ifma { Ifma::new(n, n0_inv) } else { None };

        // R mod n and R² mod n via plain division (setup cost only).
        let r_bits = ifma.as_ref().map_or(64 * n.limb_len(), Ifma::r_bits);
        let r = BigUint::one() << r_bits;
        let mut ctx = MontgomeryCtx {
            modulus: n.clone(),
            n0_inv,
            ifma,
            rr: Vec::new(),
            one: Vec::new(),
        };
        ctx.rr = ctx.words_of(&(&(&r * &r) % n));
        ctx.one = ctx.words_of(&(&r % n));
        ctx
    }

    /// The engine this context runs on, `"ifma"` or `"scalar"`: a label
    /// for measurements, which `new` alone decides.
    pub fn engine(&self) -> &'static str {
        match self.ifma {
            Some(_) => "ifma",
            None => "scalar",
        }
    }

    /// `a < R` in the engine's words: [`Self::limbs`] of them.
    fn words_of(&self, a: &BigUint) -> Vec<u64> {
        let mut out = vec![0u64; self.limbs()];
        match &self.ifma {
            Some(e) => e.load(&mut out, a),
            None => out[..a.limb_len()].copy_from_slice(a.limbs()),
        }
        out
    }

    /// The limb count the stack-array shape dispatches on: the modulus'
    /// on the scalar engine, none on the IFMA engine.
    fn fixed_limbs(&self) -> usize {
        match self.ifma {
            Some(_) => 0,
            None => self.modulus.limb_len(),
        }
    }

    /// The modulus.
    pub fn modulus(&self) -> &BigUint {
        &self.modulus
    }

    /// Word count of a Montgomery-form residue on this context's engine:
    /// the modulus' limb count `k` on the scalar engine, a multiple of 8
    /// 52-bit words on the IFMA engine. Every residue this context reads or
    /// writes is this long.
    pub(crate) fn limbs(&self) -> usize {
        self.ifma
            .as_ref()
            .map_or(self.modulus.limb_len(), Ifma::words)
    }

    /// Length of the scratch buffer the `*_into` kernels take.
    pub(crate) fn scratch_len(&self) -> usize {
        match self.ifma {
            Some(_) => self.limbs(),
            None => 2 * self.limbs(),
        }
    }

    /// Montgomery multiplication into a caller-owned buffer:
    /// `out = a·b·R^{-1} mod n` for residues `a, b`, with
    /// [`Self::scratch_len`] words of scratch. Allocates nothing.
    pub(crate) fn mont_mul_into(&self, out: &mut [u64], a: &[u64], b: &[u64], t: &mut [u64]) {
        if let Some(e) = &self.ifma {
            return e.mul(out, a, b);
        }
        let n = self.modulus.limbs();
        debug_assert!(out.len() == n.len() && a.len() == n.len() && b.len() == n.len());
        dispatch_fixed!(n.len(), K => {
            out.copy_from_slice(&mmul_k::<K>(fixed(a), fixed(b), fixed(n), self.n0_inv))
        });
        wide::mont_mul(out, a, b, n, self.n0_inv, t);
    }

    /// Montgomery squaring into a caller-owned buffer: `out = a²·R^{-1} mod n`.
    ///
    /// The double-width square counts each off-diagonal product once and
    /// doubles it — ~25% fewer word multiplications than
    /// `mont_mul_into(a, a)`, and squarings dominate every exponentiation.
    /// The IFMA engine multiplies `a` by itself.
    pub(crate) fn mont_sqr_into(&self, out: &mut [u64], a: &[u64], t: &mut [u64]) {
        if let Some(e) = &self.ifma {
            return e.mul(out, a, a);
        }
        let n = self.modulus.limbs();
        debug_assert!(out.len() == n.len() && a.len() == n.len());
        dispatch_fixed!(n.len(), K => {
            out.copy_from_slice(&msqr_k::<K>(fixed(a), fixed(n), self.n0_inv))
        });
        wide::mont_sqr(out, a, n, self.n0_inv, t);
    }

    /// The Montgomery representation of 1 (for chain accumulators).
    pub(crate) fn one_mont(&self) -> &[u64] {
        &self.one
    }

    /// Whether the residue `x` is the Montgomery image of 1, compared as
    /// canonical residues.
    pub(crate) fn is_one_mont(&self, x: &[u64]) -> bool {
        self.residue(x) == self.residue(&self.one)
    }

    /// Whether the residue `x` is the Montgomery image of `n − 1`, compared
    /// as canonical residues.
    pub(crate) fn is_minus_one_mont(&self, x: &[u64]) -> bool {
        &self.residue(x) + &self.residue(&self.one) == self.modulus
    }

    /// The canonical residue (`< n`) that the residue `x` stands for, as an
    /// integer — `x` itself, still in Montgomery form.
    fn residue(&self, x: &[u64]) -> BigUint {
        match &self.ifma {
            Some(e) => e.value(x),
            None => BigUint::from_limbs(x.to_vec()),
        }
    }

    /// Converts `a < n` into Montgomery form (`out = a·R mod n`).
    pub(crate) fn to_mont_into(&self, out: &mut [u64], a: &BigUint, t: &mut [u64]) {
        debug_assert!(*a < self.modulus);
        if let Some(e) = &self.ifma {
            let a_words = &mut t[..out.len()];
            e.load(a_words, a);
            return e.mul(out, a_words, &self.rr);
        }
        let n = self.modulus.limbs();
        dispatch_fixed!(n.len(), K => out.copy_from_slice(&self.to_mont_fixed::<K>(a)));
        wide::mont_mul(out, &self.rr, a.limbs(), n, self.n0_inv, t);
    }

    /// [`Self::to_mont_into`] for a `K`-limb modulus, on the stack.
    fn to_mont_fixed<const K: usize>(&self, a: &BigUint) -> [u64; K] {
        let mut padded = [0u64; K];
        padded[..a.limb_len()].copy_from_slice(a.limbs());
        let n = fixed(self.modulus.limbs());
        mmul_k(&padded, fixed(&self.rr), n, self.n0_inv)
    }

    /// Converts out of Montgomery form (`a·R^{-1} mod n`): a reduction with
    /// no product in front of it.
    #[allow(clippy::wrong_self_convention)] // "from Montgomery domain", not a constructor
    pub(crate) fn from_mont(&self, a: &[u64]) -> BigUint {
        let k = self.limbs();
        if let Some(e) = &self.ifma {
            let (mut unit, mut out) = (vec![0u64; k], vec![0u64; k]);
            unit[0] = 1;
            e.mul(&mut out, a, &unit);
            return e.value(&out);
        }
        let mut t = vec![0u64; 2 * k];
        t[..k].copy_from_slice(a);
        // Its own exact-size vector: results live on in pools and ciphertexts.
        let mut out = vec![0u64; k];
        wide::redc(&mut out, &mut t, self.modulus.limbs(), self.n0_inv);
        BigUint::from_limbs(out)
    }

    /// `a · b mod n` for `a, b < n`.
    pub fn mul_mod(&self, a: &BigUint, b: &BigUint) -> BigUint {
        // (a·R) · b · R⁻¹ = a·b: one operand in Montgomery form cancels the
        // reduction's R⁻¹, so the product never needs converting back.
        debug_assert!(*a < self.modulus && *b < self.modulus);
        let n = self.modulus.limbs();
        dispatch_fixed!(self.fixed_limbs(), K => {
            let mut b_padded = [0u64; K];
            b_padded[..b.limb_len()].copy_from_slice(b.limbs());
            let a_m = self.to_mont_fixed::<K>(a);
            BigUint::from_limbs(mmul_k(&a_m, &b_padded, fixed(n), self.n0_inv).to_vec())
        });
        let k = self.limbs();
        let mut buf = vec![0u64; k + self.scratch_len()];
        let (a_m, t) = buf.split_at_mut(k);
        self.to_mont_into(a_m, a, t);
        let mut out = vec![0u64; k];
        match &self.ifma {
            Some(e) => {
                e.mul(&mut out, a_m, &self.words_of(b));
                e.value(&out)
            }
            None => {
                wide::mont_mul(&mut out, a_m, b.limbs(), n, self.n0_inv, t);
                BigUint::from_limbs(out)
            }
        }
    }

    /// `base^exp mod n` with a windowed square-and-multiply chain.
    ///
    /// `base` is reduced mod `n` first; `exp` may be any size.
    pub fn pow_mod(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        if exp.is_zero() {
            return BigUint::one() % &self.modulus;
        }
        let base = base % &self.modulus;
        if base.is_zero() {
            return BigUint::zero();
        }
        self.from_mont(&self.pow_mont(&base, exp))
    }

    /// `base^exp` in Montgomery form, for a non-zero `base < n` and a
    /// non-zero `exp`.
    ///
    /// A sliding window over an odd-power table, its width set by
    /// `sliding_window_bits`. Moduli of up to `FIXED_MAX_LIMBS` limbs keep
    /// the whole chain in stack arrays; wider ones keep table, accumulators
    /// and scratch in one buffer sized up front, so the chain itself
    /// allocates nothing.
    pub(crate) fn pow_mont(&self, base: &BigUint, exp: &BigUint) -> Vec<u64> {
        debug_assert!(!base.is_zero() && *base < self.modulus && !exp.is_zero());
        let k = self.limbs();
        dispatch_fixed!(self.fixed_limbs(), K => {
            self.pow_windowed_fixed::<K>(&self.to_mont_fixed(base), exp).to_vec()
        });

        let w = sliding_window_bits(exp.bit_len());
        let entries = 1usize << (w - 1); // base^1, base^3, …, base^(2^w − 1)
        let mut buf = vec![0u64; (entries + 2) * k + self.scratch_len()];
        let (table, rest) = buf.split_at_mut(entries * k);
        let (mut acc, rest) = rest.split_at_mut(k);
        let (mut tmp, t) = rest.split_at_mut(k);

        self.to_mont_into(&mut table[..k], base, t);
        if entries > 1 {
            let base_sq = &mut *tmp;
            self.mont_sqr_into(base_sq, &table[..k], t);
            for i in 1..entries {
                let (done, next) = table.split_at_mut(i * k);
                self.mont_mul_into(&mut next[..k], &done[(i - 1) * k..], base_sq, t);
            }
        }

        let (top, windows) = Windows::new(exp, w);
        acc.copy_from_slice(&table[top * k..][..k]);
        for (squarings, entry) in windows {
            for _ in 0..squarings {
                self.mont_sqr_into(tmp, acc, t);
                std::mem::swap(&mut acc, &mut tmp);
            }
            if let Some(e) = entry {
                self.mont_mul_into(tmp, acc, &table[e * k..][..k], t);
                std::mem::swap(&mut acc, &mut tmp);
            }
        }
        acc.to_vec()
    }

    /// [`Self::pow_mont`]'s chain for a `K`-limb modulus, every intermediate
    /// a stack array. Takes and returns Montgomery form. At the ≈ 515-bit
    /// exponent of a 256-bit key's partial decryption the 5-bit window costs
    /// ≈ 512 squarings and 100 multiplications (16 of them building the
    /// table); the 4-bit fixed window it replaced paid 512 and 135.
    fn pow_windowed_fixed<const K: usize>(&self, base: &[u64; K], exp: &BigUint) -> [u64; K] {
        let n = fixed(self.modulus.limbs());
        let n0 = self.n0_inv;

        let w = sliding_window_bits(exp.bit_len());
        let mut table = [[0u64; K]; MAX_TABLE];
        table[0] = *base;
        if w > 1 {
            let base_sq = msqr_k(base, n, n0);
            for i in 1..1 << (w - 1) {
                table[i] = mmul_k(&table[i - 1], &base_sq, n, n0);
            }
        }

        let (top, windows) = Windows::new(exp, w);
        let mut acc = table[top];
        for (squarings, entry) in windows {
            for _ in 0..squarings {
                acc = msqr_k(&acc, n, n0);
            }
            if let Some(e) = entry {
                acc = mmul_k(&acc, &table[e], n, n0);
            }
        }
        acc
    }

    /// `base^(2^j) mod n`: exactly `j` Montgomery squarings, no window
    /// table. The push-sum denominator alignment multiplies plaintexts by
    /// small powers of two on every absorbed message, so skipping the
    /// table build that a generic [`Self::pow_mod`] would pay matters.
    pub fn pow_mod_pow2(&self, base: &BigUint, j: u32) -> BigUint {
        let base = base % &self.modulus;
        if base.is_zero() {
            return BigUint::zero();
        }
        let k = self.limbs();
        dispatch_fixed!(self.fixed_limbs(), K => {
            let n = fixed(self.modulus.limbs());
            let mut a = self.to_mont_fixed::<K>(&base);
            for _ in 0..j {
                a = msqr_k(&a, n, self.n0_inv);
            }
            self.from_mont(&a)
        });
        let mut buf = vec![0u64; 2 * k + self.scratch_len()];
        let (mut acc, rest) = buf.split_at_mut(k);
        let (mut tmp, t) = rest.split_at_mut(k);
        self.to_mont_into(acc, &base, t);
        for _ in 0..j {
            self.mont_sqr_into(tmp, acc, t);
            std::mem::swap(&mut acc, &mut tmp);
        }
        self.from_mont(acc)
    }
}

/// A `K`-limb residue as the array `mmul_k`/`msqr_k` take.
#[inline(always)]
fn fixed<const K: usize>(limbs: &[u64]) -> &[u64; K] {
    limbs
        .try_into()
        .expect("a residue has the modulus' limb count")
}

#[cfg(test)]
mod engine_diff;

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
    /// `FIXED_MAX_LIMBS`: every stack-array width (1–8 limbs, the odd ones
    /// taking the single-row tails) and the slice shape (9, 32, 64 limbs),
    /// including the edge operands.
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
        for k in (1usize..=9).chain([32, 64]) {
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
        // Every stack-array width, then the slice shape at even and odd
        // limb counts; values spanning the full range.
        for limbs in (1..=8usize).chain([9, 16, 17, 33]) {
            let mut m = crate::rng::random_bits(&mut rng, limbs * 64);
            m.set_bit(0, true);
            m.set_bit(limbs * 64 - 1, true);
            let ctx = MontgomeryCtx::new(&m);
            let k = ctx.limbs();
            let mut t = vec![0u64; ctx.scratch_len()];
            let (mut sqr, mut mul) = (vec![0u64; k], vec![0u64; k]);
            let edges = [BigUint::zero(), BigUint::one(), m.sub_u64(1)];
            let random: Vec<BigUint> = (0..25).map(|_| random_below(&mut rng, &m)).collect();
            for a in edges.iter().chain(&random) {
                let am = ctx.words_of(a);
                ctx.mont_sqr_into(&mut sqr, &am, &mut t);
                ctx.mont_mul_into(&mut mul, &am, &am, &mut t);
                assert_eq!(sqr, mul, "limbs={limbs} a={a:?}");
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
