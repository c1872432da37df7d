//! The Montgomery kernels' bodies, for every modulus width.
//!
//! The shape is separated operand scanning: a full double-width product (or
//! square) into a `2k`-limb scratch, then one shared [`redc`]. Both halves
//! are built from two row primitives whose loops walk exact-length slices in
//! lockstep (no index arithmetic, so no bounds checks): [`addmul_1`], and the
//! two-row [`addmul_2`], which feeds two multiplier limbs per pass and so
//! keeps two independent carry chains in flight instead of one.
//!
//! Everything writes into caller-owned buffers. Moduli wider than eight limbs
//! call [`mont_mul`]/[`mont_sqr`] on slices, so a chain of thousands of
//! multiplications allocates nothing. Narrower ones reach [`mul_into`],
//! [`sqr_into`] and [`redc`] through [`crate::montgomery`]'s const-generic
//! wrappers on stack arrays; those three always inline, so there the lengths
//! are constants and the rows unroll.

use std::cmp::Ordering;

use crate::BigUint;

/// `out += a · b` over equal-length slices; returns the carry limb that
/// belongs one position past the end.
#[inline(always)]
fn addmul_1(out: &mut [u64], a: &[u64], b: u64) -> u64 {
    debug_assert_eq!(out.len(), a.len());
    let mut carry = 0u64;
    for (o, &x) in out.iter_mut().zip(a) {
        let s = x as u128 * b as u128 + *o as u128 + carry as u128;
        *o = s as u64;
        carry = (s >> 64) as u64;
    }
    carry
}

/// `out += a · (b0 + b1·2^64)` over equal-length slices, plus `c0` at the
/// lowest position; returns what is left for the two positions past the end.
///
/// The `b1` row runs one element behind the `b0` row, so both products of an
/// iteration land on the same output limb: each row keeps its own carry
/// (`c0`, `c1`), and neither `x·b + limb + carry` can overflow 128 bits.
#[inline(always)]
fn addmul_2(out: &mut [u64], a: &[u64], b0: u64, b1: u64, mut c0: u64) -> u128 {
    debug_assert_eq!(out.len(), a.len());
    let (mut c1, mut prev) = (0u64, 0u64);
    let mut step = |o: &mut u64, x: u64| {
        let p0 = x as u128 * b0 as u128 + *o as u128 + c0 as u128;
        c0 = (p0 >> 64) as u64;
        let p1 = prev as u128 * b1 as u128 + (p0 as u64) as u128 + c1 as u128;
        *o = p1 as u64;
        c1 = (p1 >> 64) as u64;
        prev = x;
    };
    let mut out2 = out.chunks_exact_mut(2);
    let mut a2 = a.chunks_exact(2);
    for (o, x) in out2.by_ref().zip(a2.by_ref()) {
        step(&mut o[0], x[0]);
        step(&mut o[1], x[1]);
    }
    if let ([o], [x]) = (out2.into_remainder(), a2.remainder()) {
        step(o, *x);
    }
    prev as u128 * b1 as u128 + c0 as u128 + c1 as u128
}

/// `t[..2k] = a · b` for a `k`-limb `a` and a `b` of at most `k` limbs.
#[inline(always)]
pub(crate) fn mul_into(t: &mut [u64], a: &[u64], b: &[u64]) {
    let k = a.len();
    debug_assert!(b.len() <= k && t.len() >= 2 * k);
    t[..2 * k].fill(0);
    // After rows `0..i` the partial product is below `2^(64(k+i))`, so each
    // row's top limbs land on untouched positions and never carry further.
    let mut rows = b.chunks_exact(2);
    let mut i = 0;
    for pair in rows.by_ref() {
        let top = addmul_2(&mut t[i..i + k], a, pair[0], pair[1], 0);
        t[i + k] = top as u64;
        t[i + k + 1] = (top >> 64) as u64;
        i += 2;
    }
    if let [last] = *rows.remainder() {
        t[i + k] = addmul_1(&mut t[i..i + k], a, last);
    }
}

/// `t[..2k] = a²`: the off-diagonal triangle once (two rows per pass), then a
/// single sweep that doubles it and adds the diagonal squares.
#[inline(always)]
pub(crate) fn sqr_into(t: &mut [u64], a: &[u64]) {
    let k = a.len();
    debug_assert!(t.len() >= 2 * k);
    t[..2 * k].fill(0);
    // Rows `i` and `i+1` together: `a[i]·a[i+1]` stands alone at position
    // `2i+1`; from there on `a[j]·(a[i] + a[i+1]·2^64)` for `j ≥ i+2`.
    let mut i = 0;
    while i + 2 <= k {
        let (a0, a1) = (a[i], a[i + 1]);
        let p = a0 as u128 * a1 as u128 + t[2 * i + 1] as u128;
        t[2 * i + 1] = p as u64;
        let top = addmul_2(
            &mut t[2 * i + 2..i + k],
            &a[i + 2..],
            a0,
            a1,
            (p >> 64) as u64,
        );
        t[i + k] = top as u64;
        t[i + k + 1] = (top >> 64) as u64;
        i += 2;
    }
    let (mut shifted_out, mut carry) = (0u64, 0u64);
    for (pair, &x) in t[..2 * k].chunks_exact_mut(2).zip(a) {
        let sq = x as u128 * x as u128;
        let d0 = (pair[0] << 1) | shifted_out;
        let d1 = (pair[1] << 1) | (pair[0] >> 63);
        shifted_out = pair[1] >> 63;
        let s0 = d0 as u128 + (sq as u64) as u128 + carry as u128;
        let s1 = d1 as u128 + (sq >> 64) + (s0 >> 64);
        pair[0] = s0 as u64;
        pair[1] = s1 as u64;
        carry = (s1 >> 64) as u64;
    }
    debug_assert_eq!((shifted_out, carry), (0, 0));
}

/// Montgomery reduction: `out = t · 2^(-64k) mod n` for `t[..2k] < n·2^(64k)`,
/// canonical (`< n`). Clobbers `t`.
#[inline(always)]
pub(crate) fn redc(out: &mut [u64], t: &mut [u64], n: &[u64], n0_inv: u64) {
    let k = n.len();
    debug_assert!(out.len() == k && t.len() >= 2 * k);
    // `carry` is the bit pending at position `i + k` from the rows so far.
    let mut carry = 0u64;
    let mut i = 0;
    while i + 2 <= k {
        // m0 clears limb i; m1 clears limb i+1 as it will stand once the
        // m0 row has been added.
        let m0 = t[i].wrapping_mul(n0_inv);
        let p = m0 as u128 * n[0] as u128 + t[i] as u128;
        let q = m0 as u128 * n[1] as u128 + t[i + 1] as u128 + (p >> 64);
        let m1 = (q as u64).wrapping_mul(n0_inv);
        let top = addmul_2(&mut t[i..i + k], n, m0, m1, 0);
        let s0 = t[i + k] as u128 + (top as u64) as u128 + carry as u128;
        let s1 = t[i + k + 1] as u128 + (top >> 64) + (s0 >> 64);
        t[i + k] = s0 as u64;
        t[i + k + 1] = s1 as u64;
        carry = (s1 >> 64) as u64;
        i += 2;
    }
    if i < k {
        let m = t[i].wrapping_mul(n0_inv);
        let s = t[i + k] as u128 + addmul_1(&mut t[i..i + k], n, m) as u128 + carry as u128;
        t[i + k] = s as u64;
        carry = (s >> 64) as u64;
    }
    // The quotient is below 2n: at most one subtraction makes it canonical.
    let hi = &t[k..2 * k];
    if carry != 0 || BigUint::cmp_limbs(hi, n) != Ordering::Less {
        let mut borrow = 0u64;
        for ((o, &h), &m) in out.iter_mut().zip(hi).zip(n) {
            let (d1, b1) = h.overflowing_sub(m);
            let (d2, b2) = d1.overflowing_sub(borrow);
            *o = d2;
            borrow = (b1 | b2) as u64;
        }
        debug_assert_eq!(borrow, carry);
    } else {
        out.copy_from_slice(hi);
    }
}

/// `out = a·b·2^(-64k) mod n` for `a, b < n`; `t` is `2k` limbs of scratch.
/// `b` may be given without its high zero limbs.
pub(crate) fn mont_mul(
    out: &mut [u64],
    a: &[u64],
    b: &[u64],
    n: &[u64],
    n0_inv: u64,
    t: &mut [u64],
) {
    mul_into(t, a, b);
    redc(out, t, n, n0_inv);
}

/// `out = a²·2^(-64k) mod n` for `a < n`; `t` is `2k` limbs of scratch.
pub(crate) fn mont_sqr(out: &mut [u64], a: &[u64], n: &[u64], n0_inv: u64, t: &mut [u64]) {
    sqr_into(t, a);
    redc(out, t, n, n0_inv);
}
