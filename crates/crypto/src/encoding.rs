//! Fixed-point encoding of real values into the plaintext space `Z_{n^s}`.
//!
//! Time-series points are reals; Damgård-Jurik plaintexts are residues. The
//! codec maps `v ↦ round(v·2^f)` and wraps negatives as `n^s − |x|`, so
//! homomorphic sums of encodings decode to sums of values as long as the
//! aggregate magnitude stays below `n^s / 2` — comfortably true for any
//! realistic population (see DESIGN.md §3.6).

use crate::CryptoError;
use cs_bigint::BigUint;
use serde::{Deserialize, Serialize};

/// Fixed-point codec with `2^scale_bits` resolution.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FixedPointCodec {
    scale_bits: u32,
}

impl Default for FixedPointCodec {
    /// 2⁻²⁰ ≈ 1e-6 resolution — ample for normalized consumption/medical
    /// series.
    fn default() -> Self {
        FixedPointCodec { scale_bits: 20 }
    }
}

impl FixedPointCodec {
    /// Creates a codec with the given fractional resolution.
    ///
    /// Panics if `scale_bits > 100` (values would not round-trip through
    /// `f64` scaling).
    pub fn new(scale_bits: u32) -> Self {
        assert!(scale_bits <= 100, "scale too fine for f64 round-trips");
        FixedPointCodec { scale_bits }
    }

    /// The fractional resolution in bits.
    pub fn scale_bits(&self) -> u32 {
        self.scale_bits
    }

    /// The scale factor `2^scale_bits` as `f64`.
    pub fn scale(&self) -> f64 {
        (self.scale_bits as f64).exp2()
    }

    /// Encodes a real value; errors on non-finite input or magnitude
    /// overflowing `n^s / 2`.
    pub fn encode(&self, v: f64, n_s: &BigUint) -> Result<BigUint, CryptoError> {
        if !v.is_finite() {
            return Err(CryptoError::EncodingOverflow);
        }
        let scaled = (v * self.scale()).round();
        if scaled.abs() >= 2f64.powi(126) {
            return Err(CryptoError::EncodingOverflow);
        }
        self.encode_integer(scaled as i128, n_s)
    }

    /// Encodes a pre-scaled integer (already in `2^scale_bits` units).
    fn encode_integer(&self, x: i128, n_s: &BigUint) -> Result<BigUint, CryptoError> {
        let mag = BigUint::from(x.unsigned_abs());
        if mag >= n_s.half() {
            return Err(CryptoError::EncodingOverflow);
        }
        if x >= 0 {
            Ok(mag)
        } else {
            Ok(n_s - &mag)
        }
    }

    /// Decodes a residue back to a real value. `extra_pow2` divides by an
    /// additional `2^extra_pow2` — the push-sum denominator (0 for plain
    /// decodes).
    pub fn decode(&self, m: &BigUint, n_s: &BigUint, extra_pow2: u32) -> f64 {
        let (mag, neg) = if *m > n_s.half() {
            (n_s - m, true)
        } else {
            (m.clone(), false)
        };
        let v = mag.to_f64_lossy() / self.scale() / (extra_pow2 as f64).exp2();
        if neg {
            -v
        } else {
            v
        }
    }

    /// Decodes to the signed integer grid (exact when it fits in `i128`).
    pub fn decode_integer(&self, m: &BigUint, n_s: &BigUint) -> Option<i128> {
        if *m > n_s.half() {
            let mag = n_s - m;
            mag.to_u128()
                .filter(|&u| u <= i128::MAX as u128)
                .map(|u| -(u as i128))
        } else {
            m.to_u128()
                .filter(|&u| u <= i128::MAX as u128)
                .map(|u| u as i128)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn modulus() -> BigUint {
        // Any large odd modulus works for the codec.
        BigUint::parse_decimal("170141183460469231731687303715884105727").unwrap()
    }

    #[test]
    fn roundtrip_positive_and_negative() {
        let codec = FixedPointCodec::new(20);
        let n_s = modulus();
        for v in [0.0f64, 1.0, -1.0, 3.25159, -2.61828, 1e6, -1e6, 0.0000012] {
            let enc = codec.encode(v, &n_s).unwrap();
            let dec = codec.decode(&enc, &n_s, 0);
            assert!(
                (dec - v).abs() < 2.0 / codec.scale(),
                "value {v}: got {dec}"
            );
        }
    }

    #[test]
    fn sum_of_encodings_decodes_to_sum() {
        let codec = FixedPointCodec::new(20);
        let n_s = modulus();
        let a = codec.encode(1.5, &n_s).unwrap();
        let b = codec.encode(-2.25, &n_s).unwrap();
        let sum = a.mod_add(&b, &n_s);
        let dec = codec.decode(&sum, &n_s, 0);
        assert!((dec - (-0.75)).abs() < 2.0 / codec.scale());
    }

    #[test]
    fn extra_pow2_divides() {
        let codec = FixedPointCodec::new(10);
        let n_s = modulus();
        let enc = codec.encode(8.0, &n_s).unwrap();
        assert!((codec.decode(&enc, &n_s, 3) - 1.0).abs() < 1e-2);
    }

    #[test]
    fn integer_roundtrip_exact() {
        let codec = FixedPointCodec::new(0);
        let n_s = modulus();
        for x in [0i128, 1, -1, 123456789, -987654321] {
            let enc = codec.encode_integer(x, &n_s).unwrap();
            assert_eq!(codec.decode_integer(&enc, &n_s), Some(x));
        }
    }

    #[test]
    fn non_finite_rejected() {
        let codec = FixedPointCodec::default();
        let n_s = modulus();
        assert!(codec.encode(f64::NAN, &n_s).is_err());
        assert!(codec.encode(f64::INFINITY, &n_s).is_err());
    }

    #[test]
    fn overflow_rejected() {
        let codec = FixedPointCodec::new(0);
        let tiny = BigUint::from(100u64);
        assert!(codec.encode_integer(50, &tiny).is_err());
        assert!(codec.encode_integer(49, &tiny).is_ok());
        assert!(codec.encode_integer(-49, &tiny).is_ok());
    }
}
