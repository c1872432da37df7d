//! # cs-bigint — arbitrary-precision integers for the Chiaroscuro reproduction
//!
//! A from-scratch big-integer library providing exactly what the
//! Damgård-Jurik / Paillier cryptosystem and its threshold variant require:
//!
//! * [`BigUint`]: unsigned arbitrary-precision integers with schoolbook and
//!   Karatsuba multiplication, Knuth Algorithm D division, shifts, bit
//!   access, and radix conversion;
//! * [`BigInt`]: signed integers (sign + magnitude) used by the extended
//!   Euclidean algorithm and integer Lagrange coefficients;
//! * modular arithmetic: [`BigUint::mod_pow`], [`BigUint::mod_inverse`],
//!   [`BigUint::gcd`], with a Montgomery-multiplication fast path
//!   ([`montgomery::MontgomeryCtx`]) for odd moduli (all Damgård-Jurik moduli
//!   `n^(s+1)` are odd);
//! * probabilistic primality testing (Miller-Rabin) and random (safe-)prime
//!   generation ([`prime`]);
//! * uniform random sampling ([`rng`]).
//!
//! The representation is a little-endian `Vec<u64>` of limbs, normalized so
//! that the most significant limb is non-zero (zero is the empty vector).
//!
//! ## Example
//!
//! ```
//! use cs_bigint::BigUint;
//!
//! let a = BigUint::from(123456789u64);
//! let b = BigUint::parse_decimal("987654321987654321").unwrap();
//! let m = BigUint::from(1_000_000_007u64);
//! let p = a.mod_pow(&b, &m);
//! assert!(p < m);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod add_sub;
mod bits;
mod cmp;
mod convert;
mod div;
pub mod fixed_base;
mod fmt;
pub mod gcd;
mod ifma;
mod int;
pub mod modular;
pub mod montgomery;
mod mul;
pub mod multi_exp;
pub mod prime;
pub mod rng;
#[cfg(feature = "serde")]
mod serde_impl;
mod shift;
mod uint;
mod wide;

pub use fixed_base::FixedBaseExp;
pub use int::{BigInt, Sign};
pub use montgomery::MontgomeryCtx;
pub use uint::BigUint;
