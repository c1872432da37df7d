//! # cs-crypto — the Damgård-Jurik cryptosystem, from scratch
//!
//! This crate implements the encryption substrate of Chiaroscuro (ICDE 2016):
//! the Damgård-Jurik generalization of Paillier's additively homomorphic
//! public-key scheme (Damgård & Jurik, PKC 2001), including:
//!
//! * key generation over an RSA modulus `n = p·q` with configurable bit
//!   length and Damgård-Jurik degree `s` (plaintext space `Z_{n^s}`,
//!   ciphertext space `Z*_{n^(s+1)}`); Paillier is the `s = 1` special case;
//! * encryption `c = (1+n)^m · r^(n^s) mod n^(s+1)` with the binomial
//!   expansion fast path for `(1+n)^m`;
//! * decryption via the Damgård-Jurik discrete-logarithm extraction;
//! * the homomorphic operations Chiaroscuro's Diptych needs: ciphertext
//!   addition, plaintext addition, scalar multiplication (including the
//!   power-of-two rescaling used by the homomorphic push-sum), negation, and
//!   re-randomization;
//! * **threshold decryption**: the secret exponent `d` (with `d ≡ 1 mod n^s`
//!   and `d ≡ 0 mod λ(n)`) is Shamir-shared among `l` parties; any `t` of
//!   them produce partial decryptions `c_i = c^(2Δ·s_i)` (`Δ = l!`) that are
//!   combined with integer Lagrange coefficients — no trusted decryptor, as
//!   the paper requires ("the decryption is performed collaboratively by any
//!   subset of participants provided it is sufficiently large");
//! * fixed-point encoding of real-valued time-series into `Z_{n^s}`;
//! * a measured cost profile a caller prices a run's operation counts with,
//!   mirroring the demo's "actual average measures performed beforehand".
//!
//! The adversary model is the paper's: honest-but-curious participants. No
//! zero-knowledge proofs of correct partial decryption are attached (they
//! guard against active adversaries, out of scope here and in the paper).
//!
//! ## Example
//!
//! ```
//! use cs_crypto::{KeyPair, KeyGenOptions};
//! use cs_bigint::BigUint;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let kp = KeyPair::generate(&KeyGenOptions::insecure_test_size(), &mut rng);
//! let c1 = kp.public().encrypt(&BigUint::from(20u64), &mut rng);
//! let c2 = kp.public().encrypt(&BigUint::from(22u64), &mut rng);
//! let sum = kp.public().add(&c1, &c2);
//! assert_eq!(kp.private().decrypt(&sum), BigUint::from(42u64));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ciphertext;
pub mod cost;
mod damgard_jurik;
mod encoding;
mod error;
pub mod fastenc;
mod homomorphic;
mod keys;
pub mod packing;
pub mod shamir;
pub mod threshold;

pub use ciphertext::Ciphertext;
pub use cost::CryptoCostProfile;
pub use encoding::FixedPointCodec;
pub use error::CryptoError;
pub use fastenc::{FastEncryptor, RandomizerPool};
pub use keys::{KeyGenOptions, KeyPair, PrivateKey, PublicKey};
pub use packing::{LaneFold, PackedCodec};
pub use threshold::{KeyShare, PartialDecryption, ThresholdKeyPair, ThresholdParams};
