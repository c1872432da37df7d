//! Error type for cryptographic operations.

use std::fmt;

/// Errors surfaced by the Damgård-Jurik implementation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CryptoError {
    /// A plaintext was not in `[0, n^s)`.
    PlaintextOutOfRange,
    /// A value expected to be a unit mod `n^(s+1)` shares a factor with `n`.
    NotAUnit,
    /// Threshold combination received fewer shares than the threshold.
    NotEnoughShares {
        /// Shares provided.
        got: usize,
        /// Threshold required.
        need: usize,
    },
    /// Threshold combination received two shares with the same index.
    DuplicateShareIndex(u64),
    /// A share index was outside `1..=parties`.
    ShareIndexOutOfRange(u64),
    /// Partial decryptions refer to different ciphertexts or keys.
    MismatchedShares,
    /// Fixed-point encoding overflow: the value cannot be represented.
    EncodingOverflow,
    /// A packed value does not fit its lane (pack-time saturation).
    LaneOverflow {
        /// Index of the offending bucket in the packed vector.
        slot: usize,
    },
    /// The aggregate carry multiplier exceeds the packed lanes' headroom:
    /// lane sums could have wrapped into their neighbours, so the unpacked
    /// values cannot be trusted. Unreachable on an honest run of the
    /// protocol, whose nodes never split past the plan's
    /// [`crate::PackedCodec::denominator_cap`]: what raises it is a plan,
    /// an aggregate or a denominator that did not come from the protocol.
    LaneHeadroomExceeded,
    /// Key generation parameters are invalid (e.g. threshold > parties).
    InvalidParameters(&'static str),
}

impl fmt::Display for CryptoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CryptoError::PlaintextOutOfRange => write!(f, "plaintext out of range [0, n^s)"),
            CryptoError::NotAUnit => write!(f, "value is not a unit modulo n^(s+1)"),
            CryptoError::NotEnoughShares { got, need } => {
                write!(f, "not enough decryption shares: got {got}, need {need}")
            }
            CryptoError::DuplicateShareIndex(i) => write!(f, "duplicate share index {i}"),
            CryptoError::ShareIndexOutOfRange(i) => write!(f, "share index {i} out of range"),
            CryptoError::MismatchedShares => write!(f, "partial decryptions do not match"),
            CryptoError::EncodingOverflow => write!(f, "fixed-point encoding overflow"),
            CryptoError::LaneOverflow { slot } => {
                write!(f, "packed value at bucket {slot} overflows its lane")
            }
            CryptoError::LaneHeadroomExceeded => {
                write!(
                    f,
                    "aggregate carry multiplier exceeds the packed lane headroom"
                )
            }
            CryptoError::InvalidParameters(msg) => write!(f, "invalid parameters: {msg}"),
        }
    }
}

impl std::error::Error for CryptoError {}
