use std::fmt;

/// Errors surfaced by the anonymous-routing core.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnonError {
    /// An onion layer failed to decrypt or authenticate.
    Crypto(sim_crypto::CryptoError),
    /// A wire blob was malformed (truncated or bad tag).
    Malformed(&'static str),
    /// No cached path state matches the incoming stream id.
    UnknownStream,
    /// Not enough distinct candidate relays to build the requested paths.
    NotEnoughRelays {
        /// Relays needed (`k * L`).
        needed: usize,
        /// Relays available after exclusions.
        available: usize,
    },
    /// Erasure decode failed (fewer than `m` segments, or corrupt data).
    Erasure(erasure::ErasureError),
    /// Invalid protocol parameters (e.g. `k` not a multiple of `r`).
    InvalidParameters(String),
    /// An onion would not fit in a frame: `len` bytes against the
    /// wire's `max` ([`crate::wire::MAX_BLOB_LEN`]).
    Oversized {
        /// Length of the onion that would be built.
        len: usize,
        /// The longest a frame carries.
        max: usize,
    },
}

impl fmt::Display for AnonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnonError::Crypto(e) => write!(f, "crypto failure: {e}"),
            AnonError::Malformed(what) => write!(f, "malformed message: {what}"),
            AnonError::UnknownStream => write!(f, "no path state for stream id"),
            AnonError::NotEnoughRelays { needed, available } => {
                write!(f, "not enough relays: need {needed}, have {available}")
            }
            AnonError::Erasure(e) => write!(f, "erasure decode failure: {e}"),
            AnonError::InvalidParameters(msg) => write!(f, "invalid parameters: {msg}"),
            AnonError::Oversized { len, max } => {
                write!(f, "a {len}-byte onion exceeds the {max}-byte frame limit")
            }
        }
    }
}

impl std::error::Error for AnonError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AnonError::Crypto(e) => Some(e),
            AnonError::Erasure(e) => Some(e),
            _ => None,
        }
    }
}

impl From<sim_crypto::CryptoError> for AnonError {
    fn from(e: sim_crypto::CryptoError) -> Self {
        AnonError::Crypto(e)
    }
}

impl From<erasure::ErasureError> for AnonError {
    fn from(e: erasure::ErasureError) -> Self {
        AnonError::Erasure(e)
    }
}
