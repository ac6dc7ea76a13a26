use std::fmt;

/// Errors from decryption/authentication.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CryptoError {
    /// Ciphertext too short to contain header + tag.
    Truncated,
    /// Authentication tag mismatch: wrong key or tampered ciphertext.
    BadTag,
    /// Longer than one nonce's keystream can cover
    /// ([`crate::symmetric::MAX_PLAINTEXT_LEN`]).
    TooLong,
}

impl fmt::Display for CryptoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CryptoError::Truncated => write!(f, "ciphertext truncated"),
            CryptoError::BadTag => write!(f, "authentication tag mismatch"),
            CryptoError::TooLong => write!(f, "message exceeds one nonce's keystream"),
        }
    }
}

impl std::error::Error for CryptoError {}
