//! Self-contained cryptography substrate for the anonymous-routing
//! simulator.
//!
//! The paper assumes a PKI: every node owns a public/private key pair, path
//! construction wraps each layer under the relay's *public* key, and payload
//! forwarding uses per-hop *symmetric* keys. This crate provides those
//! primitives with zero external dependencies (only `rand` for key
//! generation), implemented from the relevant specifications:
//!
//! * [`sha256`] — FIPS 180-4 SHA-256.
//! * [`hmac`] — RFC 2104 HMAC-SHA-256 and RFC 5869 HKDF.
//! * [`chacha20`] — RFC 8439 ChaCha20 stream cipher.
//! * [`poly1305`] — RFC 8439 Poly1305 one-time authenticator.
//! * [`x25519`] — RFC 7748 X25519 Diffie–Hellman over Curve25519.
//! * [`keys`] — key pairs, node identities, and the per-hop session key
//!   that carries its derived cipher key.
//! * [`sealed`] — hybrid public-key encryption ("sealed boxes"):
//!   ephemeral X25519 + HKDF + ChaCha20 + HMAC tag (encrypt-then-MAC),
//!   used for onion layers at path-construction time.
//! * [`symmetric`] — authenticated symmetric encryption with the per-hop
//!   session keys `R_i` (the ChaCha20-Poly1305 AEAD of RFC 8439), used for
//!   payload onions.
//!
//! # Security disclaimer
//!
//! This code passes the official test vectors and is functionally correct,
//! but it is written for a *simulation*: it is not constant-time audited,
//! not side-channel hardened, and has no place protecting real traffic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chacha20;
pub mod hmac;
pub mod keys;
pub mod poly1305;
pub mod sealed;
pub mod sha256;
pub mod symmetric;
pub mod x25519;

mod error;

pub use error::CryptoError;
pub use keys::{KeyPair, PublicKey, SecretKey, SymmetricKey};
pub use sealed::{seal, unseal};
pub use symmetric::{sym_decrypt_in_place, sym_encrypt_in_place};
