//! Self-contained cryptography substrate for the anonymous-routing
//! simulator.
//!
//! The paper assumes a PKI: every node owns a public/private key pair, path
//! construction wraps each layer under the relay's *public* key, and payload
//! forwarding uses per-hop *symmetric* keys. This crate provides those
//! primitives with zero external dependencies (only `rand` for key
//! generation), implemented from the relevant specifications:
//!
//! * [`chacha20`] — RFC 8439 ChaCha20 stream cipher, and HChaCha20
//!   (draft-irtf-cfrg-xchacha-03), the one key derivation.
//! * [`poly1305`] — RFC 8439 Poly1305 one-time authenticator.
//! * [`x25519`] — RFC 7748 X25519 Diffie–Hellman over Curve25519, and a
//!   fixed-base comb for public keys and for the recipients a sender keeps
//!   a [`RecipientTable`] of.
//! * [`keys`] — key pairs, node identities, and the per-hop session key
//!   that carries its derived cipher key.
//! * [`sealed`] — hybrid public-key encryption ("sealed boxes"):
//!   ephemeral X25519, an HChaCha20 box key and the ChaCha20-Poly1305 AEAD
//!   over both public keys, used for onion layers at path-construction
//!   time; a construction onion's boxes share one field inversion.
//! * [`symmetric`] — authenticated symmetric encryption with the per-hop
//!   session keys `R_i` (the ChaCha20-Poly1305 AEAD of RFC 8439), used for
//!   payload onions.
//! * [`sha256`] — FIPS 180-4 SHA-256. No protocol step calls it; it waits
//!   for the blinding factors of a Sphinx-shaped packet format.
//!
//! One symmetric family, ChaCha20 and Poly1305, does every symmetric job
//! of the protocol: key derivation, encryption and authentication.
//!
//! # Security disclaimer
//!
//! This code passes the official test vectors and is functionally correct,
//! but it is written for a *simulation*: it is not constant-time audited,
//! not side-channel hardened, and has no place protecting real traffic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chacha20;
pub mod keys;
pub mod poly1305;
pub mod sealed;
pub mod sha256;
pub mod symmetric;
pub mod x25519;

mod error;

pub use error::CryptoError;
pub use keys::{KeyPair, PublicKey, SecretKey, SymmetricKey};
pub use sealed::{seal, seal_to_table, sealers, unseal, Sealer};
pub use symmetric::{sym_decrypt_in_place, sym_encrypt_in_place};
pub use x25519::RecipientTable;

/// Per-thread tallies of the two costly primitives a construction hop could
/// run: field inversions ([`x25519`]'s `Fe::invert`, every one at run
/// time but the table builder's, which is a `const fn`) and SHA-256
/// compressions.
#[cfg(test)]
pub(crate) mod tally {
    use std::cell::Cell;

    thread_local! {
        static INVERSIONS: Cell<usize> = const { Cell::new(0) };
        static COMPRESSIONS: Cell<usize> = const { Cell::new(0) };
    }

    pub(crate) fn inversion() {
        INVERSIONS.with(|n| n.set(n.get() + 1));
    }

    pub(crate) fn compression() {
        COMPRESSIONS.with(|n| n.set(n.get() + 1));
    }

    /// `(inversions, compressions)` this thread ran while `run` ran.
    pub(crate) fn during(run: impl FnOnce()) -> (usize, usize) {
        let read = || (INVERSIONS.with(Cell::get), COMPRESSIONS.with(Cell::get));
        let before = read();
        run();
        let after = read();
        (after.0 - before.0, after.1 - before.1)
    }
}
