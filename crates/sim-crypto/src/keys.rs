//! Key material: X25519 key pairs (the per-node PKI identity) and symmetric
//! session keys (the per-hop `R_i` of the paper).
//!
//! A [`SymmetricKey`] is expanded when it is made, not when it is used: the
//! paper pays for a path once, at construction, and every frame afterwards
//! costs a relay one symmetric layer under the planted `R_i`. The key
//! therefore carries what [`crate::symmetric`] needs per layer (the
//! ChaCha20 key HChaCha20 derives from `R_i`; the Poly1305 key is per nonce
//! and comes out of the cipher) next to the 32 bytes that travel in the
//! construction onion, and whoever stores the key per path entry stores
//! the derived key with it.

use crate::chacha20::hchacha20;
use crate::x25519;
use rand::{CryptoRng, Rng};

/// An X25519 public key — what the PKI publishes for each node.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct PublicKey(pub [u8; 32]);

/// An X25519 secret scalar, together with the public key it determines.
///
/// Like a [`SymmetricKey`]'s cipher key, the public half is derived when the
/// key is made: opening a sealed box needs it for the tag's associated
/// data, and a relay opens one per construction onion under a key that
/// never changes.
#[derive(Clone)]
pub struct SecretKey {
    scalar: [u8; 32],
    public: PublicKey,
}

/// A node's key pair.
#[derive(Clone)]
pub struct KeyPair {
    /// Public half.
    pub public: PublicKey,
    /// Secret half.
    pub secret: SecretKey,
}

impl std::fmt::Debug for PublicKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "PublicKey({:02x}{:02x}..{:02x})",
            self.0[0], self.0[1], self.0[31]
        )
    }
}

impl std::fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print secret material.
        write!(f, "SecretKey(..)")
    }
}

impl SecretKey {
    /// Generate a random secret scalar.
    pub fn generate<R: Rng + CryptoRng>(rng: &mut R) -> Self {
        let mut bytes = [0u8; 32];
        rng.fill_bytes(&mut bytes);
        KeyPair::from_secret_bytes(bytes).secret
    }

    /// The matching public key.
    pub fn public_key(&self) -> PublicKey {
        self.public
    }

    /// Raw Diffie–Hellman with a peer's public key.
    pub fn diffie_hellman(&self, peer: &PublicKey) -> [u8; 32] {
        x25519::x25519(&self.scalar, &peer.0)
    }
}

impl KeyPair {
    /// Generate a fresh key pair.
    pub fn generate<R: Rng + CryptoRng>(rng: &mut R) -> Self {
        let secret = SecretKey::generate(rng);
        let public = secret.public_key();
        KeyPair { public, secret }
    }

    /// The key pair 32 drawn secret bytes determine: clamp, then one
    /// fixed-base comb ([`x25519::public_key`]) for the public half.
    /// [`KeyPair::generate`] is this after 32 bytes from its RNG, so a
    /// caller may draw the bytes now and derive later.
    pub fn from_secret_bytes(bytes: [u8; 32]) -> Self {
        let scalar = x25519::clamp_scalar(bytes);
        let public = PublicKey(x25519::public_key(&scalar));
        KeyPair {
            public,
            secret: SecretKey { scalar, public },
        }
    }
}

/// The HChaCha20 input that derives a [`SymmetricKey`]'s cipher key: a
/// constant of its own, so no other key derived from the same bytes
/// collides with it.
const SYM_KEY_DOMAIN: &[u8; 16] = b"p2p-anon/sym/key";

/// A 256-bit symmetric key: the per-hop session key `R_i` the initiator
/// plants at each relay during path construction, together with the
/// ChaCha20 key derived from it (64 bytes in all, `Copy`).
///
/// Identity is the 32 key bytes: equality and hashing look at nothing
/// else, and the derived key is a pure function of them.
#[derive(Clone, Copy)]
pub struct SymmetricKey {
    bytes: [u8; 32],
    enc: [u8; 32],
}

impl PartialEq for SymmetricKey {
    fn eq(&self, other: &Self) -> bool {
        self.bytes == other.bytes
    }
}

impl Eq for SymmetricKey {}

impl std::hash::Hash for SymmetricKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.bytes.hash(state);
    }
}

impl std::fmt::Debug for SymmetricKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SymmetricKey(..)")
    }
}

impl SymmetricKey {
    /// Generate a random symmetric key.
    pub fn generate<R: Rng + CryptoRng>(rng: &mut R) -> Self {
        let mut bytes = [0u8; 32];
        rng.fill_bytes(&mut bytes);
        Self::from_bytes(bytes)
    }

    /// Serialized form (for embedding in onion layers).
    pub fn to_bytes(self) -> [u8; 32] {
        self.bytes
    }

    /// Deserialize, and derive the symmetric layer's ChaCha20 key (wire
    /// v2): `HChaCha20(R_i, "p2p-anon/sym/key")`, one block's work, once per
    /// key instead of once per layer.
    pub fn from_bytes(bytes: [u8; 32]) -> Self {
        let enc = hchacha20(&bytes, SYM_KEY_DOMAIN);
        SymmetricKey { bytes, enc }
    }

    /// ChaCha20 key of the symmetric layer.
    pub(crate) fn enc_key(&self) -> &[u8; 32] {
        &self.enc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn keypair_dh_agreement() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = KeyPair::generate(&mut rng);
        let b = KeyPair::generate(&mut rng);
        assert_eq!(
            a.secret.diffie_hellman(&b.public),
            b.secret.diffie_hellman(&a.public)
        );
        assert_ne!(a.public, b.public);
    }

    #[test]
    fn generation_is_seed_deterministic() {
        let k1 = KeyPair::generate(&mut StdRng::seed_from_u64(7));
        let k2 = KeyPair::generate(&mut StdRng::seed_from_u64(7));
        assert_eq!(k1.public, k2.public);
        let k3 = KeyPair::generate(&mut StdRng::seed_from_u64(8));
        assert_ne!(k1.public, k3.public);
    }

    #[test]
    fn secret_key_carries_its_public_key() {
        use rand::RngCore;
        // Deriving the public half consumes no randomness: after
        // `generate`, the generator stands where 32 drawn bytes leave it.
        let mut rng = StdRng::seed_from_u64(4);
        let mut twin = StdRng::seed_from_u64(4);
        let kp = KeyPair::generate(&mut rng);
        let mut drawn = [0u8; 32];
        twin.fill_bytes(&mut drawn);
        assert_eq!(rng.next_u64(), twin.next_u64());

        let scalar = x25519::clamp_scalar(drawn);
        assert_eq!(kp.public, kp.secret.public_key());
        assert_eq!(kp.public, PublicKey(x25519::public_key(&scalar)));
        let later = KeyPair::from_secret_bytes(drawn);
        assert_eq!(later.public, kp.public);
        assert_eq!(later.secret.scalar, kp.secret.scalar);
        assert_eq!(std::mem::size_of::<SecretKey>(), 64);
        assert_eq!(format!("{:?}", kp.secret), "SecretKey(..)");
    }

    #[test]
    fn debug_never_leaks_secrets() {
        let mut rng = StdRng::seed_from_u64(2);
        let kp = KeyPair::generate(&mut rng);
        let s = format!("{:?} {:?}", kp.secret, SymmetricKey::generate(&mut rng));
        assert_eq!(s, "SecretKey(..) SymmetricKey(..)");
    }

    #[test]
    fn symmetric_key_roundtrip() {
        let mut rng = StdRng::seed_from_u64(3);
        let k = SymmetricKey::generate(&mut rng);
        assert_eq!(SymmetricKey::from_bytes(k.to_bytes()), k);
    }

    #[test]
    fn symmetric_key_identity_is_its_bytes() {
        use std::hash::{BuildHasher, RandomState};
        // Every path entry holds one by value.
        assert!(std::mem::size_of::<SymmetricKey>() <= 64);
        let a = SymmetricKey::from_bytes([1; 32]);
        let b = SymmetricKey::from_bytes([2; 32]);
        assert_ne!(a, b);
        // Same bytes under a foreign derived key: still the same key.
        let grafted = SymmetricKey {
            bytes: a.bytes,
            enc: b.enc,
        };
        assert_eq!(grafted, a);
        let hasher = RandomState::new();
        assert_eq!(hasher.hash_one(grafted), hasher.hash_one(a));
    }
}
