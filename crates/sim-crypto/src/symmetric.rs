//! Authenticated symmetric encryption with per-hop session keys.
//!
//! This is what relays use on the payload onion: `<PayLoad_{i+1}>_{R_i}` in
//! the paper's notation. Construction (wire v2): the ChaCha20-Poly1305 AEAD
//! of RFC 8439 §2.8 with no associated data, under a ChaCha20 key derived
//! from the session key by HChaCha20 and a random 12-byte nonce that
//! travels in front of the ciphertext. The Poly1305 one-time key is the
//! first 32 bytes of keystream block 0 under `(key, nonce)`, the body is
//! encrypted from block 1, and the 16-byte tag is Poly1305 over
//! `ciphertext ‖ pad16 ‖ le64(0) ‖ le64(len ciphertext)`.
//!
//! The nonce is 96 fresh random bits per layer, so a one-time key repeats
//! only when a `(key, nonce)` pair does, which would already repeat the
//! keystream. A body is at most [`MAX_PLAINTEXT_LEN`] bytes: one more block
//! would wrap the 32-bit counter back onto block 0, the one that keys the
//! MAC.
//!
//! The key derivation runs once, when the [`SymmetricKey`] is made; a
//! layer here costs a nonce, one extra keystream block and one cheap pass
//! of each primitive over the body. Decryption computes the whole tag and compares it in
//! constant time before it touches a byte.

use crate::chacha20::{self, KEY_LEN, NONCE_LEN};
use crate::keys::SymmetricKey;
use crate::poly1305::{self, Poly1305};
use crate::CryptoError;
use rand::{CryptoRng, Rng};

/// Authentication tag length in bytes.
pub const TAG_LEN: usize = poly1305::TAG_LEN;

/// Ciphertext expansion: nonce + tag.
pub const OVERHEAD: usize = NONCE_LEN + TAG_LEN;

/// Longest plaintext one layer carries: keystream blocks 1 to 2^32 − 1 of
/// one `(key, nonce)` (RFC 8439 §2.8's limit).
pub const MAX_PLAINTEXT_LEN: u64 = u32::MAX as u64 * 64;

fn check_len(plain_len: usize) -> Result<(), CryptoError> {
    if u64::try_from(plain_len).is_ok_and(|len| len <= MAX_PLAINTEXT_LEN) {
        Ok(())
    } else {
        Err(CryptoError::TooLong)
    }
}

/// The RFC 8439 §2.8 tag of `ciphertext` and associated data `aad` under
/// ChaCha20 `(key, nonce)`: Poly1305, keyed by the first 32 bytes of
/// keystream block 0, over
/// `aad ‖ pad16 ‖ ciphertext ‖ pad16 ‖ le64(len aad) ‖ le64(len ciphertext)`.
/// A layer here has no `aad`; a sealed box's is the two public keys.
pub(crate) fn aead_tag(
    key: &[u8; KEY_LEN],
    nonce: &[u8; NONCE_LEN],
    aad: &[u8],
    ciphertext: &[u8],
) -> [u8; TAG_LEN] {
    let block0 = chacha20::block(key, 0, nonce);
    let mut one_time_key = [0u8; poly1305::KEY_LEN];
    one_time_key.copy_from_slice(&block0[..poly1305::KEY_LEN]);
    let mut mac = Poly1305::new(&one_time_key);
    mac.update_padded(aad);
    mac.update_padded(ciphertext);
    let mut lengths = [0u8; 16];
    lengths[..8].copy_from_slice(&(aad.len() as u64).to_le_bytes());
    lengths[8..].copy_from_slice(&(ciphertext.len() as u64).to_le_bytes());
    mac.update_padded(&lengths);
    mac.finalize()
}

/// Constant-time tag comparison: every byte is read whatever differs.
pub(crate) fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b) {
        diff |= x ^ y;
    }
    diff == 0
}

/// Encrypt and authenticate the plaintext held in `buf` under `key`,
/// within `buf`: it grows by [`OVERHEAD`] bytes, reusing its capacity.
///
/// Output layout: `nonce (12) || ciphertext || tag (16)`.
///
/// # Panics
///
/// If the plaintext is longer than [`MAX_PLAINTEXT_LEN`] (256 GiB; frames
/// are kilobytes): the caller built it, so that is a bug, not an input.
pub fn sym_encrypt_in_place<R: Rng + CryptoRng>(
    key: &SymmetricKey,
    buf: &mut Vec<u8>,
    rng: &mut R,
) {
    assert!(
        check_len(buf.len()).is_ok(),
        "plaintext exceeds one nonce's keystream"
    );
    let mut nonce = [0u8; NONCE_LEN];
    rng.fill_bytes(&mut nonce);

    let plain_len = buf.len();
    buf.resize(plain_len + OVERHEAD, 0);
    buf.copy_within(..plain_len, NONCE_LEN);
    buf[..NONCE_LEN].copy_from_slice(&nonce);
    let (body, tag) = buf.split_at_mut(NONCE_LEN + plain_len);
    let ciphertext = &mut body[NONCE_LEN..];
    chacha20::xor_stream(key.enc_key(), 1, &nonce, ciphertext);
    tag.copy_from_slice(&aead_tag(key.enc_key(), &nonce, &[], ciphertext));
}

/// Verify and decrypt a ciphertext produced by [`sym_encrypt_in_place`],
/// within `buf`: checks the tag, decrypts, moves the plaintext to the
/// front and truncates off the [`OVERHEAD`]. On error `buf` is left
/// untouched. Never allocates.
pub fn sym_decrypt_in_place(key: &SymmetricKey, buf: &mut Vec<u8>) -> Result<(), CryptoError> {
    let (nonce, rest) = buf
        .split_first_chunk_mut::<NONCE_LEN>()
        .ok_or(CryptoError::Truncated)?;
    let (ciphertext, tag) = rest
        .split_last_chunk_mut::<TAG_LEN>()
        .ok_or(CryptoError::Truncated)?;
    let plain_len = ciphertext.len();
    check_len(plain_len)?;
    if !ct_eq(tag, &aead_tag(key.enc_key(), nonce, &[], ciphertext)) {
        return Err(CryptoError::BadTag);
    }
    chacha20::xor_stream(key.enc_key(), 1, nonce, ciphertext);
    buf.copy_within(NONCE_LEN..NONCE_LEN + plain_len, 0);
    buf.truncate(plain_len);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn key_and_rng() -> (SymmetricKey, StdRng) {
        let mut rng = StdRng::seed_from_u64(42);
        (SymmetricKey::generate(&mut rng), rng)
    }

    /// Wire-v2 compatibility guard: `nonce || ct || tag` for key bytes
    /// `00..1f`, plaintext byte `i` = `7i + 3`, nonce drawn from
    /// `StdRng::seed_from_u64(0x5eed)` (the key, plaintexts and nonce of
    /// the v1 guard this replaces). Re-recorded when the cipher key's
    /// derivation moved from HKDF to HChaCha20; the AEAD is unchanged.
    /// `tests/known_answers.py` recomputes them (ChaCha20, HChaCha20 and
    /// Poly1305 on Python integers) and finds them in this file.
    #[test]
    fn known_answers_wire_v2() {
        let vectors: [(usize, &str); 4] = [
            (
                0,
                "783d73c1be7141846908bd853ef2a94f1b8538a70481b25f3f560bfe",
            ),
            (
                1,
                "783d73c1be7141846908bd85d6c8124d485f139df64dc00951155bd8d4",
            ),
            (
                64,
                "783d73c1be7141846908bd85d61e3cf968da91c3ef2b0ba352be6317764c188af36c6758\
                 d03c1de90c6546c2921b1a54c1a7e6a3a3262905a9a775315ec2c4394429db98bc402363\
                 e831e007b31247f5c1ad3d63d3f5d4a5c23ba3e0",
            ),
            (
                300,
                "783d73c1be7141846908bd85d61e3cf968da91c3ef2b0ba352be6317764c188af36c6758\
                 d03c1de90c6546c2921b1a54c1a7e6a3a3262905a9a775315ec2c4394429db98bc402363\
                 e831e0074b79fc84912d308354ca2dad27f1ebb51081127eedfbf87bce877a08577170af\
                 b77c129059f2a52a673cd4e3d3077aa94a2171767bc40f095f597227a7eee7325a59f79e\
                 39b40248f7d04bc0423dcbb042a953a92c64c55ef4031762b15b2f2022edb56c24dbd509\
                 a3a95aee0b2ab62a94a6e25206a8f19def5c8a081dad2673fb43b74cbc5ceb4329d4d88f\
                 c972ee461272074f0137e1cb2b9f4ab707c7ae19060e0c038f6a9d515cd259c96afe20c1\
                 2ce89a7bb7a6c36eba51d5d0a56f3e2d2d3190567d935781578d248f7869c57f2a2f8b70\
                 59593130811bd35a238d8024bc6c732854c0c98b700a412abd7db9dd3e43d626f01efd8c\
                 b713ae54",
            ),
        ];
        let key = SymmetricKey::from_bytes(std::array::from_fn(|i| i as u8));
        for (len, want) in vectors {
            let mut buf: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
            let plain = buf.clone();
            sym_encrypt_in_place(&key, &mut buf, &mut StdRng::seed_from_u64(0x5eed));
            let got: String = buf.iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(got, want, "len {len}");
            sym_decrypt_in_place(&key, &mut buf).unwrap();
            assert_eq!(buf, plain, "len {len}");
        }
    }

    #[test]
    fn ct_eq_behaviour() {
        assert!(ct_eq(b"abc", b"abc"));
        assert!(!ct_eq(b"abc", b"abd"));
        assert!(!ct_eq(b"abc", b"ab"));
        assert!(ct_eq(b"", b""));
    }

    fn sealed(key: &SymmetricKey, msg: &[u8], rng: &mut StdRng) -> Vec<u8> {
        let mut buf = msg.to_vec();
        sym_encrypt_in_place(key, &mut buf, rng);
        buf
    }

    #[test]
    fn roundtrip() {
        let (key, mut rng) = key_and_rng();
        for len in [0usize, 1, 15, 16, 17, 100, 1024] {
            let msg = vec![0xabu8; len];
            let mut buf = sealed(&key, &msg, &mut rng);
            assert_eq!(buf.len(), len + OVERHEAD);
            sym_decrypt_in_place(&key, &mut buf).unwrap();
            assert_eq!(buf, msg, "len {len}");
        }
    }

    #[test]
    fn tampering_rejected_every_byte() {
        let (key, mut rng) = key_and_rng();
        let ct = sealed(&key, b"integrity matters", &mut rng);
        for i in 0..ct.len() {
            let mut bad = ct.clone();
            bad[i] ^= 0x01;
            assert_eq!(
                sym_decrypt_in_place(&key, &mut bad),
                Err(CryptoError::BadTag),
                "byte {i}"
            );
        }
    }

    #[test]
    fn decrypt_failure_preserves_buffer() {
        let (key, mut rng) = key_and_rng();
        let other = SymmetricKey::generate(&mut rng);
        let ct = sealed(&key, b"payload", &mut rng);
        let mut tampered = ct.clone();
        let last = tampered.len() - 1;
        tampered[last] ^= 1;
        let snapshot = tampered.clone();
        assert_eq!(
            sym_decrypt_in_place(&key, &mut tampered),
            Err(CryptoError::BadTag)
        );
        assert_eq!(tampered, snapshot);
        let mut wrong_key = ct.clone();
        assert_eq!(
            sym_decrypt_in_place(&other, &mut wrong_key),
            Err(CryptoError::BadTag)
        );
        assert_eq!(wrong_key, ct);
        for len in [0, OVERHEAD - 1] {
            let mut short = vec![0u8; len];
            assert_eq!(
                sym_decrypt_in_place(&key, &mut short),
                Err(CryptoError::Truncated)
            );
        }
    }

    #[test]
    fn length_bound_is_the_counter_space_after_block_zero() {
        // Blocks 1..=u32::MAX: the block after the last would be block 0.
        assert_eq!(MAX_PLAINTEXT_LEN, ((1u64 << 32) - 1) * 64);
        assert_eq!(check_len(0), Ok(()));
        if let Ok(max) = usize::try_from(MAX_PLAINTEXT_LEN) {
            assert_eq!(check_len(max), Ok(()));
            assert_eq!(check_len(max + 1), Err(CryptoError::TooLong));
            assert_eq!(check_len(usize::MAX), Err(CryptoError::TooLong));
        }
    }

    #[test]
    fn nonce_randomisation_changes_ciphertext() {
        let (key, mut rng) = key_and_rng();
        let mut a = sealed(&key, b"same message", &mut rng);
        let mut b = sealed(&key, b"same message", &mut rng);
        assert_ne!(a, b);
        sym_decrypt_in_place(&key, &mut a).unwrap();
        sym_decrypt_in_place(&key, &mut b).unwrap();
        assert_eq!(a, b);
    }
}
