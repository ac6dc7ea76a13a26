//! Authenticated symmetric encryption with per-hop session keys.
//!
//! This is what relays use on the payload onion: `<PayLoad_{i+1}>_{R_i}` in
//! the paper's notation. Construction (wire v2): the ChaCha20-Poly1305 AEAD
//! of RFC 8439 §2.8 with no associated data, under a ChaCha20 key derived
//! from the session key by HKDF and a random 12-byte nonce that travels in
//! front of the ciphertext. The Poly1305 one-time key is the first 32 bytes
//! of keystream block 0 under `(key, nonce)`, the body is encrypted from
//! block 1, and the 16-byte tag is Poly1305 over
//! `ciphertext ‖ pad16 ‖ le64(0) ‖ le64(len ciphertext)`.
//!
//! The nonce is 96 fresh random bits per layer, so a one-time key repeats
//! only when a `(key, nonce)` pair does, which would already repeat the
//! keystream. A body is at most [`MAX_PLAINTEXT_LEN`] bytes: one more block
//! would wrap the 32-bit counter back onto block 0, the one that keys the
//! MAC.
//!
//! The HKDF runs once, when the [`SymmetricKey`] is made; a layer here costs
//! a nonce, one extra keystream block and one cheap pass of each primitive
//! over the body. Decryption computes the whole tag and compares it in
//! constant time before it touches a byte.

use crate::chacha20::{self, NONCE_LEN};
use crate::hmac::ct_eq;
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

/// The layer's tag over `ciphertext` under `(key, nonce)`.
fn layer_tag(key: &SymmetricKey, nonce: &[u8; NONCE_LEN], ciphertext: &[u8]) -> [u8; TAG_LEN] {
    let block0 = chacha20::block(key.enc_key(), 0, nonce);
    let mut one_time_key = [0u8; poly1305::KEY_LEN];
    one_time_key.copy_from_slice(&block0[..poly1305::KEY_LEN]);
    let mut mac = Poly1305::new(&one_time_key);
    mac.update_padded(ciphertext);
    let mut lengths = [0u8; 16];
    lengths[8..].copy_from_slice(&(ciphertext.len() as u64).to_le_bytes());
    mac.update_padded(&lengths);
    mac.finalize()
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
    tag.copy_from_slice(&layer_tag(key, &nonce, ciphertext));
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
    if !ct_eq(tag, &layer_tag(key, nonce, ciphertext)) {
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
    /// the v1 guard this replaces). The bytes were recorded from, and so
    /// cross-checked once against, a stdlib-only python3 script: HKDF from
    /// `hmac`/`hashlib`, ChaCha20 on a list of ints, and Poly1305 as
    /// `h = (h + int.from_bytes(block + b"\x01", "little")) * r % (2**130 - 5)`
    /// on Python's big integers, composed as the module doc describes.
    #[test]
    fn known_answers_wire_v2() {
        let vectors: [(usize, &str); 4] = [
            (
                0,
                "783d73c1be7141846908bd850296d99f6f0fd0445ab335b95de77c3a",
            ),
            (
                1,
                "783d73c1be7141846908bd85266cbac91571fa82c1c22879c348340ca2",
            ),
            (
                64,
                "783d73c1be7141846908bd8526c241746b56b7cc1d2e0232b09d08f0c08d8e7f2fe5ff21\
                 37efde8c48ecfa0866e01327ffbfa470a3ec054e5c32ac05cd9e1102877a72f869690dab\
                 62d2489965890e1d8b241488e99be7b93efb4c51",
            ),
            (
                300,
                "783d73c1be7141846908bd8526c241746b56b7cc1d2e0232b09d08f0c08d8e7f2fe5ff21\
                 37efde8c48ecfa0866e01327ffbfa470a3ec054e5c32ac05cd9e1102877a72f869690dab\
                 62d2489991eb72cdc0b8d6cefb91d000ec482aee734d1d27ee2c891adc7726244e6cb535\
                 de1ae848e333a28210c62ab8f3e225d7ee4f2c877bba61b4ce48b420cb3c5b90267b24a1\
                 e7623c3f592f45b94398e24bf1f15090ee787869b8fb6e0f5be127e1fdc7e33c89b14038\
                 8f727a7bb4a7789595d8b143acc68375d12eacab5de1925dee5babe33debdbcbd222f85d\
                 16ecb2fa06a6202d2a7fb34bf7c554371dc9159a09441c2c880cdf5fbad70fb11224f2a6\
                 5d5a21b41898ddddc4267231c65080b42811cc4b5724b4e3e5facc0c632cad746aad024d\
                 00d0a7ef6b2977702476ab6f33f049b42f36095a9c38d5358b99d5fac22e0134bb8432f6\
                 73b50652",
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
