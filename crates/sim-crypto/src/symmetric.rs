//! Authenticated symmetric encryption with per-hop session keys.
//!
//! This is what relays use on the payload onion: `<PayLoad_{i+1}>_{R_i}` in
//! the paper's notation. Construction: ChaCha20 under a random 12-byte nonce
//! with an HMAC-SHA-256 tag over `nonce || ciphertext`, truncated to 16
//! bytes (encrypt-then-MAC). Encryption and MAC keys are derived from the
//! session key by HKDF so a single 32-byte `R_i` suffices.
//!
//! That derivation happens once, when the [`SymmetricKey`] is made; a layer
//! here costs a nonce, the keystream, the body's own SHA-256 blocks and one
//! more for the outer hash. Decryption still MACs the whole body and
//! compares in constant time before it touches a byte.

use crate::chacha20::{self, NONCE_LEN};
use crate::hmac::ct_eq;
use crate::keys::SymmetricKey;
use crate::CryptoError;
use rand::{CryptoRng, Rng};

/// Authentication tag length in bytes.
pub const TAG_LEN: usize = 16;

/// Ciphertext expansion: nonce + tag.
pub const OVERHEAD: usize = NONCE_LEN + TAG_LEN;

/// Encrypt and authenticate the plaintext held in `buf` under `key`,
/// within `buf`: it grows by [`OVERHEAD`] bytes, reusing its capacity.
///
/// Output layout: `nonce (12) || ciphertext || tag (16)`.
pub fn sym_encrypt_in_place<R: Rng + CryptoRng>(
    key: &SymmetricKey,
    buf: &mut Vec<u8>,
    rng: &mut R,
) {
    let mut nonce = [0u8; NONCE_LEN];
    rng.fill_bytes(&mut nonce);

    let plain_len = buf.len();
    buf.resize(plain_len + OVERHEAD, 0);
    buf.copy_within(..plain_len, NONCE_LEN);
    buf[..NONCE_LEN].copy_from_slice(&nonce);
    let (body, tag) = buf.split_at_mut(NONCE_LEN + plain_len);
    chacha20::xor_stream(key.enc_key(), 0, &nonce, &mut body[NONCE_LEN..]);
    tag.copy_from_slice(&key.mac_key().mac(&[body])[..TAG_LEN]);
}

/// Verify and decrypt a ciphertext produced by [`sym_encrypt_in_place`],
/// within `buf`: checks the tag, decrypts, moves the plaintext to the
/// front and truncates off the [`OVERHEAD`]. On error `buf` is left
/// untouched. Never allocates.
pub fn sym_decrypt_in_place(key: &SymmetricKey, buf: &mut Vec<u8>) -> Result<(), CryptoError> {
    if buf.len() < OVERHEAD {
        return Err(CryptoError::Truncated);
    }
    let body_len = buf.len() - TAG_LEN;
    let (body, tag) = buf.split_at_mut(body_len);
    let expected = key.mac_key().mac(&[body]);
    if !ct_eq(tag, &expected[..TAG_LEN]) {
        return Err(CryptoError::BadTag);
    }
    let (nonce, ciphertext) = body
        .split_first_chunk_mut::<NONCE_LEN>()
        .expect("length checked against OVERHEAD");
    chacha20::xor_stream(key.enc_key(), 0, nonce, ciphertext);
    buf.copy_within(NONCE_LEN..body_len, 0);
    buf.truncate(body_len - NONCE_LEN);
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

    /// Wire-v1 compatibility guard: `nonce || ct || tag` for key bytes
    /// `00..1f`, plaintext byte `i` = `7i + 3`, nonce drawn from
    /// `StdRng::seed_from_u64(0x5eed)`, as emitted by the per-call key
    /// schedule this module had before keys carried their expansion.
    #[test]
    fn known_answers_wire_v1() {
        let vectors: [(usize, &str); 4] = [
            (
                0,
                "783d73c1be7141846908bd85e0e195413ec5ff7755be9ac2d4b6072c",
            ),
            (
                1,
                "783d73c1be7141846908bd85f24ce0d57a6aca3ed9f74dd1d6616e032f",
            ),
            (
                64,
                "783d73c1be7141846908bd85f231fe903f13968e260d4bce133b5d6c54ec1e1de5458856\
                 a38510cff5cfed1792a8ccc01b149016233121505acd378633e32fcd06a7492031d718f4\
                 bfd35ab5d91293a931811661cde9fd3997b039ae",
            ),
            (
                300,
                "783d73c1be7141846908bd85f231fe903f13968e260d4bce133b5d6c54ec1e1de5458856\
                 a38510cff5cfed1792a8ccc01b149016233121505acd378633e32fcd06a7492031d718f4\
                 bfd35ab5b43ac64b45c8ce2b350c22ff14b1d928ff28c5f7a657d05b6b376712d2e34638\
                 8770c4b7945ecdea597f5599995a575e320d74b734fc3d0deed610f28b73461a39709c0e\
                 7206f9c9742c4a441c17a037099372d0319e390e2056cf5ac62234d4cc0949db40cd92cd\
                 7d6d14d37404c9fc0770d6c2dbceb6098d140ad2aa11ff05980b11a81a7e198a405a8479\
                 0000fd79a05eec62ae2fb08181682fdc7e8c33a2ce557107a8714bebc0ff2cbf64b7601b\
                 7b2000d7c7fb470dc8aee598dc763fa9c22afcce975bb882510cd7b005025616a7360ed5\
                 e8758eabc293d6320e6d102743cb1400b2ef306ff43ce0fae35439f17b3738db7c991b3f\
                 afbfb3ee",
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
