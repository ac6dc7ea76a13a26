//! Property-based tests for the crypto substrate.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use sim_crypto::hmac::{hkdf, hmac_sha256};
use sim_crypto::sha256::{sha256, Sha256};
use sim_crypto::{
    chacha20, seal, sym_decrypt_in_place, sym_encrypt_in_place, unseal, CryptoError, KeyPair,
    SymmetricKey,
};

/// The wire-v1 symmetric layer from scratch: the whole key schedule run
/// for this one call, composed from the public primitives only.
fn reference_sym_encrypt(key: &[u8; 32], msg: &[u8], seed: u64) -> Vec<u8> {
    let okm: [u8; 64] = hkdf(b"p2p-anon/sym/v1", key, b"enc|mac");
    let (enc, mac) = okm.split_at(32);
    let mut nonce = [0u8; 12];
    StdRng::seed_from_u64(seed).fill_bytes(&mut nonce);
    let mut out = nonce.to_vec();
    out.extend_from_slice(msg);
    chacha20::xor_stream(enc.try_into().unwrap(), 0, &nonce, &mut out[12..]);
    let tag = hmac_sha256(mac, &out);
    out.extend_from_slice(&tag[..16]);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Incremental hashing equals one-shot for any split.
    #[test]
    fn sha256_incremental_equals_oneshot(
        data in proptest::collection::vec(any::<u8>(), 0..2048),
        split in any::<prop::sample::Index>(),
    ) {
        let cut = split.index(data.len() + 1);
        let mut h = Sha256::new();
        h.update(&data[..cut]);
        h.update(&data[cut..]);
        prop_assert_eq!(h.finalize(), sha256(&data));
    }

    /// ChaCha20 is an involution under the same (key, counter, nonce).
    #[test]
    fn chacha20_involution(
        key in any::<[u8; 32]>(),
        nonce in any::<[u8; 12]>(),
        counter in any::<u32>(),
        msg in proptest::collection::vec(any::<u8>(), 0..1024),
    ) {
        let ct = chacha20::encrypt(&key, counter, &nonce, &msg);
        prop_assert_eq!(chacha20::encrypt(&key, counter, &nonce, &ct), msg);
    }

    /// A key's cached schedule produces exactly the bytes of a from-scratch
    /// derivation, the layer round-trips, and any single-bit corruption is
    /// rejected with the buffer left as it was.
    #[test]
    fn symmetric_matches_reference_and_rejects_bit_flips(
        key_bytes in any::<[u8; 32]>(),
        msg in proptest::collection::vec(any::<u8>(), 0..4096),
        seed in any::<u64>(),
        flip in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        let key = SymmetricKey::from_bytes(key_bytes);
        let want = reference_sym_encrypt(&key_bytes, &msg, seed);
        let mut buf = msg.clone();
        sym_encrypt_in_place(&key, &mut buf, &mut StdRng::seed_from_u64(seed));
        prop_assert_eq!(&buf, &want);

        let mut bad = buf.clone();
        bad[flip.index(buf.len())] ^= 1 << bit;
        let snapshot = bad.clone();
        prop_assert_eq!(sym_decrypt_in_place(&key, &mut bad), Err(CryptoError::BadTag));
        prop_assert_eq!(&bad, &snapshot);

        sym_decrypt_in_place(&key, &mut buf).unwrap();
        prop_assert_eq!(buf, msg);
    }

    /// Sealed boxes open only with the right secret key.
    #[test]
    fn sealed_box_roundtrip(
        msg in proptest::collection::vec(any::<u8>(), 0..512),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let right = KeyPair::generate(&mut rng);
        let wrong = KeyPair::generate(&mut rng);
        let boxed = seal(&right.public, &msg, &mut rng);
        prop_assert_eq!(unseal(&right.secret, &boxed).unwrap(), msg);
        prop_assert!(unseal(&wrong.secret, &boxed).is_err());
    }

    /// X25519 Diffie–Hellman agreement holds for arbitrary secrets.
    #[test]
    fn x25519_agreement(a in any::<[u8; 32]>(), b in any::<[u8; 32]>()) {
        use sim_crypto::x25519::{public_key, x25519};
        let pa = public_key(&a);
        let pb = public_key(&b);
        prop_assert_eq!(x25519(&a, &pb), x25519(&b, &pa));
    }

    /// HMAC differs when the key or the message change (collision-freedom
    /// smoke test) and HKDF output depends on all inputs.
    #[test]
    fn hmac_hkdf_sensitivity(
        key in proptest::collection::vec(any::<u8>(), 1..64),
        msg in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let tag = hmac_sha256(&key, &msg);
        let mut key2 = key.clone();
        key2[0] ^= 1;
        prop_assert_ne!(hmac_sha256(&key2, &msg), tag);
        let mut msg2 = msg.clone();
        msg2.push(0);
        prop_assert_ne!(hmac_sha256(&key, &msg2), tag);

        let okm1: [u8; 32] = hkdf(&key, &msg, b"a");
        let okm2: [u8; 32] = hkdf(&key, &msg, b"b");
        prop_assert_ne!(okm1, okm2);
    }
}
