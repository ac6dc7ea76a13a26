//! Property-based tests for the crypto substrate.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use sim_crypto::hmac::{hkdf, hmac_sha256};
use sim_crypto::sha256::{sha256, Sha256};
use sim_crypto::symmetric::OVERHEAD;
use sim_crypto::{
    chacha20, poly1305, seal, sym_decrypt_in_place, sym_encrypt_in_place, unseal, CryptoError,
    KeyPair, SymmetricKey,
};

/// The wire-v2 symmetric layer from scratch: the key derivation run for
/// this one call and the RFC 8439 AEAD (no associated data) composed from
/// the public primitives only.
fn reference_sym_encrypt(key: &[u8; 32], msg: &[u8], seed: u64) -> Vec<u8> {
    let enc: [u8; 32] = hkdf(b"p2p-anon/sym/v2", key, b"enc");
    let mut nonce = [0u8; 12];
    StdRng::seed_from_u64(seed).fill_bytes(&mut nonce);
    let block0 = chacha20::block(&enc, 0, &nonce);
    let one_time_key: [u8; 32] = block0[..32].try_into().unwrap();
    let ct = chacha20::encrypt(&enc, 1, &nonce, msg);

    let mut mac_input = ct.clone();
    mac_input.resize(ct.len().next_multiple_of(16), 0);
    mac_input.extend_from_slice(&0u64.to_le_bytes());
    mac_input.extend_from_slice(&(ct.len() as u64).to_le_bytes());
    let tag = poly1305::poly1305(&one_time_key, &mac_input);
    [&nonce[..], &ct, &tag].concat()
}

/// Poly1305 the slow way, sharing nothing with the crate's limbs: numbers
/// below 2^192 as three little-endian `u64` words, the product `h · r` by
/// double-and-add over `r`'s bits, every step reduced mod p = 2^130 − 5 by
/// compare-and-subtract.
mod slow_poly1305 {
    type N = [u64; 3];
    const P: N = [0xffff_ffff_ffff_fffb, 0xffff_ffff_ffff_ffff, 0x3];

    fn add(a: N, b: N) -> N {
        let mut out = [0u64; 3];
        let mut carry = 0u128;
        for i in 0..3 {
            let sum = u128::from(a[i]) + u128::from(b[i]) + carry;
            out[i] = sum as u64;
            carry = sum >> 64;
        }
        assert_eq!(carry, 0);
        out
    }

    fn ge(a: N, b: N) -> bool {
        (a[2], a[1], a[0]) >= (b[2], b[1], b[0])
    }

    fn sub(a: N, b: N) -> N {
        let mut out = [0u64; 3];
        let mut borrow = false;
        for i in 0..3 {
            let (d, b1) = a[i].overflowing_sub(b[i]);
            let (d, b2) = d.overflowing_sub(u64::from(borrow));
            out[i] = d;
            borrow = b1 || b2;
        }
        assert!(!borrow);
        out
    }

    /// `a mod p` for `a < 2^133`.
    fn reduce(mut a: N) -> N {
        while ge(a, P) {
            a = sub(a, P);
        }
        a
    }

    fn mul_mod(a: N, b: N) -> N {
        let mut acc = [0u64; 3];
        for bit in (0..130).rev() {
            acc = reduce(add(acc, acc));
            if (b[bit / 64] >> (bit % 64)) & 1 == 1 {
                acc = reduce(add(acc, a));
            }
        }
        acc
    }

    fn load(bytes: &[u8]) -> N {
        let mut padded = [0u8; 24];
        padded[..bytes.len()].copy_from_slice(bytes);
        std::array::from_fn(|i| u64::from_le_bytes(padded[8 * i..8 * i + 8].try_into().unwrap()))
    }

    pub fn tag(key: &[u8; 32], msg: &[u8]) -> [u8; 16] {
        let mut r = key[..16].to_vec();
        for i in [3, 7, 11, 15] {
            r[i] &= 0x0f;
        }
        for i in [4, 8, 12] {
            r[i] &= 0xfc;
        }
        let (r, s) = (load(&r), load(&key[16..]));
        let mut h = [0u64; 3];
        for chunk in msg.chunks(16) {
            let mut block = chunk.to_vec();
            block.push(1);
            h = mul_mod(reduce(add(h, load(&block))), r);
        }
        let sum = add(h, s);
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&sum[0].to_le_bytes());
        out[8..].copy_from_slice(&sum[1].to_le_bytes());
        out
    }
}

/// A message of 16-byte blocks that are, by each draw's first byte,
/// random, all-ones, all-zero or one off all-ones, then a random tail: the
/// saturated blocks are the ones that drive the accumulator to and over
/// 2^130 − 5.
fn carry_heavy_message(draws: &[[u8; 17]], tail: &[u8]) -> Vec<u8> {
    let mut msg = Vec::new();
    for draw in draws {
        let (shape, random) = draw.split_first().unwrap();
        match shape % 4 {
            0 => msg.extend_from_slice(random),
            1 => msg.extend_from_slice(&[0xff; 16]),
            2 => msg.extend_from_slice(&[0x00; 16]),
            _ => {
                let mut block = [0xffu8; 16];
                block[usize::from(random[0] % 16)] = 0xfe;
                msg.extend_from_slice(&block);
            }
        }
    }
    msg.extend_from_slice(tail);
    msg
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

    /// Whatever arrives, decryption returns a typed error without panicking
    /// and hands the buffer back as it came: too short is `Truncated`,
    /// anything else unauthenticated is `BadTag`.
    #[test]
    fn symmetric_decrypt_of_arbitrary_bytes_is_a_typed_error(
        key_bytes in any::<[u8; 32]>(),
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let key = SymmetricKey::from_bytes(key_bytes);
        let mut buf = bytes.clone();
        let want = if bytes.len() < OVERHEAD {
            CryptoError::Truncated
        } else {
            CryptoError::BadTag
        };
        prop_assert_eq!(sym_decrypt_in_place(&key, &mut buf), Err(want));
        prop_assert_eq!(buf, bytes);
    }

    /// The limb arithmetic agrees with a bit-serial reference, for random
    /// keys with and without saturated halves and carry-heavy messages.
    #[test]
    fn poly1305_matches_slow_reference(
        key in any::<[u8; 32]>(),
        saturate_r in any::<bool>(),
        saturate_s in any::<bool>(),
        draws in proptest::collection::vec(any::<[u8; 17]>(), 0..24),
        tail in proptest::collection::vec(any::<u8>(), 0..16),
    ) {
        let msg = carry_heavy_message(&draws, &tail);
        let mut key = key;
        if saturate_r {
            key[..16].fill(0xff);
        }
        if saturate_s {
            key[16..].fill(0xff);
        }
        prop_assert_eq!(poly1305::poly1305(&key, &msg), slow_poly1305::tag(&key, &msg));
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
