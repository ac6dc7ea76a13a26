//! Sealed boxes: anonymous hybrid public-key encryption.
//!
//! Used for the path-construction onion: each layer
//! `<P_{i+1}, R_i, Path_{i+1}>_{PubKey_{P_i}}` must be decryptable only by
//! relay `P_i`, without revealing the sender. Construction (v2):
//!
//! 1. draw a fresh ephemeral secret, as [`SecretKey::generate`] does,
//! 2. compute its public key `eph_public = eph_secret · 9` (the
//!    fixed-base comb) and `shared = X25519(eph_secret, recipient_public)`
//!    (the ladder, or the comb over the recipient's [`RecipientTable`]
//!    when the sender keeps one), both finished by one field inversion,
//! 3. derive the box key `HChaCha20(shared, "p2p-anon/seal/v2")`,
//! 4. seal with the ChaCha20-Poly1305 AEAD of RFC 8439 §2.8 under that
//!    key and an all-zero nonce (the key is fresh per box): the body is
//!    encrypted from keystream block 1, and the 16-byte tag is Poly1305,
//!    keyed from block 0, over the associated data
//!    `recipient_public ‖ eph_public` and the ciphertext. The associated
//!    data binds the box to both keys, as v1's HKDF salt did.
//!
//! Wire layout: `eph_public (32) || ciphertext || tag (16)`. No SHA-256
//! runs at either end.

use crate::chacha20::{self, NONCE_LEN};
use crate::keys::{PublicKey, SecretKey};
use crate::symmetric::{aead_tag, ct_eq};
use crate::x25519::{self, RecipientTable};
use crate::CryptoError;
use rand::{CryptoRng, Rng};

/// Authentication tag length.
pub const TAG_LEN: usize = 16;

/// Ciphertext expansion of a sealed box: ephemeral key + tag.
pub const OVERHEAD: usize = 32 + TAG_LEN;

/// The HChaCha20 input that turns a shared secret into a box key.
const BOX_DOMAIN: &[u8; 16] = b"p2p-anon/seal/v2";

/// The nonce of every box: its key is used once.
const NONCE: [u8; NONCE_LEN] = [0; NONCE_LEN];

/// The box key of a Diffie–Hellman output.
fn box_key(shared: &[u8; 32]) -> [u8; 32] {
    chacha20::hchacha20(shared, BOX_DOMAIN)
}

/// The associated data the tag covers: `recipient ‖ eph_pub`.
fn associated_data(recipient: &PublicKey, eph_pub: &[u8; 32]) -> [u8; 64] {
    let mut aad = [0u8; 64];
    aad[..32].copy_from_slice(&recipient.0);
    aad[32..].copy_from_slice(eph_pub);
    aad
}

/// Seal `plaintext` to `recipient`. Only the holder of the matching secret
/// key can open it; nothing identifies the sender.
///
/// ```
/// use sim_crypto::{seal, unseal, KeyPair};
/// use rand::{rngs::StdRng, SeedableRng};
/// let mut rng = StdRng::seed_from_u64(1);
/// let kp = KeyPair::generate(&mut rng);
/// let boxed = seal(&kp.public, b"onion layer", &mut rng);
/// assert_eq!(unseal(&kp.secret, &boxed).unwrap(), b"onion layer");
/// ```
pub fn seal<R: Rng + CryptoRng>(recipient: &PublicKey, plaintext: &[u8], rng: &mut R) -> Vec<u8> {
    seal_one(recipient, None, plaintext, rng)
}

/// [`seal`] to the key `table` was built for, with its comb in place of
/// the ladder: the same bytes from the same RNG draws, in about 0.6 of the
/// time.
pub fn seal_to_table<R: Rng + CryptoRng>(
    table: &RecipientTable,
    plaintext: &[u8],
    rng: &mut R,
) -> Vec<u8> {
    seal_one(&PublicKey(*table.point()), Some(table), plaintext, rng)
}

/// [`seal`] and [`seal_to_table`]: [`sealers`] for one recipient.
fn seal_one<R: Rng + CryptoRng>(
    recipient: &PublicKey,
    table: Option<&RecipientTable>,
    plaintext: &[u8],
    rng: &mut R,
) -> Vec<u8> {
    let mut agreed = [([0; 32], [0; 32])];
    x25519::public_keys_and_x25519s(&[(draw(rng), &recipient.0, table)], &mut agreed);
    let [(eph_pub, shared)] = agreed;
    Sealer::new(recipient, eph_pub, &shared).seal(plaintext)
}

/// One box's ephemeral secret: 32 bytes, as [`SecretKey::generate`] draws
/// them.
fn draw<R: Rng + CryptoRng>(rng: &mut R) -> [u8; 32] {
    let mut eph = [0u8; 32];
    rng.fill_bytes(&mut eph);
    eph
}

/// A sealed box whose key agreement is done and whose plaintext is still
/// to come: what [`seal`] computes before it reads the plaintext. Sealing
/// consumes it, so its key seals one box.
pub struct Sealer {
    recipient: PublicKey,
    eph_pub: [u8; 32],
    key: [u8; 32],
}

impl Sealer {
    fn new(recipient: &PublicKey, eph_pub: [u8; 32], shared: &[u8; 32]) -> Sealer {
        Sealer {
            recipient: *recipient,
            eph_pub,
            key: box_key(shared),
        }
    }

    /// The box of `plaintext`: the bytes [`seal`] gives from the same RNG
    /// draw.
    pub fn seal(self, plaintext: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(plaintext.len() + OVERHEAD);
        out.extend_from_slice(&self.eph_pub);
        out.extend_from_slice(plaintext);
        chacha20::xor_stream(&self.key, 1, &NONCE, &mut out[32..]);
        let aad = associated_data(&self.recipient, &self.eph_pub);
        let tag = aead_tag(&self.key, &NONCE, &aad, &out[32..]);
        out.extend_from_slice(&tag);
        out
    }
}

/// One [`Sealer`] per `(recipient, table)`, in order: a 32-byte ephemeral
/// secret drawn for each, as [`seal`] draws it, then every key agreement
/// under one field inversion (a recipient of small order, a public fact,
/// takes two of its own). A construction onion's layers nest, so its
/// plaintexts come one at a time while its key agreements can all be done
/// first: `sealers` of its recipients in sealing order, then each layer
/// sealed in turn, is the bytes and RNG draws of a [`seal`] per layer.
/// `table`, when given, must be `recipient`'s; it replaces the ladder with
/// its comb.
pub fn sealers<R: Rng + CryptoRng>(
    recipients: &[(&PublicKey, Option<&RecipientTable>)],
    rng: &mut R,
) -> Vec<Sealer> {
    let items: Vec<_> = recipients
        .iter()
        .map(|&(recipient, table)| (draw(rng), &recipient.0, table))
        .collect();
    let mut agreed = vec![([0; 32], [0; 32]); items.len()];
    x25519::public_keys_and_x25519s(&items, &mut agreed);
    recipients
        .iter()
        .zip(agreed)
        .map(|(&(recipient, _), (eph_pub, shared))| Sealer::new(recipient, eph_pub, &shared))
        .collect()
}

/// Open a sealed box with the recipient's secret key.
pub fn unseal(secret: &SecretKey, sealed: &[u8]) -> Result<Vec<u8>, CryptoError> {
    if sealed.len() < OVERHEAD {
        return Err(CryptoError::Truncated);
    }
    let mut eph_pub = [0u8; 32];
    eph_pub.copy_from_slice(&sealed[..32]);
    let key = box_key(&secret.diffie_hellman(&PublicKey(eph_pub)));

    let (ciphertext, tag) = sealed[32..].split_at(sealed.len() - OVERHEAD);
    let aad = associated_data(&secret.public_key(), &eph_pub);
    if !ct_eq(tag, &aead_tag(&key, &NONCE, &aad, ciphertext)) {
        return Err(CryptoError::BadTag);
    }
    let mut plaintext = ciphertext.to_vec();
    chacha20::xor_stream(&key, 1, &NONCE, &mut plaintext);
    Ok(plaintext)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::KeyPair;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    #[test]
    fn seal_unseal_roundtrip() {
        let mut rng = StdRng::seed_from_u64(10);
        let kp = KeyPair::generate(&mut rng);
        for len in [0usize, 1, 31, 32, 33, 500] {
            let msg = vec![0x5au8; len];
            let boxed = seal(&kp.public, &msg, &mut rng);
            assert_eq!(boxed.len(), len + OVERHEAD);
            assert_eq!(unseal(&kp.secret, &boxed).unwrap(), msg, "len {len}");
        }
    }

    #[test]
    fn wrong_recipient_cannot_open() {
        let mut rng = StdRng::seed_from_u64(11);
        let kp1 = KeyPair::generate(&mut rng);
        let kp2 = KeyPair::generate(&mut rng);
        let boxed = seal(&kp1.public, b"for kp1 only", &mut rng);
        assert_eq!(unseal(&kp2.secret, &boxed), Err(CryptoError::BadTag));
    }

    #[test]
    fn tampering_detected() {
        // Every byte of the ephemeral key, the ciphertext and the tag.
        let mut rng = StdRng::seed_from_u64(12);
        let kp = KeyPair::generate(&mut rng);
        let boxed = seal(&kp.public, b"onion layer", &mut rng);
        for i in 0..boxed.len() {
            for flip in [0x01, 0x80] {
                let mut bad = boxed.clone();
                bad[i] ^= flip;
                assert_eq!(
                    unseal(&kp.secret, &bad),
                    Err(CryptoError::BadTag),
                    "byte {i} ^ {flip:#x}"
                );
            }
        }
    }

    #[test]
    fn the_tag_covers_the_recipient_key() {
        // A box keyed for `kp` but authenticated as if to another key: the
        // key agreement is right, the associated data is not.
        let mut rng = StdRng::seed_from_u64(15);
        let kp = KeyPair::generate(&mut rng);
        let other = KeyPair::generate(&mut rng).public;
        let mut twin = rng.clone();
        let honest = sealers(&[(&kp.public, None)], &mut rng).remove(0);
        let mut swapped = sealers(&[(&kp.public, None)], &mut twin).remove(0);
        swapped.recipient = other;
        let honest = honest.seal(b"onion layer");
        let swapped = swapped.seal(b"onion layer");
        // Same key stream, different tag.
        assert_eq!(
            honest[..honest.len() - TAG_LEN],
            swapped[..swapped.len() - TAG_LEN]
        );
        assert_eq!(unseal(&kp.secret, &honest).unwrap(), b"onion layer");
        assert_eq!(unseal(&kp.secret, &swapped), Err(CryptoError::BadTag));
    }

    #[test]
    fn boxes_are_unlinkable() {
        // Two boxes of the same message to the same recipient share no bytes
        // of ephemeral key or ciphertext.
        let mut rng = StdRng::seed_from_u64(13);
        let kp = KeyPair::generate(&mut rng);
        let a = seal(&kp.public, b"same plaintext", &mut rng);
        let b = seal(&kp.public, b"same plaintext", &mut rng);
        assert_ne!(a[..32], b[..32], "ephemeral keys must differ");
        assert_ne!(a[32..], b[32..], "ciphertexts must differ");
    }

    /// A v2 box the long way, with an inversion each for the ephemeral
    /// public key and the Diffie–Hellman: a `KeyPair` from the same 32
    /// drawn bytes, then `diffie_hellman`, then the module doc's steps 3
    /// and 4 from the RFC 8439 primitives.
    fn seal_two_inversions(recipient: &PublicKey, plaintext: &[u8], rng: &mut StdRng) -> Vec<u8> {
        let mut drawn = [0u8; 32];
        rng.fill_bytes(&mut drawn);
        let eph = KeyPair::from_secret_bytes(drawn);
        let key = chacha20::hchacha20(&eph.secret.diffie_hellman(recipient), b"p2p-anon/seal/v2");
        let ciphertext = chacha20::encrypt(&key, 1, &[0; 12], plaintext);
        let block0 = chacha20::block(&key, 0, &[0; 12]);
        let mut mac_input = [&recipient.0[..], &eph.public.0].concat();
        mac_input.extend_from_slice(&ciphertext);
        mac_input.resize(mac_input.len().next_multiple_of(16), 0);
        mac_input.extend_from_slice(&64u64.to_le_bytes());
        mac_input.extend_from_slice(&(ciphertext.len() as u64).to_le_bytes());
        let tag = crate::poly1305::poly1305(block0[..32].try_into().unwrap(), &mac_input);
        [&eph.public.0[..], &ciphertext, &tag].concat()
    }

    #[test]
    fn one_inversion_seals_the_same_bytes() {
        // Random recipients, and u = 0, 1 and a point of order 8, whose
        // Diffie–Hellman is all zeros.
        let mut one = [0u8; 32];
        one[0] = 1;
        let order_8 = [
            0xe0, 0xeb, 0x7a, 0x7c, 0x3b, 0x41, 0xb8, 0xae, 0x16, 0x56, 0xe3, 0xfa, 0xf1, 0x9f,
            0xc4, 0x6a, 0xda, 0x09, 0x8d, 0xeb, 0x9c, 0x32, 0xb1, 0xfd, 0x86, 0x62, 0x05, 0x16,
            0x5f, 0x49, 0xb8, 0x00,
        ];
        let mut rng = StdRng::seed_from_u64(30);
        let mut recipients: Vec<PublicKey> = (0..16)
            .map(|_| KeyPair::generate(&mut rng).public)
            .collect();
        recipients.extend([[0u8; 32], one, order_8].map(PublicKey));
        for (i, recipient) in recipients.iter().enumerate() {
            let mut a = StdRng::seed_from_u64(i as u64);
            let mut b = StdRng::seed_from_u64(i as u64);
            let plaintext = vec![i as u8; 33 + 40 * i];
            assert_eq!(
                seal(recipient, &plaintext, &mut a),
                seal_two_inversions(recipient, &plaintext, &mut b),
                "recipient {i}"
            );
            // Both drew the same bytes and nothing else.
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    /// A box to each of `recipients` (innermost first), sealed as a
    /// construction onion nests them: the sealers first, then each layer
    /// around the one before.
    fn onion(recipients: &[(&PublicKey, Option<&RecipientTable>)], rng: &mut StdRng) -> Vec<u8> {
        let mut blob = vec![0x02; 33];
        for sealer in sealers(recipients, rng) {
            let mut layer = vec![0x01; 41];
            layer.extend_from_slice(&blob);
            blob = sealer.seal(&layer);
        }
        blob
    }

    #[test]
    fn sealers_seal_what_seal_does_layer_by_layer() {
        let mut rng = StdRng::seed_from_u64(32);
        let keys: Vec<KeyPair> = (0..6).map(|_| KeyPair::generate(&mut rng)).collect();
        let tables: Vec<RecipientTable> = keys
            .iter()
            .map(|kp| RecipientTable::new(&kp.public.0).unwrap())
            .collect();
        for layers in 1..=6 {
            let recipients: Vec<_> = (0..layers)
                .map(|i| (&keys[i].public, (i % 2 == 0).then_some(&tables[i])))
                .collect();
            let mut a = StdRng::seed_from_u64(layers as u64);
            let mut b = a.clone();
            let batched = onion(&recipients, &mut a);
            let mut blob = vec![0x02; 33];
            for (recipient, _) in &recipients {
                let mut layer = vec![0x01; 41];
                layer.extend_from_slice(&blob);
                blob = seal(recipient, &layer, &mut b);
            }
            assert_eq!(batched, blob, "{layers} layers");
            assert_eq!(a.next_u64(), b.next_u64());
            // And it peels, outermost first.
            for kp in keys[..layers].iter().rev() {
                blob = unseal(&kp.secret, &blob).unwrap();
                blob.drain(..41);
            }
            assert_eq!(blob, vec![0x02; 33]);
        }
    }

    #[test]
    fn a_four_hop_onion_runs_one_inversion_and_no_sha256() {
        let mut rng = StdRng::seed_from_u64(33);
        let keys: Vec<KeyPair> = (0..4).map(|_| KeyPair::generate(&mut rng)).collect();
        let table = RecipientTable::new(&keys[2].public.0).unwrap();
        let recipients: Vec<_> = keys
            .iter()
            .enumerate()
            .map(|(i, kp)| (&kp.public, (i == 2).then_some(&table)))
            .collect();
        let (inversions, compressions) = crate::tally::during(|| {
            onion(&recipients, &mut rng);
        });
        assert_eq!((inversions, compressions), (1, 0));
        // A round trip: the seal's inversion, the opening ladder's, and
        // still no SHA-256.
        let tally = crate::tally::during(|| {
            let boxed = seal(&keys[0].public, b"layer", &mut rng);
            unseal(&keys[0].secret, &boxed).unwrap();
        });
        assert_eq!(tally, (2, 0));
    }

    #[test]
    fn sealing_to_a_table_seals_the_same_bytes() {
        // 256 random recipients and the low-order ones, each sealed to with
        // and without its table from the same RNG state.
        let mut one = [0u8; 32];
        one[0] = 1;
        let order_8 = [
            0xe0, 0xeb, 0x7a, 0x7c, 0x3b, 0x41, 0xb8, 0xae, 0x16, 0x56, 0xe3, 0xfa, 0xf1, 0x9f,
            0xc4, 0x6a, 0xda, 0x09, 0x8d, 0xeb, 0x9c, 0x32, 0xb1, 0xfd, 0x86, 0x62, 0x05, 0x16,
            0x5f, 0x49, 0xb8, 0x00,
        ];
        let mut rng = StdRng::seed_from_u64(31);
        let mut recipients: Vec<PublicKey> = (0..256)
            .map(|_| KeyPair::generate(&mut rng).public)
            .collect();
        recipients.extend([[0u8; 32], one, order_8].map(PublicKey));
        for (i, recipient) in recipients.iter().enumerate() {
            let table = RecipientTable::new(&recipient.0).expect("on the curve");
            let mut a = StdRng::seed_from_u64(i as u64);
            let mut b = a.clone();
            let plaintext = vec![i as u8; 41];
            assert_eq!(
                seal_to_table(&table, &plaintext, &mut a),
                seal(recipient, &plaintext, &mut b),
                "recipient {i}"
            );
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn truncated_rejected() {
        let mut rng = StdRng::seed_from_u64(14);
        let kp = KeyPair::generate(&mut rng);
        let boxed = seal(&kp.public, b"", &mut rng);
        assert_eq!(
            unseal(&kp.secret, &boxed[..OVERHEAD - 1]),
            Err(CryptoError::Truncated)
        );
    }

    /// The bytes of a sealed box are wire format v2. These three are key
    /// pair, then box, from one seeded generator, so a moved RNG draw shows
    /// here as well as a changed byte; 33 bytes is a terminal construction
    /// layer. Their ephemeral keys are v1's: only the key derivation and
    /// the tag changed. `tests/known_answers.py` recomputes them on Python
    /// integers and finds them in this file.
    #[test]
    fn known_answers_sealed_v2() {
        let hex = |d: &[u8]| d.iter().map(|b| format!("{b:02x}")).collect::<String>();
        let cases: [(u64, usize, &str); 3] = [
            (
                1,
                0,
                concat!(
                    "af7062e8855f7a448c1fa7f4102660af9e6b7960fb0ad18894e029575277a44b",
                    "1d3528ae14f8c04dd79ae6ce13ca18b5",
                ),
            ),
            (
                2,
                33,
                concat!(
                    "8ddc1695ad23369bb0c0cb80dff1974b9ea6d0d56f7067e9093e2c4bbb705846",
                    "68fd93b5b391f639d943b6257ec2198b2f443fd55b320472b2791adbeb4419d3",
                    "06fc6ebb27e19bf07dfb373f956a73f8ff",
                ),
            ),
            (
                3,
                300,
                concat!(
                    "a955bfc66bc410095811b204c694558dd0481776f0435a84474d8a7fa862ae29",
                    "bdf30b65c107d76a0d45e0281cfcfd5432046e2d653e2383953b75a9b8bfb297",
                    "0e7a528766f4fe75b691e0cd80a150f066f47464eaa7ceeeb67595c3200e14f5",
                    "3f466c11ef9c9bfe72f8fce9eefa8da577f727c97505f23f485ffa437d054702",
                    "bc3bb8520b3406f12236d7d6e94c033fe2e95e1d891d6384a6ea82ff499ae48e",
                    "f4a71971d35f8a9d596f2e7d1226630eea7d2d98cdfc32ee49d9d343ad06e087",
                    "31fae0cdfd69bcf513797e77940d748d2a2b99c6adb789f3a59aa7461c643e1f",
                    "df1e6a71ff1287e23068f4a6e54a65e3de70f992ef0cd86e759578a78f8e679a",
                    "5cd47b106aff73479da1888520fd988a649e3c581a8e7fc35b77241ff6435e13",
                    "a2db045435320bd7525586eddfd7de31eb2a520f56ce6f66566d806544b7a045",
                    "deaa0d038a65c89e6d76ec43413d0ccad6f2c64a3362df6440e348e5",
                ),
            ),
        ];
        for (seed, len, expected) in cases {
            let mut rng = StdRng::seed_from_u64(seed);
            let kp = KeyPair::generate(&mut rng);
            let plaintext: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
            let boxed = seal(&kp.public, &plaintext, &mut rng);
            assert_eq!(hex(&boxed), expected, "len {len}");
            // Exactly the recorded bytes, by the line above.
            assert_eq!(unseal(&kp.secret, &boxed).unwrap(), plaintext, "len {len}");
        }
    }
}
