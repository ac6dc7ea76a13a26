//! ChaCha20 stream cipher per RFC 8439, and HChaCha20
//! (draft-irtf-cfrg-xchacha-03 §2.2), the key derivation built on its
//! rounds.

/// Key size in bytes.
pub const KEY_LEN: usize = 32;

/// Nonce size in bytes.
pub const NONCE_LEN: usize = 12;

const SIGMA: [u32; 4] = [0x61707865, 0x3320646e, 0x79622d32, 0x6b206574];

#[inline(always)]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

/// The cipher's input state for (key, counter, nonce): constants, key
/// words, block counter in word 12, nonce words.
fn init_state(key: &[u8; KEY_LEN], counter: u32, nonce: &[u8; NONCE_LEN]) -> [u32; 16] {
    let le32 =
        |bytes: &[u8], i: usize| u32::from_le_bytes(std::array::from_fn(|j| bytes[4 * i + j]));
    let mut state = [0u32; 16];
    state[..4].copy_from_slice(&SIGMA);
    for (i, word) in state[4..12].iter_mut().enumerate() {
        *word = le32(key, i);
    }
    state[12] = counter;
    for (i, word) in state[13..].iter_mut().enumerate() {
        *word = le32(nonce, i);
    }
    state
}

/// The 20 rounds (ten double rounds) over an input state, without the
/// final addition of the input.
fn rounds(state: &[u32; 16]) -> [u32; 16] {
    let mut working = *state;
    for _ in 0..10 {
        quarter_round(&mut working, 0, 4, 8, 12);
        quarter_round(&mut working, 1, 5, 9, 13);
        quarter_round(&mut working, 2, 6, 10, 14);
        quarter_round(&mut working, 3, 7, 11, 15);
        quarter_round(&mut working, 0, 5, 10, 15);
        quarter_round(&mut working, 1, 6, 11, 12);
        quarter_round(&mut working, 2, 7, 8, 13);
        quarter_round(&mut working, 3, 4, 9, 14);
    }
    working
}

/// The 64-byte keystream block of an input state.
fn keystream(state: &[u32; 16]) -> [u8; 64] {
    let working = rounds(state);
    let mut out = [0u8; 64];
    for (bytes, (w, s)) in out.chunks_exact_mut(4).zip(working.iter().zip(state)) {
        bytes.copy_from_slice(&w.wrapping_add(*s).to_le_bytes());
    }
    out
}

/// Produce one 64-byte keystream block for (key, counter, nonce).
pub fn block(key: &[u8; KEY_LEN], counter: u32, nonce: &[u8; NONCE_LEN]) -> [u8; 64] {
    keystream(&init_state(key, counter, nonce))
}

/// HChaCha20: a 32-byte key from `key` and a 16-byte `input`, which takes
/// the place of the counter and nonce words. The output is words 0–3 and
/// 12–15 of the state after the rounds, with no feed-forward: one block's
/// work, and a PRF of `input` under `key`.
pub(crate) fn hchacha20(key: &[u8; KEY_LEN], input: &[u8; 16]) -> [u8; KEY_LEN] {
    let mut state = init_state(key, 0, &[0; NONCE_LEN]);
    for (i, word) in state[12..].iter_mut().enumerate() {
        *word = u32::from_le_bytes(std::array::from_fn(|j| input[4 * i + j]));
    }
    let working = rounds(&state);
    let mut out = [0u8; KEY_LEN];
    for (bytes, w) in out
        .chunks_exact_mut(4)
        .zip(working[..4].iter().chain(&working[12..]))
    {
        bytes.copy_from_slice(&w.to_le_bytes());
    }
    out
}

/// XOR `data` in place with the ChaCha20 keystream starting at block
/// `initial_counter`. Encryption and decryption are the same operation.
pub fn xor_stream(
    key: &[u8; KEY_LEN],
    initial_counter: u32,
    nonce: &[u8; NONCE_LEN],
    data: &mut [u8],
) {
    let mut state = init_state(key, initial_counter, nonce);
    for chunk in data.chunks_mut(64) {
        let ks = keystream(&state);
        for (d, k) in chunk.iter_mut().zip(ks.iter()) {
            *d ^= *k;
        }
        state[12] = state[12].wrapping_add(1);
    }
}

/// Encrypt (allocating convenience wrapper over [`xor_stream`]).
pub fn encrypt(
    key: &[u8; KEY_LEN],
    counter: u32,
    nonce: &[u8; NONCE_LEN],
    plaintext: &[u8],
) -> Vec<u8> {
    let mut out = plaintext.to_vec();
    xor_stream(key, counter, nonce, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn test_key() -> [u8; 32] {
        let mut k = [0u8; 32];
        for (i, b) in k.iter_mut().enumerate() {
            *b = i as u8;
        }
        k
    }

    #[test]
    fn rfc8439_block_vector() {
        // RFC 8439 section 2.3.2.
        let key = test_key();
        let nonce: [u8; 12] = [0, 0, 0, 9, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let ks = block(&key, 1, &nonce);
        assert_eq!(
            hex(&ks),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e\
             d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
        );
    }

    #[test]
    fn rfc8439_encryption_vector() {
        // RFC 8439 section 2.4.2.
        let key = test_key();
        let nonce: [u8; 12] = [0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.";
        let ct = encrypt(&key, 1, &nonce, plaintext);
        assert_eq!(
            hex(&ct),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b\
             f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8\
             07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736\
             5af90bbf74a35be6b40b8eedf2785e42874d"
        );
    }

    #[test]
    fn hchacha20_draft_vector() {
        // draft-irtf-cfrg-xchacha-03 §2.2.1.
        let nonce: [u8; 16] = [
            0, 0, 0, 0x09, 0, 0, 0, 0x4a, 0, 0, 0, 0, 0x31, 0x41, 0x59, 0x27,
        ];
        assert_eq!(
            hex(&hchacha20(&test_key(), &nonce)),
            "82413b4227b27bfed30e42508a877d73a0f9e4d58a74a853c12ec41326d3ecdc"
        );
    }

    #[test]
    fn stream_roundtrip() {
        let key = test_key();
        let nonce = [7u8; 12];
        let msg: Vec<u8> = (0..300u16).map(|i| (i % 256) as u8).collect();
        let ct = encrypt(&key, 0, &nonce, &msg);
        assert_ne!(ct, msg);
        let pt = encrypt(&key, 0, &nonce, &ct);
        assert_eq!(pt, msg);
    }

    #[test]
    fn different_nonce_different_stream() {
        let key = test_key();
        let a = encrypt(&key, 0, &[1; 12], &[0u8; 64]);
        let b = encrypt(&key, 0, &[2; 12], &[0u8; 64]);
        assert_ne!(a, b);
    }

    #[test]
    fn counter_seek_equivalence() {
        // Encrypting the second block alone with counter+1 matches the tail
        // of the two-block encryption.
        let key = test_key();
        let nonce = [3u8; 12];
        let msg = vec![0xaau8; 128];
        let full = encrypt(&key, 5, &nonce, &msg);
        let tail = encrypt(&key, 6, &nonce, &msg[64..]);
        assert_eq!(&full[64..], &tail[..]);
    }

    #[test]
    fn partial_block_lengths() {
        let key = test_key();
        let nonce = [9u8; 12];
        for len in [0usize, 1, 63, 64, 65, 127, 128, 129] {
            let msg = vec![0x42u8; len];
            let ct = encrypt(&key, 0, &nonce, &msg);
            assert_eq!(ct.len(), len);
            assert_eq!(encrypt(&key, 0, &nonce, &ct), msg, "len {len}");
        }
    }
}
