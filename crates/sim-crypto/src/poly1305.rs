//! Poly1305 one-time authenticator per RFC 8439 §2.5.
//!
//! The tag is `((m_1 r^q + m_2 r^(q-1) + … + m_q r) mod 2^130 − 5) + s mod
//! 2^128`, where the `m_i` are the message's 16-byte blocks, each with a
//! one bit appended above its last byte, and `(r, s)` are the two halves of
//! a key that must authenticate **one** message only. The accumulator is
//! held in three limbs of 44, 44 and 42 bits, so a block is nine `u64 × u64
//! → u128` products and no carry leaves a limb before the reduction.

/// Key length in bytes: `r` (clamped on load) then `s`.
pub const KEY_LEN: usize = 32;

/// Tag length in bytes.
pub const TAG_LEN: usize = 16;

/// Block length in bytes.
pub const BLOCK_LEN: usize = 16;

const MASK44: u64 = (1 << 44) - 1;
const MASK42: u64 = (1 << 42) - 1;

/// The one bit above a whole block (`2^128`), as it falls in the top limb.
const HIBIT: u64 = 1 << (128 - 88);

/// A Poly1305 computation in progress under one one-time key.
pub struct Poly1305 {
    r: [u64; 3],
    h: [u64; 3],
    s: u128,
}

/// The little-endian 64-bit word at `bytes[at..at + 8]`.
#[inline(always)]
fn le64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(std::array::from_fn(|i| bytes[at + i]))
}

impl Poly1305 {
    /// Start a computation under a one-time key.
    pub fn new(key: &[u8; KEY_LEN]) -> Self {
        let (t0, t1) = (le64(key, 0), le64(key, 8));
        Poly1305 {
            // r &= 0x0ffffffc0ffffffc0ffffffc0fffffff, split 44/44/40.
            r: [
                t0 & 0xffc_0fff_ffff,
                ((t0 >> 44) | (t1 << 20)) & 0xfff_ffc0_ffff,
                (t1 >> 24) & 0x00f_ffff_fc0f,
            ],
            h: [0; 3],
            s: u128::from(le64(key, 16)) | u128::from(le64(key, 24)) << 64,
        }
    }

    /// `h = (h + block + hibit · 2^88) · r`, reduced to limb width except
    /// for a carry of a few bits left in the middle limb.
    #[inline(always)]
    fn block(&mut self, block: &[u8; BLOCK_LEN], hibit: u64) {
        let [r0, r1, r2] = self.r;
        // 2^132 ≡ 20 (mod 2^130 − 5): a product term that lands three
        // limbs up comes back multiplied by 5 · 4.
        let (s1, s2) = (r1 * 20, r2 * 20);
        let (t0, t1) = (le64(block, 0), le64(block, 8));
        let h0 = self.h[0] + (t0 & MASK44);
        let h1 = self.h[1] + (((t0 >> 44) | (t1 << 20)) & MASK44);
        let h2 = self.h[2] + ((t1 >> 24) | hibit);

        let mul = |a: u64, b: u64| u128::from(a) * u128::from(b);
        let d0 = mul(h0, r0) + mul(h1, s2) + mul(h2, s1);
        let d1 = mul(h0, r1) + mul(h1, r0) + mul(h2, s2) + (d0 >> 44);
        let d2 = mul(h0, r2) + mul(h1, r1) + mul(h2, r0) + (d1 >> 44);
        let h0 = (d0 as u64 & MASK44) + (d2 >> 42) as u64 * 5;
        self.h = [
            h0 & MASK44,
            (d1 as u64 & MASK44) + (h0 >> 44),
            d2 as u64 & MASK42,
        ];
    }

    /// Absorb the whole blocks at the front of `data`; return the rest.
    #[inline]
    fn whole_blocks<'a>(&mut self, mut data: &'a [u8]) -> &'a [u8] {
        while let Some((block, tail)) = data.split_first_chunk() {
            self.block(block, HIBIT);
            data = tail;
        }
        data
    }

    /// Absorb `data` followed by zero bytes up to the next multiple of 16:
    /// `data ‖ pad16(data)` in the AEAD construction of RFC 8439 §2.8.
    pub fn update_padded(&mut self, data: &[u8]) {
        let rest = self.whole_blocks(data);
        if !rest.is_empty() {
            let mut last = [0u8; BLOCK_LEN];
            last[..rest.len()].copy_from_slice(rest);
            self.block(&last, HIBIT);
        }
    }

    /// Reduce fully, add `s`, and return the tag.
    pub fn finalize(self) -> [u8; TAG_LEN] {
        let [mut h0, mut h1, mut h2] = self.h;
        // Two rounds of carries bring every limb to its width (the middle
        // one to at most 2^44, which the sums below absorb).
        for _ in 0..2 {
            h2 += h1 >> 44;
            h1 &= MASK44;
            h0 += (h2 >> 42) * 5;
            h2 &= MASK42;
            h1 += h0 >> 44;
            h0 &= MASK44;
        }

        // g = h − p = h + 5 − 2^130; it replaces h unless it borrowed.
        let g0 = h0 + 5;
        let g1 = h1 + (g0 >> 44);
        let g2 = (h2 + (g1 >> 44)).wrapping_sub(1 << 42);
        let keep_g = (g2 >> 63).wrapping_sub(1);
        let h0 = (h0 & !keep_g) | (g0 & MASK44 & keep_g);
        let h1 = (h1 & !keep_g) | (g1 & MASK44 & keep_g);
        let h2 = (h2 & !keep_g) | (g2 & keep_g);

        // Tag = (h + s) mod 2^128; the shift drops h's top two bits.
        let h = u128::from(h0)
            .wrapping_add(u128::from(h1) << 44)
            .wrapping_add(u128::from(h2) << 88);
        h.wrapping_add(self.s).to_le_bytes()
    }
}

/// Poly1305 tag of `msg` under the one-time `key` (RFC 8439 §2.5.1).
pub fn poly1305(key: &[u8; KEY_LEN], msg: &[u8]) -> [u8; TAG_LEN] {
    let mut state = Poly1305::new(key);
    let rest = state.whole_blocks(msg);
    if !rest.is_empty() {
        // A short final block carries its one bit right after its bytes.
        let mut last = [0u8; BLOCK_LEN];
        last[..rest.len()].copy_from_slice(rest);
        last[rest.len()] = 1;
        state.block(&last, 0);
    }
    state.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chacha20;

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn unhex<const N: usize>(s: &str) -> [u8; N] {
        std::array::from_fn(|i| u8::from_str_radix(&s[2 * i..2 * i + 2], 16).unwrap())
    }

    #[test]
    fn rfc8439_section_2_5_2() {
        let key = unhex("85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b");
        assert_eq!(
            hex(&poly1305(&key, b"Cryptographic Forum Research Group")),
            "a8061dc1305136c6c22b8baf0c0127a9"
        );
    }

    /// RFC 8439 Appendix A.3, vectors 1 to 11 in order. From #5 on they
    /// aim at the limb arithmetic: a carry out of 2^130 − 5 on the first
    /// block, on `+ s`, h landing exactly on p and on p − 1, and products
    /// that carry from the low half into the high half.
    #[test]
    fn rfc8439_appendix_a3() {
        const IETF: &[u8] = b"Any submission to the IETF intended by the Contributor for \
            publication as all or part of an IETF Internet-Draft or RFC and any statement made \
            within the context of an IETF activity is considered an \"IETF Contribution\". Such \
            statements include oral statements in IETF sessions, as well as written and \
            electronic communications made at any time or place, which are addressed to";
        const JABBERWOCKY: &[u8] = b"'Twas brillig, and the slithy toves\nDid gyre and gimble \
            in the wabe:\nAll mimsy were the borogoves,\nAnd the mome raths outgrabe.";
        // (r, s, message, tag).
        let bytes = |hex: &str| -> Vec<u8> {
            (0..hex.len() / 2)
                .map(|i| unhex::<1>(&hex[2 * i..])[0])
                .collect()
        };
        let vectors: [(&str, &str, Vec<u8>, &str); 11] = [
            (
                "00000000000000000000000000000000",
                "00000000000000000000000000000000",
                vec![0; 64],
                "00000000000000000000000000000000",
            ),
            (
                "00000000000000000000000000000000",
                "36e5f6b5c5e06070f0efca96227a863e",
                IETF.to_vec(),
                "36e5f6b5c5e06070f0efca96227a863e",
            ),
            (
                "36e5f6b5c5e06070f0efca96227a863e",
                "00000000000000000000000000000000",
                IETF.to_vec(),
                "f3477e7cd95417af89a6b8794c310cf0",
            ),
            (
                "1c9240a5eb55d38af333888604f6b5f0",
                "473917c1402b80099dca5cbc207075c0",
                JABBERWOCKY.to_vec(),
                "4541669a7eaaee61e708dc7cbcc5eb62",
            ),
            (
                "02000000000000000000000000000000",
                "00000000000000000000000000000000",
                bytes("ffffffffffffffffffffffffffffffff"),
                "03000000000000000000000000000000",
            ),
            (
                "02000000000000000000000000000000",
                "ffffffffffffffffffffffffffffffff",
                bytes("02000000000000000000000000000000"),
                "03000000000000000000000000000000",
            ),
            (
                "01000000000000000000000000000000",
                "00000000000000000000000000000000",
                bytes(
                    "ffffffffffffffffffffffffffffffff\
                 f0ffffffffffffffffffffffffffffff\
                 11000000000000000000000000000000",
                ),
                "05000000000000000000000000000000",
            ),
            (
                "01000000000000000000000000000000",
                "00000000000000000000000000000000",
                bytes(
                    "ffffffffffffffffffffffffffffffff\
                 fbfefefefefefefefefefefefefefefe\
                 01010101010101010101010101010101",
                ),
                "00000000000000000000000000000000",
            ),
            (
                "02000000000000000000000000000000",
                "00000000000000000000000000000000",
                bytes("fdffffffffffffffffffffffffffffff"),
                "faffffffffffffffffffffffffffffff",
            ),
            (
                "01000000000000000400000000000000",
                "00000000000000000000000000000000",
                bytes(
                    "e33594d7505e43b90000000000000000\
                 3394d7505e4379cd0100000000000000\
                 00000000000000000000000000000000\
                 01000000000000000000000000000000",
                ),
                "14000000000000005500000000000000",
            ),
            (
                "01000000000000000400000000000000",
                "00000000000000000000000000000000",
                bytes(
                    "e33594d7505e43b90000000000000000\
                 3394d7505e4379cd0100000000000000\
                 00000000000000000000000000000000",
                ),
                "13000000000000000000000000000000",
            ),
        ];
        for (i, (r, s, msg, tag)) in vectors.into_iter().enumerate() {
            let key: [u8; 32] = unhex(&format!("{r}{s}"));
            assert_eq!(hex(&poly1305(&key, &msg)), tag, "vector #{}", i + 1);
        }
    }

    /// RFC 8439 §2.8.2, the AEAD composed here from its parts: it is the
    /// one vector that pins `update_padded` (a short block zero-filled, not
    /// one-terminated) and the one-time-key derivation `symmetric` uses.
    #[test]
    fn rfc8439_section_2_8_2_aead_composition() {
        let key: [u8; 32] = std::array::from_fn(|i| 0x80 + i as u8);
        let nonce: [u8; 12] = unhex("070000004041424344454647");
        let aad: [u8; 12] = unhex("50515253c0c1c2c3c4c5c6c7");
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you \
            only one tip for the future, sunscreen would be it.";

        let block0 = chacha20::block(&key, 0, &nonce);
        let (otk, _) = block0.split_first_chunk::<KEY_LEN>().unwrap();
        assert_eq!(
            hex(otk),
            "7bac2b252db447af09b67a55a4e955840ae1d6731075d9eb2a9375783ed553ff"
        );
        let ct = chacha20::encrypt(&key, 1, &nonce, plaintext);
        assert_eq!(hex(&ct[..16]), "d31a8d34648e60db7b86afbc53ef7ec2");
        assert_eq!(hex(&ct[112..]), "6116");

        let mut mac = Poly1305::new(otk);
        mac.update_padded(&aad);
        mac.update_padded(&ct);
        let mut lengths = [0u8; 16];
        lengths[..8].copy_from_slice(&(aad.len() as u64).to_le_bytes());
        lengths[8..].copy_from_slice(&(ct.len() as u64).to_le_bytes());
        mac.update_padded(&lengths);
        assert_eq!(hex(&mac.finalize()), "1ae10b594f09e26a7e902ecbd0600691");
    }

    #[test]
    fn padded_update_equals_one_shot_on_zero_filled_message() {
        let key: [u8; 32] = std::array::from_fn(|i| (i * 11 + 5) as u8);
        for len in [0usize, 1, 15, 16, 17, 31, 32, 33, 100] {
            let data: Vec<u8> = (0..len).map(|i| (i * 3 + 1) as u8).collect();
            let mut filled = data.clone();
            filled.resize(len.next_multiple_of(16), 0);
            let mut mac = Poly1305::new(&key);
            mac.update_padded(&data);
            assert_eq!(mac.finalize(), poly1305(&key, &filled), "len {len}");
        }
    }
}
