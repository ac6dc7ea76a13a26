//! SHA-256 per FIPS 180-4.

/// Digest size in bytes.
pub const DIGEST_LEN: usize = 32;

/// Block size in bytes (needed by HMAC).
pub const BLOCK_LEN: usize = 64;

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; BLOCK_LEN],
    buf_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buf: [0; BLOCK_LEN],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Resume from `midstate`, the chaining value after exactly one
    /// absorbed block (see [`block_midstate`]): what HMAC keeps per key so
    /// the ipad/opad blocks are hashed once, not once per message.
    pub(crate) fn after_block(midstate: [u32; 8]) -> Self {
        Sha256 {
            state: midstate,
            buf: [0; BLOCK_LEN],
            buf_len: 0,
            total_len: BLOCK_LEN as u64,
        }
    }

    /// Absorb bytes.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let take = (BLOCK_LEN - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == BLOCK_LEN {
                compress(&mut self.state, &self.buf);
                self.buf_len = 0;
            }
        }
        while let Some((block, rest)) = data.split_first_chunk::<BLOCK_LEN>() {
            compress(&mut self.state, block);
            data = rest;
        }
        if !data.is_empty() {
            self.buf[..data.len()].copy_from_slice(data);
            self.buf_len = data.len();
        }
    }

    /// Finish and return the digest.
    pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
        // Padding: 0x80, zeros up to 56 mod 64, then the message's bit
        // length as 8 big-endian bytes. `update` never leaves the buffer
        // full, so the 0x80 always fits; the length may need a second block.
        const LEN_AT: usize = BLOCK_LEN - 8;
        let bit_len = self.total_len.wrapping_mul(8);
        let used = self.buf_len;
        self.buf[used] = 0x80;
        self.buf[used + 1..].fill(0);
        if used + 1 > LEN_AT {
            compress(&mut self.state, &self.buf);
            self.buf.fill(0);
        }
        self.buf[LEN_AT..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &self.buf);

        let mut out = [0u8; DIGEST_LEN];
        for (bytes, word) in out.chunks_exact_mut(4).zip(self.state) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// Chaining value after absorbing `block` into a fresh hasher.
pub(crate) fn block_midstate(block: &[u8; BLOCK_LEN]) -> [u32; 8] {
    let mut state = H0;
    compress(&mut state, block);
    state
}

/// One application of the compression function. The message schedule is
/// a rolling window of 16 words (`w[i & 15]` holds `W[i]` until round
/// `i + 16` overwrites it), and the loop takes eight rounds per step with
/// the working variables renamed from round to round instead of moved.
fn compress(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
    let mut w = [0u32; 16];
    for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
        *word = u32::from_be_bytes(bytes.try_into().expect("chunks_exact(4)"));
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    macro_rules! round {
        ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident, $i:expr) => {
            let i = $i;
            if i >= 16 {
                let w15 = w[(i + 1) & 15];
                let w2 = w[(i + 14) & 15];
                let s0 = w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3);
                let s1 = w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10);
                w[i & 15] = w[i & 15]
                    .wrapping_add(s0)
                    .wrapping_add(w[(i + 9) & 15])
                    .wrapping_add(s1);
            }
            let s1 = $e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25);
            let ch = ($e & $f) ^ (!$e & $g);
            let t1 = $h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i & 15]);
            let s0 = $a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22);
            let maj = ($a & $b) ^ ($a & $c) ^ ($b & $c);
            $d = $d.wrapping_add(t1);
            $h = t1.wrapping_add(s0).wrapping_add(maj);
        };
    }
    for i in (0..64).step_by(8) {
        round!(a, b, c, d, e, f, g, h, i);
        round!(h, a, b, c, d, e, f, g, i + 1);
        round!(g, h, a, b, c, d, e, f, i + 2);
        round!(f, g, h, a, b, c, d, e, i + 3);
        round!(e, f, g, h, a, b, c, d, i + 4);
        round!(d, e, f, g, h, a, b, c, i + 5);
        round!(c, d, e, f, g, h, a, b, i + 6);
        round!(b, c, d, e, f, g, h, a, i + 7);
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// One-shot SHA-256.
pub fn sha256(data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn fips_vectors() {
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let want = "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0";
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(hex(&h.finalize()), want);
        assert_eq!(hex(&sha256(&vec![b'a'; 1_000_000])), want);
    }

    #[test]
    fn incremental_matches_oneshot_at_all_split_points() {
        let msg: Vec<u8> = (0..200u8).collect();
        let want = sha256(&msg);
        for split in 0..=msg.len() {
            let mut h = Sha256::new();
            h.update(&msg[..split]);
            h.update(&msg[split..]);
            assert_eq!(h.finalize(), want, "split at {split}");
        }
    }

    #[test]
    fn length_boundary_blocks() {
        // Around the 55/56/64-byte padding boundaries: 55 is the longest
        // tail that shares a block with the length field, 56..=63 spill it
        // into a block of its own. Digests from an independent SHA-256.
        let pinned = [
            (
                55usize,
                "5f25f149aa92e3e13093aed8216072fae623f35e26ca605b6cce17e04b7ccf44",
            ),
            (
                56,
                "301c69927f1603720c9f847b7e5e3bef77a7b9f75344490fe9039f13c36b842a",
            ),
            (
                63,
                "939765b120205cbedae2ed31256b1967c38b6bdd9b0220535224cbc0b906d333",
            ),
            (
                64,
                "cc7321cce5e4409bd8077d58422e1214969059bbd40b4eeb0de0a642f40f7282",
            ),
            (
                119,
                "a96851d641310ce032ff832b6f08125878deed2a825fe515dd1ba414afe95f7e",
            ),
            (
                120,
                "60ec7f280e45d0c7bf77b70ff16958b1c1701a9fb7faa12b798207cf120ec6ee",
            ),
        ];
        for (len, want) in pinned {
            assert_eq!(hex(&sha256(&vec![0x5au8; len])), want, "len {len}");
        }
        for len in [54usize, 55, 56, 57, 63, 64, 65, 119, 120, 127, 128] {
            let msg = vec![0x5au8; len];
            let d1 = sha256(&msg);
            let mut h = Sha256::new();
            for b in &msg {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), d1, "len {len}");
        }
    }
}
