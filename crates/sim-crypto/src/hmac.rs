//! HMAC-SHA-256 (RFC 2104) and HKDF (RFC 5869).

use crate::sha256::{block_midstate, sha256, Sha256, BLOCK_LEN, DIGEST_LEN};

/// An HMAC-SHA-256 key with its pad blocks already hashed: the SHA-256
/// chaining values after `key ^ ipad` and after `key ^ opad`. A MAC under
/// it costs only the message's own blocks plus one for the outer hash, so
/// whoever MACs several messages under one key (the blocks of one HKDF
/// expansion) keeps this instead of the key bytes.
struct HmacKey {
    inner: [u32; 8],
    outer: [u32; 8],
}

impl HmacKey {
    fn new(key: &[u8]) -> Self {
        let mut k = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            k[..DIGEST_LEN].copy_from_slice(&sha256(key));
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        HmacKey {
            inner: block_midstate(&k.map(|b| b ^ 0x36)),
            outer: block_midstate(&k.map(|b| b ^ 0x5c)),
        }
    }

    /// MAC over the concatenation of `parts`, streamed into the hash so
    /// callers never materialise the joined message. Allocation-free.
    fn mac(&self, parts: &[&[u8]]) -> [u8; DIGEST_LEN] {
        let mut inner = Sha256::after_block(self.inner);
        for part in parts {
            inner.update(part);
        }
        let mut outer = Sha256::after_block(self.outer);
        outer.update(&inner.finalize());
        outer.finalize()
    }
}

/// HMAC-SHA-256 of `data` under `key`.
pub fn hmac_sha256(key: &[u8], data: &[u8]) -> [u8; DIGEST_LEN] {
    HmacKey::new(key).mac(&[data])
}

/// HKDF-Extract: PRK = HMAC(salt, ikm).
pub fn hkdf_extract(salt: &[u8], ikm: &[u8]) -> [u8; DIGEST_LEN] {
    hmac_sha256(salt, ikm)
}

/// HKDF-Expand: derive `out.len()` bytes from `prk` and `info`.
///
/// Panics if more than `255 * 32` bytes are requested (RFC 5869 limit).
pub fn hkdf_expand(prk: &[u8; DIGEST_LEN], info: &[u8], out: &mut [u8]) {
    assert!(out.len() <= 255 * DIGEST_LEN, "HKDF output too long");
    // T(i-1) is at most one digest; stream T || info || counter into the
    // MAC so the expansion runs without heap allocation, and hash PRK's
    // pads once for all blocks.
    let prk = HmacKey::new(prk);
    let mut t = [0u8; DIGEST_LEN];
    let mut t_len = 0usize;
    let mut counter = 1u8;
    let mut filled = 0;
    while filled < out.len() {
        let block = prk.mac(&[&t[..t_len], info, &[counter]]);
        let take = (out.len() - filled).min(DIGEST_LEN);
        out[filled..filled + take].copy_from_slice(&block[..take]);
        filled += take;
        t = block;
        t_len = DIGEST_LEN;
        counter = counter.wrapping_add(1);
    }
}

/// Convenience: HKDF(salt, ikm, info) -> fixed-size output.
pub fn hkdf<const N: usize>(salt: &[u8], ikm: &[u8], info: &[u8]) -> [u8; N] {
    let prk = hkdf_extract(salt, ikm);
    let mut out = [0u8; N];
    hkdf_expand(&prk, info, &mut out);
    out
}

/// Constant-time byte-slice comparison (for MAC verification).
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b) {
        diff |= x ^ y;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn rfc4231_case_1() {
        let key = vec![0x0b; 20];
        let mac = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            hex(&mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case_2() {
        let mac = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex(&mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case_3_long_data() {
        let key = vec![0xaa; 20];
        let data = vec![0xdd; 50];
        let mac = hmac_sha256(&key, &data);
        assert_eq!(
            hex(&mac),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case_6_oversize_key() {
        let key = vec![0xaa; 131];
        let mac = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            hex(&mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn rfc5869_case_1() {
        let ikm = unhex("0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b");
        let salt = unhex("000102030405060708090a0b0c");
        let info = unhex("f0f1f2f3f4f5f6f7f8f9");
        let prk = hkdf_extract(&salt, &ikm);
        assert_eq!(
            hex(&prk),
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5"
        );
        let mut okm = [0u8; 42];
        hkdf_expand(&prk, &info, &mut okm);
        assert_eq!(
            hex(&okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865"
        );
    }

    #[test]
    fn rfc5869_case_3_empty_salt_info() {
        let ikm = vec![0x0b; 22];
        let prk = hkdf_extract(&[], &ikm);
        let mut okm = [0u8; 42];
        hkdf_expand(&prk, &[], &mut okm);
        assert_eq!(
            hex(&okm),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d9d201395faa4b61a96c8"
        );
    }

    #[test]
    fn ct_eq_behaviour() {
        assert!(ct_eq(b"abc", b"abc"));
        assert!(!ct_eq(b"abc", b"abd"));
        assert!(!ct_eq(b"abc", b"ab"));
        assert!(ct_eq(b"", b""));
    }

    #[test]
    fn hkdf_multi_block_expand_is_deterministic() {
        let out1: [u8; 100] = hkdf(b"salt", b"ikm", b"info");
        let out2: [u8; 100] = hkdf(b"salt", b"ikm", b"info");
        assert_eq!(out1, out2);
        let out3: [u8; 100] = hkdf(b"salt", b"ikm", b"other");
        assert_ne!(out1, out3);
    }
}
