//! X25519 Diffie–Hellman per RFC 7748.
//!
//! Field arithmetic over GF(2^255 - 19) uses the classic five 51-bit-limb
//! representation (as in curve25519-donna / ref10); scalar multiplication is
//! the Montgomery ladder with constant-time conditional swaps.

/// Size of scalars, u-coordinates and shared secrets.
pub const POINT_LEN: usize = 32;

/// The canonical base point (u = 9).
pub const BASE_POINT: [u8; POINT_LEN] = {
    let mut b = [0u8; POINT_LEN];
    b[0] = 9;
    b
};

const MASK51: u64 = (1 << 51) - 1;

/// Field element: value = Σ limb[i] * 2^(51 i), limbs kept below ~2^52
/// between multiplications.
#[derive(Clone, Copy, Debug)]
struct Fe([u64; 5]);

impl Fe {
    const ZERO: Fe = Fe([0; 5]);
    const ONE: Fe = Fe([1, 0, 0, 0, 0]);

    fn from_bytes(bytes: &[u8; 32]) -> Fe {
        let load = |i: usize| -> u64 {
            let mut v = [0u8; 8];
            v.copy_from_slice(&bytes[i..i + 8]);
            u64::from_le_bytes(v)
        };
        // RFC 7748: the top bit of the u-coordinate is masked off.
        Fe([
            load(0) & MASK51,
            (load(6) >> 3) & MASK51,
            (load(12) >> 6) & MASK51,
            (load(19) >> 1) & MASK51,
            (load(24) >> 12) & MASK51,
        ])
    }

    /// Fully reduce and serialize to canonical little-endian form.
    fn to_bytes(self) -> [u8; 32] {
        let mut t = self.0;
        // Two carry passes bring every limb below 2^51 + tiny.
        for _ in 0..2 {
            for i in 0..4 {
                t[i + 1] += t[i] >> 51;
                t[i] &= MASK51;
            }
            t[0] += 19 * (t[4] >> 51);
            t[4] &= MASK51;
        }
        // Compute q = floor(value / p) ∈ {0, 1} via the +19 trick, then
        // subtract q*p by adding 19q and masking bit 255.
        let mut q = (t[0] + 19) >> 51;
        q = (t[1] + q) >> 51;
        q = (t[2] + q) >> 51;
        q = (t[3] + q) >> 51;
        q = (t[4] + q) >> 51;
        t[0] += 19 * q;
        for i in 0..4 {
            t[i + 1] += t[i] >> 51;
            t[i] &= MASK51;
        }
        t[4] &= MASK51;

        let mut out = [0u8; 32];
        let mut acc: u128 = 0;
        let mut acc_bits = 0u32;
        let mut idx = 0;
        for limb in t {
            acc |= (limb as u128) << acc_bits;
            acc_bits += 51;
            while acc_bits >= 8 && idx < 32 {
                out[idx] = (acc & 0xff) as u8;
                acc >>= 8;
                acc_bits -= 8;
                idx += 1;
            }
        }
        while idx < 32 {
            out[idx] = (acc & 0xff) as u8;
            acc >>= 8;
            idx += 1;
        }
        out
    }

    #[inline]
    fn add(self, rhs: Fe) -> Fe {
        let a = self.0;
        let b = rhs.0;
        Fe([
            a[0] + b[0],
            a[1] + b[1],
            a[2] + b[2],
            a[3] + b[3],
            a[4] + b[4],
        ])
    }

    /// `self - rhs`, adding 2p first so limbs never underflow (inputs must
    /// be reduced, i.e. limbs < 2^52).
    #[inline]
    fn sub(self, rhs: Fe) -> Fe {
        const TWO_P: [u64; 5] = [
            0xfffffffffffda, // 2*(2^51 - 19)
            0xffffffffffffe, // 2*(2^51 - 1)
            0xffffffffffffe,
            0xffffffffffffe,
            0xffffffffffffe,
        ];
        let a = self.0;
        let b = rhs.0;
        Fe([
            a[0] + TWO_P[0] - b[0],
            a[1] + TWO_P[1] - b[1],
            a[2] + TWO_P[2] - b[2],
            a[3] + TWO_P[3] - b[3],
            a[4] + TWO_P[4] - b[4],
        ])
    }

    /// Carry five wide column sums back to limbs below 2^51 (plus a small
    /// excess in limb 1), folding the top carry in through 2^255 = 19.
    #[inline]
    fn carry(mut r: [u128; 5]) -> Fe {
        for i in 0..4 {
            r[i + 1] += r[i] >> 51;
            r[i] &= MASK51 as u128;
        }
        let c = (r[4] >> 51) as u64;
        r[4] &= MASK51 as u128;
        let t0 = (r[0] as u64) + 19 * c;
        Fe([
            t0 & MASK51,
            (r[1] as u64) + (t0 >> 51),
            r[2] as u64,
            r[3] as u64,
            r[4] as u64,
        ])
    }

    #[inline]
    fn mul(self, rhs: Fe) -> Fe {
        let a = self.0;
        let b = rhs.0;
        debug_assert!(a.iter().chain(b.iter()).all(|&l| l < 1 << 54));
        let m = |x: u64, y: u64| (x as u128) * (y as u128);
        let b1_19 = b[1] * 19;
        let b2_19 = b[2] * 19;
        let b3_19 = b[3] * 19;
        let b4_19 = b[4] * 19;
        Fe::carry([
            m(a[0], b[0]) + m(a[1], b4_19) + m(a[2], b3_19) + m(a[3], b2_19) + m(a[4], b1_19),
            m(a[0], b[1]) + m(a[1], b[0]) + m(a[2], b4_19) + m(a[3], b3_19) + m(a[4], b2_19),
            m(a[0], b[2]) + m(a[1], b[1]) + m(a[2], b[0]) + m(a[3], b4_19) + m(a[4], b3_19),
            m(a[0], b[3]) + m(a[1], b[2]) + m(a[2], b[1]) + m(a[3], b[0]) + m(a[4], b4_19),
            m(a[0], b[4]) + m(a[1], b[3]) + m(a[2], b[2]) + m(a[3], b[1]) + m(a[4], b[0]),
        ])
    }

    /// `self * self` in 15 wide products: each of `mul`'s ten cross terms
    /// appears twice, so it is computed once against a doubled (and, where
    /// it wraps past 2^255, x19) limb. The column sums are `mul`'s exactly.
    #[inline]
    fn square(self) -> Fe {
        let a = self.0;
        debug_assert!(a.iter().all(|&l| l < 1 << 54));
        let m = |x: u64, y: u64| (x as u128) * (y as u128);
        let a0_2 = a[0] * 2;
        let a1_2 = a[1] * 2;
        let a1_38 = a[1] * 38;
        let a2_38 = a[2] * 38;
        let a3_19 = a[3] * 19;
        let a3_38 = a[3] * 38;
        let a4_19 = a[4] * 19;
        Fe::carry([
            m(a[0], a[0]) + m(a1_38, a[4]) + m(a2_38, a[3]),
            m(a0_2, a[1]) + m(a2_38, a[4]) + m(a3_19, a[3]),
            m(a0_2, a[2]) + m(a[1], a[1]) + m(a3_38, a[4]),
            m(a0_2, a[3]) + m(a1_2, a[2]) + m(a4_19, a[4]),
            m(a0_2, a[4]) + m(a1_2, a[3]) + m(a[2], a[2]),
        ])
    }

    /// `self^(2^n)`.
    fn square_n(mut self, n: u32) -> Fe {
        for _ in 0..n {
            self = self.square();
        }
        self
    }

    /// Multiply by the curve constant a24 = 121665.
    #[inline]
    fn mul_small(self, k: u32) -> Fe {
        let k = k as u128;
        Fe::carry(self.0.map(|l| l as u128 * k))
    }

    /// Inversion by Fermat's little theorem: self^(p-2).
    ///
    /// The exponent 2^255 - 21 is reached by the standard addition chain
    /// (254 squarings, 11 multiplications); `zA_B` below is
    /// self^(2^A - 2^B).
    fn invert(self) -> Fe {
        let z2 = self.square();
        let z9 = z2.square_n(2).mul(self);
        let z11 = z9.mul(z2);
        let z5_0 = z11.square().mul(z9);
        let z10_0 = z5_0.square_n(5).mul(z5_0);
        let z20_0 = z10_0.square_n(10).mul(z10_0);
        let z40_0 = z20_0.square_n(20).mul(z20_0);
        let z50_0 = z40_0.square_n(10).mul(z10_0);
        let z100_0 = z50_0.square_n(50).mul(z50_0);
        let z200_0 = z100_0.square_n(100).mul(z100_0);
        let z250_0 = z200_0.square_n(50).mul(z50_0);
        z250_0.square_n(5).mul(z11)
    }
}

/// Constant-time conditional swap: swaps when `swap == 1`.
#[inline]
fn cswap(swap: u64, a: &mut Fe, b: &mut Fe) {
    let mask = 0u64.wrapping_sub(swap);
    for i in 0..5 {
        let t = mask & (a.0[i] ^ b.0[i]);
        a.0[i] ^= t;
        b.0[i] ^= t;
    }
}

/// Clamp a 32-byte scalar per RFC 7748.
pub fn clamp_scalar(mut scalar: [u8; 32]) -> [u8; 32] {
    scalar[0] &= 248;
    scalar[31] &= 127;
    scalar[31] |= 64;
    scalar
}

/// X25519 scalar multiplication: `scalar * point` on the Montgomery curve.
///
/// The scalar is clamped internally; the point is a raw u-coordinate.
pub fn x25519(scalar: &[u8; 32], point: &[u8; 32]) -> [u8; 32] {
    let k = clamp_scalar(*scalar);
    let x1 = Fe::from_bytes(point);
    let mut x2 = Fe::ONE;
    let mut z2 = Fe::ZERO;
    let mut x3 = x1;
    let mut z3 = Fe::ONE;
    let mut swap = 0u64;

    for t in (0..255usize).rev() {
        let k_t = ((k[t / 8] >> (t % 8)) & 1) as u64;
        swap ^= k_t;
        cswap(swap, &mut x2, &mut x3);
        cswap(swap, &mut z2, &mut z3);
        swap = k_t;

        let a = x2.add(z2);
        let aa = a.square();
        let b = x2.sub(z2);
        let bb = b.square();
        let e = aa.sub(bb);
        let c = x3.add(z3);
        let d = x3.sub(z3);
        let da = d.mul(a);
        let cb = c.mul(b);
        x3 = da.add(cb).square();
        z3 = x1.mul(da.sub(cb).square());
        x2 = aa.mul(bb);
        z2 = e.mul(aa.add(e.mul_small(121665)));
    }
    cswap(swap, &mut x2, &mut x3);
    cswap(swap, &mut z2, &mut z3);

    x2.mul(z2.invert()).to_bytes()
}

/// Derive the public key for a secret scalar: `scalar * 9`.
pub fn public_key(scalar: &[u8; 32]) -> [u8; 32] {
    x25519(scalar, &BASE_POINT)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unhex32(s: &str) -> [u8; 32] {
        let mut out = [0u8; 32];
        for i in 0..32 {
            out[i] = u8::from_str_radix(&s[i * 2..i * 2 + 2], 16).unwrap();
        }
        out
    }

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The inversion this module used to ship: 255-step square-and-multiply
    /// over the bits of p - 2 (all set but bits 2 and 4). Kept as the oracle
    /// for the addition chain.
    fn invert_bitwise(x: Fe) -> Fe {
        let mut acc = Fe::ONE;
        for i in (0..255).rev() {
            acc = acc.mul(acc);
            if i != 2 && i != 4 {
                acc = acc.mul(x);
            }
        }
        acc
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn random_bytes32(state: &mut u64) -> [u8; 32] {
        let mut out = [0u8; 32];
        for chunk in out.chunks_exact_mut(8) {
            chunk.copy_from_slice(&splitmix64(state).to_le_bytes());
        }
        out
    }

    /// Where carries and the final reduction can go wrong, plus random
    /// elements both reduced (as `from_bytes` makes them) and with limbs
    /// anywhere below `mul`'s 2^54 bound.
    fn field_samples() -> Vec<Fe> {
        let p = Fe([MASK51 - 18, MASK51, MASK51, MASK51, MASK51]);
        let mut samples = vec![
            Fe::ZERO,
            Fe::ONE,
            Fe([MASK51 - 19, MASK51, MASK51, MASK51, MASK51]), // p - 1
            p,
            Fe::from_bytes(&[0xff; 32]), // 2^255 - 1 once bit 255 is masked
            Fe([MASK51; 5]),
            // What the ladder feeds `mul` and `square`: the sum of two
            // reduced elements, and a difference (which adds 2p first).
            Fe([MASK51; 5]).add(Fe([MASK51; 5])),
            Fe([MASK51; 5]).sub(Fe::ZERO),
            // The bound the debug_assert states.
            Fe([(1 << 54) - 1; 5]),
        ];
        let mut state = 0x7748;
        for _ in 0..64 {
            samples.push(Fe::from_bytes(&random_bytes32(&mut state)));
        }
        for _ in 0..64 {
            samples.push(Fe([0; 5].map(|_| splitmix64(&mut state) >> 10)));
        }
        samples
    }

    #[test]
    fn square_equals_mul_by_self() {
        for (i, x) in field_samples().into_iter().enumerate() {
            let x2 = x.mul(x);
            assert_eq!(x.square().to_bytes(), x2.to_bytes(), "sample {i}");
            let x4 = x2.mul(x2);
            assert_eq!(
                x.square_n(3).to_bytes(),
                x4.mul(x4).to_bytes(),
                "sample {i}"
            );
        }
    }

    #[test]
    fn addition_chain_inversion_equals_bitwise() {
        for (i, x) in field_samples().into_iter().enumerate() {
            assert_eq!(
                x.invert().to_bytes(),
                invert_bitwise(x).to_bytes(),
                "sample {i}"
            );
        }
    }

    #[test]
    fn public_key_is_ladder_on_base_point() {
        let mut state = 9;
        for _ in 0..64 {
            let scalar = random_bytes32(&mut state);
            assert_eq!(public_key(&scalar), x25519(&scalar, &BASE_POINT));
        }
    }

    #[test]
    fn rfc7748_vector_1() {
        let scalar = unhex32("a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4");
        let u = unhex32("e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c");
        assert_eq!(
            hex(&x25519(&scalar, &u)),
            "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552"
        );
    }

    #[test]
    fn rfc7748_vector_2() {
        let scalar = unhex32("4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d");
        let u = unhex32("e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493");
        assert_eq!(
            hex(&x25519(&scalar, &u)),
            "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957"
        );
    }

    #[test]
    fn rfc7748_iterated_1000() {
        // RFC 7748 section 5.2: iterate k = X25519(k, u); u = old k.
        let mut k = BASE_POINT;
        let mut u = BASE_POINT;
        for i in 0..1000 {
            let next = x25519(&k, &u);
            u = k;
            k = next;
            if i == 0 {
                assert_eq!(
                    hex(&k),
                    "422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079"
                );
            }
        }
        assert_eq!(
            hex(&k),
            "684cf59ba83309552800ef566f2f4d3c1c3887c49360e3875f2eb94d99532c51"
        );
    }

    /// RFC 7748 section 5.2 after 1 000 000 iterations (~40 s in release):
    /// a million ladders on chained outputs, where the 1 000-iteration
    /// vector might miss a rare carry. The expected value is the RFC's, and
    /// was also reproduced on the ladder as it stood before `square` and
    /// the addition-chain `invert` were written.
    #[test]
    #[ignore = "a million ladders; CI runs it in release"]
    fn rfc7748_iterated_1000000() {
        let mut k = BASE_POINT;
        let mut u = BASE_POINT;
        for _ in 0..1_000_000 {
            let next = x25519(&k, &u);
            u = k;
            k = next;
        }
        assert_eq!(
            hex(&k),
            "7c3911e0ab2586fd864497297e575e6f3bc601c0883c30df5f4dd2d24f665424"
        );
    }

    #[test]
    fn rfc7748_diffie_hellman() {
        let alice_sk = unhex32("77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a");
        let bob_sk = unhex32("5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb");
        let alice_pk = public_key(&alice_sk);
        let bob_pk = public_key(&bob_sk);
        assert_eq!(
            hex(&alice_pk),
            "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a"
        );
        assert_eq!(
            hex(&bob_pk),
            "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f"
        );
        let s1 = x25519(&alice_sk, &bob_pk);
        let s2 = x25519(&bob_sk, &alice_pk);
        assert_eq!(s1, s2);
        assert_eq!(
            hex(&s1),
            "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742"
        );
    }

    #[test]
    fn field_roundtrip_bytes() {
        // from_bytes . to_bytes is identity for canonical values.
        for seed in 0..16u8 {
            let mut b = [0u8; 32];
            for (i, v) in b.iter_mut().enumerate() {
                *v = seed.wrapping_mul(31).wrapping_add(i as u8);
            }
            b[31] &= 0x7f; // canonical (below 2^255 - 19 with high margin)
            if b[31] == 0x7f {
                b[31] = 0x3f;
            }
            let fe = Fe::from_bytes(&b);
            assert_eq!(fe.to_bytes(), b, "seed {seed}");
        }
    }

    #[test]
    fn field_algebra() {
        let a = Fe::from_bytes(&[3; 32]);
        let b = Fe::from_bytes(&[7; 32]);
        // (a + b) - b == a
        assert_eq!(a.add(b).sub(b).to_bytes(), a.to_bytes());
        // a * a^-1 == 1
        assert_eq!(a.mul(a.invert()).to_bytes(), Fe::ONE.to_bytes());
        // mul_small agrees with mul by the same constant.
        let k = Fe([121665, 0, 0, 0, 0]);
        assert_eq!(a.mul_small(121665).to_bytes(), a.mul(k).to_bytes());
    }

    #[test]
    fn noncanonical_input_reduced() {
        // u = p + 3 must behave as u = 3 (RFC 7748 masks bit 255 and the
        // ladder is well-defined on non-canonical inputs).
        let mut p_plus_3 = [0xffu8; 32];
        p_plus_3[0] = 0xed + 3; // p = 2^255 - 19 => low byte 0xed
        p_plus_3[31] = 0x7f;
        let mut three = [0u8; 32];
        three[0] = 3;
        let scalar = [0x42u8; 32];
        assert_eq!(x25519(&scalar, &p_plus_3), x25519(&scalar, &three));
    }
}
