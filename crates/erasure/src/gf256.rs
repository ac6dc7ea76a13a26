//! Arithmetic over GF(2^8).
//!
//! The field is GF(2)\[x\] / (x^8 + x^4 + x^3 + x^2 + 1), i.e. reduction
//! polynomial `0x11d`, with `2` (the polynomial `x`) as multiplicative
//! generator. Multiplication and division go through log/exp tables built at
//! compile time, so there is no runtime initialisation and no locking; the
//! exp table is doubled in length so `exp[log a + log b]` needs no modular
//! reduction.
//!
//! Addition and subtraction in a characteristic-2 field are both XOR.

/// The field reduction polynomial x^8 + x^4 + x^3 + x^2 + 1.
pub const POLY: u16 = 0x11d;

/// Multiplicative generator of the field (the polynomial `x`).
pub const GENERATOR: u8 = 2;

/// Number of field elements.
pub const FIELD_SIZE: usize = 256;

/// Order of the multiplicative group.
pub const GROUP_ORDER: usize = 255;

const fn build_exp() -> [u8; 512] {
    let mut exp = [0u8; 512];
    let mut x: u16 = 1;
    let mut i = 0;
    while i < 255 {
        exp[i] = x as u8;
        exp[i + 255] = x as u8;
        x <<= 1;
        if x & 0x100 != 0 {
            x ^= POLY;
        }
        i += 1;
    }
    // Slots 510 and 511 are never indexed (log a + log b <= 508) but keep
    // them consistent with the wrap-around anyway.
    exp[510] = exp[0];
    exp[511] = exp[1];
    exp
}

const fn build_log(exp: &[u8; 512]) -> [u8; 256] {
    let mut log = [0u8; 256];
    let mut i = 0;
    while i < 255 {
        log[exp[i] as usize] = i as u8;
        i += 1;
    }
    log
}

/// `EXP[i] = GENERATOR^i`, doubled so sums of two logs index directly.
pub static EXP: [u8; 512] = build_exp();

/// `LOG[x]` = discrete log of `x` base [`GENERATOR`]; `LOG[0]` is 0 and must
/// never be consulted (zero has no logarithm).
pub static LOG: [u8; 256] = build_log(&EXP);

/// Field addition (XOR).
#[inline(always)]
pub const fn add(a: u8, b: u8) -> u8 {
    a ^ b
}

/// Field subtraction (identical to addition in characteristic 2).
#[inline(always)]
pub const fn sub(a: u8, b: u8) -> u8 {
    a ^ b
}

/// Field multiplication via log/exp tables.
#[inline(always)]
pub fn mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        0
    } else {
        EXP[LOG[a as usize] as usize + LOG[b as usize] as usize]
    }
}

/// Carry-less shift-and-add ("Russian peasant") multiplication.
///
/// Used as an independent oracle for testing the table-driven [`mul`].
pub const fn mul_slow(mut a: u8, mut b: u8) -> u8 {
    let mut acc: u8 = 0;
    while b != 0 {
        if b & 1 != 0 {
            acc ^= a;
        }
        let carry = a & 0x80 != 0;
        a <<= 1;
        if carry {
            a ^= (POLY & 0xff) as u8;
        }
        b >>= 1;
    }
    acc
}

/// Multiplicative inverse. Panics on zero (zero has no inverse).
#[inline]
pub fn inv(a: u8) -> u8 {
    assert!(a != 0, "attempt to invert 0 in GF(2^8)");
    EXP[GROUP_ORDER - LOG[a as usize] as usize]
}

/// Field division `a / b`. Panics if `b == 0`.
#[inline]
pub fn div(a: u8, b: u8) -> u8 {
    assert!(b != 0, "attempt to divide by 0 in GF(2^8)");
    if a == 0 {
        0
    } else {
        EXP[(LOG[a as usize] as usize + GROUP_ORDER - LOG[b as usize] as usize) % GROUP_ORDER]
    }
}

/// Exponentiation `a^e` with `a^0 = 1` (including `0^0 = 1` by convention).
#[inline]
pub fn pow(a: u8, e: usize) -> u8 {
    if e == 0 {
        return 1;
    }
    if a == 0 {
        return 0;
    }
    EXP[(LOG[a as usize] as usize * e) % GROUP_ORDER]
}

/// `dst[i] ^= c * src[i]` for all `i` — the inner loop of matrix-vector
/// encoding. Hoists the log lookup of `c` out of the loop.
#[inline]
pub fn mul_acc_slice(dst: &mut [u8], src: &[u8], c: u8) {
    debug_assert_eq!(dst.len(), src.len());
    if c == 0 {
        return;
    }
    if c == 1 {
        for (d, s) in dst.iter_mut().zip(src) {
            *d ^= *s;
        }
        return;
    }
    let log_c = LOG[c as usize] as usize;
    for (d, s) in dst.iter_mut().zip(src) {
        if *s != 0 {
            *d ^= EXP[log_c + LOG[*s as usize] as usize];
        }
    }
}

/// `dst[i] = c * src[i]` for all `i`.
#[inline]
pub fn mul_slice(dst: &mut [u8], src: &[u8], c: u8) {
    debug_assert_eq!(dst.len(), src.len());
    if c == 0 {
        dst.fill(0);
        return;
    }
    if c == 1 {
        dst.copy_from_slice(src);
        return;
    }
    let log_c = LOG[c as usize] as usize;
    for (d, s) in dst.iter_mut().zip(src) {
        *d = if *s == 0 {
            0
        } else {
            EXP[log_c + LOG[*s as usize] as usize]
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_are_consistent() {
        for i in 1..=255u16 {
            let x = EXP[LOG[i as usize] as usize];
            assert_eq!(x, i as u8, "exp(log({i})) != {i}");
        }
        // The generator really has order 255.
        assert_eq!(EXP[0], 1);
        assert_eq!(EXP[255], 1);
        let mut seen = [false; 256];
        for i in 0..255 {
            assert!(!seen[EXP[i] as usize], "exp table repeats before 255");
            seen[EXP[i] as usize] = true;
        }
    }

    #[test]
    fn mul_matches_slow_oracle_exhaustively() {
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                assert_eq!(mul(a, b), mul_slow(a, b), "mul({a},{b})");
            }
        }
    }

    #[test]
    fn mul_identity_and_zero() {
        for a in 0..=255u8 {
            assert_eq!(mul(a, 1), a);
            assert_eq!(mul(1, a), a);
            assert_eq!(mul(a, 0), 0);
            assert_eq!(mul(0, a), 0);
        }
    }

    #[test]
    fn mul_commutative_associative_distributive() {
        // Spot-check algebraic laws over a pseudo-random sweep (full
        // exhaustive triple product would be 16M iterations; the slow-oracle
        // exhaustive pairwise test above plus these laws pin the structure).
        let mut x: u32 = 0x12345678;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            (x & 0xff) as u8
        };
        for _ in 0..20_000 {
            let (a, b, c) = (next(), next(), next());
            assert_eq!(mul(a, b), mul(b, a));
            assert_eq!(mul(mul(a, b), c), mul(a, mul(b, c)));
            assert_eq!(mul(a, add(b, c)), add(mul(a, b), mul(a, c)));
        }
    }

    #[test]
    fn inv_div_roundtrip() {
        for a in 1..=255u8 {
            assert_eq!(mul(a, inv(a)), 1, "a * a^-1 for a={a}");
            for b in 1..=255u8 {
                assert_eq!(mul(div(a, b), b), a, "(a/b)*b for a={a}, b={b}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "invert 0")]
    fn inv_zero_panics() {
        let _ = inv(0);
    }

    #[test]
    #[should_panic(expected = "divide by 0")]
    fn div_by_zero_panics() {
        let _ = div(3, 0);
    }

    #[test]
    fn pow_matches_repeated_mul() {
        for a in 0..=255u8 {
            let mut acc = 1u8;
            for e in 0..520usize {
                assert_eq!(pow(a, e), acc, "pow({a},{e})");
                acc = mul(acc, a);
            }
        }
    }

    #[test]
    fn pow_zero_conventions() {
        assert_eq!(pow(0, 0), 1);
        assert_eq!(pow(0, 5), 0);
    }

    #[test]
    fn slice_ops_match_scalar() {
        let src: Vec<u8> = (0..=255u8).collect();
        for c in [0u8, 1, 2, 3, 0x53, 0xca, 0xff] {
            let mut dst = vec![0u8; 256];
            mul_slice(&mut dst, &src, c);
            for (i, &s) in src.iter().enumerate() {
                assert_eq!(dst[i], mul(s, c));
            }
            let mut acc: Vec<u8> = (0..=255u8).rev().collect();
            let before = acc.clone();
            mul_acc_slice(&mut acc, &src, c);
            for i in 0..256 {
                assert_eq!(acc[i], add(before[i], mul(src[i], c)));
            }
        }
    }
}
