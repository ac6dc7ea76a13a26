//! X25519 Diffie–Hellman per RFC 7748.
//!
//! Field arithmetic over GF(2^255 - 19) uses the classic five 51-bit-limb
//! representation (as in curve25519-donna / ref10). Two scalar
//! multiplications run on it:
//!
//! * [`x25519`], by any u-coordinate, is the Montgomery ladder with
//!   constant-time conditional swaps: 255 steps.
//! * `comb`, by a point with a table of its multiples, is ref10's
//!   fixed-base comb (`ge_scalarmult_base`) on the birationally equivalent
//!   twisted Edwards curve: 64 mixed additions and a few doublings.
//!   [`public_key`] runs it on the base point u = 9, whose 32-row, 30-KB
//!   table the compiler builds; a [`RecipientTable`] is an 8-row table of
//!   another public key, built at run time by the same builder.
//!
//! Each ends in one field inversion. A sealed box needs both products of
//! one ephemeral scalar, and a construction onion one box per layer:
//! `public_keys_and_x25519s` finishes all of an onion's products under a
//! single inversion (Montgomery's trick).

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
///
/// The arithmetic is `const fn` so that the comb's table can be built by
/// the compiler with the same code that runs.
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
    const fn add(self, rhs: Fe) -> Fe {
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
    const fn sub(self, rhs: Fe) -> Fe {
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
    const fn carry(mut r: [u128; 5]) -> Fe {
        let mut i = 0;
        while i < 4 {
            r[i + 1] += r[i] >> 51;
            r[i] &= MASK51 as u128;
            i += 1;
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

    /// Whether every limb is below 2^54, the input bound of `mul` and
    /// `square`.
    const fn below_2_54(self) -> bool {
        let mut i = 0;
        while i < 5 {
            if self.0[i] >= 1 << 54 {
                return false;
            }
            i += 1;
        }
        true
    }

    #[inline]
    const fn mul(self, rhs: Fe) -> Fe {
        let a = self.0;
        let b = rhs.0;
        debug_assert!(self.below_2_54() && rhs.below_2_54());
        const fn m(x: u64, y: u64) -> u128 {
            (x as u128) * (y as u128)
        }
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
    const fn square(self) -> Fe {
        let a = self.0;
        debug_assert!(self.below_2_54());
        const fn m(x: u64, y: u64) -> u128 {
            (x as u128) * (y as u128)
        }
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
    const fn square_n(mut self, n: u32) -> Fe {
        let mut i = 0;
        while i < n {
            self = self.square();
            i += 1;
        }
        self
    }

    /// Multiply by the curve constant a24 = 121665.
    #[inline]
    fn mul_small(self, k: u32) -> Fe {
        let k = k as u128;
        Fe::carry(self.0.map(|l| l as u128 * k))
    }

    /// `(self^(2^250 − 1), self^11)`: the common head of the inversion and
    /// square-root exponents, by the standard addition chain; `zA_B` below
    /// is self^(2^A − 2^B).
    const fn pow_2_250_minus_1(self) -> (Fe, Fe) {
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
        (z250_0, z11)
    }

    /// Inversion by Fermat's little theorem: self^(p-2) = self^(2^255 - 21),
    /// 254 squarings and 11 multiplications (0 for 0). `const`, for the
    /// tables the compiler builds and the table builder; everything else
    /// calls [`Fe::invert`].
    const fn pow_p_minus_2(self) -> Fe {
        let (z250_0, z11) = self.pow_2_250_minus_1();
        z250_0.square_n(5).mul(z11)
    }

    /// `1/self`, and 0 for 0: [`Fe::pow_p_minus_2`], which tests count.
    fn invert(self) -> Fe {
        #[cfg(test)]
        crate::tally::inversion();
        self.pow_p_minus_2()
    }

    /// `self^((p − 5)/8) = self^(2^252 − 3)`, the exponent of a square root
    /// when p ≡ 5 (mod 8).
    const fn pow_p58(self) -> Fe {
        self.pow_2_250_minus_1().0.square_n(2).mul(self)
    }

    /// Whether the element is 0 mod p.
    fn is_zero(self) -> bool {
        self.to_bytes() == [0; 32]
    }

    /// Whether the two elements are equal mod p.
    fn equals(self, rhs: Fe) -> bool {
        self.to_bytes() == rhs.to_bytes()
    }
}

/// `√−1 = 2^((p − 1)/4)`: 2 is not a square mod p, so its `(p − 1)/2`
/// power is −1, and `(p − 1)/4 = 2·(2^252 − 3) + 1`.
const SQRT_M1: Fe = {
    let two = Fe([2, 0, 0, 0, 0]);
    two.pow_p58().square().mul(two)
};

/// A square root of `num/den` for `den ≠ 0`, or `None` when `num/den` is
/// not a square: `r = num·den³·(num·den⁷)^((p − 5)/8)` has `den·r² = ±num`,
/// and a −1 is fixed by `√−1`. Variable time: it runs on public keys only.
fn sqrt_ratio(num: Fe, den: Fe) -> Option<Fe> {
    let den3 = den.square().mul(den);
    let den7 = den3.square().mul(den);
    let r = num.mul(den3).mul(num.mul(den7).pow_p58());
    let check = den.mul(r.square());
    if check.equals(num) {
        Some(r)
    } else if check.add(num).is_zero() {
        Some(r.mul(SQRT_M1))
    } else {
        None
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

/// Constant-time conditional move: `*dst = src` where `mask` is all ones,
/// unchanged where it is zero.
#[inline]
fn cmov(mask: u64, dst: &mut Fe, src: &Fe) {
    for i in 0..5 {
        dst.0[i] ^= mask & (dst.0[i] ^ src.0[i]);
    }
}

/// Clamp a 32-byte scalar per RFC 7748.
pub fn clamp_scalar(mut scalar: [u8; 32]) -> [u8; 32] {
    scalar[0] &= 248;
    scalar[31] &= 127;
    scalar[31] |= 64;
    scalar
}

/// The Montgomery ladder: `k * u` as a projective `(X, Z)`.
#[inline]
fn ladder(k: &[u8; 32], point: &[u8; 32]) -> (Fe, Fe) {
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
    (x2, z2)
}

/// X25519 scalar multiplication: `scalar * point` on the Montgomery curve.
///
/// The scalar is clamped internally; the point is a raw u-coordinate.
pub fn x25519(scalar: &[u8; 32], point: &[u8; 32]) -> [u8; 32] {
    let (x, z) = ladder(&clamp_scalar(*scalar), point);
    x.mul(z.invert()).to_bytes()
}

/// Derive the public key for a secret scalar: `scalar * 9`, the same bytes
/// as `x25519(scalar, &BASE_POINT)`, by the fixed-base comb.
pub fn public_key(scalar: &[u8; 32]) -> [u8; 32] {
    let (num, den) = comb(&BASE_TABLE, &clamp_scalar(*scalar));
    num.mul(den.invert()).to_bytes()
}

/// `(public_key(scalar), x25519(scalar, point))` for each
/// `(scalar, point, table)` of `items`, into the same place of `out` (as
/// long as `items`), under one field inversion for all of them. Each item's second product is the ladder on `point`, or
/// the comb over `table` when the caller has one; `table` must be
/// `point`'s. Item `i`'s base comb gives `u = num/den` and its second
/// product `X/Z`; both are read off `1/(den·Z)`, and Montgomery's trick
/// gets every `1/(den_i·Z_i)` from the inverse of their product, for three
/// multiplications an item.
///
/// `den·Z` is zero only when `Z` is, that is when `scalar * point` is the
/// point at infinity. A clamped scalar is a multiple of 8 and never of the
/// large prime order, so that happens exactly when `point` has order
/// dividing 8: a property of the public input alone. Such an item leaves
/// the product, takes its own two inversions, and gets `x25519`'s
/// all-zero output.
pub(crate) fn public_keys_and_x25519s(
    items: &[([u8; 32], &[u8; 32], Option<&RecipientTable>)],
    out: &mut [([u8; 32], [u8; 32])],
) {
    assert_eq!(items.len(), out.len(), "one output per item");
    let products: Vec<[Fe; 4]> = items
        .iter()
        .map(|(scalar, point, table)| {
            let k = clamp_scalar(*scalar);
            let (num, den) = comb(&BASE_TABLE, &k);
            let (x, z) = match table {
                Some(table) => comb(&table.rows, &k),
                None => ladder(&k, point),
            };
            [num, den, x, z]
        })
        .collect();
    // `before[i]`: the product of the invertible `den·Z` ahead of item i,
    // and item i's own `den·Z` when it is invertible.
    let mut before = Vec::with_capacity(products.len());
    let mut product = Fe::ONE;
    for &[_, den, _, z] in &products {
        let den_z = den.mul(z);
        let own = (!den_z.is_zero()).then_some(den_z);
        before.push((product, own));
        if let Some(den_z) = own {
            product = product.mul(den_z);
        }
    }
    // Walk back: `inv` is the inverse of `before[i].0 · den_i·Z_i` on
    // entry to an invertible item i.
    let mut inv = product.invert();
    for (i, &[num, den, x, z]) in products.iter().enumerate().rev() {
        let (ahead, own) = before[i];
        out[i] = match own {
            Some(den_z) => {
                let inv_i = inv.mul(ahead);
                inv = inv.mul(den_z);
                (
                    num.mul(z).mul(inv_i).to_bytes(),
                    x.mul(den).mul(inv_i).to_bytes(),
                )
            }
            None => (
                num.mul(den.invert()).to_bytes(),
                x.mul(z.invert()).to_bytes(),
            ),
        };
    }
}

/// `d` of the twisted Edwards curve `−x² + y² = 1 + d·x²·y²` that
/// Curve25519 maps to (RFC 7748 §4.1), `d = −121665/121666`; a point's
/// u-coordinate is `(1 + y)/(1 − y)`.
const D: Fe = Fe::ZERO
    .sub(Fe([121665, 0, 0, 0, 0]))
    .mul(Fe([121666, 0, 0, 0, 0]).pow_p_minus_2());

/// `2d`, as the addition formulas take it.
const D2: Fe = D.add(D);

/// A point of that curve in extended coordinates: `x = X/Z`, `y = Y/Z`,
/// `x·y = T/Z`.
#[derive(Clone, Copy)]
struct EdPoint {
    x: Fe,
    y: Fe,
    z: Fe,
    t: Fe,
}

/// An affine point as the comb adds it, `(y + x, y − x, 2d·x·y)` (ref10's
/// `ge_precomp`).
#[derive(Clone, Copy)]
struct Precomp {
    y_plus_x: Fe,
    y_minus_x: Fe,
    xy2d: Fe,
}

impl Precomp {
    const IDENTITY: Precomp = Precomp {
        y_plus_x: Fe::ONE,
        y_minus_x: Fe::ONE,
        xy2d: Fe::ZERO,
    };
}

impl EdPoint {
    const IDENTITY: EdPoint = EdPoint {
        x: Fe::ZERO,
        y: Fe::ONE,
        z: Fe::ONE,
        t: Fe::ZERO,
    };

    /// The base point u = 9: `y = (u − 1)/(u + 1) = 4/5`, and `x` the even
    /// root, 0x216936d3cd6e53fec0a4e231fdd6dc5c692cc7609525a7b2c9562d608f25d51a.
    const BASE: EdPoint = {
        let x = Fe([
            1738742601995546,
            1146398526822698,
            2070867633025821,
            562264141797630,
            587772402128613,
        ]);
        let y = Fe([4, 0, 0, 0, 0]).mul(Fe([5, 0, 0, 0, 0]).pow_p_minus_2());
        EdPoint {
            x,
            y,
            z: Fe::ONE,
            t: x.mul(y),
        }
    };

    /// A point with u-coordinate `u`: `y = (u − 1)/(u + 1)`, and `x` a root
    /// of `x² = (y² − 1)/(d·y² + 1)`, whose denominator never vanishes
    /// because `d` is not a square. `None` for `u = −1`, which has no
    /// affine image, and for a `u` on the quadratic twist, where that ratio
    /// is not a square. Either root will do: `u(−Q) = u(Q)`, so the comb
    /// gives the ladder's u-coordinate from both. Variable time: `u` is
    /// public.
    fn from_u(point: &[u8; 32]) -> Option<EdPoint> {
        let u = Fe::from_bytes(point);
        let u_plus_1 = u.add(Fe::ONE);
        if u_plus_1.is_zero() {
            return None;
        }
        let y = u.sub(Fe::ONE).mul(u_plus_1.invert());
        let yy = y.square();
        let x = sqrt_ratio(yy.sub(Fe::ONE), D.mul(yy).add(Fe::ONE))?;
        Some(EdPoint {
            x,
            y,
            z: Fe::ONE,
            t: x.mul(y),
        })
    }

    /// `self + q`, given `q` as `(Y + X, Y − X, 2d·T)` and `zz2 = 2·Z·Z_q`
    /// (Hisil–Wong–Carter–Dawson's "add-2008-hwcd-3").
    #[inline]
    const fn add_parts(self, y_plus_x: Fe, y_minus_x: Fe, t2d: Fe, zz2: Fe) -> EdPoint {
        let a = self.y.sub(self.x).mul(y_minus_x);
        let b = self.y.add(self.x).mul(y_plus_x);
        let c = self.t.mul(t2d);
        let e = b.sub(a);
        let f = zz2.sub(c);
        let g = zz2.add(c);
        let h = b.add(a);
        EdPoint {
            x: e.mul(f),
            y: g.mul(h),
            z: f.mul(g),
            t: e.mul(h),
        }
    }

    /// `self + q` for an affine `q` (ref10's `ge_madd`).
    #[inline]
    const fn add_precomp(self, q: &Precomp) -> EdPoint {
        self.add_parts(q.y_plus_x, q.y_minus_x, q.xy2d, self.z.add(self.z))
    }

    /// `self + q`. With `a = −1` a square and `d` not, the formula is
    /// complete on the whole curve, so this also doubles, and it adds a
    /// recipient's points of small order too.
    const fn add(self, q: EdPoint) -> EdPoint {
        let zz = self.z.mul(q.z);
        self.add_parts(q.y.add(q.x), q.y.sub(q.x), q.t.mul(D2), zz.add(zz))
    }
}

/// The comb table of `base` with `ROWS` rows: entry `[i][j]` is
/// `(j + 1)·16^(n·i)·base`, where `n = 64/ROWS` is the number of scalar
/// digits each row serves.
///
/// A row is seven additions, then (but for the last row) `4n − 3`
/// doublings of its eighth entry to reach the next row's `16^n·base`. The
/// `8·ROWS` affine conversions share one inversion (Montgomery's trick);
/// with one inversion each, the base table took ~5.5 s of compile time
/// where it now takes ~0.7 s.
const fn comb_table<const ROWS: usize>(base: EdPoint) -> [[Precomp; 8]; ROWS] {
    let doublings = 4 * (64 / ROWS) - 3;
    let mut points = [[EdPoint::IDENTITY; 8]; ROWS];
    let mut row_base = base;
    let mut i = 0;
    while i < ROWS {
        let mut acc = row_base;
        let mut j = 0;
        while j < 8 {
            points[i][j] = acc;
            acc = acc.add(row_base);
            j += 1;
        }
        if i + 1 < ROWS {
            row_base = points[i][7];
            let mut n = 0;
            while n < doublings {
                row_base = row_base.add(row_base);
                n += 1;
            }
        }
        i += 1;
    }

    // prefix[i][j] is the product of the Z's up to and including
    // points[i][j], in row-major order.
    let mut prefix = [[Fe::ONE; 8]; ROWS];
    let mut product = Fe::ONE;
    let mut n = 0;
    while n < 8 * ROWS {
        product = product.mul(points[n / 8][n % 8].z);
        prefix[n / 8][n % 8] = product;
        n += 1;
    }
    // Walk back: `inv` is the inverse of prefix at n on entry to step n.
    let mut inv = product.pow_p_minus_2();
    let mut table = [[Precomp::IDENTITY; 8]; ROWS];
    let mut n = 8 * ROWS;
    while n > 0 {
        n -= 1;
        let p = points[n / 8][n % 8];
        let z_inv = if n > 0 {
            inv.mul(prefix[(n - 1) / 8][(n - 1) % 8])
        } else {
            inv
        };
        inv = inv.mul(p.z);
        let x = p.x.mul(z_inv);
        let y = p.y.mul(z_inv);
        table[n / 8][n % 8] = Precomp {
            y_plus_x: y.add(x),
            y_minus_x: y.sub(x),
            xy2d: x.mul(y).mul(D2),
        };
    }
    table
}

/// The base point's comb table: 32 rows of 8 multiples, 30 KB of
/// read-only data, rows 256 apart.
///
/// The compiler builds it from `EdPoint::BASE` with the field arithmetic
/// above, so nothing is computed when a process starts. The deny-by-default
/// lint on long constant evaluation is allowed here so that a slower
/// evaluator cannot turn the table into a build error.
#[allow(long_running_const_eval)]
static BASE_TABLE: [[Precomp; 8]; 32] = comb_table(EdPoint::BASE);

/// Rows of a [`RecipientTable`]. Eight rows are 7.7 KB and a comb of 64
/// additions and 28 doublings, about half a ladder, for a build of about
/// 1.6 ladders. Sixteen or 32 rows would save 3–4 µs more per use but cost
/// 2 or 4 times the memory and 35–70 % more to build (PERFORMANCE.md §1).
const RECIPIENT_ROWS: usize = 8;

/// A public key's own comb table, so that a Diffie–Hellman with it runs
/// the comb instead of the ladder. Worth building for a key sealed to
/// more than once: the build costs about 1.6 ladders, a use about half of
/// one.
pub struct RecipientTable {
    /// The u-coordinate the table was built from, as given.
    point: [u8; 32],
    rows: [[Precomp; 8]; RECIPIENT_ROWS],
}

impl RecipientTable {
    /// The table of `point`, or `None` when `point` has no twisted Edwards
    /// image (u = −1, or a u on the quadratic twist): Diffie–Hellman with
    /// such a key stays on the ladder.
    pub fn new(point: &[u8; 32]) -> Option<RecipientTable> {
        Some(RecipientTable {
            point: *point,
            rows: comb_table(EdPoint::from_u(point)?),
        })
    }

    /// The u-coordinate the table belongs to.
    pub(crate) fn point(&self) -> &[u8; 32] {
        &self.point
    }
}

/// `|digit|·P` from the comb row `row` of multiples `P, 2P, …, 8P`,
/// negated when `digit` is negative, for `digit` ∈ [−8, 8] (0 gives the
/// identity).
#[inline]
fn select(row: &[Precomp; 8], digit: i8) -> Precomp {
    let sign = digit >> 7; // 0 or −1
    let abs = ((digit ^ sign) - sign) as u64;
    let mut t = Precomp::IDENTITY;
    for (j, entry) in (1u64..).zip(row) {
        // All ones exactly when abs == j.
        let mask = ((abs ^ j).wrapping_sub(1) >> 63).wrapping_neg();
        #[cfg(test)]
        tests::record(tests::Access::Move(entry as *const Precomp as usize));
        cmov(mask, &mut t.y_plus_x, &entry.y_plus_x);
        cmov(mask, &mut t.y_minus_x, &entry.y_minus_x);
        cmov(mask, &mut t.xy2d, &entry.xy2d);
    }
    // −(x, y) = (−x, y): swap y + x with y − x, negate 2d·x·y.
    let negative = (sign as u64) & 1;
    #[cfg(test)]
    tests::record(tests::Access::Negate(row.as_ptr() as usize));
    cswap(negative, &mut t.y_plus_x, &mut t.y_minus_x);
    let minus_xy2d = Fe::ZERO.sub(t.xy2d);
    cmov(negative.wrapping_neg(), &mut t.xy2d, &minus_xy2d);
    t
}

/// `k·P` for a clamped scalar `k` and the comb table of `P`, as the
/// u-coordinate's numerator and denominator `(Z + Y, Z − Y)`: ref10's
/// `ge_scalarmult_base`, generalised to `ROWS` rows.
///
/// `k` is recoded into 64 signed radix-16 digits `e[i]` ∈ [−8, 8], so
/// `k = Σ e[i]·16^i`. Row `r` holds the multiples of `16^(n·r)·P` for
/// `n = 64/ROWS` and serves digits `n·r .. n·r + n`, so
/// `k·P = Σ_s 16^s·Σ_r e[n·r + s]·16^(n·r)·P`: `n` passes of `ROWS` table
/// additions, Horner's rule over `s` with four doublings between passes.
/// The base table's 32 rows make that 2 passes and 4 doublings, a
/// recipient's 8 rows 8 passes and 28.
///
/// Constant time: the recoding is arithmetic on every digit, with no branch;
/// which row is read is the loop index, never a digit; `select` reads all
/// eight entries of its row and keeps one under a mask, and applies a
/// negative digit by a masked swap and a masked move. The same field
/// operations touch the same addresses whatever the scalar.
fn comb<const ROWS: usize>(table: &[[Precomp; 8]; ROWS], k: &[u8; 32]) -> (Fe, Fe) {
    let mut e = [0i8; 64];
    for (i, byte) in k.iter().enumerate() {
        e[2 * i] = (byte & 15) as i8;
        e[2 * i + 1] = (byte >> 4) as i8;
    }
    // Digits to [−8, 8): push 8..=15 up into the next digit. A clamped
    // scalar is below 2^255, so the top digit ends at most 8.
    let mut carry = 0i8;
    for digit in &mut e[..63] {
        *digit += carry;
        carry = (*digit + 8) >> 4;
        *digit -= carry << 4;
    }
    e[63] += carry;

    let per_row = 64 / ROWS;
    let mut h = EdPoint::IDENTITY;
    for s in (0..per_row).rev() {
        if s + 1 < per_row {
            for _ in 0..4 {
                h = h.add(h);
            }
        }
        for (row, digits) in table.iter().zip(e.chunks_exact(per_row)) {
            h = h.add_precomp(&select(row, digits[s]));
        }
    }
    (h.z.add(h.y), h.z.sub(h.y))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    /// What `select` touched, in order: each entry it read under a mask
    /// (its address), and each row whose selection it negated under a mask.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub(super) enum Access {
        Move(usize),
        Negate(usize),
    }

    thread_local! {
        static ACCESSES: RefCell<Option<Vec<Access>>> = const { RefCell::new(None) };
    }

    /// Log `access` while `accesses` is recording on this thread.
    pub(super) fn record(access: Access) {
        ACCESSES.with(|log| {
            if let Some(log) = log.borrow_mut().as_mut() {
                log.push(access);
            }
        });
    }

    /// What `select` touched while `run` ran.
    fn accesses(run: impl FnOnce()) -> Vec<Access> {
        ACCESSES.with(|log| *log.borrow_mut() = Some(Vec::new()));
        run();
        ACCESSES
            .with(|log| log.borrow_mut().take())
            .unwrap_or_default()
    }

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

    /// The scalars where the comb's recoding can go wrong: all-zero and
    /// all-ones before clamping, and each single bit.
    fn edge_scalars() -> Vec<[u8; 32]> {
        let mut scalars = vec![[0u8; 32], [0xff; 32]];
        for bit in 0..256 {
            let mut scalar = [0u8; 32];
            scalar[bit / 8] = 1 << (bit % 8);
            scalars.push(scalar);
        }
        scalars
    }

    /// The comb against the ladder on 9, which `public_key` ran before it.
    fn assert_comb_is_ladder(scalars: impl IntoIterator<Item = [u8; 32]>) {
        for scalar in scalars {
            assert_eq!(
                public_key(&scalar),
                x25519(&scalar, &BASE_POINT),
                "scalar {}",
                hex(&scalar)
            );
        }
    }

    #[test]
    fn comb_equals_ladder_on_base_point() {
        assert_comb_is_ladder(edge_scalars());
        let mut state = 9;
        assert_comb_is_ladder((0..2_000).map(|_| random_bytes32(&mut state)));
    }

    #[test]
    #[ignore = "10^5 ladders; CI runs it in release"]
    fn comb_equals_ladder_on_base_point_100000() {
        let mut state = 0x5eed;
        assert_comb_is_ladder((0..100_000).map(|_| random_bytes32(&mut state)));
    }

    #[test]
    fn edwards_base_point_maps_to_9() {
        let EdPoint { x, y, z, t } = EdPoint::BASE;
        assert_eq!(z.to_bytes(), Fe::ONE.to_bytes());
        assert_eq!(t.to_bytes(), x.mul(y).to_bytes());
        // On −x² + y² = 1 + d·x²·y², doubled: 2·(y² − x² − 1) = 2d·x²·y².
        let (xx, yy) = (x.square(), y.square());
        let lhs = yy.sub(xx).sub(Fe::ONE);
        assert_eq!(lhs.add(lhs).to_bytes(), D2.mul(xx).mul(yy).to_bytes());
        // d = −121665/121666.
        let d = Fe::ZERO.sub(Fe([121665, 0, 0, 0, 0]));
        assert_eq!(
            D2.mul(Fe([121666, 0, 0, 0, 0])).to_bytes(),
            d.add(d).to_bytes()
        );
        // The even root, and u = (1 + y)/(1 − y) = 9.
        assert_eq!(x.to_bytes()[0] & 1, 0);
        let u = Fe::ONE.add(y).mul(Fe::ONE.sub(y).invert());
        assert_eq!(u.to_bytes(), BASE_POINT);
        // Decoding u = 9 gives B or −B.
        let decoded = EdPoint::from_u(&BASE_POINT).unwrap();
        assert!(decoded.y.equals(y) && decoded.x.square().equals(x.square()));
        // The table's first entry is B itself.
        let entry = BASE_TABLE[0][0];
        assert_eq!(entry.y_plus_x.to_bytes(), y.add(x).to_bytes());
        assert_eq!(entry.y_minus_x.to_bytes(), y.sub(x).to_bytes());
        assert_eq!(entry.xy2d.to_bytes(), x.mul(y).mul(D2).to_bytes());
    }

    /// `(public_key(scalar), x25519(scalar, point))` under one inversion:
    /// what a seal computed before an onion's layers were batched, and the
    /// reference `public_keys_and_x25519s` is held to item by item.
    fn public_key_and_x25519(
        scalar: &[u8; 32],
        point: &[u8; 32],
        table: Option<&RecipientTable>,
    ) -> ([u8; 32], [u8; 32]) {
        let k = clamp_scalar(*scalar);
        let (num, den) = comb(&BASE_TABLE, &k);
        let (x, z) = match table {
            Some(table) => comb(&table.rows, &k),
            None => ladder(&k, point),
        };
        let den_z = den.mul(z);
        if den_z.is_zero() {
            return (
                num.mul(den.invert()).to_bytes(),
                x.mul(z.invert()).to_bytes(),
            );
        }
        let inv = den_z.invert();
        (
            num.mul(z).mul(inv).to_bytes(),
            x.mul(den).mul(inv).to_bytes(),
        )
    }

    /// u = 0 (order 2), u = 1 (order 4) and a point of order 8: every
    /// clamped scalar sends them to the point at infinity.
    fn low_order_points() -> [[u8; 32]; 3] {
        let order_8 = unhex32("e0eb7a7c3b41b8ae1656e3faf19fc46ada098deb9c32b1fd866205165f49b800");
        let mut one = [0u8; 32];
        one[0] = 1;
        [[0u8; 32], one, order_8]
    }

    #[test]
    fn one_inversion_equals_two() {
        let low_order = low_order_points();
        let mut state = 30;
        let mut cases: Vec<([u8; 32], [u8; 32])> = Vec::new();
        for peer in low_order.into_iter().chain([BASE_POINT]) {
            cases.extend(edge_scalars().into_iter().map(|scalar| (scalar, peer)));
        }
        for _ in 0..256 {
            cases.push((random_bytes32(&mut state), random_bytes32(&mut state)));
        }
        for (scalar, peer) in cases {
            let shared = x25519(&scalar, &peer);
            assert_eq!(
                public_key_and_x25519(&scalar, &peer, None),
                (public_key(&scalar), shared),
                "scalar {} peer {}",
                hex(&scalar),
                hex(&peer)
            );
            assert_eq!(shared == [0; 32], low_order.contains(&peer));
        }
    }

    /// Whether `u` is the u-coordinate of a point on Curve25519 rather than
    /// on its twist: `u³ + 486662·u² + u` is 0 or a square (Euler's
    /// criterion, its `(p − 1)/2 = 4·(2^252 − 3) + 2` power is not −1).
    fn on_curve(u: &[u8; 32]) -> bool {
        let u = Fe::from_bytes(u);
        let f = u.square().mul(u).add(u.square().mul_small(486662)).add(u);
        let legendre = f.pow_p58().square_n(2).mul(f.square());
        !legendre.equals(Fe::ZERO.sub(Fe::ONE))
    }

    /// `public_keys_and_x25519s` into a fresh vector.
    fn batch(
        items: &[([u8; 32], &[u8; 32], Option<&RecipientTable>)],
    ) -> Vec<([u8; 32], [u8; 32])> {
        let mut out = vec![([0; 32], [0; 32]); items.len()];
        public_keys_and_x25519s(items, &mut out);
        out
    }

    /// u = −1, which has no Edwards image, and the smallest u on the twist:
    /// keys without a table.
    fn tableless_points() -> [[u8; 32]; 2] {
        let mut minus_one = [0xffu8; 32];
        minus_one[0] = 0xec;
        minus_one[31] = 0x7f;
        let twist = (2u8..)
            .map(|n| {
                let mut u = [0u8; 32];
                u[0] = n;
                u
            })
            .find(|u| !on_curve(u))
            .unwrap();
        [minus_one, twist]
    }

    /// Random onions of 1 to 8 layers, `layers` layers in all, each
    /// batched and held to `public_key_and_x25519` item by item. A layer's
    /// key is one of 24 random keys, with its table on about half the
    /// layers that draw it, or, in every fourth onion, also one of the
    /// low-order and tableless points; every onion also runs with no table
    /// at all. Returns how many layers had a table, a low-order key and a
    /// tableless key.
    fn assert_batches_are_items(seed: u64, layers: usize) -> [usize; 3] {
        let mut state = seed;
        let keys: Vec<([u8; 32], RecipientTable)> = (0..24)
            .map(|_| {
                let point = public_key(&random_bytes32(&mut state));
                (point, RecipientTable::new(&point).unwrap())
            })
            .collect();
        let low_order = low_order_points();
        let odd: Vec<([u8; 32], Option<RecipientTable>)> = low_order
            .into_iter()
            .chain(tableless_points())
            .map(|u| (u, RecipientTable::new(&u)))
            .collect();
        let mut seen = [0; 3];
        let mut done = 0;
        for case in 0.. {
            let n = (1 + splitmix64(&mut state) % 8) as usize;
            if done + n > layers {
                break;
            }
            done += n;
            let items: Vec<([u8; 32], &[u8; 32], Option<&RecipientTable>)> = (0..n)
                .map(|_| {
                    let pick = splitmix64(&mut state) as usize;
                    let scalar = random_bytes32(&mut state);
                    if case % 4 == 3 && pick.is_multiple_of(3) {
                        let (point, table) = &odd[pick / 3 % odd.len()];
                        (scalar, point, table.as_ref())
                    } else {
                        let (point, table) = &keys[pick / 3 % keys.len()];
                        (
                            scalar,
                            point,
                            (pick / 96).is_multiple_of(2).then_some(table),
                        )
                    }
                })
                .collect();
            let tableless: Vec<_> = items.iter().map(|&(k, u, _)| (k, u, None)).collect();
            for items in [&items, &tableless] {
                let expected: Vec<_> = items
                    .iter()
                    .map(|(k, u, table)| public_key_and_x25519(k, u, *table))
                    .collect();
                assert_eq!(batch(items), expected, "case {case}");
            }
            for (_, u, table) in &items {
                seen[0] += usize::from(table.is_some());
                seen[1] += usize::from(low_order.contains(u));
                seen[2] += usize::from(tableless_points().contains(u));
            }
        }
        seen
    }

    #[test]
    fn batched_products_equal_one_at_a_time() {
        let [tables, low_order, tableless] = assert_batches_are_items(0xba7c, 2_000);
        assert!(tables > 600 && low_order > 20 && tableless > 15);
        // The empty batch.
        assert!(batch(&[]).is_empty());
    }

    #[test]
    #[ignore = "10^5 layers; CI runs it in release"]
    fn batched_products_equal_one_at_a_time_100000() {
        assert_batches_are_items(0x5eedba7c, 100_000);
    }

    #[test]
    fn an_onion_of_products_runs_one_inversion() {
        let mut state = 0x1a;
        let points: Vec<[u8; 32]> = (0..4)
            .map(|_| public_key(&random_bytes32(&mut state)))
            .collect();
        let table = RecipientTable::new(&points[1]).unwrap();
        let items: Vec<_> = points
            .iter()
            .enumerate()
            .map(|(i, u)| (random_bytes32(&mut state), u, (i == 1).then_some(&table)))
            .collect();
        let (inversions, _) = crate::tally::during(|| {
            batch(&items);
        });
        assert_eq!(inversions, 1);
        // A low-order layer takes its own two.
        let [_, _, order_8] = low_order_points();
        let mut with_low_order = items.clone();
        with_low_order[2].1 = &order_8;
        let (inversions, _) = crate::tally::during(|| {
            batch(&with_low_order);
        });
        assert_eq!(inversions, 3);
    }

    /// `public_key_and_x25519` over `point`'s table equals the public key
    /// and the ladder, for each scalar.
    fn assert_recipient_comb_is_ladder(
        point: &[u8; 32],
        table: &RecipientTable,
        scalars: impl IntoIterator<Item = [u8; 32]>,
    ) {
        assert_eq!(table.point(), point);
        for scalar in scalars {
            assert_eq!(
                public_key_and_x25519(&scalar, point, Some(table)),
                (public_key(&scalar), x25519(&scalar, point)),
                "scalar {} point {}",
                hex(&scalar),
                hex(point)
            );
        }
    }

    #[test]
    fn sqrt_m1_squares_to_minus_one() {
        assert!(SQRT_M1.square().equals(Fe::ZERO.sub(Fe::ONE)));
        // And a root of 4/9 is ±2/3.
        let r = sqrt_ratio(Fe([4, 0, 0, 0, 0]), Fe([9, 0, 0, 0, 0])).unwrap();
        assert!(r
            .mul(Fe([3, 0, 0, 0, 0]))
            .square()
            .equals(Fe([4, 0, 0, 0, 0])));
        // 2 is not a square mod p.
        assert!(sqrt_ratio(Fe([2, 0, 0, 0, 0]), Fe::ONE).is_none());
    }

    #[test]
    fn recipient_comb_equals_ladder_at_edge_points() {
        let [zero, one, order_8] = low_order_points();
        let p_plus = |n: u8| {
            let mut u = [0xffu8; 32];
            u[0] = 0xed + n; // p = 2^255 - 19 => low byte 0xed
            u[31] = 0x7f;
            u
        };
        let mut minus_one = p_plus(0);
        minus_one[0] = 0xec;
        let mut state = 0x0e;
        let mut top_bit = public_key(&random_bytes32(&mut state));
        top_bit[31] |= 0x80;
        let twist = (2u8..)
            .map(|n| {
                let mut u = [0u8; 32];
                u[0] = n;
                u
            })
            .find(|u| !on_curve(u))
            .unwrap();

        let mut scalars = edge_scalars();
        scalars.extend((0..32).map(|_| random_bytes32(&mut state)));
        for point in [zero, one, order_8, p_plus(0), p_plus(1), top_bit] {
            let table = RecipientTable::new(&point).expect("on the curve, not u = -1");
            assert_recipient_comb_is_ladder(&point, &table, scalars.iter().copied());
        }
        // u = −1 and the twist point take the ladder.
        assert!(RecipientTable::new(&minus_one).is_none());
        assert!(!on_curve(&twist) && RecipientTable::new(&twist).is_none());
        // The low-order points' products are all zero through the table.
        for point in [zero, one, order_8] {
            let table = RecipientTable::new(&point).unwrap();
            let (_, shared) = public_key_and_x25519(&scalars[40], &point, Some(&table));
            assert_eq!(shared, [0; 32]);
        }
    }

    /// `keys` random public keys, each against `per_key` random scalars.
    fn assert_recipient_comb_is_ladder_on_random_keys(seed: u64, keys: usize, per_key: usize) {
        let mut state = seed;
        for _ in 0..keys {
            let point = public_key(&random_bytes32(&mut state));
            let table = RecipientTable::new(&point).expect("a public key is on the curve");
            let scalars: Vec<[u8; 32]> = (0..per_key).map(|_| random_bytes32(&mut state)).collect();
            assert_recipient_comb_is_ladder(&point, &table, scalars);
        }
    }

    #[test]
    fn recipient_comb_equals_ladder_on_random_keys() {
        assert_recipient_comb_is_ladder_on_random_keys(0x7ab1e, 100, 20);
    }

    #[test]
    #[ignore = "10^5 ladders; CI runs it in release"]
    fn recipient_comb_equals_ladder_on_random_keys_100000() {
        assert_recipient_comb_is_ladder_on_random_keys(0x5eed7ab1e, 1_000, 100);
    }

    #[test]
    fn a_random_u_decodes_exactly_when_it_is_on_the_curve() {
        let mut state = 200;
        let mut decoded = 0;
        for _ in 0..200 {
            let point = random_bytes32(&mut state);
            let table = RecipientTable::new(&point);
            assert_eq!(table.is_some(), on_curve(&point), "u {}", hex(&point));
            if let Some(table) = table {
                decoded += 1;
                assert_recipient_comb_is_ladder(&point, &table, [random_bytes32(&mut state)]);
            }
        }
        // About half of all u are on the twist.
        assert!((60..140).contains(&decoded), "{decoded} of 200 decoded");
    }

    #[test]
    fn comb_accesses_do_not_depend_on_the_scalar() {
        let mut state = 0xc7;
        let mut scalars = edge_scalars();
        scalars.extend((0..256).map(|_| random_bytes32(&mut state)));
        let recipient = RecipientTable::new(&public_key(&random_bytes32(&mut state))).unwrap();

        /// Every pass reads every entry of every row, in order, and
        /// applies each row's negation.
        fn expected<const ROWS: usize>(table: &[[Precomp; 8]; ROWS]) -> Vec<Access> {
            let pass = table.iter().flat_map(|row| {
                row.iter()
                    .map(|entry| Access::Move(entry as *const Precomp as usize))
                    .chain([Access::Negate(row.as_ptr() as usize)])
            });
            pass.cycle().take(64 * 9).collect()
        }
        let base = expected(&BASE_TABLE);
        let own = expected(&recipient.rows);
        for &scalar in &scalars {
            let k = clamp_scalar(scalar);
            let base_run = accesses(|| {
                let _ = comb(&BASE_TABLE, &k);
            });
            assert_eq!(base_run, base, "{}", hex(&k));
            let own_run = accesses(|| {
                let _ = comb(&recipient.rows, &k);
            });
            assert_eq!(own_run, own, "{}", hex(&k));
        }

        // A batched onion of four layers, the second and fourth through
        // the recipient's table: per layer the base comb's accesses, then
        // the table's where it has one, whatever the four scalars.
        let point = *recipient.point();
        let expected: Vec<Access> = (0..4)
            .flat_map(|i| [&base[..], if i % 2 == 1 { &own[..] } else { &[] }].concat())
            .collect();
        for four in scalars.chunks_exact(4) {
            let items: Vec<_> = (0..4)
                .map(|i| (four[i], &point, (i % 2 == 1).then_some(&recipient)))
                .collect();
            let run = accesses(|| {
                batch(&items);
            });
            assert_eq!(run, expected, "{}", hex(&four[0]));
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
