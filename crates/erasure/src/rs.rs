//! Systematic Reed–Solomon coding at the shard level.
//!
//! A [`ReedSolomon`] instance for parameters `(m, n)` maps `m` equal-length
//! data shards to `n` coded shards such that any `m` of the `n` reconstruct
//! the originals (an MDS code). The code is *systematic*: shards `0..m` are
//! the data shards verbatim; shards `m..n` are parity.
//!
//! Construction follows the classic extended-Vandermonde recipe: take the
//! `n x m` Vandermonde matrix `V`, and use `G = V * (V_top)^-1` as generator,
//! where `V_top` is the top `m x m` square. `G`'s top square is the identity
//! (systematic) and every `m x m` row-submatrix of `G` remains invertible
//! because row operations on the right preserve the MDS property.

use crate::gf256;
use crate::matrix::Matrix;
use crate::ErasureError;

/// A systematic `(m, n)` Reed–Solomon erasure code over GF(2^8).
///
/// ```
/// use erasure::rs::ReedSolomon;
/// let rs = ReedSolomon::new(2, 5).unwrap();
/// let data = vec![vec![1u8, 2, 3], vec![4, 5, 6]];
/// let coded = rs.encode(&data).unwrap();
/// // Lose three arbitrary shards; any two reconstruct the data.
/// let survivors = [(4usize, coded[4].as_slice()), (1, coded[1].as_slice())];
/// assert_eq!(rs.reconstruct(&survivors).unwrap(), data);
/// ```
#[derive(Clone, Debug)]
pub struct ReedSolomon {
    m: usize,
    n: usize,
    /// `n x m` systematic generator matrix.
    generator: Matrix,
}

impl ReedSolomon {
    /// Create a code where any `m` of `n` shards reconstruct the data.
    ///
    /// Requires `1 <= m <= n <= 255` (GF(2^8) supports at most 255
    /// evaluation points with the extended-Vandermonde construction).
    pub fn new(m: usize, n: usize) -> Result<Self, ErasureError> {
        if m == 0 || n < m || n > gf256::GROUP_ORDER {
            return Err(ErasureError::InvalidParameters { m, n });
        }
        let vand = Matrix::vandermonde(n, m);
        let top = vand.select_rows(&(0..m).collect::<Vec<_>>());
        // The top m x m Vandermonde over points 0..m is invertible because
        // the points are distinct; `SingularMatrix` here would be a bug in
        // `Matrix`, reported rather than panicked on.
        let top_inv = top.inverse()?;
        let generator = vand.mul(&top_inv);
        Ok(ReedSolomon { m, n, generator })
    }

    /// Shards required to reconstruct.
    pub fn data_shards(&self) -> usize {
        self.m
    }

    /// Total shards produced.
    pub fn total_shards(&self) -> usize {
        self.n
    }

    /// Borrow the systematic generator matrix (top `m` rows are identity).
    pub fn generator(&self) -> &Matrix {
        &self.generator
    }

    /// Encode `m` equal-length data shards into `n` coded shards.
    ///
    /// The first `m` output shards are clones of the inputs (systematic);
    /// the remaining `n - m` are parity.
    pub fn encode(&self, data: &[Vec<u8>]) -> Result<Vec<Vec<u8>>, ErasureError> {
        if data.len() != self.m {
            return Err(ErasureError::NotEnoughSegments {
                have: data.len(),
                need: self.m,
            });
        }
        let len = data[0].len();
        if data.iter().any(|d| d.len() != len) {
            return Err(ErasureError::LengthMismatch);
        }
        let mut out = data.to_vec();
        for row in self.m..self.n {
            let mut shard = Vec::new();
            self.parity_into(row, data.iter().map(Vec::as_slice), &mut shard);
            out.push(shard);
        }
        Ok(out)
    }

    /// Parity shard `row` (`m <= row < n`) of the `m` equal-length data
    /// shards `data`, written into `out` (cleared first).
    pub(crate) fn parity_into<'a>(
        &self,
        row: usize,
        data: impl Iterator<Item = &'a [u8]>,
        out: &mut Vec<u8>,
    ) {
        out.clear();
        for (col, src) in data.enumerate() {
            if col == 0 {
                out.resize(src.len(), 0);
            }
            gf256::mul_acc_slice(out, src, self.generator.get(row, col));
        }
    }

    /// Reconstruct the `m` data shards from any `m` coded shards.
    ///
    /// `shards` pairs each shard with its index in the encoded output. More
    /// than `m` shards may be supplied; the first `m` distinct indices are
    /// used. (`ErasureCodec::decode` copies the message straight out of
    /// the data shards when those are the ones it has, and calls this only
    /// when one is missing.)
    pub fn reconstruct(&self, shards: &[(usize, &[u8])]) -> Result<Vec<Vec<u8>>, ErasureError> {
        // Deduplicate and validate indices, keeping first occurrence.
        let mut chosen: Vec<(usize, &[u8])> = Vec::with_capacity(self.m);
        let mut seen = vec![false; self.n];
        for &(idx, data) in shards {
            if idx >= self.n {
                return Err(ErasureError::BadIndex(idx));
            }
            if seen[idx] {
                return Err(ErasureError::DuplicateIndex(idx));
            }
            seen[idx] = true;
            if chosen.len() < self.m {
                chosen.push((idx, data));
            }
        }
        if chosen.len() < self.m {
            return Err(ErasureError::NotEnoughSegments {
                have: chosen.len(),
                need: self.m,
            });
        }
        let len = chosen[0].1.len();
        if chosen.iter().any(|(_, d)| d.len() != len) {
            return Err(ErasureError::LengthMismatch);
        }

        // Invert the m x m submatrix of the generator formed by the
        // surviving rows, then multiply by the survivors.
        let rows: Vec<usize> = chosen.iter().map(|&(idx, _)| idx).collect();
        let sub = self.generator.select_rows(&rows);
        let dec = sub.inverse()?;

        let mut out = vec![vec![0u8; len]; self.m];
        for (r, data_row) in out.iter_mut().enumerate() {
            for (c, &(_, src)) in chosen.iter().enumerate() {
                gf256::mul_acc_slice(data_row, src, dec.get(r, c));
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shards(m: usize, len: usize) -> Vec<Vec<u8>> {
        (0..m)
            .map(|i| {
                (0..len)
                    .map(|j| ((i * 131 + j * 17 + 7) % 256) as u8)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn parameters_validated() {
        assert!(ReedSolomon::new(0, 4).is_err());
        assert!(ReedSolomon::new(5, 4).is_err());
        assert!(ReedSolomon::new(1, 256).is_err());
        assert!(ReedSolomon::new(1, 1).is_ok());
        assert!(ReedSolomon::new(255, 255).is_ok());
    }

    #[test]
    fn encode_is_systematic() {
        let rs = ReedSolomon::new(4, 9).unwrap();
        let data = shards(4, 64);
        let coded = rs.encode(&data).unwrap();
        assert_eq!(coded.len(), 9);
        for i in 0..4 {
            assert_eq!(
                coded[i], data[i],
                "data shard {i} must pass through unmodified"
            );
        }
    }

    #[test]
    fn any_m_of_n_reconstructs() {
        let (m, n) = (3, 7);
        let rs = ReedSolomon::new(m, n).unwrap();
        let data = shards(m, 33);
        let coded = rs.encode(&data).unwrap();

        // Exhaustive over all C(7,3) = 35 survivor sets.
        for a in 0..n {
            for b in (a + 1)..n {
                for c in (b + 1)..n {
                    let survivors: Vec<(usize, &[u8])> =
                        vec![(a, &coded[a][..]), (b, &coded[b][..]), (c, &coded[c][..])];
                    let rec = rs.reconstruct(&survivors).unwrap();
                    assert_eq!(rec, data, "survivor set {{{a},{b},{c}}}");
                }
            }
        }
    }

    #[test]
    fn reconstruct_with_extra_shards_uses_first_m() {
        let rs = ReedSolomon::new(2, 5).unwrap();
        let data = shards(2, 16);
        let coded = rs.encode(&data).unwrap();
        let all: Vec<(usize, &[u8])> = coded.iter().enumerate().map(|(i, s)| (i, &s[..])).collect();
        assert_eq!(rs.reconstruct(&all).unwrap(), data);
    }

    #[test]
    fn reconstruct_rejects_bad_input() {
        let rs = ReedSolomon::new(2, 4).unwrap();
        let data = shards(2, 8);
        let coded = rs.encode(&data).unwrap();
        // Too few.
        assert!(matches!(
            rs.reconstruct(&[(0, &coded[0][..])]),
            Err(ErasureError::NotEnoughSegments { have: 1, need: 2 })
        ));
        // Duplicate index.
        assert!(matches!(
            rs.reconstruct(&[(1, &coded[1][..]), (1, &coded[1][..])]),
            Err(ErasureError::DuplicateIndex(1))
        ));
        // Out-of-range index.
        assert!(matches!(
            rs.reconstruct(&[(9, &coded[0][..]), (1, &coded[1][..])]),
            Err(ErasureError::BadIndex(9))
        ));
        // Ragged lengths.
        let short = &coded[0][..4];
        assert!(matches!(
            rs.reconstruct(&[(0, short), (1, &coded[1][..])]),
            Err(ErasureError::LengthMismatch)
        ));
    }

    #[test]
    fn encode_rejects_ragged_data() {
        let rs = ReedSolomon::new(2, 4).unwrap();
        let bad = vec![vec![1, 2, 3], vec![1, 2]];
        assert_eq!(rs.encode(&bad), Err(ErasureError::LengthMismatch));
    }

    #[test]
    fn replication_degenerate_case_m1() {
        // m = 1 reduces to repetition: every shard equals the data.
        let rs = ReedSolomon::new(1, 4).unwrap();
        let data = vec![vec![0xde, 0xad, 0xbe, 0xef]];
        let coded = rs.encode(&data).unwrap();
        for (i, s) in coded.iter().enumerate() {
            let rec = rs.reconstruct(&[(i, &s[..])]).unwrap();
            assert_eq!(rec, data);
        }
    }

    #[test]
    fn empty_shards_roundtrip() {
        let rs = ReedSolomon::new(3, 6).unwrap();
        let data = vec![Vec::new(), Vec::new(), Vec::new()];
        let coded = rs.encode(&data).unwrap();
        let survivors: Vec<(usize, &[u8])> =
            vec![(3, &coded[3][..]), (4, &coded[4][..]), (5, &coded[5][..])];
        assert_eq!(rs.reconstruct(&survivors).unwrap(), data);
    }
}
