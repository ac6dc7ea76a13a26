//! Pairwise latency models.
//!
//! The paper derives inter-node latencies from King measurements of 1024
//! DNS servers (average RTT 152 ms). That dataset is not redistributable,
//! so we synthesize delays with the same gross statistics: each node is
//! placed in a 2-D virtual coordinate space, one-way delay is a base
//! propagation term plus the Euclidean distance, and delays are scaled so
//! the mean RTT matches the requested target. This preserves the
//! properties the experiments depend on — heterogeneous, roughly
//! triangle-inequality-respecting delays of realistic magnitude.
//!
//! Two backends:
//!
//! * [`LatencyMatrix`] — the historical dense `n x n` matrix. O(N²)
//!   memory, one `Vec` index per query. Every committed experiment result
//!   was produced on this backend and stays byte-identical.
//! * [`ProceduralLatency`] — O(1) memory at any N: per-node coordinates
//!   and per-pair jitter are recomputed on every query from a seeded hash,
//!   so a 1M-node world costs the same few machine words as a 4-node one.
//!   The dense matrix hits an O(N²) wall at ~10k nodes (a 100k-node
//!   matrix alone would be 40 GB); this backend is what lets the `scale`
//!   experiment sweep 100k–1M nodes.
//!
//! [`Latency`] is the enum the simulation world stores: static dispatch
//! over whichever backend the topology resolved to.

use crate::node::NodeId;
use crate::time::SimDuration;
use rand::Rng;
use std::sync::Arc;

/// The paper's average round-trip time for the simulated network.
pub const PAPER_AVG_RTT_MS: f64 = 152.0;

/// Base propagation delay in model units (shared by both backends: 10% of
/// a unit-square traversal, matching [`LatencyMatrix::synthetic`]).
const BASE_DELAY: f64 = 0.1;

/// Loopback one-way delay in microseconds (both backends pin this).
const LOOPBACK_US: u32 = 50;

/// Expected Euclidean distance between two uniform points in the unit
/// square: `(2 + √2 + 5·asinh(1)) / 15`. Lets the procedural backend
/// calibrate its mean RTT analytically instead of summing N² pairs.
const MEAN_UNIT_DIST: f64 = 0.521_405_433_164_720_7;

/// Dense `n x n` one-way-delay matrix (microseconds).
#[derive(Clone)]
pub struct LatencyMatrix {
    n: usize,
    owd_us: Vec<u32>,
}

impl LatencyMatrix {
    /// Synthesize a matrix for `n` nodes with the given average RTT.
    ///
    /// Layout model: uniform points in a unit square, 10% base delay,
    /// distance-proportional remainder, ±20% per-pair jitter, then global
    /// rescale to hit the target mean exactly.
    pub fn synthetic<R: Rng>(n: usize, avg_rtt_ms: f64, rng: &mut R) -> Self {
        assert!(n >= 1, "need at least one node");
        assert!(avg_rtt_ms > 0.0, "average RTT must be positive");
        let coords: Vec<(f64, f64)> = (0..n)
            .map(|_| (rng.gen::<f64>(), rng.gen::<f64>()))
            .collect();

        let mut owd = vec![0f64; n * n];
        let mut sum = 0f64;
        let mut pairs = 0u64;
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue; // loopback set after scaling
                }
                let (xi, yi) = coords[i];
                let (xj, yj) = coords[j];
                let dist = ((xi - xj).powi(2) + (yi - yj).powi(2)).sqrt();
                let jitter = 0.8 + 0.4 * rng.gen::<f64>();
                let d = (0.1 + dist) * jitter;
                owd[i * n + j] = d;
                sum += d;
                pairs += 1;
            }
        }
        // Mean one-way delay should be half the target RTT.
        let target_owd_ms = avg_rtt_ms / 2.0;
        let scale = if pairs == 0 {
            1.0
        } else {
            target_owd_ms / (sum / pairs as f64)
        };
        let mut owd_us: Vec<u32> = owd
            .iter()
            .map(|&ms| ((ms * scale * 1000.0).round() as u32).max(1))
            .collect();
        for i in 0..n {
            owd_us[i * n + i] = 50; // loopback: fixed 50 µs, unscaled
        }
        LatencyMatrix { n, owd_us }
    }

    /// Build a matrix from *relative* one-way delays: `rel` is row-major
    /// `n x n`, off-diagonal entries are positive unitless weights, and the
    /// whole matrix is rescaled so the mean RTT over ordered pairs equals
    /// `avg_rtt_ms` (diagonal entries are ignored; loopback is pinned to
    /// the same 50 µs as [`LatencyMatrix::synthetic`]). This is how graph
    /// topologies (hop-distance based) produce calibrated matrices.
    pub fn from_relative(n: usize, rel: &[f64], avg_rtt_ms: f64) -> Self {
        assert_eq!(rel.len(), n * n, "relative matrix must be n x n");
        assert!(avg_rtt_ms > 0.0, "average RTT must be positive");
        let mut sum = 0f64;
        let mut pairs = 0u64;
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    let d = rel[i * n + j];
                    assert!(d > 0.0, "relative delay ({i},{j}) must be positive");
                    sum += d;
                    pairs += 1;
                }
            }
        }
        let target_owd_ms = avg_rtt_ms / 2.0;
        let scale = if pairs == 0 {
            1.0
        } else {
            target_owd_ms / (sum / pairs as f64)
        };
        let mut owd_us: Vec<u32> = rel
            .iter()
            .map(|&d| ((d * scale * 1000.0).round() as u32).max(1))
            .collect();
        for i in 0..n {
            owd_us[i * n + i] = 50;
        }
        LatencyMatrix { n, owd_us }
    }

    /// Constant-delay matrix (testing and analytic experiments).
    pub fn uniform(n: usize, owd: SimDuration) -> Self {
        let us = u32::try_from(owd.as_micros()).expect("delay too large");
        LatencyMatrix {
            n,
            owd_us: vec![us; n * n],
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the matrix is empty (it never is; see [`Self::len`]).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// One-way delay from `a` to `b`.
    #[inline]
    pub fn owd(&self, a: NodeId, b: NodeId) -> SimDuration {
        SimDuration(self.owd_us[a.index() * self.n + b.index()] as u64)
    }

    /// Borrowed view of source `a`'s row, for fan-out loops that query
    /// many destinations from one fixed source.
    ///
    /// Resolves the row slice once, so each per-destination lookup is a
    /// single bounds-checked index instead of recomputing
    /// `a.index() * n + b.index()` against the full backing vector.
    ///
    /// ```
    /// use simnet::{LatencyMatrix, NodeId, SimDuration};
    ///
    /// let m = LatencyMatrix::uniform(4, SimDuration::from_millis(5));
    /// let row = m.row(NodeId(1));
    /// for j in 0..4u32 {
    ///     assert_eq!(row.owd(NodeId(j)), m.owd(NodeId(1), NodeId(j)));
    /// }
    /// ```
    #[inline]
    pub fn row(&self, a: NodeId) -> LatencyRow<'_> {
        let start = a.index() * self.n;
        LatencyRow {
            owd_us: &self.owd_us[start..start + self.n],
        }
    }

    /// Round-trip time between `a` and `b`.
    pub fn rtt(&self, a: NodeId, b: NodeId) -> SimDuration {
        self.owd(a, b) + self.owd(b, a)
    }

    /// Mean RTT over all ordered pairs of distinct nodes, in milliseconds.
    pub fn mean_rtt_ms(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        let mut sum = 0u64;
        let mut count = 0u64;
        for i in 0..self.n {
            let row = self.row(NodeId::from(i));
            for j in 0..self.n {
                if i != j {
                    sum += row.owd(NodeId::from(j)).0;
                    count += 1;
                }
            }
        }
        // Mean RTT = 2 * mean OWD over ordered pairs.
        2.0 * (sum as f64 / count as f64) / 1000.0
    }
}

/// One source node's row of a [`LatencyMatrix`]: see [`LatencyMatrix::row`].
#[derive(Clone, Copy)]
pub struct LatencyRow<'a> {
    owd_us: &'a [u32],
}

impl LatencyRow<'_> {
    /// One-way delay from the row's source to `b`.
    #[inline]
    pub fn owd(&self, b: NodeId) -> SimDuration {
        SimDuration(self.owd_us[b.index()] as u64)
    }
}

/// SplitMix64 finalizer: the deterministic hash behind the procedural
/// backend's coordinates and jitter.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Keyed 2-input hash (seed is folded in by the caller).
#[inline]
fn hash2(seed: u64, a: u64, b: u64) -> u64 {
    mix64(seed ^ mix64(a ^ mix64(b)))
}

/// Convert the top 53 bits of a hash to a uniform `f64` in `[0, 1)`.
#[inline]
fn unit_f64(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// O(1)-memory procedural latency: delays are a pure function of
/// `(seed, a, b)`, recomputed on every query.
///
/// The model is the same 2-D virtual-coordinate construction as
/// [`LatencyMatrix::synthetic`] — uniform points in a unit square, 10%
/// base delay, distance-proportional remainder, ±20% per-ordered-pair
/// jitter — but coordinates and jitter come from a SplitMix64 hash of the
/// node ids instead of a sequential RNG stream, and the global rescale to
/// the target mean RTT uses the closed-form expected distance between two
/// uniform points in the unit square instead of an O(N²) sum. The sampled
/// mean RTT therefore converges to the target as N grows (within ~1% by
/// N = 1000) rather than hitting it exactly per-instance.
///
/// ```
/// use simnet::{NodeId, ProceduralLatency};
///
/// let m = ProceduralLatency::new(1_000_000, 152.0, 42);
/// let d = m.owd(NodeId(3), NodeId(999_999));
/// // Deterministic: same seed, same pair, same delay — no state to store.
/// assert_eq!(d, ProceduralLatency::new(1_000_000, 152.0, 42).owd(NodeId(3), NodeId(999_999)));
/// assert!((140.0..165.0).contains(&m.mean_rtt_ms_sampled(20_000)));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct ProceduralLatency {
    n: usize,
    seed: u64,
    /// Microseconds per model unit, calibrated so the expected one-way
    /// delay equals half the target RTT.
    scale_us: f64,
}

impl ProceduralLatency {
    /// Model for `n` nodes with the given target mean RTT (ms) and hash
    /// seed. O(1) work and memory regardless of `n`.
    pub fn new(n: usize, avg_rtt_ms: f64, seed: u64) -> Self {
        assert!(n >= 1, "need at least one node");
        assert!(avg_rtt_ms > 0.0, "average RTT must be positive");
        let target_owd_us = avg_rtt_ms / 2.0 * 1000.0;
        ProceduralLatency {
            n,
            seed,
            scale_us: target_owd_us / (BASE_DELAY + MEAN_UNIT_DIST),
        }
    }

    /// The node's virtual coordinates in the unit square.
    #[inline]
    fn coords(&self, node: u32) -> (f64, f64) {
        let h = hash2(self.seed, node as u64, 0xC0);
        let x = unit_f64(h);
        let y = unit_f64(mix64(h));
        (x, y)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the model covers zero nodes (never; `n >= 1`).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The hash seed the model was built with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// One-way delay from `a` to `b`.
    #[inline]
    pub fn owd(&self, a: NodeId, b: NodeId) -> SimDuration {
        debug_assert!(a.index() < self.n && b.index() < self.n);
        if a == b {
            return SimDuration(LOOPBACK_US as u64);
        }
        let (xa, ya) = self.coords(a.0);
        let (xb, yb) = self.coords(b.0);
        let dist = ((xa - xb).powi(2) + (ya - yb).powi(2)).sqrt();
        // Ordered-pair jitter in [0.8, 1.2), like the synthetic matrix.
        let jitter = 0.8 + 0.4 * unit_f64(hash2(self.seed, a.0 as u64, !(b.0 as u64)));
        let us = ((BASE_DELAY + dist) * jitter * self.scale_us).round() as u64;
        SimDuration(us.max(1))
    }

    /// Round-trip time between `a` and `b`.
    pub fn rtt(&self, a: NodeId, b: NodeId) -> SimDuration {
        self.owd(a, b) + self.owd(b, a)
    }

    /// Estimate the mean RTT in milliseconds from a deterministic sample
    /// of at most `max_pairs` ordered pairs of distinct nodes: a fixed
    /// hash-driven pair sequence, so the estimate is reproducible and
    /// O(`max_pairs`) regardless of N.
    pub fn mean_rtt_ms_sampled(&self, max_pairs: usize) -> f64 {
        let n = self.n;
        if n < 2 {
            return 0.0;
        }
        let mut sum = 0u64;
        let mut count = 0u64;
        let mut state = 0x2545F4914F6CDD1Du64;
        while (count as usize) < max_pairs {
            state = hash2(state, count, 0);
            let a = (state % n as u64) as u32;
            let b = ((state >> 32) % n as u64) as u32;
            if a == b {
                state = state.wrapping_add(1);
                continue;
            }
            sum += self.owd(NodeId(a), NodeId(b)).0;
            count += 1;
        }
        // Mean RTT = 2 * mean OWD over ordered pairs.
        2.0 * (sum as f64 / count as f64) / 1000.0
    }
}

/// The latency backend a simulation world runs on: static dispatch over
/// the dense matrix (≤ ~10k nodes, byte-identical to every committed
/// result) or the O(1)-memory procedural model (100k–1M nodes).
///
/// The matrix sits behind an [`Arc`]: it never changes once built, so a
/// cloned world and the message-level driver share one copy.
#[derive(Clone)]
pub enum Latency {
    /// Dense matrix backend ([`LatencyMatrix`]).
    Matrix(Arc<LatencyMatrix>),
    /// Procedural hash backend ([`ProceduralLatency`]).
    Procedural(ProceduralLatency),
}

impl Latency {
    /// Number of nodes.
    pub fn len(&self) -> usize {
        match self {
            Latency::Matrix(m) => m.len(),
            Latency::Procedural(p) => p.len(),
        }
    }

    /// Whether the model covers zero nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// One-way delay from `a` to `b`.
    #[inline]
    pub fn owd(&self, a: NodeId, b: NodeId) -> SimDuration {
        match self {
            Latency::Matrix(m) => m.owd(a, b),
            Latency::Procedural(p) => p.owd(a, b),
        }
    }

    /// Round-trip time between `a` and `b`.
    pub fn rtt(&self, a: NodeId, b: NodeId) -> SimDuration {
        self.owd(a, b) + self.owd(b, a)
    }

    /// Mean RTT in milliseconds: exact on the resident matrix, sampled
    /// over at most `max_pairs` pairs on the procedural backend.
    pub fn mean_rtt_ms_sampled(&self, max_pairs: usize) -> f64 {
        match self {
            Latency::Matrix(m) => m.mean_rtt_ms(),
            Latency::Procedural(p) => p.mean_rtt_ms_sampled(max_pairs),
        }
    }

    /// The dense matrix, if that is the backend. The engine-level driver
    /// and its equivalence tests run at paper scale where the matrix is
    /// the (byte-identical) backend; they share it through this accessor.
    pub fn as_matrix(&self) -> Option<&Arc<LatencyMatrix>> {
        match self {
            Latency::Matrix(m) => Some(m),
            Latency::Procedural(_) => None,
        }
    }

    /// Short label for experiment output.
    pub fn label(&self) -> &'static str {
        match self {
            Latency::Matrix(_) => "matrix",
            Latency::Procedural(_) => "procedural",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn synthetic_hits_target_mean_rtt() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = LatencyMatrix::synthetic(128, PAPER_AVG_RTT_MS, &mut rng);
        let mean = m.mean_rtt_ms();
        assert!(
            (mean - PAPER_AVG_RTT_MS).abs() < 2.0,
            "mean RTT {mean:.2} ms not within 2 ms of target"
        );
    }

    #[test]
    fn delays_positive_and_loopback_small() {
        let mut rng = StdRng::seed_from_u64(2);
        let m = LatencyMatrix::synthetic(32, 100.0, &mut rng);
        for i in 0..32u32 {
            assert!(m.owd(NodeId(i), NodeId(i)).as_micros() < 1000);
            for j in 0..32u32 {
                assert!(m.owd(NodeId(i), NodeId(j)).as_micros() >= 1);
            }
        }
    }

    #[test]
    fn uniform_matrix() {
        let m = LatencyMatrix::uniform(4, SimDuration::from_millis(10));
        assert_eq!(m.owd(NodeId(0), NodeId(3)), SimDuration::from_millis(10));
        assert_eq!(m.rtt(NodeId(1), NodeId(2)), SimDuration::from_millis(20));
        assert_eq!(m.mean_rtt_ms(), 20.0);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = LatencyMatrix::synthetic(16, 152.0, &mut StdRng::seed_from_u64(7));
        let b = LatencyMatrix::synthetic(16, 152.0, &mut StdRng::seed_from_u64(7));
        for i in 0..16u32 {
            for j in 0..16u32 {
                assert_eq!(a.owd(NodeId(i), NodeId(j)), b.owd(NodeId(i), NodeId(j)));
            }
        }
    }

    #[test]
    fn row_view_matches_full_matrix() {
        let mut rng = StdRng::seed_from_u64(5);
        let m = LatencyMatrix::synthetic(24, 152.0, &mut rng);
        for i in 0..24u32 {
            let row = m.row(NodeId(i));
            for j in 0..24u32 {
                assert_eq!(row.owd(NodeId(j)), m.owd(NodeId(i), NodeId(j)));
            }
        }
    }

    #[test]
    fn single_node_matrix_is_valid() {
        let mut rng = StdRng::seed_from_u64(3);
        let m = LatencyMatrix::synthetic(1, 152.0, &mut rng);
        assert_eq!(m.len(), 1);
        assert_eq!(m.mean_rtt_ms(), 0.0);
    }

    #[test]
    fn procedural_is_deterministic_and_positive() {
        let a = ProceduralLatency::new(100_000, 152.0, 7);
        let b = ProceduralLatency::new(100_000, 152.0, 7);
        for i in [0u32, 1, 99_999, 50_000] {
            for j in [0u32, 1, 99_999, 12_345] {
                assert_eq!(a.owd(NodeId(i), NodeId(j)), b.owd(NodeId(i), NodeId(j)));
                assert!(a.owd(NodeId(i), NodeId(j)).as_micros() >= 1);
            }
            assert_eq!(a.owd(NodeId(i), NodeId(i)).as_micros(), 50, "loopback");
        }
        // Different seeds give different networks.
        let c = ProceduralLatency::new(100_000, 152.0, 8);
        assert_ne!(a.owd(NodeId(0), NodeId(1)), c.owd(NodeId(0), NodeId(1)));
    }

    #[test]
    fn procedural_sampled_mean_hits_target() {
        for n in [1_000usize, 100_000, 1_000_000] {
            let m = ProceduralLatency::new(n, PAPER_AVG_RTT_MS, 3);
            let mean = m.mean_rtt_ms_sampled(40_000);
            assert!(
                (mean - PAPER_AVG_RTT_MS).abs() < 5.0,
                "n={n}: sampled mean RTT {mean:.2} ms"
            );
        }
    }

    #[test]
    fn latency_enum_dispatches_to_backends() {
        let m = LatencyMatrix::uniform(8, SimDuration::from_millis(10));
        let lm = Latency::Matrix(Arc::new(m.clone()));
        assert_eq!(lm.owd(NodeId(0), NodeId(3)), m.owd(NodeId(0), NodeId(3)));
        assert_eq!(lm.label(), "matrix");
        assert!(lm.as_matrix().is_some());

        let p = ProceduralLatency::new(8, 152.0, 5);
        let lp = Latency::Procedural(p);
        assert_eq!(lp.owd(NodeId(1), NodeId(2)), p.owd(NodeId(1), NodeId(2)));
        assert_eq!(lp.rtt(NodeId(1), NodeId(2)), p.rtt(NodeId(1), NodeId(2)));
        assert_eq!(lp.label(), "procedural");
        assert!(lp.as_matrix().is_none());
        assert_eq!(lp.len(), 8);
    }

    #[test]
    fn sampled_mean_is_exact_on_the_matrix() {
        let m = LatencyMatrix::uniform(4, SimDuration::from_millis(5));
        assert_eq!(
            Latency::Matrix(Arc::new(m.clone())).mean_rtt_ms_sampled(10),
            m.mean_rtt_ms(),
            "matrix reports its exact mean"
        );
    }
}
