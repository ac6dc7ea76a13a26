//! Erasure-coded segment allocation (§4.7): the SimEra analytics.
//!
//! SimEra splits `n = k` coded segments (built with `m = k/r` required)
//! evenly over `k` node-disjoint paths — one segment's worth of data per
//! path, each of size `|M|·r/k`. Modelling path failures as i.i.d.
//! Bernoulli with per-path success `p = pa^L`, the delivery probability is
//!
//! ```text
//! P(k) = Σ_{i = k/r}^{k}  C(k, i) · p^i · (1 − p)^{k−i}
//! ```
//!
//! The paper's three observations about the behaviour of `P(k)` in `k`:
//!
//! 1. `p·r > 4/3` — splitting always helps (`P` increases in `k`).
//! 2. `1 < p·r ≤ 4/3` — splitting helps only for sufficiently large `k`.
//! 3. `p·r ≤ 1` — splitting never helps beyond `k = r`.
//!
//! This module provides the closed form, a Monte-Carlo validator (what
//! Figure 2/3 plot), the observation classifier, and the bandwidth model
//! behind Figure 4 / Tables 2–4.

use crate::metrics::SuccessRule;
use rand::Rng;

/// Which of the paper's three observations applies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Observation {
    /// `p·r > 4/3`: always split more.
    AlwaysSplit,
    /// `1 < p·r <= 4/3`: split once `k` is large enough.
    SplitWhenLarge,
    /// `p·r <= 1`: never split beyond `k = r`.
    NeverSplit,
}

/// Classify `(p, r)` into the paper's observation regimes.
pub fn classify(p: f64, r: usize) -> Observation {
    let pr = p * r as f64;
    if pr > 4.0 / 3.0 {
        Observation::AlwaysSplit
    } else if pr > 1.0 {
        Observation::SplitWhenLarge
    } else {
        Observation::NeverSplit
    }
}

/// Per-path success probability for node availability `pa` and path length
/// `L` relays: `p = pa^L` (the responder is assumed available, §4.7).
pub fn path_success_probability(pa: f64, l: usize) -> f64 {
    pa.clamp(0.0, 1.0).powi(l as i32)
}

/// `ln C(n, k)` via `ln Γ`; exact enough for all `k <= 10^6`.
fn ln_choose(n: u64, k: u64) -> f64 {
    if k > n {
        return f64::NEG_INFINITY;
    }
    ln_factorial(n) - ln_factorial(k) - ln_factorial(n - k)
}

/// `ln n!` by direct summation (cached would be overkill: k stays tiny).
fn ln_factorial(n: u64) -> f64 {
    (2..=n).map(|i| (i as f64).ln()).sum()
}

/// The binomial tail `P(X >= need)` for `X ~ Binomial(k, p)`.
pub fn binomial_tail(k: usize, need: usize, p: f64) -> f64 {
    if need == 0 {
        return 1.0;
    }
    if p <= 0.0 {
        return 0.0;
    }
    if p >= 1.0 {
        return 1.0;
    }
    let (lp, lq) = (p.ln(), (1.0 - p).ln());
    (need..=k)
        .map(|i| (ln_choose(k as u64, i as u64) + i as f64 * lp + (k - i) as f64 * lq).exp())
        .sum()
}

/// SimEra's delivery probability `P(k)`: at least `k/r` of `k` paths
/// succeed, each with probability `p`.
///
/// ```
/// use anon_core::allocation::{p_of_k, path_success_probability};
/// // 95% node availability, 3 relays per path, r = 2 over 8 paths:
/// let p = path_success_probability(0.95, 3);
/// assert!(p_of_k(8, 2, p) > 0.99);
/// ```
///
/// `k` must be a positive multiple of `r` (the paper's simplifying
/// assumption so segments divide evenly).
pub fn p_of_k(k: usize, r: usize, p: f64) -> f64 {
    assert!(r >= 1, "replication factor must be at least 1");
    assert!(
        k >= 1 && k.is_multiple_of(r),
        "k must be a positive multiple of r (got k={k}, r={r})"
    );
    binomial_tail(k, SuccessRule::Quorum { k, r }.needed(), p)
}

/// SimRep's delivery probability with `k` full copies: at least one path
/// succeeds.
pub fn p_simrep(k: usize, p: f64) -> f64 {
    1.0 - (1.0 - p).powi(k as i32)
}

/// The smallest admissible `k` (multiple of `r`, within `k_max`) that
/// maximizes `P(k)`; ties go to the smaller `k` (cheaper construction).
pub fn optimal_k(r: usize, p: f64, k_max: usize) -> usize {
    let mut best_k = r;
    let mut best_p = f64::NEG_INFINITY;
    let mut k = r;
    while k <= k_max {
        let pk = p_of_k(k, r, p);
        if pk > best_p + 1e-15 {
            best_p = pk;
            best_k = k;
        }
        k += r;
    }
    best_k
}

/// Monte-Carlo estimate of `P(k)`: simulate `trials` message sends, each
/// over `k` paths of `l` relays with node availability `pa`, and count the
/// fraction where at least `k/r` paths came up end-to-end. This is what
/// Figures 2 and 3 plot against the closed form.
pub fn simulate_p_of_k<R: Rng>(
    k: usize,
    r: usize,
    pa: f64,
    l: usize,
    trials: usize,
    rng: &mut R,
) -> f64 {
    assert!(k.is_multiple_of(r) && k >= 1);
    let need = SuccessRule::Quorum { k, r }.needed();
    let mut successes = 0usize;
    for _ in 0..trials {
        let mut ok_paths = 0usize;
        for _ in 0..k {
            // A path succeeds if every one of its l relays is up.
            let path_up = (0..l).all(|_| rng.gen::<f64>() < pa);
            if path_up {
                ok_paths += 1;
            }
        }
        if ok_paths >= need {
            successes += 1;
        }
    }
    successes as f64 / trials as f64
}

/// Bandwidth model (Figure 4, Tables 2–4).
///
/// Each of the `k` paths carries `|M|·r/k` bytes of coded segments (for
/// replication, `r = k` so each path carries the whole message). A message
/// traverses `L + 1` links per path (initiator → L relays → responder);
/// when a path is down at its `j`-th hop, only `j` links carry the bytes.
/// Total cost is the sum over paths of `bytes · links_traversed`.
#[derive(Clone, Copy, Debug)]
pub struct BandwidthModel {
    /// Message size in bytes.
    pub msg_bytes: usize,
    /// Number of relays per path.
    pub l: usize,
    /// Node availability (per-hop up probability).
    pub pa: f64,
}

impl BandwidthModel {
    /// Bytes of coded payload each path carries for SimEra(k, r).
    pub fn per_path_bytes(&self, k: usize, r: usize) -> f64 {
        self.msg_bytes as f64 * r as f64 / k as f64
    }

    /// Expected number of links traversed per path attempt.
    ///
    /// The message reaches link `j+1` only if relay `j` was up; with
    /// availability `pa` per relay, `E[links] = Σ_{j=0}^{L-1} pa^j · 1 +
    /// pa^L` — one initial link always, plus one more per surviving relay.
    pub fn expected_links(&self) -> f64 {
        (0..=self.l).map(|j| self.pa.powi(j as i32)).sum()
    }

    /// Expected total bandwidth (bytes) for one SimEra(k, r) message.
    pub fn simera_expected_bytes(&self, k: usize, r: usize) -> f64 {
        k as f64 * self.per_path_bytes(k, r) * self.expected_links()
    }

    /// Expected total bandwidth for SimRep with `k` copies.
    pub fn simrep_expected_bytes(&self, k: usize) -> f64 {
        k as f64 * self.msg_bytes as f64 * self.expected_links()
    }

    /// Expected total bandwidth for CurMix (single path, full copy).
    pub fn curmix_expected_bytes(&self) -> f64 {
        self.msg_bytes as f64 * self.expected_links()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn binomial_tail_matches_hand_computation() {
        // k=2, need=1, p=0.5: P(X>=1) = 0.75.
        assert!((binomial_tail(2, 1, 0.5) - 0.75).abs() < 1e-12);
        // k=4, need=2, p=0.5: 1 - C(4,0)/16 - C(4,1)/16 = 1 - 5/16.
        assert!((binomial_tail(4, 2, 0.5) - (1.0 - 5.0 / 16.0)).abs() < 1e-12);
        assert_eq!(binomial_tail(5, 0, 0.3), 1.0);
        assert_eq!(binomial_tail(5, 3, 0.0), 0.0);
        assert_eq!(binomial_tail(5, 3, 1.0), 1.0);
    }

    #[test]
    fn p_of_k_reduces_to_known_cases() {
        let p = 0.6;
        // k = r: need exactly 1 path, same as SimRep with r copies... no:
        // k=r means need k/r = 1 of k=r paths: 1-(1-p)^r.
        for r in 1..=4usize {
            assert!((p_of_k(r, r, p) - p_simrep(r, p)).abs() < 1e-12);
        }
        // r = 1: all k paths must succeed.
        for k in 1..=5usize {
            assert!((p_of_k(k, 1, p) - p.powi(k as i32)).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "multiple of r")]
    fn p_of_k_rejects_non_multiple() {
        let _ = p_of_k(5, 2, 0.5);
    }

    #[test]
    fn observation_1_always_split() {
        // pa = 0.95, L = 3 → p ≈ 0.857, pr = 1.71 > 4/3.
        let p = path_success_probability(0.95, 3);
        assert_eq!(classify(p, 2), Observation::AlwaysSplit);
        let mut prev = 0.0;
        for k in (2..=40).step_by(2) {
            let cur = p_of_k(k, 2, p);
            assert!(cur > prev, "P({k}) = {cur} must increase (prev {prev})");
            prev = cur;
        }
    }

    #[test]
    fn observation_2_split_when_large() {
        // pa = 0.86, L = 3 → p ≈ 0.636, pr ≈ 1.27 ∈ (1, 4/3].
        let p = path_success_probability(0.86, 3);
        assert_eq!(classify(p, 2), Observation::SplitWhenLarge);
        // There is an initial dip: P(4) < P(2), but eventually P grows and
        // exceeds P(2) (paper: "increases when k >= 4" for this regime —
        // with their empirical curve the recovery point is small).
        let p2 = p_of_k(2, 2, p);
        let p4 = p_of_k(4, 2, p);
        assert!(p4 < p2, "initial dip expected: P(4)={p4} vs P(2)={p2}");
        // For large k, P(k) must recover above P(2) and approach 1.
        let p40 = p_of_k(40, 2, p);
        assert!(p40 > p2, "P(40)={p40} must exceed P(2)={p2}");
        // And monotone increase holds in the large-k tail.
        assert!(p_of_k(40, 2, p) > p_of_k(38, 2, p));
    }

    #[test]
    fn observation_3_never_split() {
        // pa = 0.70, L = 3 → p ≈ 0.343, pr = 0.686 ≤ 1.
        let p = path_success_probability(0.70, 3);
        assert_eq!(classify(p, 2), Observation::NeverSplit);
        let mut prev = f64::INFINITY;
        for k in (2..=40).step_by(2) {
            let cur = p_of_k(k, 2, p);
            assert!(cur < prev, "P({k}) = {cur} must decrease (prev {prev})");
            prev = cur;
        }
        assert_eq!(optimal_k(2, p, 40), 2, "never beneficial beyond k = r");
    }

    #[test]
    fn classification_boundaries() {
        assert_eq!(classify(0.5, 2), Observation::NeverSplit); // pr = 1
        assert_eq!(classify(0.51, 2), Observation::SplitWhenLarge);
        assert_eq!(classify(2.0 / 3.0, 2), Observation::SplitWhenLarge); // pr = 4/3
        assert_eq!(classify(0.7, 2), Observation::AlwaysSplit);
    }

    #[test]
    fn higher_replication_dominates() {
        // Figure 3: bigger r dramatically increases success at fixed pa.
        let p = path_success_probability(0.70, 3);
        for k in [12usize, 24] {
            let p2 = p_of_k(k, 2, p);
            let p3 = p_of_k(k, 3, p);
            let p4 = p_of_k(k, 4, p);
            assert!(p2 < p3 && p3 < p4, "k={k}: {p2} < {p3} < {p4} expected");
        }
    }

    #[test]
    fn monte_carlo_agrees_with_closed_form() {
        let mut rng = StdRng::seed_from_u64(42);
        for &(pa, r, k) in &[
            (0.70f64, 2usize, 6usize),
            (0.86, 2, 8),
            (0.95, 2, 4),
            (0.70, 4, 8),
        ] {
            let l = 3;
            let p = path_success_probability(pa, l);
            let analytic = p_of_k(k, r, p);
            let mc = simulate_p_of_k(k, r, pa, l, 200_000, &mut rng);
            assert!(
                (analytic - mc).abs() < 0.01,
                "pa={pa}, r={r}, k={k}: analytic {analytic:.4} vs MC {mc:.4}"
            );
        }
    }

    #[test]
    fn optimal_k_in_always_split_regime_is_kmax() {
        let p = path_success_probability(0.95, 3);
        assert_eq!(optimal_k(2, p, 20), 20);
    }

    #[test]
    fn bandwidth_model_matches_paper_magnitudes() {
        // Table 2 shapes: 1 KB message, L = 3.
        let model = BandwidthModel {
            msg_bytes: 1024,
            l: 3,
            pa: 0.95,
        };
        // CurMix ≈ 4 KB at high availability (4 links × 1 KB).
        let curmix_kb = model.curmix_expected_bytes() / 1024.0;
        assert!((3.5..=4.0).contains(&curmix_kb), "CurMix {curmix_kb:.2} KB");
        // SimRep(r = 2) ≈ 6–8 KB.
        let simrep_kb = model.simrep_expected_bytes(2) / 1024.0;
        assert!((6.0..=8.0).contains(&simrep_kb), "SimRep {simrep_kb:.2} KB");
        // SimEra(k = 4, r = 4) ≈ 8–16 KB; with pa = 0.95 near 15.5, with
        // pa = 0.7 (heavier churn) nearer the paper's 8.8–10.4.
        let low_avail = BandwidthModel {
            msg_bytes: 1024,
            l: 3,
            pa: 0.70,
        };
        let simera_kb = low_avail.simera_expected_bytes(4, 4) / 1024.0;
        assert!(
            (8.0..=11.0).contains(&simera_kb),
            "SimEra {simera_kb:.2} KB"
        );
    }

    #[test]
    fn bandwidth_flat_in_k_for_fixed_r() {
        // Figure 4's shape: for fixed r, total cost is essentially flat in
        // k (per-path bytes shrink as k grows).
        let model = BandwidthModel {
            msg_bytes: 1024,
            l: 3,
            pa: 0.70,
        };
        let b4 = model.simera_expected_bytes(4, 2);
        let b20 = model.simera_expected_bytes(20, 2);
        assert!((b4 - b20).abs() < 1e-9);
        // And proportional to r.
        let b_r3 = model.simera_expected_bytes(6, 3);
        assert!((b_r3 / b4 - 1.5).abs() < 1e-9);
    }

    #[test]
    fn expected_links_bounds() {
        let m = BandwidthModel {
            msg_bytes: 1,
            l: 3,
            pa: 1.0,
        };
        assert!(
            (m.expected_links() - 4.0).abs() < 1e-12,
            "all links traversed when up"
        );
        let m0 = BandwidthModel {
            msg_bytes: 1,
            l: 3,
            pa: 0.0,
        };
        assert!(
            (m0.expected_links() - 1.0).abs() < 1e-12,
            "first link always paid"
        );
    }
}

pub mod weighted;
