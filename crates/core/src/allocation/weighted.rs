//! Weighted segment allocation — the paper's stated future work (§7):
//! *"we plan to explore a weighted allocation scheme: more segments are
//! allocated to the paths that are more likely to be stable."*
//!
//! SimEra allocates `n` coded segments evenly (`n/k` per path). When paths
//! have heterogeneous survival probabilities (which biased mix choice
//! makes observable through the predictor `q`), an uneven allocation can
//! beat SimEra. This module provides:
//!
//! * [`delivery_probability`] — an exact `O(k·n)` dynamic program for the
//!   probability that at least `m` segments arrive given any allocation
//!   and per-path survival probabilities (paths fail independently and
//!   atomically, as in §4.7's Bernoulli model);
//! * [`allocate_weighted`] — a power-weighted largest-remainder allocator;
//! * [`allocate_best`] — picks the better of even and a small family of
//!   weighted allocations by exact evaluation.

/// Exact probability that at least `m` of the allocated segments arrive.
///
/// `alloc[i]` segments ride path `i`, which survives with probability
/// `probs[i]`; path failures are independent and all-or-nothing.
/// Computed by DP over paths on the distribution of received segments.
pub fn delivery_probability(alloc: &[usize], probs: &[f64], m: usize) -> f64 {
    assert_eq!(alloc.len(), probs.len(), "one probability per path");
    let total: usize = alloc.iter().sum();
    if m == 0 {
        return 1.0;
    }
    if total < m {
        return 0.0;
    }
    // dp[j] = P(exactly j segments received so far); cap at m ("m or
    // more" is absorbed into the last bucket).
    let mut dp = vec![0.0f64; m + 1];
    dp[0] = 1.0;
    for (&a, &p) in alloc.iter().zip(probs) {
        let p = p.clamp(0.0, 1.0);
        if a == 0 {
            continue;
        }
        let mut next = vec![0.0f64; m + 1];
        for (j, &mass) in dp.iter().enumerate() {
            if mass == 0.0 {
                continue;
            }
            // Path fails: stay at j.
            next[j] += mass * (1.0 - p);
            // Path survives: gain a segments (saturating at m).
            let nj = (j + a).min(m);
            next[nj] += mass * p;
        }
        dp = next;
    }
    dp[m]
}

/// Even allocation (SimEra's): `n/k` per path, remainder to the first
/// paths.
pub fn allocate_even(n: usize, k: usize) -> Vec<usize> {
    assert!(k > 0);
    let base = n / k;
    let rem = n % k;
    (0..k).map(|i| base + usize::from(i < rem)).collect()
}

/// Weighted allocation: share of path `i` proportional to `probs[i]^gamma`
/// (largest-remainder rounding, every path floor >= 0). `gamma = 0`
/// degenerates to even; larger `gamma` concentrates segments on stable
/// paths.
pub fn allocate_weighted(n: usize, probs: &[f64], gamma: f64) -> Vec<usize> {
    let k = probs.len();
    assert!(k > 0);
    let weights: Vec<f64> = probs
        .iter()
        .map(|&p| p.clamp(1e-9, 1.0).powf(gamma))
        .collect();
    let sum: f64 = weights.iter().sum();
    let ideal: Vec<f64> = weights.iter().map(|w| n as f64 * w / sum).collect();
    let mut alloc: Vec<usize> = ideal.iter().map(|&x| x.floor() as usize).collect();
    let mut assigned: usize = alloc.iter().sum();
    // Largest remainders get the leftover segments.
    let mut order: Vec<usize> = (0..k).collect();
    order.sort_by(|&a, &b| {
        let ra = ideal[a] - ideal[a].floor();
        let rb = ideal[b] - ideal[b].floor();
        // `total_cmp`: a NaN probability (which `clamp` passes through)
        // orders instead of panicking.
        rb.total_cmp(&ra).then(a.cmp(&b))
    });
    let mut idx = 0;
    while assigned < n {
        alloc[order[idx % k]] += 1;
        assigned += 1;
        idx += 1;
    }
    alloc
}

/// Evaluate even and weighted (γ ∈ {1, 2, 4, 8}) allocations exactly and
/// return the best `(allocation, delivery probability)`.
pub fn allocate_best(n: usize, m: usize, probs: &[f64]) -> (Vec<usize>, f64) {
    let k = probs.len();
    let mut best = allocate_even(n, k);
    let mut best_p = delivery_probability(&best, probs, m);
    for gamma in [1.0, 2.0, 4.0, 8.0] {
        let cand = allocate_weighted(n, probs, gamma);
        let p = delivery_probability(&cand, probs, m);
        if p > best_p + 1e-15 {
            best = cand;
            best_p = p;
        }
    }
    (best, best_p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocation::{binomial_tail, p_of_k};
    use crate::metrics::SuccessRule;

    #[test]
    fn dp_matches_binomial_for_homogeneous_paths() {
        // One segment per path, equal probabilities: the DP must equal the
        // closed-form binomial tail / SimEra's P(k).
        for &(k, r, p) in &[(4usize, 2usize, 0.6f64), (8, 4, 0.343), (6, 3, 0.85)] {
            let alloc = vec![1usize; k];
            let probs = vec![p; k];
            let m = SuccessRule::Quorum { k, r }.needed();
            let dp = delivery_probability(&alloc, &probs, m);
            assert!((dp - binomial_tail(k, m, p)).abs() < 1e-12);
            assert!((dp - p_of_k(k, r, p)).abs() < 1e-12);
        }
    }

    #[test]
    fn dp_edge_cases() {
        assert_eq!(delivery_probability(&[2, 2], &[0.5, 0.5], 0), 1.0);
        assert_eq!(delivery_probability(&[1, 1], &[0.5, 0.5], 3), 0.0);
        assert!((delivery_probability(&[3], &[0.7], 2) - 0.7).abs() < 1e-12);
        // Zero-probability paths contribute nothing.
        assert!((delivery_probability(&[5, 1], &[0.0, 0.9], 1) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn even_allocation_shape() {
        assert_eq!(allocate_even(8, 4), vec![2, 2, 2, 2]);
        assert_eq!(allocate_even(7, 3), vec![3, 2, 2]);
        assert_eq!(allocate_even(2, 4), vec![1, 1, 0, 0]);
    }

    #[test]
    fn weighted_allocation_conserves_and_orders() {
        let probs = [0.95, 0.9, 0.5, 0.2];
        for gamma in [0.0, 1.0, 3.0, 8.0] {
            let alloc = allocate_weighted(12, &probs, gamma);
            assert_eq!(alloc.iter().sum::<usize>(), 12, "gamma {gamma}");
            // Higher-probability paths never get fewer segments.
            for w in alloc.windows(2) {
                assert!(w[0] >= w[1], "gamma {gamma}: {alloc:?}");
            }
        }
        // gamma = 0 is even.
        assert_eq!(allocate_weighted(12, &probs, 0.0), allocate_even(12, 4));
    }

    #[test]
    fn a_nan_probability_does_not_panic() {
        let probs = [0.9, f64::NAN, 0.5];
        for gamma in [0.0, 1.0, 8.0] {
            assert_eq!(allocate_weighted(8, &probs, gamma).iter().sum::<usize>(), 8);
        }
        assert_eq!(allocate_best(6, 3, &probs).0.iter().sum::<usize>(), 6);
    }

    #[test]
    fn weighting_beats_even_under_heterogeneous_paths() {
        // Two rock-solid paths, two flaky ones; need half the segments.
        // Even allocation wastes half the redundancy on coin flips.
        let probs = [0.99, 0.99, 0.3, 0.3];
        let (n, m) = (8usize, 4usize);
        let even = delivery_probability(&allocate_even(n, 4), &probs, m);
        let (best_alloc, best) = allocate_best(n, m, &probs);
        // Compare failure probabilities: weighting should cut the failure
        // rate by an order of magnitude here.
        assert!(
            (1.0 - best) * 10.0 < 1.0 - even,
            "weighted failure {:.6} should be 10x below even {:.6} ({best_alloc:?})",
            1.0 - best,
            1.0 - even
        );
    }

    #[test]
    fn even_is_optimal_for_homogeneous_paths() {
        // With identical paths, nothing beats spreading evenly.
        let probs = [0.6; 6];
        let (n, m) = (6usize, 3usize);
        let even = delivery_probability(&allocate_even(n, 6), &probs, m);
        let (_, best) = allocate_best(n, m, &probs);
        assert!((best - even).abs() < 1e-12, "even must remain optimal");
    }

    #[test]
    fn concentration_tradeoff_is_visible() {
        // Putting everything on the best path caps success at that path's
        // probability; the DP exposes the anonymity-free tradeoff space.
        let probs = [0.9, 0.5, 0.5, 0.5];
        let all_on_one = delivery_probability(&[4, 0, 0, 0], &probs, 2);
        assert!((all_on_one - 0.9).abs() < 1e-12);
        let spread = delivery_probability(&[1, 1, 1, 1], &probs, 2);
        assert!(spread > 0.5);
    }
}
