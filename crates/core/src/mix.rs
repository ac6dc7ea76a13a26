//! Mix choice (§4.9): how the initiator picks relay nodes for its paths.
//!
//! *Random* choice samples uniformly from the node cache; *biased* choice
//! ranks candidates by the node-liveness predictor (paper §4.9, Eq. 3)
//!
//! ```text
//! q = Δt_alive / (Δt_alive + Δt_since + (t_now − t_last))
//! ```
//!
//! and takes the top ones. Under the Pareto(α) session-time distribution
//! measured for deployed P2P systems, the probability that a node stays
//! alive for a further window conditional on its observed uptime is
//! `p = q^α` (Eq. 1–2, implemented in `membership::liveness`), so ranking
//! by `q` ranks by survival probability and the first paths are built from
//! the most stable nodes ("biased mix choice makes the top k/r paths very
//! stable").
//!
//! Disjointness: the paper spreads coded segments over `k` *node-disjoint*
//! paths, so one relay failure can break at most one path. We draw `k·L`
//! distinct relays (excluding the initiator and responder) and partition
//! them sequentially: biased choice therefore concentrates the most stable
//! relays in the earliest paths.

use crate::AnonError;
use membership::NodeCache;
use rand::Rng;
use simnet::{NodeId, SimTime};

/// Relay-selection strategy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MixStrategy {
    /// Uniform over the node cache (what existing mix protocols do).
    Random,
    /// Highest liveness-predictor values first (the paper's contribution).
    Biased,
    /// Extension (not in the paper): rank by the horizon predictor
    /// `q_H = Δt_alive / (Δt_alive + Δt_since_eff + H)` with a common
    /// lookahead `H`, so ranking reflects uptime rather than gossip
    /// recency noise. Ablated in `bench ablations` against plain biased.
    BiasedHorizon {
        /// Lookahead `H` in seconds.
        horizon_secs: u32,
    },
}

impl MixStrategy {
    /// Human-readable label used in experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            MixStrategy::Random => "random",
            MixStrategy::Biased => "biased",
            MixStrategy::BiasedHorizon { .. } => "biased+H",
        }
    }
}

/// Select relays for `k` node-disjoint paths of length `l` from `cache`,
/// excluding `exclude` (typically the initiator and responder).
///
/// Returns `k` relay lists of length `l`. Fails if the cache cannot supply
/// `k * l` distinct candidates.
///
/// ```
/// use anon_core::mix::{choose_disjoint_paths, MixStrategy};
/// use membership::{LivenessInfo, NodeCache};
/// use rand::{rngs::StdRng, SeedableRng};
/// use simnet::{NodeId, SimDuration, SimTime};
///
/// // A cache where node i has been up for 100·(i+1) seconds: higher ids
/// // have higher predictor values q (uptime dominates equal staleness).
/// let now = SimTime::from_secs(1_000);
/// let mut cache = NodeCache::new();
/// for i in 0..12 {
///     cache.hear_indirect(
///         NodeId(i),
///         LivenessInfo::alive(
///             SimDuration::from_secs(100 * (i as u64 + 1)),
///             SimDuration::from_secs(50),
///         ),
///         now,
///     );
/// }
///
/// let mut rng = StdRng::seed_from_u64(7);
/// let paths =
///     choose_disjoint_paths(&cache, 2, 3, &[NodeId(0)], MixStrategy::Biased, now, &mut rng)
///         .unwrap();
/// // Two node-disjoint paths; biased choice concentrates the highest-q
/// // relays in the first one.
/// assert_eq!(paths.len(), 2);
/// assert_eq!(paths[0], vec![NodeId(11), NodeId(10), NodeId(9)]);
/// ```
pub fn choose_disjoint_paths<R: Rng>(
    cache: &NodeCache,
    k: usize,
    l: usize,
    exclude: &[NodeId],
    strategy: MixStrategy,
    now: SimTime,
    rng: &mut R,
) -> Result<Vec<Vec<NodeId>>, AnonError> {
    let needed = k * l;
    let picked = match strategy {
        MixStrategy::Random => cache.select_random(needed, exclude, rng),
        MixStrategy::Biased => cache.select_biased(needed, exclude, now),
        MixStrategy::BiasedHorizon { horizon_secs } => cache.select_biased_with_horizon(
            needed,
            exclude,
            now,
            simnet::SimDuration::from_secs(horizon_secs as u64),
        ),
    };
    if picked.len() < needed {
        return Err(AnonError::NotEnoughRelays {
            needed,
            available: picked.len(),
        });
    }
    Ok(picked.chunks_exact(l).map(|c| c.to_vec()).collect())
}

/// Select a single path's relays (CurMix's case, `k = 1`).
pub fn choose_path<R: Rng>(
    cache: &NodeCache,
    l: usize,
    exclude: &[NodeId],
    strategy: MixStrategy,
    now: SimTime,
    rng: &mut R,
) -> Result<Vec<NodeId>, AnonError> {
    choose_disjoint_paths(cache, 1, l, exclude, strategy, now, rng)?
        .pop()
        .ok_or(AnonError::NotEnoughRelays {
            needed: l,
            available: 0,
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use membership::LivenessInfo;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use simnet::SimDuration;

    fn cache_with_quality_gradient(n: u32, now: SimTime) -> NodeCache {
        let mut cache = NodeCache::new();
        for i in 0..n {
            // Node i has uptime proportional to i and mild staleness, so
            // higher ids predict higher liveness.
            cache.hear_indirect(
                NodeId(i),
                LivenessInfo::alive(
                    SimDuration::from_secs(10 + i as u64 * 100),
                    SimDuration::from_secs(50),
                ),
                now,
            );
        }
        cache
    }

    #[test]
    fn disjointness_holds() {
        let now = SimTime::from_secs(100);
        let cache = cache_with_quality_gradient(100, now);
        let mut rng = StdRng::seed_from_u64(1);
        for strategy in [MixStrategy::Random, MixStrategy::Biased] {
            let paths = choose_disjoint_paths(&cache, 4, 3, &[], strategy, now, &mut rng).unwrap();
            assert_eq!(paths.len(), 4);
            let mut all: Vec<NodeId> = paths.iter().flatten().copied().collect();
            assert_eq!(all.len(), 12);
            all.sort_unstable();
            all.dedup();
            assert_eq!(all.len(), 12, "{strategy:?}: paths must be node-disjoint");
        }
    }

    #[test]
    fn biased_takes_top_predictors_in_order() {
        let now = SimTime::from_secs(100);
        let cache = cache_with_quality_gradient(50, now);
        let mut rng = StdRng::seed_from_u64(2);
        let paths =
            choose_disjoint_paths(&cache, 2, 3, &[], MixStrategy::Biased, now, &mut rng).unwrap();
        // Highest-uptime nodes are 49, 48, ... — first path gets the top 3.
        assert_eq!(paths[0], vec![NodeId(49), NodeId(48), NodeId(47)]);
        assert_eq!(paths[1], vec![NodeId(46), NodeId(45), NodeId(44)]);
    }

    #[test]
    fn exclusions_respected() {
        let now = SimTime::from_secs(100);
        let cache = cache_with_quality_gradient(30, now);
        let mut rng = StdRng::seed_from_u64(3);
        let exclude = [NodeId(29), NodeId(28)];
        for strategy in [MixStrategy::Random, MixStrategy::Biased] {
            let paths =
                choose_disjoint_paths(&cache, 3, 3, &exclude, strategy, now, &mut rng).unwrap();
            for p in paths.iter().flatten() {
                assert!(!exclude.contains(p), "{strategy:?} must honour exclusions");
            }
        }
    }

    #[test]
    fn insufficient_candidates_error() {
        let now = SimTime::ZERO;
        let cache = cache_with_quality_gradient(5, now);
        let mut rng = StdRng::seed_from_u64(4);
        let err = choose_disjoint_paths(&cache, 2, 3, &[], MixStrategy::Random, now, &mut rng)
            .unwrap_err();
        assert_eq!(
            err,
            AnonError::NotEnoughRelays {
                needed: 6,
                available: 5
            }
        );
    }

    #[test]
    fn single_path_helper() {
        let now = SimTime::ZERO;
        let cache = cache_with_quality_gradient(10, now);
        let mut rng = StdRng::seed_from_u64(5);
        let path = choose_path(&cache, 3, &[], MixStrategy::Biased, now, &mut rng).unwrap();
        assert_eq!(path.len(), 3);
        assert_eq!(path[0], NodeId(9));
    }

    #[test]
    fn random_choice_varies_with_rng() {
        let now = SimTime::ZERO;
        let cache = cache_with_quality_gradient(50, now);
        let a = choose_path(
            &cache,
            3,
            &[],
            MixStrategy::Random,
            now,
            &mut StdRng::seed_from_u64(6),
        )
        .unwrap();
        let b = choose_path(
            &cache,
            3,
            &[],
            MixStrategy::Random,
            now,
            &mut StdRng::seed_from_u64(7),
        )
        .unwrap();
        assert_ne!(a, b, "different seeds should give different random paths");
        let c = choose_path(
            &cache,
            3,
            &[],
            MixStrategy::Random,
            now,
            &mut StdRng::seed_from_u64(6),
        )
        .unwrap();
        assert_eq!(a, c, "same seed must reproduce the choice");
    }
}
