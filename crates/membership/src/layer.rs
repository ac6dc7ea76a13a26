//! A membership layer that is either flat epidemic gossip or hierarchical
//! OneHop dissemination, behind one API — so the protocol experiments can
//! swap substrates and ablate membership freshness.

use crate::cache::NodeCache;
use crate::gossip::{GossipConfig, GossipSim};
use crate::onehop::{OneHopConfig, OneHopSim};
use crate::sampled::{SampledConfig, SampledView};
use rand::Rng;
use simnet::{ChurnSchedule, NodeId, SimTime};

/// Which membership protocol to run, with its parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MembershipConfig {
    /// Flat epidemic gossip (§4.8's baseline description).
    Gossip(GossipConfig),
    /// Hierarchical OneHop dissemination (what the paper's evaluation ran
    /// on).
    OneHop(OneHopConfig),
    /// Seed-deterministic sampled views with bounded-staleness ground-truth
    /// observations — the O(sample) layer for 100k–1M-node worlds.
    Sampled(SampledConfig),
}

impl Default for MembershipConfig {
    fn default() -> Self {
        MembershipConfig::Gossip(GossipConfig::default())
    }
}

impl MembershipConfig {
    /// OneHop with default parameters.
    pub fn onehop_default() -> Self {
        MembershipConfig::OneHop(OneHopConfig::default())
    }

    /// Sampled views with default parameters.
    pub fn sampled_default() -> Self {
        MembershipConfig::Sampled(SampledConfig::default())
    }

    /// Short label for experiment tables.
    pub fn label(&self) -> &'static str {
        match self {
            MembershipConfig::Gossip(_) => "gossip",
            MembershipConfig::OneHop(_) => "onehop",
            MembershipConfig::Sampled(_) => "sampled",
        }
    }
}

/// The running membership layer. Every variant is plain data, so a clone
/// taken together with a clone of the RNG is a fork: both copies advance
/// through the same states.
#[derive(Clone)]
pub enum MembershipLayer {
    /// Flat gossip instance.
    Gossip(GossipSim),
    /// OneHop instance.
    OneHop(OneHopSim),
    /// Sampled-view instance (only tracked nodes hold state).
    Sampled(SampledView),
}

impl MembershipLayer {
    /// Instantiate for `n` nodes.
    pub fn new<R: Rng>(n: usize, cfg: MembershipConfig, rng: &mut R) -> Self {
        match cfg {
            MembershipConfig::Gossip(g) => MembershipLayer::Gossip(GossipSim::new(n, g, rng)),
            MembershipConfig::OneHop(o) => MembershipLayer::OneHop(OneHopSim::new(n, o)),
            MembershipConfig::Sampled(s) => MembershipLayer::Sampled(SampledView::new(n, s, rng)),
        }
    }

    /// Process protocol activity up to `until` against the ground truth.
    pub fn advance<R: Rng>(&mut self, schedule: &ChurnSchedule, until: SimTime, rng: &mut R) {
        match self {
            MembershipLayer::Gossip(g) => g.advance(schedule, until, rng),
            MembershipLayer::OneHop(o) => o.advance(schedule, until, rng),
            MembershipLayer::Sampled(s) => s.advance(schedule, until),
        }
    }

    /// Materialize `node`'s view at `now` (sampled layer only; the full
    /// layers already hold every node's cache, so this is a no-op there).
    pub fn track(&mut self, node: NodeId, schedule: &ChurnSchedule, now: SimTime) {
        if let MembershipLayer::Sampled(s) = self {
            s.track(node, schedule, now);
        }
    }

    /// Release `node`'s materialized view (no-op for the full layers).
    pub fn untrack(&mut self, node: NodeId) {
        if let MembershipLayer::Sampled(s) = self {
            s.untrack(node);
        }
    }

    /// A node's membership cache.
    ///
    /// # Panics
    /// On the sampled layer, panics for nodes that were never
    /// [`MembershipLayer::track`]ed.
    pub fn cache(&self, node: NodeId) -> &NodeCache {
        match self {
            MembershipLayer::Gossip(g) => g.cache(node),
            MembershipLayer::OneHop(o) => o.cache(node),
            MembershipLayer::Sampled(s) => s.cache(node),
        }
    }

    /// Mutable cache access (§4.5 failure detection feeds observations in).
    pub fn cache_mut(&mut self, node: NodeId) -> &mut NodeCache {
        match self {
            MembershipLayer::Gossip(g) => g.cache_mut(node),
            MembershipLayer::OneHop(o) => o.cache_mut(node),
            MembershipLayer::Sampled(s) => s.cache_mut(node),
        }
    }

    /// Layer-local time (last processed activity).
    pub fn now(&self) -> SimTime {
        match self {
            MembershipLayer::Gossip(g) => g.now(),
            MembershipLayer::OneHop(o) => o.now(),
            MembershipLayer::Sampled(s) => s.now(),
        }
    }

    /// Every cache the layer holds with its owner, in id order: all `n` on
    /// the full layers, the materialized ones on the sampled layer.
    pub fn caches(&self) -> Vec<(NodeId, &NodeCache)> {
        let full = match self {
            MembershipLayer::Gossip(g) => g.caches(),
            MembershipLayer::OneHop(o) => o.caches(),
            MembershipLayer::Sampled(s) => return s.caches(),
        };
        (0..full.len()).map(NodeId::from).zip(full).collect()
    }

    /// The layer's activity counters: gossip messages delivered and lost,
    /// OneHop membership events disseminated (then zero), and zeros on the
    /// sampled layer, which sends nothing.
    pub fn counters(&self) -> [u64; 2] {
        match self {
            MembershipLayer::Gossip(g) => [g.messages_sent(), g.messages_lost()],
            MembershipLayer::OneHop(o) => [o.events_disseminated(), 0],
            MembershipLayer::Sampled(_) => [0, 0],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use simnet::LifetimeDistribution;

    #[test]
    fn both_layers_run_behind_the_same_api() {
        let n = 32;
        let horizon = SimTime::from_secs(600);
        let dist = LifetimeDistribution::pareto_with_median(300.0);
        for cfg in [
            MembershipConfig::default(),
            MembershipConfig::onehop_default(),
        ] {
            let mut rng = StdRng::seed_from_u64(1);
            let schedule = ChurnSchedule::generate(n, &dist, &dist, horizon, &mut rng);
            let mut layer = MembershipLayer::new(n, cfg, &mut rng);
            layer.advance(&schedule, horizon, &mut rng);
            assert_eq!(layer.cache(NodeId(0)).len(), n - 1, "{}", cfg.label());
            layer.cache_mut(NodeId(0)).record_death(NodeId(1), horizon);
            assert_eq!(
                layer.cache(NodeId(0)).predictor(NodeId(1), horizon),
                Some(0.0)
            );
        }
    }

    #[test]
    fn labels() {
        assert_eq!(MembershipConfig::default().label(), "gossip");
        assert_eq!(MembershipConfig::onehop_default().label(), "onehop");
        assert_eq!(MembershipConfig::sampled_default().label(), "sampled");
    }

    #[test]
    fn sampled_layer_tracks_behind_the_same_api() {
        let n = 64;
        let horizon = SimTime::from_secs(600);
        let dist = LifetimeDistribution::pareto_with_median(300.0);
        let mut rng = StdRng::seed_from_u64(1);
        let schedule = ChurnSchedule::generate(n, &dist, &dist, horizon, &mut rng);
        let mut layer = MembershipLayer::new(n, MembershipConfig::sampled_default(), &mut rng);
        let t = SimTime::from_secs(120);
        layer.track(NodeId(0), &schedule, t);
        assert_eq!(layer.cache(NodeId(0)).len(), n - 1);
        layer.cache_mut(NodeId(0)).record_death(NodeId(1), t);
        assert_eq!(layer.cache(NodeId(0)).predictor(NodeId(1), t), Some(0.0));
        layer.untrack(NodeId(0));
        // track/untrack are no-ops on the full layers.
        let mut gossip = MembershipLayer::new(n, MembershipConfig::default(), &mut rng);
        gossip.track(NodeId(0), &schedule, t);
        gossip.untrack(NodeId(0));
        assert_eq!(gossip.cache(NodeId(0)).len(), n - 1);
    }
}
