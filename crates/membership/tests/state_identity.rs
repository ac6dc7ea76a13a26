//! Byte identity of membership *state*, not only of the CSVs computed
//! from it.
//!
//! The known-answer constants below were recorded at the commit before
//! `NodeCache` moved off `HashMap` (PR 16's parent). They hash every
//! `(node, peer, Δt_alive, Δt_since, t_last, dead)` in peer-id order, so a
//! reordered RNG draw, a changed peer sample or a lost update fails here,
//! by name, before it surfaces as a golden diff three crates away.
//!
//! The fork tests are the property ROADMAP item 1(a) stands on: a cloned
//! warmed layer, advanced with a cloned RNG, is indistinguishable from the
//! original.

use membership::{
    GossipConfig, GossipSim, MembershipConfig, MembershipLayer, NodeCache, SampledConfig,
    SampledView,
};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use simnet::{ChurnSchedule, LifetimeDistribution, NodeId, SimDuration, SimTime};

const N: usize = 64;
const WARM: SimTime = SimTime::from_secs(3600);
const HORIZON: SimTime = SimTime::from_secs(7200);

/// FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold `owner`'s whole view in, in peer-id order (the cache's own
    /// iteration order is a layout detail).
    fn view(&mut self, owner: NodeId, cache: &NodeCache) {
        let mut entries: Vec<_> = cache.entries().collect();
        entries.sort_unstable_by_key(|&(peer, _)| peer);
        self.word(u64::from(owner.0));
        self.word(entries.len() as u64);
        for (peer, e) in entries {
            self.word(u64::from(peer.0));
            self.word(e.delta_alive.as_micros());
            self.word(e.delta_since.as_micros());
            self.word(e.t_last.as_micros());
            self.word(u64::from(e.dead));
        }
    }
}

fn churn(rng: &mut StdRng) -> ChurnSchedule {
    let dist = LifetimeDistribution::PAPER_DEFAULT;
    ChurnSchedule::generate(N, &dist, &dist, HORIZON, rng)
}

fn gossip_hash(gossip: &GossipSim) -> u64 {
    let mut h = Fnv::new();
    for i in 0..N {
        h.view(NodeId::from(i), gossip.cache(NodeId::from(i)));
    }
    h.word(gossip.messages_sent());
    h.word(gossip.messages_lost());
    h.0
}

fn warmed_gossip(cfg: GossipConfig) -> (StdRng, ChurnSchedule, GossipSim) {
    let mut rng = StdRng::seed_from_u64(16);
    let schedule = churn(&mut rng);
    let mut gossip = GossipSim::new(N, cfg, &mut rng);
    gossip.advance(&schedule, WARM, &mut rng);
    (rng, schedule, gossip)
}

const TRACKED: [NodeId; 3] = [NodeId(0), NodeId(17), NodeId(4095)];

fn sampled_hash(view: &SampledView) -> u64 {
    let mut h = Fnv::new();
    for node in TRACKED {
        h.view(node, view.cache(node));
    }
    h.0
}

/// A seed-16 world of `n` nodes and its sampled layer, nobody tracked yet.
fn sampled_world(n: usize) -> (ChurnSchedule, SampledView) {
    let dist = LifetimeDistribution::pareto_with_median(300.0);
    let mut rng = StdRng::seed_from_u64(16);
    let schedule = ChurnSchedule::generate(n, &dist, &dist, SimTime::from_secs(600), &mut rng);
    let view = SampledView::new(n, SampledConfig::default(), &mut rng);
    (schedule, view)
}

fn tracked_views() -> (ChurnSchedule, SampledView) {
    let (schedule, mut view) = sampled_world(4096);
    for (i, node) in TRACKED.into_iter().enumerate() {
        view.track(node, &schedule, SimTime::from_secs(60 * (i as u64 + 1)));
    }
    (schedule, view)
}

#[test]
fn gossip_state_matches_parent_commit() {
    let (_, _, gossip) = warmed_gossip(GossipConfig::default());
    assert_eq!(gossip_hash(&gossip), 0xb2ee_6b76_7113_171c);
}

/// Recorded on PR 25's parent, before `sample_universe` deduped against a
/// bitset: the `sim_recovery` world's membership (n = 256, the paper's
/// churn and gossip defaults) after its one-hour warm-up.
#[test]
fn paper_scale_gossip_matches_parent_commit() {
    const PAPER_N: usize = 256;
    let mut rng = StdRng::seed_from_u64(25);
    let dist = LifetimeDistribution::PAPER_DEFAULT;
    let schedule = ChurnSchedule::generate(PAPER_N, &dist, &dist, HORIZON, &mut rng);
    let mut gossip = GossipSim::new(PAPER_N, GossipConfig::default(), &mut rng);
    gossip.advance(&schedule, WARM, &mut rng);
    let mut h = Fnv::new();
    for i in 0..PAPER_N {
        h.view(NodeId::from(i), gossip.cache(NodeId::from(i)));
    }
    h.word(gossip.messages_sent());
    h.word(gossip.messages_lost());
    h.word(rng.next_u64());
    assert_eq!(h.0, 0x064c_7941_0ad2_5454);
}

#[test]
fn gossip_state_with_eviction_matches_parent_commit() {
    let cfg = GossipConfig {
        // Short enough that entries really are evicted and re-learned (at
        // 600 s nothing ever goes stale in a 64-node full-digest overlay).
        stale_timeout: Some(SimDuration::from_secs(60)),
        ..GossipConfig::default()
    };
    let (_, _, gossip) = warmed_gossip(cfg);
    assert_eq!(gossip_hash(&gossip), 0x66da_e3a4_808f_5c4a);
}

#[test]
fn sampled_views_match_parent_commit() {
    let (schedule, mut view) = tracked_views();
    assert_eq!(sampled_hash(&view), 0x0fa0_7ea7_4e9d_6df1);
    view.advance(&schedule, SimTime::from_secs(400));
    assert_eq!(sampled_hash(&view), 0x4c1c_3f03_ec52_b809);
}

/// Hash of the views `nodes` get when tracked at `t` in a world of `n`.
fn sampled_hash_at(n: usize, nodes: &[NodeId], t: SimTime) -> u64 {
    let (schedule, mut view) = sampled_world(n);
    let mut h = Fnv::new();
    for &node in nodes {
        view.track(node, &schedule, t);
        h.view(node, view.cache(node));
    }
    h.0
}

/// Recorded on PR 24's parent, before `build_cache` became a batch.
#[test]
fn tiny_world_view_matches_parent_commit() {
    // n = 8: the view is everyone else, and almost every draw after the
    // first few is a duplicate, so first-occurrence-wins decides the fill.
    let nodes = [NodeId(0), NodeId(3), NodeId(7)];
    assert_eq!(
        sampled_hash_at(8, &nodes, SimTime::from_secs(120)),
        0xb408_571f_64ac_fd80
    );
}

/// Recorded on PR 24's parent, before `build_cache` became a batch.
#[test]
fn early_view_matches_parent_commit() {
    // t = 5 s < max_staleness = 30 s: most observation instants clamp to
    // time zero (the `saturating_sub` arm).
    assert_eq!(
        sampled_hash_at(4096, &TRACKED, SimTime::from_secs(5)),
        0x032b_0a56_5be8_1b91
    );
}

#[test]
fn forked_gossip_advances_identically() {
    let (mut rng, schedule, mut gossip) = warmed_gossip(GossipConfig::default());
    let (mut fork_rng, mut fork) = (rng.clone(), gossip.clone());
    gossip.advance(&schedule, HORIZON, &mut rng);
    assert_ne!(gossip_hash(&gossip), gossip_hash(&fork), "fork is a copy");
    fork.advance(&schedule, HORIZON, &mut fork_rng);
    assert_eq!(gossip_hash(&gossip), gossip_hash(&fork));
}

#[test]
fn forked_layers_advance_identically() {
    let layer_hash = |layer: &MembershipLayer, nodes: &[NodeId]| {
        let mut h = Fnv::new();
        for &node in nodes {
            h.view(node, layer.cache(node));
        }
        h.word(layer.now().as_micros());
        h.0
    };
    let everyone: Vec<NodeId> = (0..N).map(NodeId::from).collect();
    for (cfg, nodes) in [
        (MembershipConfig::default(), &everyone[..]),
        (MembershipConfig::onehop_default(), &everyone[..]),
        (MembershipConfig::sampled_default(), &everyone[..3]),
    ] {
        let mut rng = StdRng::seed_from_u64(16);
        let schedule = churn(&mut rng);
        let mut layer = MembershipLayer::new(N, cfg, &mut rng);
        for &node in nodes {
            layer.track(node, &schedule, SimTime::from_secs(30));
        }
        layer.advance(&schedule, WARM, &mut rng);
        layer.cache_mut(nodes[0]).record_death(nodes[1], WARM);

        let (mut fork_rng, mut fork) = (rng.clone(), layer.clone());
        layer.advance(&schedule, HORIZON, &mut rng);
        fork.advance(&schedule, HORIZON, &mut fork_rng);
        assert_eq!(
            layer_hash(&layer, nodes),
            layer_hash(&fork, nodes),
            "{}",
            cfg.label()
        );
    }
}
