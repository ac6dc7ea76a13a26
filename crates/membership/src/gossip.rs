//! Round-based epidemic gossip driving the node caches.
//!
//! Each live node wakes every `interval` (rounds are staggered per node to
//! avoid lock-step artifacts), picks `fanout` random peers from its cache,
//! and pushes a gossip message containing its own fresh liveness entry plus
//! a `digest_size`-entry random sample of its cache with piggybacked
//! `(Δt_alive, Δt_since)` values. Peers that are down simply miss the
//! message — exactly how stale information accumulates in the paper.
//!
//! Message propagation delay is far below the gossip interval in the
//! simulated network (tens of ms vs tens of seconds), so delivery is
//! applied at the round timestamp; what the experiments measure is
//! information *staleness*, which is dominated by round timing, not by
//! link latency (see DESIGN.md, substitutions).

use crate::cache::NodeCache;
use crate::liveness::LivenessInfo;
use rand::Rng;
use simnet::{ChurnSchedule, NodeId, SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Gossip protocol parameters.
#[derive(Clone, Copy, Debug)]
pub struct GossipConfig {
    /// Time between a node's gossip rounds.
    pub interval: SimDuration,
    /// Number of peers contacted per round.
    pub fanout: usize,
    /// Number of cache entries piggybacked per message (the sender's own
    /// entry travels in addition to these).
    pub digest_size: usize,
    /// If set, entries staler than this are evicted from caches; `None`
    /// keeps every node ever heard of (the open-membership default).
    pub stale_timeout: Option<SimDuration>,
}

impl Default for GossipConfig {
    fn default() -> Self {
        GossipConfig {
            interval: SimDuration::from_secs(30),
            fanout: 2,
            digest_size: 64,
            stale_timeout: None,
        }
    }
}

/// The gossip layer over a whole simulated network: one cache per node plus
/// the round scheduler. Plain data: a clone (with a clone of the RNG) is a
/// fork that replays identically.
#[derive(Clone)]
pub struct GossipSim {
    caches: Vec<NodeCache>,
    rounds: BinaryHeap<Reverse<(SimTime, u32)>>,
    cfg: GossipConfig,
    now: SimTime,
    messages_sent: u64,
    messages_lost: u64,
    /// Per-round scratch, kept so a round allocates nothing: the ids drawn
    /// by the current sampling pass, the digest built from them, and the
    /// pass's dedupe bitset (one bit per node id, all zero between passes).
    picked: Vec<NodeId>,
    digest: Vec<(NodeId, LivenessInfo)>,
    seen: Vec<u64>,
}

impl GossipSim {
    /// Create the layer for `n` nodes with bootstrap-complete caches and
    /// per-node round phases randomized within one interval.
    pub fn new<R: Rng>(n: usize, cfg: GossipConfig, rng: &mut R) -> Self {
        assert!(cfg.fanout >= 1, "fanout must be at least 1");
        let caches = (0..n)
            .map(|i| NodeCache::bootstrap((0..n).filter(|&j| j != i).map(NodeId::from)))
            .collect();
        let mut rounds = BinaryHeap::with_capacity(n);
        for i in 0..n {
            let phase = SimDuration(rng.gen_range(0..cfg.interval.as_micros().max(1)));
            rounds.push(Reverse((SimTime::ZERO + phase, i as u32)));
        }
        GossipSim {
            caches,
            rounds,
            cfg,
            now: SimTime::ZERO,
            messages_sent: 0,
            messages_lost: 0,
            picked: Vec::with_capacity(cfg.digest_size.max(cfg.fanout)),
            digest: Vec::with_capacity(cfg.digest_size),
            seen: vec![0; n.div_ceil(64)],
        }
    }

    /// The membership cache of `node`.
    pub fn cache(&self, node: NodeId) -> &NodeCache {
        &self.caches[node.index()]
    }

    /// Mutable access (used by protocols to inject direct observations,
    /// e.g. acks from relays).
    pub fn cache_mut(&mut self, node: NodeId) -> &mut NodeCache {
        &mut self.caches[node.index()]
    }

    /// Current gossip-layer time (the last processed round).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Gossip messages delivered so far.
    pub fn messages_sent(&self) -> u64 {
        self.messages_sent
    }

    /// Gossip messages that found their target down.
    pub fn messages_lost(&self) -> u64 {
        self.messages_lost
    }

    /// Process all gossip rounds with timestamps `<= until` against the
    /// ground-truth churn schedule.
    pub fn advance<R: Rng>(&mut self, schedule: &ChurnSchedule, until: SimTime, rng: &mut R) {
        while let Some(&Reverse((t, node_idx))) = self.rounds.peek() {
            if t > until {
                break;
            }
            self.rounds.pop();
            self.rounds.push(Reverse((t + self.cfg.interval, node_idx)));
            self.now = t;
            let sender = NodeId(node_idx);

            // A node that is down neither gossips nor refreshes anything.
            let Some(sender_uptime) = schedule.uptime_at(sender, t) else {
                continue;
            };

            if let Some(timeout) = self.cfg.stale_timeout {
                self.caches[sender.index()].evict_stale(t, timeout);
            }

            // Build the digest once per round from the sender's cache, then
            // pick the targets — in that order, it is the RNG draw order.
            let GossipSim {
                caches,
                picked,
                digest,
                seen,
                ..
            } = self;
            let n = caches.len() as u32;
            let cache = &caches[sender.index()];
            digest.clear();
            let digest_size = self.cfg.digest_size.min(caches.len() - 1);
            sample_universe(n, sender, digest_size, rng, picked, seen, |cand| {
                cache
                    .get(cand)
                    .map(|entry| digest.push((cand, entry.piggyback(t))))
                    .is_some()
            });
            sample_universe(n, sender, self.cfg.fanout, rng, picked, seen, |cand| {
                cache.contains(cand)
            });
            for &target in picked.iter() {
                if !schedule.is_up(target, t) {
                    // Delivery failure: the sender detects the silent peer
                    // (timeout) and records a death notice that future
                    // digests will disseminate — OneHop's membership-change
                    // propagation.
                    self.messages_lost += 1;
                    caches[sender.index()].record_death(target, t);
                    continue;
                }
                self.messages_sent += 1;
                let cache = &mut caches[target.index()];
                cache.hear_direct(sender, sender_uptime, t);
                for &(node, info) in digest.iter() {
                    if node != target {
                        cache.hear_indirect(node, info, t);
                    }
                }
            }
        }
        if self.now < until {
            self.now = until;
        }
    }
}

/// Sample up to `count` distinct peers of `sender` into `out`, uniformly
/// over the node universe `0..n`, keeping a candidate only if `accept`
/// finds it in the sender's cache.
///
/// With the default open-membership configuration the cache contains
/// (nearly) every node, so this is equivalent to sampling the cache
/// directly, but O(count) instead of O(cache); with eviction enabled
/// misses are simply skipped, mildly under-filling the sample.
///
/// Duplicates are rejected against `seen`, one bit per id of `0..n`, all
/// zero on entry and again on return: an accepted id sets its bit, and the
/// bits are cleared by walking `out`. A candidate `accept` turns down stays
/// unmarked and may be drawn and asked again, so the draws, the accepts and
/// the output order are those of a scan of `out` per draw.
pub fn sample_universe<R: Rng>(
    n: u32,
    sender: NodeId,
    count: usize,
    rng: &mut R,
    out: &mut Vec<NodeId>,
    seen: &mut [u64],
    mut accept: impl FnMut(NodeId) -> bool,
) {
    out.clear();
    let mut tries = 0usize;
    while out.len() < count && tries < count * 8 + 16 {
        tries += 1;
        let cand = NodeId(rng.gen_range(0..n));
        let (word, bit) = (cand.index() / 64, 1u64 << (cand.0 % 64));
        if cand != sender && seen[word] & bit == 0 && accept(cand) {
            seen[word] |= bit;
            out.push(cand);
        }
    }
    for &id in out.iter() {
        seen[id.index() / 64] = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use simnet::LifetimeDistribution;

    fn quick_cfg() -> GossipConfig {
        GossipConfig {
            interval: SimDuration::from_secs(10),
            fanout: 3,
            digest_size: 32,
            stale_timeout: None,
        }
    }

    #[test]
    fn information_propagates_through_rounds() {
        let n = 50;
        let mut rng = StdRng::seed_from_u64(1);
        let horizon = SimTime::from_secs(600);
        let schedule = ChurnSchedule::always_up(n, horizon);
        let mut gossip = GossipSim::new(n, quick_cfg(), &mut rng);
        gossip.advance(&schedule, horizon, &mut rng);

        // After 60 rounds of fanout-3 gossip in a 50-node always-up
        // network, every node's view of every other node should be fresh:
        // predictor close to 1 because everyone keeps being heard.
        let now = horizon;
        let mut fresh = 0usize;
        let mut total = 0usize;
        for i in 0..n {
            let cache = gossip.cache(NodeId::from(i));
            for (_, entry) in cache.entries() {
                total += 1;
                if entry.predictor(now) > 0.8 {
                    fresh += 1;
                }
            }
        }
        let frac = fresh as f64 / total as f64;
        assert!(frac > 0.95, "only {frac:.2} of entries fresh");
        assert!(gossip.messages_sent() > 0);
        assert_eq!(gossip.messages_lost(), 0);
    }

    #[test]
    fn down_nodes_neither_send_nor_receive() {
        let n = 10;
        let mut rng = StdRng::seed_from_u64(2);
        let horizon = SimTime::from_secs(300);
        // A custom per-node down schedule is not exposed, so use churn so
        // extreme (1-2 s lifetimes) that targets are often down, and test
        // the observable behaviour through lost messages instead.
        let dist = LifetimeDistribution::Uniform {
            min_secs: 1.0,
            max_secs: 2.0,
        };
        let schedule = ChurnSchedule::generate(n, &dist, &dist, horizon, &mut rng);
        let mut gossip = GossipSim::new(n, quick_cfg(), &mut rng);
        gossip.advance(&schedule, horizon, &mut rng);
        // With ~50% availability and random targets, a healthy fraction of
        // messages are lost to down targets.
        assert!(
            gossip.messages_lost() > 0,
            "some gossip must hit down nodes"
        );
    }

    #[test]
    fn biased_choice_tracks_actual_liveness_under_churn() {
        // The end-to-end property the paper relies on: after gossip under
        // churn, picking the top-q nodes yields mostly live nodes while
        // uniform picks reflect base availability.
        let n = 200;
        let mut rng = StdRng::seed_from_u64(3);
        let horizon = SimTime::from_secs(7200);
        let dist = LifetimeDistribution::PAPER_DEFAULT;
        let schedule = ChurnSchedule::generate(n, &dist, &dist, horizon, &mut rng);
        let cfg = GossipConfig {
            interval: SimDuration::from_secs(30),
            fanout: 2,
            digest_size: 64,
            stale_timeout: None,
        };
        let mut gossip = GossipSim::new(n, cfg, &mut rng);
        let probe = SimTime::from_secs(5400);
        gossip.advance(&schedule, probe, &mut rng);

        // Probe from every node that is up.
        let mut biased_live = 0usize;
        let mut biased_total = 0usize;
        let mut random_live = 0usize;
        let mut random_total = 0usize;
        for i in 0..n {
            let me = NodeId::from(i);
            if !schedule.is_up(me, probe) {
                continue;
            }
            let cache = gossip.cache(me);
            for pick in cache.select_biased(6, &[me], probe) {
                biased_total += 1;
                if schedule.is_up(pick, probe) {
                    biased_live += 1;
                }
            }
            for pick in cache.select_random(6, &[me], &mut rng) {
                random_total += 1;
                if schedule.is_up(pick, probe) {
                    random_live += 1;
                }
            }
        }
        let biased_frac = biased_live as f64 / biased_total as f64;
        let random_frac = random_live as f64 / random_total as f64;
        assert!(
            biased_frac > random_frac + 0.2,
            "biased {biased_frac:.2} must clearly beat random {random_frac:.2}"
        );
        assert!(
            biased_frac > 0.8,
            "biased picks should be mostly live ({biased_frac:.2})"
        );
    }

    #[test]
    fn stale_timeout_evicts_departed_nodes() {
        let n = 30;
        let mut rng = StdRng::seed_from_u64(4);
        let horizon = SimTime::from_secs(1200);
        // Short sessions, long downtimes: most nodes are gone most of the
        // time after their first session ends.
        let up = LifetimeDistribution::Uniform {
            min_secs: 30.0,
            max_secs: 60.0,
        };
        let down = LifetimeDistribution::Uniform {
            min_secs: 5000.0,
            max_secs: 6000.0,
        };
        let schedule = ChurnSchedule::generate(n, &up, &down, horizon, &mut rng);
        let cfg = GossipConfig {
            interval: SimDuration::from_secs(10),
            fanout: 3,
            digest_size: 32,
            stale_timeout: Some(SimDuration::from_secs(120)),
        };
        let mut gossip = GossipSim::new(n, cfg, &mut rng);
        gossip.advance(&schedule, horizon, &mut rng);
        // Any node still gossiping at the end should have evicted most of
        // the network (all down and silent for ~18 minutes).
        let survivor = (0..n)
            .map(NodeId::from)
            .find(|&i| schedule.is_up(i, horizon));
        if let Some(s) = survivor {
            assert!(
                gossip.cache(s).len() < n / 2,
                "cache should have shrunk, still has {}",
                gossip.cache(s).len()
            );
        }
    }

    #[test]
    fn deterministic_under_same_seed() {
        let n = 40;
        let horizon = SimTime::from_secs(600);
        let run = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let dist = LifetimeDistribution::pareto_with_median(300.0);
            let schedule = ChurnSchedule::generate(n, &dist, &dist, horizon, &mut rng);
            let mut gossip = GossipSim::new(n, quick_cfg(), &mut rng);
            gossip.advance(&schedule, horizon, &mut rng);
            let mut fingerprint = Vec::new();
            for i in 0..n {
                let cache = gossip.cache(NodeId::from(i));
                let mut entries: Vec<_> = cache
                    .entries()
                    .map(|(n, e)| (n, e.delta_alive, e.t_last))
                    .collect();
                entries.sort_by_key(|&(n, ..)| n);
                fingerprint.push(entries);
            }
            (gossip.messages_sent(), gossip.messages_lost(), fingerprint)
        };
        assert_eq!(run(99), run(99));
    }

    #[test]
    fn advance_is_incremental() {
        // advance(t1) then advance(t2) equals advance(t2) directly.
        let n = 20;
        let horizon = SimTime::from_secs(400);
        let build = || {
            let mut rng = StdRng::seed_from_u64(5);
            let schedule = ChurnSchedule::always_up(n, horizon);
            let gossip = GossipSim::new(n, quick_cfg(), &mut rng);
            (rng, schedule, gossip)
        };
        let (mut r1, s1, mut g1) = build();
        g1.advance(&s1, SimTime::from_secs(200), &mut r1);
        g1.advance(&s1, horizon, &mut r1);
        let (mut r2, s2, mut g2) = build();
        g2.advance(&s2, horizon, &mut r2);
        assert_eq!(g1.messages_sent(), g2.messages_sent());
        assert_eq!(g1.now(), g2.now());
    }
}
