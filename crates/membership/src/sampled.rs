//! Seed-deterministic sampled membership views for large-`n` worlds.
//!
//! The full-view layers ([`crate::gossip`], [`crate::onehop`]) keep a
//! [`NodeCache`] per node, so instantiating them is Θ(n²) cache entries —
//! fine at the paper's 1024 nodes, fatal at a million. [`SampledView`]
//! replaces that with an *oracle-with-bounded-staleness* model: the set of
//! peers a node would know about is a deterministic hash-derived sample of
//! size `view_size`, and each entry's liveness information is the ground
//! truth from the [`ChurnSchedule`] observed at a hash-jittered moment up
//! to `max_staleness` in the past. No per-node state exists until a node is
//! [`SampledView::track`]ed (typically only flow initiators), so total
//! memory is O(tracked × view_size) — independent of `n`.
//!
//! The layer stays inside the crate's determinism contract: construction
//! draws exactly one `u64` from the caller's RNG, and a view is a pure
//! function of `(seed, node, t, schedule)`. Peers are drawn as
//! `hash(seed, node, attempt) mod n` for `attempt = 0, 1, …` until
//! `view_size` (clamped to `n − 1`) distinct ones are found; the first
//! occurrence of an id wins and the owner is never its own peer. Two runs
//! with the same seed see the same views with the same staleness, byte
//! for byte.
//!
//! # How a view is built
//!
//! Biased mix choice ranks *every* entry of a view, so none of the
//! `view_size` schedule probes can be skipped; what can be chosen is their
//! order. Probing entry by entry makes one long dependent chain — hash,
//! offset table, session pool, store — whose two cache-missing loads never
//! overlap with the next entry's. `build_cache` therefore works in passes,
//! each a short loop of independent iterations, so the core has many
//! loads in flight where the chain had one:
//!
//! 1. *who* — draw and dedupe the peer ids;
//! 2. *when* — every entry's hash-jittered observation age;
//! 3. *where* — every peer's session span (the offset-table loads);
//! 4. *what* — every binary search ([`Session::containing`], the
//!    session-pool loads), writing Δt_alive or a death notice.
//!
//! Passes 1, 2 and 4 write straight into the `(id, entry)` list that
//! becomes the view's [`NodeCache`]; a `track` allocates nothing else. Two
//! things are scratch: the `drawn` bitset of the [`SampledView`] (one bit
//! per node id, dedupe for pass 1, zero again when the pass ends) and a
//! fixed-size stack array holding one block of spans between passes 3
//! and 4.

use crate::cache::{CacheEntry, IdMap, NodeCache};
use rand::Rng;
use simnet::{ChurnSchedule, NodeId, Session, SimDuration, SimTime};

/// Peers per block of the span-fetch and search passes: enough
/// independent loads to fill the core's miss queue several times over,
/// small enough that the fetched spans sit in a stack array.
const BLOCK: usize = 64;

/// Parameters for the sampled-view layer.
#[derive(Clone, Copy, Debug)]
pub struct SampledConfig {
    /// Peers per materialized view (clamped to `n - 1`).
    pub view_size: usize,
    /// Upper bound on how stale an entry's observation may be; each
    /// entry's actual staleness is hash-jittered in `[0, max_staleness]`.
    pub max_staleness: SimDuration,
}

impl Default for SampledConfig {
    fn default() -> Self {
        SampledConfig {
            view_size: 256,
            max_staleness: SimDuration::from_secs(30),
        }
    }
}

/// SplitMix64 finalizer — the same mixer the procedural latency backend
/// uses, giving hash-deterministic view membership without shared state.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn hash3(seed: u64, a: u64, b: u64) -> u64 {
    mix64(seed ^ mix64(a ^ mix64(b)))
}

/// One node's materialized state.
#[derive(Clone)]
struct Tracked {
    cache: NodeCache,
    /// Whether `cache` is a sampled view ([`SampledView::track`] built it)
    /// and so is rebuilt by [`SampledView::advance`], or only the record
    /// of first-hand deaths [`SampledView::cache_mut`] started.
    sampled: bool,
}

/// A membership layer whose views are deterministic samples refreshed from
/// ground truth, with O(tracked × view_size) total memory.
///
/// ```
/// use membership::{SampledConfig, SampledView};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
/// use simnet::{ChurnSchedule, NodeId, SimTime};
///
/// let n = 100_000;
/// let horizon = SimTime::from_secs(600);
/// let schedule = ChurnSchedule::always_up(n, horizon);
/// let mut rng = StdRng::seed_from_u64(7);
/// let mut view = SampledView::new(n, SampledConfig::default(), &mut rng);
///
/// // Only tracked nodes get a materialized cache.
/// view.track(NodeId(42), &schedule, SimTime::from_secs(60));
/// let cache = view.cache(NodeId(42));
/// assert_eq!(cache.len(), 256);
/// assert!(!cache.contains(NodeId(42)), "never samples itself");
/// ```
#[derive(Clone)]
pub struct SampledView {
    n: usize,
    cfg: SampledConfig,
    seed: u64,
    now: SimTime,
    tracked: IdMap<Tracked>,
    /// Scratch for pass 1 of `build_cache`: one bit per node id, set while
    /// that id is in the view being drawn, all zero between builds.
    drawn: Vec<u64>,
}

impl SampledView {
    /// Instantiate for `n` nodes, drawing one seed word from `rng`.
    pub fn new<R: Rng>(n: usize, cfg: SampledConfig, rng: &mut R) -> Self {
        assert!(n >= 2, "sampled view needs at least two nodes");
        assert!(cfg.view_size >= 1, "view_size must be positive");
        SampledView {
            n,
            cfg,
            seed: rng.gen::<u64>(),
            now: SimTime::ZERO,
            tracked: IdMap::default(),
            drawn: vec![0; n.div_ceil(64)],
        }
    }

    /// The seed word driving view membership and staleness jitter.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Effective peers per view.
    pub fn view_size(&self) -> usize {
        self.cfg.view_size.min(self.n - 1)
    }

    /// Number of nodes with materialized views.
    pub fn tracked_len(&self) -> usize {
        self.tracked.len()
    }

    /// Whether `node` currently has a materialized view.
    pub fn is_tracked(&self, node: NodeId) -> bool {
        self.tracked.contains_key(&node)
    }

    /// Build `node`'s view fresh from ground truth at time `t`, in the
    /// passes the module docs describe.
    fn build_cache(&mut self, node: NodeId, schedule: &ChurnSchedule, t: SimTime) -> NodeCache {
        let (k, n, seed) = (self.view_size(), self.n as u64, self.seed);
        let owner = u64::from(node.0);
        let mut view: Vec<(NodeId, CacheEntry)> = Vec::with_capacity(k);

        // Pass 1: who. First occurrence of a drawn id wins; a peer with no
        // live session at its observation instant keeps this entry.
        let unobserved = CacheEntry {
            delta_alive: SimDuration::ZERO,
            delta_since: SimDuration::ZERO,
            t_last: t,
            dead: true,
        };
        let mut attempt: u64 = 0;
        while view.len() < k {
            let peer = NodeId((hash3(seed, owner, attempt) % n) as u32);
            attempt += 1;
            let (word, bit) = (peer.index() / 64, 1u64 << (peer.0 % 64));
            if peer == node || self.drawn[word] & bit != 0 {
                continue;
            }
            self.drawn[word] |= bit;
            view.push((peer, unobserved));
        }
        // Every bit set above belongs to this view, so whole words go.
        for (peer, _) in &view {
            self.drawn[peer.index() / 64] = 0;
        }

        // Pass 2: when. Hash-jittered observation age: each entry was last
        // heard about up to `max_staleness` ago, deterministically per
        // (seed, node, peer, t).
        let span = self.cfg.max_staleness.as_micros() + 1;
        for (peer, entry) in &mut view {
            let jitter = hash3(
                seed ^ 0xA5A5_A5A5_A5A5_A5A5,
                owner,
                u64::from(peer.0) ^ t.as_micros(),
            ) % span;
            entry.delta_since = SimDuration(jitter);
        }

        // Passes 3 and 4: what was true then. All of a block's spans are
        // fetched before any is searched, so the loads that miss (the
        // offset table, then the session pool) are in flight together.
        for block in view.chunks_mut(BLOCK) {
            let mut spans: [&[Session]; BLOCK] = [&[]; BLOCK];
            for (span, (peer, _)) in spans.iter_mut().zip(block.iter()) {
                *span = schedule.sessions(*peer);
            }
            for (span, (_, entry)) in spans.iter().zip(block.iter_mut()) {
                let t_obs = SimTime(t.as_micros().saturating_sub(entry.delta_since.as_micros()));
                if let Some(session) = Session::containing(span, t_obs) {
                    entry.delta_alive = t_obs - session.start;
                    entry.dead = false;
                }
            }
        }
        NodeCache::from_distinct(view)
    }

    /// Materialize (or refresh) `node`'s view from ground truth at `now`.
    pub fn track(&mut self, node: NodeId, schedule: &ChurnSchedule, now: SimTime) {
        assert!(node.index() < self.n, "node out of range");
        if now > self.now {
            self.now = now;
        }
        let cache = self.build_cache(node, schedule, self.now);
        self.tracked.insert(
            node,
            Tracked {
                cache,
                sampled: true,
            },
        );
    }

    /// Drop `node`'s materialized view, releasing its memory.
    pub fn untrack(&mut self, node: NodeId) {
        self.tracked.remove(&node);
    }

    /// Advance layer time, refreshing every view [`SampledView::track`]
    /// materialized from ground truth.
    pub fn advance(&mut self, schedule: &ChurnSchedule, until: SimTime) {
        if until <= self.now {
            return;
        }
        self.now = self.now.max(until);
        let sampled = self.tracked.iter().filter(|(_, tracked)| tracked.sampled);
        let nodes: Vec<NodeId> = sampled.map(|(&node, _)| node).collect();
        for node in nodes {
            let cache = self.build_cache(node, schedule, self.now);
            if let Some(tracked) = self.tracked.get_mut(&node) {
                tracked.cache = cache;
            }
        }
    }

    /// A tracked node's cache.
    ///
    /// # Panics
    /// Panics if `node` was never [`SampledView::track`]ed — the sampled
    /// layer holds no state for untracked nodes by design.
    pub fn cache(&self, node: NodeId) -> &NodeCache {
        &self
            .tracked
            .get(&node)
            .unwrap_or_else(|| panic!("sampled view: {node} is not tracked (call track() first)"))
            .cache
    }

    /// Mutable cache access, materializing an *empty* cache for untracked
    /// nodes so failure-detection writes (`record_death`) always land.
    ///
    /// Such a cache holds only what was written into it: it is not a
    /// sampled view, so [`SampledView::advance`] leaves it as it is (the
    /// recorded deaths stay, and it never grows to `view_size` entries),
    /// until [`SampledView::track`] replaces it with a view or
    /// [`SampledView::untrack`] drops it.
    pub fn cache_mut(&mut self, node: NodeId) -> &mut NodeCache {
        &mut self
            .tracked
            .entry(node)
            .or_insert_with(|| Tracked {
                cache: NodeCache::new(),
                sampled: false,
            })
            .cache
    }

    /// Layer-local time (last processed activity).
    pub fn now(&self) -> SimTime {
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use simnet::LifetimeDistribution;

    fn fixture(n: usize, seed: u64) -> (ChurnSchedule, SampledView) {
        let horizon = SimTime::from_secs(600);
        let dist = LifetimeDistribution::pareto_with_median(300.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let schedule = ChurnSchedule::generate(n, &dist, &dist, horizon, &mut rng);
        let view = SampledView::new(n, SampledConfig::default(), &mut rng);
        (schedule, view)
    }

    #[test]
    fn views_are_seed_deterministic() {
        let (schedule_a, mut a) = fixture(4096, 11);
        let (schedule_b, mut b) = fixture(4096, 11);
        let t = SimTime::from_secs(120);
        for node in [NodeId(0), NodeId(17), NodeId(4095)] {
            a.track(node, &schedule_a, t);
            b.track(node, &schedule_b, t);
            let mut va: Vec<_> = a
                .cache(node)
                .entries()
                .map(|(id, e)| (id, e.predictor(t).to_bits()))
                .collect();
            let mut vb: Vec<_> = b
                .cache(node)
                .entries()
                .map(|(id, e)| (id, e.predictor(t).to_bits()))
                .collect();
            va.sort_unstable();
            vb.sort_unstable();
            assert_eq!(va, vb);
        }
    }

    #[test]
    fn view_excludes_self_and_has_no_duplicates() {
        let (schedule, mut view) = fixture(1000, 3);
        view.track(NodeId(5), &schedule, SimTime::from_secs(60));
        let cache = view.cache(NodeId(5));
        assert_eq!(cache.len(), 256);
        assert!(!cache.contains(NodeId(5)));
    }

    #[test]
    fn small_n_clamps_view_to_everyone_else() {
        let (schedule, mut view) = fixture(8, 9);
        view.track(NodeId(0), &schedule, SimTime::from_secs(10));
        assert_eq!(view.cache(NodeId(0)).len(), 7);
        assert_eq!(view.view_size(), 7);
    }

    #[test]
    fn untracked_memory_stays_flat() {
        let (schedule, mut view) = fixture(100_000, 5);
        assert_eq!(view.tracked_len(), 0);
        view.track(NodeId(1), &schedule, SimTime::from_secs(30));
        view.track(NodeId(2), &schedule, SimTime::from_secs(30));
        assert_eq!(view.tracked_len(), 2);
        view.untrack(NodeId(1));
        assert_eq!(view.tracked_len(), 1);
        assert!(!view.is_tracked(NodeId(1)));
    }

    #[test]
    fn observations_reflect_bounded_stale_ground_truth() {
        // With always-up ground truth, every sampled entry must carry a
        // positive liveness predictor regardless of jitter.
        let horizon = SimTime::from_secs(600);
        let schedule = ChurnSchedule::always_up(5000, horizon);
        let mut rng = StdRng::seed_from_u64(2);
        let mut view = SampledView::new(5000, SampledConfig::default(), &mut rng);
        let t = SimTime::from_secs(300);
        view.track(NodeId(77), &schedule, t);
        for (peer, entry) in view.cache(NodeId(77)).entries() {
            assert!(entry.predictor(t) > 0.0, "{peer} should look alive");
        }
    }

    #[test]
    fn advance_refreshes_tracked_views() {
        let (schedule, mut view) = fixture(2000, 13);
        view.track(NodeId(9), &schedule, SimTime::from_secs(10));
        let mut before: Vec<_> = view
            .cache(NodeId(9))
            .entries()
            .map(|(id, e)| (id, e.predictor(SimTime::from_secs(10)).to_bits()))
            .collect();
        view.advance(&schedule, SimTime::from_secs(400));
        assert_eq!(view.now(), SimTime::from_secs(400));
        let mut after: Vec<_> = view
            .cache(NodeId(9))
            .entries()
            .map(|(id, e)| (id, e.predictor(SimTime::from_secs(400)).to_bits()))
            .collect();
        before.sort_unstable();
        after.sort_unstable();
        // Same deterministic peer set, refreshed observations.
        let ids_before: Vec<_> = before.iter().map(|(id, _)| *id).collect();
        let ids_after: Vec<_> = after.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids_before, ids_after);
        assert_ne!(before, after);
    }

    #[test]
    fn cache_mut_materializes_empty_for_failure_detection() {
        let (_, mut view) = fixture(64, 21);
        let now = SimTime::from_secs(50);
        view.cache_mut(NodeId(3)).record_death(NodeId(4), now);
        assert_eq!(view.cache(NodeId(3)).predictor(NodeId(4), now), Some(0.0));
    }

    #[test]
    fn advance_leaves_a_failure_detection_cache_alone() {
        let (schedule, mut view) = fixture(2000, 21);
        let now = SimTime::from_secs(50);
        view.cache_mut(NodeId(3)).record_death(NodeId(4), now);
        view.track(NodeId(9), &schedule, now);
        view.advance(&schedule, SimTime::from_secs(400));
        let t = view.now();
        assert_eq!(view.cache(NodeId(3)).predictor(NodeId(4), t), Some(0.0));
        assert_eq!(view.cache(NodeId(3)).len(), 1);
        assert_eq!(view.cache(NodeId(9)).len(), 256, "tracked views refresh");
    }

    #[test]
    #[should_panic(expected = "not tracked")]
    fn untracked_cache_read_panics() {
        let (_, view) = fixture(64, 1);
        let _ = view.cache(NodeId(0));
    }
}
