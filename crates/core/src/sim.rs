//! The trajectory-level simulation world: the paper's evaluation substrate.
//!
//! A [`World`] bundles the ground-truth churn schedule, the latency model
//! (dense matrix at paper scale, O(1)-memory procedural at 100k–1M nodes)
//! and the membership layer. Path construction and message
//! delivery are evaluated hop by hop against the schedule: a message
//! leaving node `a` at time `t` reaches node `b` at `t + owd(a, b)` and
//! survives only if `b` is up at the arrival instant — exactly the
//! semantics the message-level implementation exhibits, minus the
//! cryptography (benchmarked separately; it does not affect who wins).

use crate::mix::{choose_disjoint_paths, choose_path, MixStrategy};
use crate::AnonError;
use membership::{MembershipConfig, MembershipLayer, NodeCache};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use simnet::{
    ChurnEvent, ChurnSchedule, Latency, LifetimeDistribution, NodeId, SimDuration, SimTime,
    TopologyKind,
};
use std::cell::Cell;
use std::sync::Arc;

/// Cumulative evaluation counters for one world.
///
/// Updated through `&self` (via `Cell`) so the read-only traversal path
/// keeps its `&self` signature; snapshotted into run traces by the
/// experiment drivers.
#[derive(Clone, Debug, Default)]
pub struct WorldStats {
    traversals: Cell<u64>,
    links: Cell<u64>,
    probes: Cell<u64>,
}

impl WorldStats {
    /// Hop-by-hop path traversals evaluated against the churn schedule.
    pub fn traversals(&self) -> u64 {
        self.traversals.get()
    }

    /// Total links walked across all traversals (the bandwidth-accounting
    /// unit; includes partial traversal of failed paths).
    pub fn links(&self) -> u64 {
        self.links.get()
    }

    /// Failure-localization probes issued (§4.5 timeout/retry rounds).
    pub fn probes(&self) -> u64 {
        self.probes.get()
    }
}

/// How an initiator learns which hop of a failed path is dead (§4.5).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureDetection {
    /// Instant, free knowledge of the failed hop — the seed experiments'
    /// simplification (mix choice gets failure information at the moment
    /// of the failure, with no probing cost).
    Oracle,
    /// The paper's timeout/retry localization: the initiator probes hops
    /// in path order; each live hop costs one probe round trip over the
    /// path prefix, and the dead hop costs a full `probe_timeout` wait.
    Timed {
        /// How long the initiator waits on a silent hop before declaring
        /// it dead.
        probe_timeout: SimDuration,
    },
}

/// Parameters of a simulated network.
#[derive(Clone, Debug, PartialEq)]
pub struct WorldConfig {
    /// Number of nodes (paper: 1024).
    pub n: usize,
    /// Relays per path (paper: L = 3).
    pub l: usize,
    /// Average network round-trip time in ms (paper: 152).
    pub avg_rtt_ms: f64,
    /// Session-length distribution.
    pub lifetime: LifetimeDistribution,
    /// Downtime distribution.
    pub downtime: LifetimeDistribution,
    /// Simulation horizon (paper: 2 h).
    pub horizon: SimTime,
    /// Extra churn-schedule length beyond the horizon so ground-truth
    /// durability of paths built near the end is never truncated (the
    /// durability cap is 1 h, so 1 h of margin suffices).
    pub schedule_margin: SimDuration,
    /// Membership-layer choice and parameters (flat gossip or OneHop).
    pub membership: MembershipConfig,
    /// Network topology resolving to the latency matrix. The default,
    /// [`TopologyKind::King`], reproduces the historical synthetic matrix
    /// bit-for-bit; scenario files select the other kinds.
    pub topology: TopologyKind,
    /// Scripted churn shocks (flash crowds, mass failures) applied on top
    /// of the generated schedule. Empty (the default) draws no randomness,
    /// so existing experiments stay bit-identical.
    pub churn_events: Vec<ChurnEvent>,
    /// Master seed; every run with the same config is bit-identical.
    pub seed: u64,
}

impl WorldConfig {
    /// The paper's §6.1 defaults: 1024 nodes, L = 3, 152 ms average RTT,
    /// Pareto churn with a 1-hour median session, 2-hour horizon.
    pub fn paper_default(seed: u64) -> Self {
        WorldConfig {
            n: 1024,
            l: 3,
            avg_rtt_ms: 152.0,
            lifetime: LifetimeDistribution::PAPER_DEFAULT,
            downtime: LifetimeDistribution::PAPER_DEFAULT,
            horizon: SimTime::from_secs(7200),
            schedule_margin: SimDuration::from_secs(3600),
            membership: MembershipConfig::default(),
            topology: TopologyKind::King,
            churn_events: Vec::new(),
            seed,
        }
    }

    /// Smaller network for fast tests.
    pub fn small(seed: u64) -> Self {
        WorldConfig {
            n: 128,
            horizon: SimTime::from_secs(3600),
            ..Self::paper_default(seed)
        }
    }
}

/// Outcome of constructing one path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PathConstruction {
    /// Whether every hop was up at its arrival instant.
    pub success: bool,
    /// When the construction message reached the responder (success) or
    /// died (failure).
    pub completed_at: SimTime,
    /// Index of the hop that was down (0 = first relay, `l` = responder).
    pub failed_hop: Option<usize>,
    /// Links the construction message traversed.
    pub links: usize,
}

/// Outcome of pushing one segment down a path.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PathDelivery {
    /// Whether the segment reached the responder.
    pub delivered: bool,
    /// Arrival time at the responder (when delivered).
    pub arrival: Option<SimTime>,
    /// Links traversed (partial on failure): the bandwidth accounting unit.
    pub links: usize,
    /// Hop that dropped the segment (0 = first relay, `l` = responder).
    pub failed_hop: Option<usize>,
}

/// The simulated world shared by all protocol drivers.
///
/// A clone is a fork: it holds the same membership state and the same RNG
/// state, so both copies advance through the same states on the same
/// inputs ([`World::fingerprint`] tells). The churn schedule and a dense
/// latency matrix are read-only once built (only [`World::pin_up`] edits
/// the schedule, copying it first if it is shared), so the copies share
/// them behind an [`Arc`] and a clone costs the membership layer alone.
#[derive(Clone)]
pub struct World {
    /// Configuration this world was built from.
    pub cfg: WorldConfig,
    /// Ground-truth churn, shared with every clone and with the
    /// message-level driver built over this world.
    pub schedule: Arc<ChurnSchedule>,
    /// Pairwise one-way delays (dense matrix or O(1)-memory procedural,
    /// depending on `cfg.topology`; the matrix is shared like `schedule`).
    pub latency: Latency,
    /// Membership/liveness layer.
    pub membership: MembershipLayer,
    /// The world's RNG (mix choice, gossip, jitter).
    pub rng: StdRng,
    /// Evaluation counters (traversals, links walked).
    pub stats: WorldStats,
    /// Failure-detection model; defaults to the historical
    /// [`FailureDetection::Oracle`] so existing experiments are
    /// bit-identical, recovery experiments switch to `Timed`.
    pub detection: FailureDetection,
}

impl World {
    /// Build a world from a config (deterministic in `cfg.seed`).
    ///
    /// RNG draw order is part of the determinism contract: schedule, then
    /// latency, then membership, then (only if present) churn events. A
    /// config with `topology: King` and no churn events is bit-identical
    /// to worlds built before those fields existed.
    pub fn new(cfg: WorldConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut schedule = ChurnSchedule::generate(
            cfg.n,
            &cfg.lifetime,
            &cfg.downtime,
            cfg.horizon + cfg.schedule_margin,
            &mut rng,
        );
        let latency = cfg.topology.latency_model(cfg.n, cfg.avg_rtt_ms, &mut rng);
        let membership = MembershipLayer::new(cfg.n, cfg.membership, &mut rng);
        for &event in &cfg.churn_events {
            schedule.apply_event(event, &cfg.lifetime, &mut rng);
        }
        World {
            cfg,
            schedule: Arc::new(schedule),
            latency,
            membership,
            rng,
            stats: WorldStats::default(),
            detection: FailureDetection::Oracle,
        }
    }

    /// Pin nodes up for the whole run (Table 2 pins initiator+responder).
    /// A schedule shared with a clone or a driver is copied first, so the
    /// others keep theirs.
    pub fn pin_up(&mut self, nodes: &[NodeId]) {
        let schedule = Arc::make_mut(&mut self.schedule);
        for &n in nodes {
            schedule.pin_up(n);
        }
    }

    /// A hash of the state the world evolves: every membership cache in
    /// owner-id order (each in peer-id order), the layer's time and
    /// counters, and the RNG's next word. FNV-1a over little-endian words,
    /// as `membership`'s `state_identity` test hashes a layer.
    ///
    /// Two worlds built from one config that agree here advance
    /// identically; a clone agrees with its original until one of them
    /// moves.
    pub fn fingerprint(&self) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut word = |w: u64| {
            for b in w.to_le_bytes() {
                hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for (owner, cache) in self.membership.caches() {
            let mut entries: Vec<_> = cache.entries().collect();
            entries.sort_unstable_by_key(|&(peer, _)| peer);
            word(u64::from(owner.0));
            word(entries.len() as u64);
            for (peer, e) in entries {
                word(u64::from(peer.0));
                word(e.delta_alive.as_micros());
                word(e.delta_since.as_micros());
                word(e.t_last.as_micros());
                word(u64::from(e.dead));
            }
        }
        self.membership.counters().into_iter().for_each(&mut word);
        word(self.membership.now().as_micros());
        word(self.rng.clone().next_u64());
        hash
    }

    /// Advance the membership layer to `t`.
    pub fn advance_gossip(&mut self, t: SimTime) {
        self.membership.advance(&self.schedule, t, &mut self.rng);
    }

    /// Materialize `node`'s membership view at `now`.
    ///
    /// Required before mix choice on the sampled layer (large-`n` worlds
    /// hold no per-node state until asked); a no-op on the full layers,
    /// which already hold every node's cache.
    pub fn track_node(&mut self, node: NodeId, now: SimTime) {
        self.membership.track(node, &self.schedule, now);
    }

    /// Release `node`'s materialized view (no-op on the full layers).
    pub fn untrack_node(&mut self, node: NodeId) {
        self.membership.untrack(node);
    }

    /// The membership cache of `node` (for mix choice).
    pub fn cache(&self, node: NodeId) -> &NodeCache {
        self.membership.cache(node)
    }

    /// Evaluate one path construction launched by `initiator` at `start`
    /// through `relays` to `responder` (§4.1 forward pass).
    pub fn construct_path(
        &self,
        initiator: NodeId,
        relays: &[NodeId],
        responder: NodeId,
        start: SimTime,
    ) -> PathConstruction {
        self.traverse(initiator, relays, responder, start)
    }

    /// Evaluate one segment send over an established path (§4.2).
    pub fn send_over_path(
        &self,
        initiator: NodeId,
        relays: &[NodeId],
        responder: NodeId,
        start: SimTime,
    ) -> PathDelivery {
        let c = self.traverse(initiator, relays, responder, start);
        PathDelivery {
            delivered: c.success,
            arrival: c.success.then_some(c.completed_at),
            links: c.links,
            failed_hop: c.failed_hop,
        }
    }

    /// §4.5 failure detection: after a failed traversal the initiator
    /// localizes the dead hop by timeout/retry and records the death in its
    /// own cache, so subsequent (especially biased) mix choices avoid it.
    ///
    /// Returns when the localization finishes. Under
    /// [`FailureDetection::Oracle`] that is `now` — knowledge is free, the
    /// historical behavior. Under [`FailureDetection::Timed`] the
    /// initiator is charged the §4.5 cost (one probe round trip per live
    /// prefix hop, then a `probe_timeout` wait on the silent one) and the
    /// death is only recorded at that later instant, so biased mix choice
    /// no longer gets failure knowledge for free.
    pub fn report_failure(
        &mut self,
        initiator: NodeId,
        relays: &[NodeId],
        responder: NodeId,
        failed_hop: usize,
        now: SimTime,
    ) -> SimTime {
        let node = if failed_hop < relays.len() {
            relays[failed_hop]
        } else {
            responder
        };
        let detected_at = match self.detection {
            FailureDetection::Oracle => now,
            FailureDetection::Timed { probe_timeout } => {
                let mut t = now;
                let mut prefix = SimDuration::ZERO;
                let mut prev = initiator;
                for (i, &hop) in relays.iter().chain(std::iter::once(&responder)).enumerate() {
                    prefix += self.latency.owd(prev, hop);
                    self.stats.probes.set(self.stats.probes.get() + 1);
                    if i < failed_hop {
                        t += prefix + prefix; // live hop: probe echo round trip
                    } else {
                        t += probe_timeout; // silent hop: wait out the timeout
                        break;
                    }
                    prev = hop;
                }
                t
            }
        };
        self.membership
            .cache_mut(initiator)
            .record_death(node, detected_at);
        detected_at
    }

    /// §4.5 localization against ground truth: probe the path's hops in
    /// order starting at `now` and return `(first dead hop index, when the
    /// procedure finishes)`. Unlike [`World::report_failure`] — which is
    /// told who failed and only accounts the cost — this *discovers* the
    /// dead hop by probing liveness at each probe's arrival instant, so a
    /// transiently dropped segment (injected fault, not churn) yields
    /// `None`: every hop answers and the initiator knows to simply retry.
    pub fn localize_failure(
        &mut self,
        initiator: NodeId,
        relays: &[NodeId],
        responder: NodeId,
        now: SimTime,
        probe_timeout: SimDuration,
    ) -> (Option<usize>, SimTime) {
        let mut t = now;
        let mut prefix = SimDuration::ZERO;
        let mut prev = initiator;
        for (i, &hop) in relays.iter().chain(std::iter::once(&responder)).enumerate() {
            prefix += self.latency.owd(prev, hop);
            self.stats.probes.set(self.stats.probes.get() + 1);
            if self.schedule.is_up(hop, t + prefix) {
                t += prefix + prefix;
            } else {
                t += probe_timeout;
                let node = if i < relays.len() {
                    relays[i]
                } else {
                    responder
                };
                self.membership.cache_mut(initiator).record_death(node, t);
                return (Some(i), t);
            }
            prev = hop;
        }
        (None, t)
    }

    /// Pick one replacement path avoiding `exclude` (torn-down relays,
    /// endpoints), using the same mix choice as initial construction —
    /// §4.5's repair step.
    pub fn pick_replacement_path(
        &mut self,
        initiator: NodeId,
        responder: NodeId,
        exclude: &[NodeId],
        strategy: MixStrategy,
        now: SimTime,
    ) -> Result<Vec<NodeId>, AnonError> {
        let l = self.cfg.l;
        let mut avoid = vec![initiator, responder];
        avoid.extend_from_slice(exclude);
        let cache = self.membership.cache(initiator);
        choose_path(cache, l, &avoid, strategy, now, &mut self.rng)
    }

    /// Hop-by-hop traversal: each hop must be up at its arrival instant
    /// (the paper's relay model: a down relay loses the message).
    fn traverse(
        &self,
        initiator: NodeId,
        relays: &[NodeId],
        responder: NodeId,
        start: SimTime,
    ) -> PathConstruction {
        self.stats.traversals.set(self.stats.traversals.get() + 1);
        let mut t = start;
        let mut prev = initiator;
        let mut links = 0usize;
        for (i, &hop) in relays.iter().chain(std::iter::once(&responder)).enumerate() {
            t += self.latency.owd(prev, hop);
            links += 1;
            if !self.schedule.is_up(hop, t) {
                self.stats.links.set(self.stats.links.get() + links as u64);
                return PathConstruction {
                    success: false,
                    completed_at: t,
                    failed_hop: Some(i),
                    links,
                };
            }
            prev = hop;
        }
        self.stats.links.set(self.stats.links.get() + links as u64);
        PathConstruction {
            success: true,
            completed_at: t,
            failed_hop: None,
            links,
        }
    }

    /// When a path (as a set of relays) stops working, given it is intact
    /// at `from`: the earliest relay failure time. Returns `None` if some
    /// relay is already down at `from`.
    pub fn path_fails_at(&self, relays: &[NodeId], from: SimTime) -> Option<SimTime> {
        relays
            .iter()
            .map(|&r| self.schedule.fails_at(r, from))
            .collect::<Option<Vec<_>>>()
            .map(|ends| ends.into_iter().min().expect("paths have relays"))
    }

    /// Durability of a path *set* under a success rule needing `needed`
    /// live paths: the instant when the number of intact paths drops below
    /// `needed`, measured from `from` and capped at `cap`.
    ///
    /// Paths already broken at `from` count as failed immediately.
    pub fn set_durability(
        &self,
        paths: &[Vec<NodeId>],
        needed: usize,
        from: SimTime,
        cap: SimDuration,
    ) -> SimDuration {
        assert!(needed >= 1 && needed <= paths.len());
        let mut fail_times: Vec<SimTime> = paths
            .iter()
            .map(|p| self.path_fails_at(p, from).unwrap_or(from))
            .collect();
        fail_times.sort_unstable();
        // The set dies when the (k - needed + 1)-th path fails: fewer than
        // `needed` remain after that instant.
        let kill_idx = paths.len() - needed;
        let died_at = fail_times[kill_idx];
        (died_at - from).min(cap)
    }

    /// Pick relays for `k` disjoint paths using the initiator's cache.
    pub fn pick_paths(
        &mut self,
        initiator: NodeId,
        responder: NodeId,
        k: usize,
        strategy: MixStrategy,
        now: SimTime,
    ) -> Result<Vec<Vec<NodeId>>, AnonError> {
        let l = self.cfg.l;
        let cache = self.membership.cache(initiator);
        choose_disjoint_paths(
            cache,
            k,
            l,
            &[initiator, responder],
            strategy,
            now,
            &mut self.rng,
        )
    }

    /// Pick a random live node other than `exclude` (used as responder in
    /// the setup-rate experiment; the paper assumes the responder is
    /// available).
    pub fn random_live_node(&mut self, exclude: &[NodeId], now: SimTime) -> Option<NodeId> {
        let n = self.cfg.n;
        for _ in 0..n * 4 {
            let cand = NodeId(self.rng.gen_range(0..n as u32));
            if !exclude.contains(&cand) && self.schedule.is_up(cand, now) {
                return Some(cand);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_world(seed: u64) -> World {
        World::new(tiny_config(seed))
    }

    fn tiny_config(seed: u64) -> WorldConfig {
        WorldConfig {
            n: 64,
            l: 3,
            avg_rtt_ms: 100.0,
            lifetime: LifetimeDistribution::pareto_with_median(1800.0),
            downtime: LifetimeDistribution::pareto_with_median(1800.0),
            horizon: SimTime::from_secs(3600),
            schedule_margin: SimDuration::from_secs(3600),
            membership: MembershipConfig::default(),
            topology: TopologyKind::King,
            churn_events: Vec::new(),
            seed,
        }
    }

    #[test]
    fn a_cloned_world_forks() {
        // Clone a warmed world, drive both copies with the same calls, and
        // the fingerprints (caches, counters, RNG) and outputs stay equal,
        // on every membership layer.
        let (initiator, responder) = (NodeId(0), NodeId(1));
        for membership in [
            MembershipConfig::default(),
            MembershipConfig::onehop_default(),
            MembershipConfig::sampled_default(),
        ] {
            let mut world = World::new(WorldConfig {
                membership,
                ..tiny_config(12)
            });
            world.pin_up(&[initiator, responder]);
            let warm = SimTime::from_secs(900);
            world.advance_gossip(warm);
            world.track_node(initiator, warm);
            let mut fork = world.clone();
            assert_eq!(world.fingerprint(), fork.fingerprint());
            assert!(Arc::ptr_eq(&world.schedule, &fork.schedule), "shared");

            let drive = |w: &mut World| {
                let mut outputs = Vec::new();
                for step in 1..=6u64 {
                    let t = warm + SimDuration::from_secs(60 * step);
                    w.advance_gossip(t);
                    w.track_node(initiator, t);
                    let path = w
                        .pick_replacement_path(initiator, responder, &[], MixStrategy::Biased, t)
                        .expect("a 64-node view yields a path");
                    let out = w.construct_path(initiator, &path, responder, t);
                    if let Some(hop) = out.failed_hop {
                        w.report_failure(initiator, &path, responder, hop, t);
                    }
                    outputs.push((path, out));
                }
                outputs
            };
            let before = world.fingerprint();
            let (a, b) = (drive(&mut world), drive(&mut fork));
            assert_eq!(a, b, "{}", membership.label());
            assert_eq!(world.fingerprint(), fork.fingerprint());
            assert_ne!(world.fingerprint(), before, "the drive moved the state");
            assert_eq!(world.stats.traversals(), fork.stats.traversals());

            // Pinning a node in one copy copies the schedule first.
            fork.pin_up(&[NodeId(5)]);
            assert!(!Arc::ptr_eq(&world.schedule, &fork.schedule));
        }
    }

    #[test]
    fn fingerprint_sees_one_cache_entry_and_the_rng() {
        let mut world = tiny_world(13);
        world.advance_gossip(SimTime::from_secs(300));
        let base = world.fingerprint();
        let mut death = world.clone();
        death.report_failure(
            NodeId(0),
            &[NodeId(2)],
            NodeId(1),
            0,
            SimTime::from_secs(300),
        );
        assert_ne!(death.fingerprint(), base);
        let mut drawn = world.clone();
        drawn.rng.next_u64();
        assert_ne!(drawn.fingerprint(), base);
    }

    #[test]
    fn world_is_deterministic() {
        let mut a = tiny_world(7);
        let mut b = tiny_world(7);
        let t = SimTime::from_secs(100);
        a.advance_gossip(t);
        b.advance_gossip(t);
        let pa = a
            .pick_paths(NodeId(0), NodeId(1), 2, MixStrategy::Biased, t)
            .unwrap();
        let pb = b
            .pick_paths(NodeId(0), NodeId(1), 2, MixStrategy::Biased, t)
            .unwrap();
        assert_eq!(pa, pb);
    }

    #[test]
    fn traverse_all_up_succeeds_with_cumulative_latency() {
        let mut w = tiny_world(1);
        w.pin_up(&[NodeId(0), NodeId(1), NodeId(2), NodeId(3), NodeId(4)]);
        let start = SimTime::from_secs(10);
        let relays = vec![NodeId(1), NodeId(2), NodeId(3)];
        let out = w.construct_path(NodeId(0), &relays, NodeId(4), start);
        assert!(out.success);
        assert_eq!(out.links, 4);
        let expected = w.latency.owd(NodeId(0), NodeId(1))
            + w.latency.owd(NodeId(1), NodeId(2))
            + w.latency.owd(NodeId(2), NodeId(3))
            + w.latency.owd(NodeId(3), NodeId(4));
        assert_eq!(out.completed_at, start + expected);
    }

    #[test]
    fn traverse_fails_at_down_hop() {
        let mut w = tiny_world(2);
        w.pin_up(&[NodeId(0), NodeId(4)]);
        // Find a relay that is down at the probe time.
        let t = SimTime::from_secs(2000);
        let down = (5..64)
            .map(NodeId)
            .find(|&n| !w.schedule.is_up(n, t + SimDuration::from_secs(10)))
            .expect("some node is down under churn");
        // Put the down node first; it is down over the whole window around
        // t, so arrival within ~100 ms also finds it down.
        let relays = vec![down, NodeId(0), NodeId(4)];
        let out = w.construct_path(
            NodeId(0),
            &relays,
            NodeId(4),
            t + SimDuration::from_secs(10),
        );
        assert!(!out.success);
        assert_eq!(out.failed_hop, Some(0));
        assert_eq!(out.links, 1, "died on the first link");
    }

    #[test]
    fn set_durability_matches_sorted_failures() {
        let mut w = tiny_world(3);
        // Pin everything, then reason about an artificial schedule via
        // always-up paths: durability = cap.
        let nodes: Vec<NodeId> = (0..12).map(NodeId).collect();
        w.pin_up(&nodes);
        let paths: Vec<Vec<NodeId>> = nodes.chunks(3).map(|c| c.to_vec()).collect();
        let d = w.set_durability(
            &paths,
            2,
            SimTime::from_secs(100),
            SimDuration::from_secs(3600),
        );
        assert_eq!(
            d,
            SimDuration::from_secs(3600),
            "pinned paths never die: capped"
        );
    }

    #[test]
    fn set_durability_counts_broken_paths_immediately() {
        let mut w = tiny_world(4);
        w.pin_up(&[NodeId(0), NodeId(1), NodeId(2)]);
        let t = SimTime::from_secs(1000);
        let down = (3..64)
            .map(NodeId)
            .find(|&n| !w.schedule.is_up(n, t))
            .expect("someone is down");
        // Two paths: one alive (pinned), one already dead.
        let paths = vec![
            vec![NodeId(0), NodeId(1), NodeId(2)],
            vec![down, NodeId(1), NodeId(2)],
        ];
        // Needing both paths: durability 0.
        let d = w.set_durability(&paths, 2, t, SimDuration::from_secs(3600));
        assert_eq!(d, SimDuration::ZERO);
        // Needing one: capped full.
        let d1 = w.set_durability(&paths, 1, t, SimDuration::from_secs(3600));
        assert_eq!(d1, SimDuration::from_secs(3600));
    }

    #[test]
    fn pick_paths_disjoint_and_excluding_endpoints() {
        let mut w = tiny_world(5);
        let t = SimTime::from_secs(300);
        w.advance_gossip(t);
        let paths = w
            .pick_paths(NodeId(0), NodeId(1), 4, MixStrategy::Random, t)
            .unwrap();
        let mut all: Vec<NodeId> = paths.iter().flatten().copied().collect();
        assert_eq!(all.len(), 12);
        assert!(!all.contains(&NodeId(0)));
        assert!(!all.contains(&NodeId(1)));
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 12);
    }

    #[test]
    fn stats_count_traversals_and_links() {
        let mut w = tiny_world(8);
        w.pin_up(&[NodeId(0), NodeId(1), NodeId(2), NodeId(3), NodeId(4)]);
        assert_eq!(w.stats.traversals(), 0);
        let relays = vec![NodeId(1), NodeId(2), NodeId(3)];
        w.construct_path(NodeId(0), &relays, NodeId(4), SimTime::from_secs(10));
        w.send_over_path(NodeId(0), &relays, NodeId(4), SimTime::from_secs(20));
        assert_eq!(w.stats.traversals(), 2);
        assert_eq!(w.stats.links(), 8, "two full 4-link traversals");
    }

    #[test]
    fn oracle_report_failure_is_instant() {
        let mut w = tiny_world(9);
        let t = SimTime::from_secs(500);
        let detected = w.report_failure(
            NodeId(0),
            &[NodeId(2), NodeId(3), NodeId(4)],
            NodeId(1),
            1,
            t,
        );
        assert_eq!(detected, t, "oracle knowledge is free");
    }

    #[test]
    fn timed_report_failure_charges_probe_cost() {
        let mut w = tiny_world(9);
        let timeout = SimDuration::from_secs(2);
        w.detection = FailureDetection::Timed {
            probe_timeout: timeout,
        };
        let t = SimTime::from_secs(500);
        let relays = [NodeId(2), NodeId(3), NodeId(4)];
        // First hop dead: exactly one timeout, no echo round trips.
        let d0 = w.report_failure(NodeId(0), &relays, NodeId(1), 0, t);
        assert_eq!(d0, t + timeout);
        // Deeper failures cost strictly more (echo RTTs accumulate).
        let d2 = w.report_failure(NodeId(0), &relays, NodeId(1), 2, t);
        assert!(d2 > d0);
        assert!(w.stats.probes() >= 4, "1 + 3 probes issued");
    }

    #[test]
    fn localize_failure_finds_the_down_hop_or_clears_the_path() {
        let mut w = tiny_world(10);
        w.pin_up(&[NodeId(0), NodeId(1), NodeId(2), NodeId(3), NodeId(4)]);
        let t = SimTime::from_secs(1000);
        let timeout = SimDuration::from_secs(2);
        // All-up path: no hop blamed, cost = echo RTTs only.
        let (hop, done) =
            w.localize_failure(NodeId(0), &[NodeId(2), NodeId(3)], NodeId(4), t, timeout);
        assert_eq!(hop, None);
        assert!(done > t && done < t + timeout);
        // Path through a node that is down around t: blamed with a timeout.
        let down = (5..64)
            .map(NodeId)
            .find(|&n| {
                !w.schedule.is_up(n, t) && !w.schedule.is_up(n, t + SimDuration::from_secs(5))
            })
            .expect("someone is down under churn");
        let (hop, done) = w.localize_failure(NodeId(0), &[down, NodeId(3)], NodeId(4), t, timeout);
        assert_eq!(hop, Some(0));
        assert_eq!(done, t + timeout, "first probe waited out the timeout");
    }

    #[test]
    fn replacement_path_avoids_excluded_relays() {
        let mut w = tiny_world(11);
        let t = SimTime::from_secs(300);
        w.advance_gossip(t);
        let bad: Vec<NodeId> = (2..8).map(NodeId).collect();
        let path = w
            .pick_replacement_path(NodeId(0), NodeId(1), &bad, MixStrategy::Biased, t)
            .unwrap();
        assert_eq!(path.len(), 3);
        for hop in &path {
            assert!(!bad.contains(hop));
            assert_ne!(*hop, NodeId(0));
            assert_ne!(*hop, NodeId(1));
        }
    }

    #[test]
    fn king_world_latency_is_the_legacy_matrix_bit_for_bit() {
        // The pluggable-model refactor must not move the King path off the
        // historical dense matrix: same seed, same draws, same bytes.
        let w = tiny_world(7);
        assert_eq!(w.latency.label(), "matrix");
        let mut rng = StdRng::seed_from_u64(7);
        let _ = ChurnSchedule::generate(
            w.cfg.n,
            &w.cfg.lifetime,
            &w.cfg.downtime,
            w.cfg.horizon + w.cfg.schedule_margin,
            &mut rng,
        );
        let legacy = TopologyKind::King.latency_matrix(w.cfg.n, w.cfg.avg_rtt_ms, &mut rng);
        let got = w.latency.as_matrix().expect("king is matrix-backed");
        for a in 0..w.cfg.n {
            for b in 0..w.cfg.n {
                assert_eq!(
                    got.owd(NodeId::from(a), NodeId::from(b)),
                    legacy.owd(NodeId::from(a), NodeId::from(b))
                );
            }
        }
    }

    #[test]
    fn procedural_sampled_world_runs_flows_without_dense_state() {
        // A 50k-node world must build fast and run flows end to end; with
        // the dense matrix this would be 20 GB of latency entries.
        let mut w = World::new(WorldConfig {
            n: 50_000,
            topology: simnet::TopologyKind::Procedural,
            membership: MembershipConfig::sampled_default(),
            horizon: SimTime::from_secs(600),
            schedule_margin: SimDuration::from_secs(600),
            ..WorldConfig::paper_default(42)
        });
        assert_eq!(w.latency.label(), "procedural");
        let t = SimTime::from_secs(120);
        w.advance_gossip(t);
        let initiator = w.random_live_node(&[], t).expect("network not empty");
        w.track_node(initiator, t);
        let responder = w
            .random_live_node(&[initiator], t)
            .expect("network not empty");
        let path = w
            .pick_replacement_path(initiator, responder, &[], MixStrategy::Biased, t)
            .expect("sampled view yields a path");
        assert_eq!(path.len(), 3);
        let out = w.construct_path(initiator, &path, responder, t);
        assert!(out.links >= 1);
        w.untrack_node(initiator);
    }

    #[test]
    fn random_live_node_is_up() {
        let mut w = tiny_world(6);
        let t = SimTime::from_secs(1500);
        for _ in 0..20 {
            let n = w
                .random_live_node(&[NodeId(0)], t)
                .expect("network not empty");
            assert!(w.schedule.is_up(n, t));
            assert_ne!(n, NodeId(0));
        }
    }
}
