//! Churn: node lifetime distributions and per-node session schedules.
//!
//! The paper models churn by letting every node alternate between being up
//! (a *session* whose length is the node's lifetime) and down, with interval
//! lengths drawn from a Pareto distribution (default α = 1, β = 1800 s,
//! median session 1 hour). Table 4 additionally evaluates exponential and
//! uniform lifetime distributions, which this module also provides.

use crate::node::NodeId;
use crate::time::{SimDuration, SimTime};
use rand::Rng;

/// A node-lifetime (session length) distribution.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LifetimeDistribution {
    /// Heavy-tailed Pareto: `P(lifetime < t) = 1 - (β/t)^α` for `t >= β`.
    ///
    /// Fits measured Gnutella lifetimes with α = 0.83, β = 1560 s (Fig. 1);
    /// the churn experiments use α = 1, β = 1800 s (median 1 h).
    Pareto {
        /// Shape parameter α.
        alpha: f64,
        /// Scale parameter β, in seconds (also the minimum lifetime).
        beta_secs: f64,
    },
    /// Memoryless exponential with the given mean.
    Exponential {
        /// Mean lifetime in seconds.
        mean_secs: f64,
    },
    /// Uniform on `[min, max]`. The paper's Table 4 uses 6 min – ~2 h with
    /// mean 1 h; under this distribution old nodes are *more* likely to die
    /// soon, the adversarial case for biased mix choice.
    Uniform {
        /// Minimum lifetime in seconds.
        min_secs: f64,
        /// Maximum lifetime in seconds.
        max_secs: f64,
    },
}

impl LifetimeDistribution {
    /// The paper's default churn: Pareto α = 1, β = 1800 s (median 1 h).
    pub const PAPER_DEFAULT: LifetimeDistribution = LifetimeDistribution::Pareto {
        alpha: 1.0,
        beta_secs: 1800.0,
    };

    /// The Gnutella fit from Figure 1: Pareto α = 0.83, β = 1560 s.
    pub const GNUTELLA_FIT: LifetimeDistribution = LifetimeDistribution::Pareto {
        alpha: 0.83,
        beta_secs: 1560.0,
    };

    /// Pareto with α = 1 and the given median (β = median / 2): how Table 3
    /// sweeps churn rates.
    pub fn pareto_with_median(median_secs: f64) -> Self {
        LifetimeDistribution::Pareto {
            alpha: 1.0,
            beta_secs: median_secs / 2.0,
        }
    }

    /// Table 4's uniform distribution: 6 minutes to 114 minutes, mean 1 h.
    pub fn paper_uniform() -> Self {
        LifetimeDistribution::Uniform {
            min_secs: 360.0,
            max_secs: 6840.0,
        }
    }

    /// Table 4's exponential distribution: mean 1 h.
    pub fn paper_exponential() -> Self {
        LifetimeDistribution::Exponential { mean_secs: 3600.0 }
    }

    /// Draw one lifetime.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> SimDuration {
        let secs = match *self {
            LifetimeDistribution::Pareto { alpha, beta_secs } => {
                // Inverse CDF: t = β * U^(-1/α), with U in (0, 1].
                let u: f64 = 1.0 - rng.gen::<f64>(); // (0, 1]
                beta_secs * u.powf(-1.0 / alpha)
            }
            LifetimeDistribution::Exponential { mean_secs } => {
                let u: f64 = 1.0 - rng.gen::<f64>();
                -mean_secs * u.ln()
            }
            LifetimeDistribution::Uniform { min_secs, max_secs } => {
                min_secs + (max_secs - min_secs) * rng.gen::<f64>()
            }
        };
        // Cap at 10 years to keep arithmetic sane under extreme tails.
        SimDuration::from_secs_f64(secs.min(315_360_000.0))
    }

    /// `P(lifetime < t)` for `t` in seconds.
    pub fn cdf(&self, t_secs: f64) -> f64 {
        match *self {
            LifetimeDistribution::Pareto { alpha, beta_secs } => {
                if t_secs <= beta_secs {
                    0.0
                } else {
                    1.0 - (beta_secs / t_secs).powf(alpha)
                }
            }
            LifetimeDistribution::Exponential { mean_secs } => {
                if t_secs <= 0.0 {
                    0.0
                } else {
                    1.0 - (-t_secs / mean_secs).exp()
                }
            }
            LifetimeDistribution::Uniform { min_secs, max_secs } => {
                ((t_secs - min_secs) / (max_secs - min_secs)).clamp(0.0, 1.0)
            }
        }
    }

    /// Median lifetime in seconds.
    pub fn median_secs(&self) -> f64 {
        match *self {
            LifetimeDistribution::Pareto { alpha, beta_secs } => beta_secs * 2f64.powf(1.0 / alpha),
            LifetimeDistribution::Exponential { mean_secs } => mean_secs * std::f64::consts::LN_2,
            LifetimeDistribution::Uniform { min_secs, max_secs } => (min_secs + max_secs) / 2.0,
        }
    }

    /// Mean lifetime in seconds (`None` if infinite, as for Pareto α <= 1).
    pub fn mean_secs(&self) -> Option<f64> {
        match *self {
            LifetimeDistribution::Pareto { alpha, beta_secs } => {
                (alpha > 1.0).then(|| alpha * beta_secs / (alpha - 1.0))
            }
            LifetimeDistribution::Exponential { mean_secs } => Some(mean_secs),
            LifetimeDistribution::Uniform { min_secs, max_secs } => {
                Some((min_secs + max_secs) / 2.0)
            }
        }
    }
}

/// One up-interval of a node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Session {
    /// Join time.
    pub start: SimTime,
    /// Leave/fail time.
    pub end: SimTime,
}

impl Session {
    /// Whether `t` falls inside the session (half-open `[start, end)`).
    pub fn contains(&self, t: SimTime) -> bool {
        self.start <= t && t < self.end
    }

    /// Session length.
    pub fn len(&self) -> SimDuration {
        self.end - self.start
    }

    /// Always false; sessions are non-empty by construction.
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }

    /// The session of `span` that contains `t`, if any. `span` must be
    /// time-ordered and non-overlapping, as [`ChurnSchedule::sessions`]
    /// returns it: the only candidate is the last session starting at or
    /// before `t`, found by binary search.
    ///
    /// This is the one liveness rule: every point query of
    /// [`ChurnSchedule`] goes through it, and a caller that already holds
    /// many spans (a sampled view fetches all of its peers' spans before
    /// searching any) calls it directly.
    #[inline]
    pub fn containing(span: &[Session], t: SimTime) -> Option<&Session> {
        let idx = span.partition_point(|s| s.start <= t);
        span.get(idx.checked_sub(1)?).filter(|s| s.contains(t))
    }
}

/// A scripted churn shock applied on top of a generated [`ChurnSchedule`]
/// (the scenario engine's flash-crowd / mass-failure axis).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ChurnEvent {
    /// A flash crowd: at `at`, each node that is currently *down* joins
    /// with probability `fraction`, staying up for a freshly drawn
    /// lifetime (clipped to its next scheduled session).
    FlashCrowd {
        /// When the crowd arrives.
        at: SimTime,
        /// Probability each down node joins (`0..=1`).
        fraction: f64,
    },
    /// A correlated mass failure: at `at`, each node that is currently
    /// *up* crashes with probability `fraction` and stays down for
    /// `downtime` (sessions inside the outage window are cancelled).
    MassFailure {
        /// When the failure strikes.
        at: SimTime,
        /// Probability each up node crashes (`0..=1`).
        fraction: f64,
        /// How long affected nodes stay down.
        downtime: SimDuration,
    },
}

impl ChurnEvent {
    /// When the event fires.
    pub fn at(&self) -> SimTime {
        match *self {
            ChurnEvent::FlashCrowd { at, .. } | ChurnEvent::MassFailure { at, .. } => at,
        }
    }
}

/// Ground-truth churn schedule: every node's up-intervals, pre-generated
/// for the whole simulation horizon.
///
/// Storage is struct-of-arrays: all sessions live in one pooled `Vec` in
/// node order, with a CSR-style offset table mapping a node to its span.
/// A 1M-node schedule is therefore two flat allocations instead of one
/// million per-node `Vec`s — the layout that lets `World` construction
/// stay O(N) at scale, and keeps `is_up` queries cache-friendly (a span
/// is a contiguous slice). Node ids are compact `u32` indices
/// ([`NodeId`]); the offset table is indexed directly by them.
#[derive(Clone)]
pub struct ChurnSchedule {
    /// Pooled session storage: node `i`'s sessions are
    /// `sessions[offsets[i]..offsets[i + 1]]`, each span time-ordered.
    sessions: Vec<Session>,
    /// CSR offsets, length `n + 1`.
    offsets: Vec<usize>,
    horizon: SimTime,
}

impl ChurnSchedule {
    /// Generate alternating up/down intervals for `n` nodes. All nodes join
    /// at time 0 (the paper runs one warm-up hour before measuring, so the
    /// synchronous start transient is discarded). Both up and down interval
    /// lengths are drawn from `lifetimes` / `downtimes` respectively.
    ///
    /// The RNG draw order (per node: lifetime, downtime, lifetime, …) is
    /// part of the determinism contract and predates the pooled layout;
    /// schedules are bit-identical to those generated before it.
    pub fn generate<R: Rng>(
        n: usize,
        lifetimes: &LifetimeDistribution,
        downtimes: &LifetimeDistribution,
        horizon: SimTime,
        rng: &mut R,
    ) -> Self {
        let mut sessions = Vec::with_capacity(n * 2);
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        for _ in 0..n {
            let mut t = SimTime::ZERO;
            while t < horizon {
                let up = lifetimes.sample(rng);
                let end = (t + up).min(horizon);
                if end > t {
                    sessions.push(Session { start: t, end });
                }
                let down = downtimes.sample(rng);
                t = end + down;
            }
            offsets.push(sessions.len());
        }
        ChurnSchedule {
            sessions,
            offsets,
            horizon,
        }
    }

    /// Every node up for the whole horizon (no churn).
    pub fn always_up(n: usize, horizon: SimTime) -> Self {
        let s = Session {
            start: SimTime::ZERO,
            end: horizon,
        };
        ChurnSchedule {
            sessions: vec![s; n],
            offsets: (0..=n).collect(),
            horizon,
        }
    }

    /// Build a schedule from explicit per-node session lists (tests and
    /// hand-crafted scenarios). Each list must be time-ordered and
    /// non-overlapping.
    pub fn from_sessions(per_node: Vec<Vec<Session>>, horizon: SimTime) -> Self {
        let mut sessions = Vec::with_capacity(per_node.iter().map(Vec::len).sum());
        let mut offsets = Vec::with_capacity(per_node.len() + 1);
        offsets.push(0);
        for node_sessions in per_node {
            sessions.extend(node_sessions);
            offsets.push(sessions.len());
        }
        ChurnSchedule {
            sessions,
            offsets,
            horizon,
        }
    }

    /// Replace node `i`'s span with `new`, shifting the pooled storage and
    /// fixing up the offset table. O(total sessions) worst case — fine for
    /// the handful of pins/events the experiments apply, not a hot path.
    fn splice_node(&mut self, i: usize, new: Vec<Session>) {
        let (start, end) = (self.offsets[i], self.offsets[i + 1]);
        let delta = new.len() as isize - (end - start) as isize;
        self.sessions.splice(start..end, new);
        if delta != 0 {
            for off in &mut self.offsets[i + 1..] {
                *off = (*off as isize + delta) as usize;
            }
        }
    }

    /// Pin a node up for the whole run (paper's Table 2 pins the initiator
    /// and responder). The session end is placed far beyond the horizon so
    /// pinned nodes never register as failing.
    pub fn pin_up(&mut self, node: NodeId) {
        self.splice_node(
            node.index(),
            vec![Session {
                start: SimTime::ZERO,
                end: SimTime(u64::MAX / 2),
            }],
        );
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the schedule covers zero nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of sessions across all nodes (the pooled storage
    /// footprint; the `scale` experiment reports it).
    pub fn total_sessions(&self) -> usize {
        self.sessions.len()
    }

    /// Simulation horizon.
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }

    /// All sessions of a node, in time order (a contiguous slice of the
    /// pooled storage).
    pub fn sessions(&self, node: NodeId) -> &[Session] {
        &self.sessions[self.offsets[node.index()]..self.offsets[node.index() + 1]]
    }

    /// The session containing `t`, if the node is up at `t`.
    pub fn session_at(&self, node: NodeId, t: SimTime) -> Option<&Session> {
        Session::containing(self.sessions(node), t)
    }

    /// Whether the node is up at `t`.
    pub fn is_up(&self, node: NodeId, t: SimTime) -> bool {
        self.session_at(node, t).is_some()
    }

    /// Whether the node stays up over the whole closed interval
    /// `[from, to]` (i.e. one session covers it).
    pub fn up_through(&self, node: NodeId, from: SimTime, to: SimTime) -> bool {
        debug_assert!(from <= to);
        self.session_at(node, from).is_some_and(|s| to < s.end)
    }

    /// How long the node has been up at `t` (`None` if down): the
    /// ground-truth Δt_alive of the paper.
    pub fn uptime_at(&self, node: NodeId, t: SimTime) -> Option<SimDuration> {
        self.session_at(node, t).map(|s| t - s.start)
    }

    /// When the node's current session ends (`None` if down at `t`).
    pub fn fails_at(&self, node: NodeId, t: SimTime) -> Option<SimTime> {
        self.session_at(node, t).map(|s| s.end)
    }

    /// Fraction of nodes up at `t`.
    pub fn availability_at(&self, t: SimTime) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let up = (0..self.len())
            .filter(|&i| self.is_up(NodeId::from(i), t))
            .count();
        up as f64 / self.len() as f64
    }

    /// Apply a scripted [`ChurnEvent`] on top of the generated schedule.
    /// Node selection draws one Bernoulli per candidate in node order, so
    /// the result is a deterministic function of the schedule, the event,
    /// and the RNG state. The sorted/non-overlapping session invariants
    /// are preserved.
    pub fn apply_event<R: Rng>(
        &mut self,
        event: ChurnEvent,
        lifetimes: &LifetimeDistribution,
        rng: &mut R,
    ) {
        match event {
            ChurnEvent::FlashCrowd { at, fraction } => {
                if at >= self.horizon {
                    return;
                }
                for i in 0..self.len() {
                    let node = NodeId::from(i);
                    let hit = rng.gen::<f64>() < fraction;
                    if self.is_up(node, at) || !hit {
                        continue;
                    }
                    let up = lifetimes.sample(rng);
                    let span_start = self.offsets[i];
                    let span = self.sessions(node);
                    let idx = span.partition_point(|s| s.start <= at);
                    // Keep a strict gap after the previous session (whose
                    // end may coincide with `at`) and before the next one,
                    // and stay inside the horizon.
                    let mut start = at;
                    if let Some(prev) = idx.checked_sub(1).map(|p| span[p]) {
                        start = start.max(SimTime(prev.end.0 + 1));
                    }
                    let mut end = (start + up).min(self.horizon);
                    if let Some(next) = span.get(idx) {
                        end = end.min(SimTime(next.start.0.saturating_sub(1)));
                    }
                    if end > start {
                        self.sessions
                            .insert(span_start + idx, Session { start, end });
                        for off in &mut self.offsets[i + 1..] {
                            *off += 1;
                        }
                    }
                }
            }
            ChurnEvent::MassFailure {
                at,
                fraction,
                downtime,
            } => {
                let back_up = at + downtime.max(SimDuration(1));
                for i in 0..self.len() {
                    let node = NodeId::from(i);
                    let hit = rng.gen::<f64>() < fraction;
                    if !self.is_up(node, at) || !hit {
                        continue;
                    }
                    // Rebuild this node's span with the outage applied,
                    // then splice it back into the pooled storage.
                    let span = self.sessions(node);
                    let idx = span.partition_point(|s| s.start <= at) - 1;
                    let mut rebuilt: Vec<Session> = Vec::with_capacity(span.len());
                    for (j, s) in span.iter().enumerate() {
                        let mut s = *s;
                        // Truncate the live session at the crash instant...
                        if j == idx {
                            if s.start < at {
                                s.end = at;
                            } else {
                                continue;
                            }
                        }
                        // ...then cancel or clip sessions inside the outage.
                        if s.start >= at && s.start < back_up {
                            s.start = back_up;
                        }
                        if s.start < s.end {
                            rebuilt.push(s);
                        }
                    }
                    self.splice_node(i, rebuilt);
                }
            }
        }
    }

    /// All (time, node, is_join) transitions in time order — what drives
    /// gossip-layer join/leave processing.
    pub fn transitions(&self) -> Vec<(SimTime, NodeId, bool)> {
        let mut events = Vec::new();
        for i in 0..self.len() {
            let node = NodeId::from(i);
            for s in self.sessions(node) {
                events.push((s.start, node, true));
                if s.end < self.horizon {
                    events.push((s.end, node, false));
                }
            }
        }
        events.sort_by_key(|&(t, n, joined)| (t, n.0, joined));
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn pareto_median_matches_paper() {
        // α = 1, β = 1800 s must have a 1-hour median.
        assert!((LifetimeDistribution::PAPER_DEFAULT.median_secs() - 3600.0).abs() < 1e-9);
        assert_eq!(LifetimeDistribution::PAPER_DEFAULT.mean_secs(), None);
        let d = LifetimeDistribution::pareto_with_median(1200.0);
        assert!((d.median_secs() - 1200.0).abs() < 1e-9);
    }

    #[test]
    fn paper_uniform_mean_one_hour() {
        let d = LifetimeDistribution::paper_uniform();
        assert_eq!(d.mean_secs(), Some(3600.0));
        assert!((d.median_secs() - 3600.0).abs() < 1e-9);
    }

    #[test]
    fn samples_match_cdf() {
        // Empirical CDF at the median should be ~0.5 for all distributions.
        let mut rng = StdRng::seed_from_u64(1);
        for dist in [
            LifetimeDistribution::PAPER_DEFAULT,
            LifetimeDistribution::GNUTELLA_FIT,
            LifetimeDistribution::paper_uniform(),
            LifetimeDistribution::paper_exponential(),
        ] {
            let median = dist.median_secs();
            let below = (0..20_000)
                .filter(|_| dist.sample(&mut rng).as_secs_f64() < median)
                .count();
            let frac = below as f64 / 20_000.0;
            assert!(
                (frac - 0.5).abs() < 0.02,
                "{dist:?}: empirical median frac {frac}"
            );
        }
    }

    #[test]
    fn pareto_minimum_is_beta() {
        let dist = LifetimeDistribution::Pareto {
            alpha: 1.0,
            beta_secs: 100.0,
        };
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..1000 {
            assert!(dist.sample(&mut rng).as_secs_f64() >= 100.0);
        }
        assert_eq!(dist.cdf(50.0), 0.0);
        assert!((dist.cdf(200.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn exponential_cdf_properties() {
        let d = LifetimeDistribution::paper_exponential();
        assert_eq!(d.cdf(0.0), 0.0);
        assert!((d.cdf(3600.0) - (1.0 - (-1.0f64).exp())).abs() < 1e-12);
    }

    #[test]
    fn schedule_sessions_alternate_and_cover_horizon() {
        let mut rng = StdRng::seed_from_u64(3);
        let horizon = SimTime::from_secs(7200);
        let dist = LifetimeDistribution::PAPER_DEFAULT;
        let sched = ChurnSchedule::generate(64, &dist, &dist, horizon, &mut rng);
        assert_eq!(sched.len(), 64);
        for i in 0..64usize {
            let node = NodeId::from(i);
            let sessions = sched.sessions(node);
            assert!(!sessions.is_empty());
            assert_eq!(sessions[0].start, SimTime::ZERO, "all nodes join at t=0");
            for w in sessions.windows(2) {
                assert!(
                    w[0].end < w[1].start,
                    "sessions must be separated by downtime"
                );
            }
            for s in sessions {
                assert!(s.end <= horizon);
                assert!(s.start < s.end);
            }
        }
    }

    #[test]
    fn is_up_and_uptime_consistent() {
        let mut rng = StdRng::seed_from_u64(4);
        let horizon = SimTime::from_secs(7200);
        let dist = LifetimeDistribution::pareto_with_median(600.0);
        let sched = ChurnSchedule::generate(16, &dist, &dist, horizon, &mut rng);
        for i in 0..16usize {
            let node = NodeId::from(i);
            for secs in (0..7200).step_by(13) {
                let t = SimTime::from_secs(secs);
                match sched.session_at(node, t) {
                    Some(s) => {
                        assert!(sched.is_up(node, t));
                        assert_eq!(sched.uptime_at(node, t), Some(t - s.start));
                        assert_eq!(sched.fails_at(node, t), Some(s.end));
                    }
                    None => {
                        assert!(!sched.is_up(node, t));
                        assert_eq!(sched.uptime_at(node, t), None);
                    }
                }
            }
        }
    }

    #[test]
    fn up_through_detects_mid_interval_failure() {
        let mut sched = ChurnSchedule::from_sessions(
            vec![vec![
                Session {
                    start: SimTime::ZERO,
                    end: SimTime::from_secs(10),
                },
                Session {
                    start: SimTime::from_secs(20),
                    end: SimTime::from_secs(30),
                },
            ]],
            SimTime::from_secs(40),
        );
        let n = NodeId(0);
        assert!(sched.up_through(n, SimTime::from_secs(1), SimTime::from_secs(9)));
        assert!(!sched.up_through(n, SimTime::from_secs(1), SimTime::from_secs(10)));
        assert!(!sched.up_through(n, SimTime::from_secs(5), SimTime::from_secs(25)));
        assert!(!sched.up_through(n, SimTime::from_secs(12), SimTime::from_secs(15)));
        sched.pin_up(n);
        assert!(sched.up_through(n, SimTime::from_secs(5), SimTime::from_secs(35)));
    }

    #[test]
    fn always_up_has_full_availability() {
        let sched = ChurnSchedule::always_up(10, SimTime::from_secs(100));
        assert_eq!(sched.availability_at(SimTime::from_secs(50)), 1.0);
    }

    #[test]
    fn transitions_are_ordered_and_paired() {
        let mut rng = StdRng::seed_from_u64(5);
        let dist = LifetimeDistribution::pareto_with_median(300.0);
        let sched = ChurnSchedule::generate(8, &dist, &dist, SimTime::from_secs(3600), &mut rng);
        let events = sched.transitions();
        for w in events.windows(2) {
            assert!(w[0].0 <= w[1].0, "transitions must be time-ordered");
        }
        // Every node's first transition is a join at t=0.
        for i in 0..8usize {
            let first = events
                .iter()
                .find(|&&(_, n, _)| n == NodeId::from(i))
                .unwrap();
            assert_eq!((first.0, first.2), (SimTime::ZERO, true));
        }
    }

    fn assert_invariants(sched: &ChurnSchedule) {
        for i in 0..sched.len() {
            let sessions = sched.sessions(NodeId::from(i));
            for s in sessions {
                assert!(s.start < s.end, "node {i}: empty session");
            }
            for w in sessions.windows(2) {
                assert!(w[0].end < w[1].start, "node {i}: overlapping sessions");
            }
        }
    }

    #[test]
    fn flash_crowd_raises_availability() {
        let mut rng = StdRng::seed_from_u64(11);
        let dist = LifetimeDistribution::pareto_with_median(600.0);
        let horizon = SimTime::from_secs(7200);
        let mut sched = ChurnSchedule::generate(256, &dist, &dist, horizon, &mut rng);
        let at = SimTime::from_secs(3600);
        let before = sched.availability_at(at);
        sched.apply_event(
            ChurnEvent::FlashCrowd { at, fraction: 1.0 },
            &dist,
            &mut rng,
        );
        let after = sched.availability_at(at);
        assert!(
            after > before && after > 0.99,
            "flash crowd {before} -> {after}"
        );
        assert_invariants(&sched);
    }

    #[test]
    fn mass_failure_empties_then_recovers() {
        let mut rng = StdRng::seed_from_u64(12);
        let dist = LifetimeDistribution::pareto_with_median(600.0);
        let horizon = SimTime::from_secs(7200);
        let mut sched = ChurnSchedule::generate(256, &dist, &dist, horizon, &mut rng);
        let at = SimTime::from_secs(3600);
        let mid = at + SimDuration::from_secs(300);
        let mid_before = sched.availability_at(mid);
        sched.apply_event(
            ChurnEvent::MassFailure {
                at,
                fraction: 1.0,
                downtime: SimDuration::from_secs(600),
            },
            &dist,
            &mut rng,
        );
        assert_eq!(sched.availability_at(at), 0.0, "everyone crashed");
        // Mid-outage, only nodes that were already down at the crash and
        // rejoin on their natural schedule can be up — a sharp dip.
        let mid_after = sched.availability_at(mid);
        assert!(
            mid_after < mid_before / 2.0,
            "outage dip too shallow: {mid_before} -> {mid_after}"
        );
        // Nodes whose schedule had a session spanning the outage return.
        let back = sched.availability_at(at + SimDuration::from_secs(601));
        assert!(back > 0.0, "nobody recovered");
        assert_invariants(&sched);
    }

    #[test]
    fn partial_fraction_hits_a_subset_deterministically() {
        let dist = LifetimeDistribution::pareto_with_median(600.0);
        let horizon = SimTime::from_secs(7200);
        let at = SimTime::from_secs(1800);
        let build = || {
            let mut rng = StdRng::seed_from_u64(13);
            let mut sched = ChurnSchedule::generate(128, &dist, &dist, horizon, &mut rng);
            sched.apply_event(
                ChurnEvent::MassFailure {
                    at,
                    fraction: 0.5,
                    downtime: SimDuration::from_secs(900),
                },
                &dist,
                &mut rng,
            );
            sched
        };
        let a = build();
        let b = build();
        let avail = a.availability_at(at);
        assert!(
            avail > 0.1 && avail < 0.6,
            "half-failure availability {avail}"
        );
        for i in 0..a.len() {
            let node = NodeId::from(i);
            assert_eq!(a.sessions(node), b.sessions(node), "node {i} differs");
        }
        assert_invariants(&a);
    }

    #[test]
    fn event_at_coinciding_with_session_edge_keeps_invariants() {
        let dist = LifetimeDistribution::pareto_with_median(300.0);
        let mut sched = ChurnSchedule::from_sessions(
            vec![vec![
                Session {
                    start: SimTime::ZERO,
                    end: SimTime::from_secs(100),
                },
                Session {
                    start: SimTime::from_secs(200),
                    end: SimTime::from_secs(300),
                },
            ]],
            SimTime::from_secs(400),
        );
        // Flash crowd exactly when the first session ends: the joined
        // session must keep a strict gap on both sides.
        sched.apply_event(
            ChurnEvent::FlashCrowd {
                at: SimTime::from_secs(100),
                fraction: 1.0,
            },
            &dist,
            &mut StdRng::seed_from_u64(14),
        );
        assert_invariants(&sched);
        // Mass failure exactly at a session start removes it cleanly.
        sched.apply_event(
            ChurnEvent::MassFailure {
                at: SimTime::from_secs(200),
                fraction: 1.0,
                downtime: SimDuration::from_secs(50),
            },
            &dist,
            &mut StdRng::seed_from_u64(15),
        );
        assert_invariants(&sched);
    }

    #[test]
    fn pooled_layout_survives_pins_and_splices() {
        // pin_up replaces spans of different lengths mid-pool; every other
        // node's slice must come back bit-identical after the splice.
        let mut rng = StdRng::seed_from_u64(21);
        let dist = LifetimeDistribution::pareto_with_median(600.0);
        let horizon = SimTime::from_secs(7200);
        let mut sched = ChurnSchedule::generate(32, &dist, &dist, horizon, &mut rng);
        let before: Vec<Vec<Session>> = (0..32usize)
            .map(|i| sched.sessions(NodeId::from(i)).to_vec())
            .collect();
        sched.pin_up(NodeId(5));
        sched.pin_up(NodeId(17));
        for (i, orig) in before.iter().enumerate() {
            let node = NodeId::from(i);
            if i == 5 || i == 17 {
                assert_eq!(sched.sessions(node).len(), 1);
                assert!(sched.is_up(node, SimTime::from_secs(999_999)));
            } else {
                assert_eq!(sched.sessions(node), &orig[..], "node {i} span moved");
            }
        }
        let span_sum: usize = (0..32usize)
            .map(|i| sched.sessions(NodeId::from(i)).len())
            .sum();
        assert_eq!(sched.total_sessions(), span_sum, "offsets inconsistent");
    }

    #[test]
    fn availability_reflects_churn_steady_state() {
        // Same up and down distribution => availability near 0.5 after
        // warm-up (symmetric alternating renewal process; Pareto's infinite
        // mean makes convergence slow, so allow wide slack).
        let mut rng = StdRng::seed_from_u64(6);
        let dist = LifetimeDistribution::paper_exponential();
        let sched =
            ChurnSchedule::generate(2000, &dist, &dist, SimTime::from_secs(40_000), &mut rng);
        let a = sched.availability_at(SimTime::from_secs(30_000));
        assert!((a - 0.5).abs() < 0.08, "steady-state availability {a}");
    }
}
