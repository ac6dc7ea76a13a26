//! Deterministic, seed-derived fault injection.
//!
//! A [`FaultPlan`] composes four adversarial ingredients on top of the
//! churn schedule's up/down ground truth:
//!
//! * **per-link message drops** — every link transmission is dropped with
//!   probability `link_drop`;
//! * **latency spikes** — with probability `spike_prob` a transmission's
//!   one-way delay is stretched by a jittered factor in
//!   `[1, spike_factor]`;
//! * **relay crash-restarts** — each node carries a pre-generated Poisson
//!   schedule of crash instants; a crash wipes the relay's soft state
//!   (path caches) while the node itself stays up, the failure mode that
//!   state TTLs and sweeping cannot observe from the outside;
//! * **stale membership views** — gossip is held back by `view_staleness`,
//!   so mix choice runs on old liveness information.
//!
//! All decisions are *pure functions* of `(seed, link, instant)` — drop and
//! spike outcomes come from a splitmix-style hash, crash schedules are
//! pre-generated per node from a seed-derived RNG. No call order, thread
//! count or query interleaving can change an injected fault sequence, which
//! keeps every faulted experiment bit-replayable.

use crate::node::NodeId;
use crate::time::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Fault intensities; [`FaultConfig::NONE`] disables every ingredient.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultConfig {
    /// Probability that any single link transmission is dropped.
    pub link_drop: f64,
    /// Probability that a transmission suffers a latency spike.
    pub spike_prob: f64,
    /// Maximum one-way-delay multiplier of a spike (jittered in
    /// `[1, spike_factor]`); values `<= 1` disable spikes.
    pub spike_factor: f64,
    /// Mean crash-restarts per node per hour (Poisson).
    pub crashes_per_hour: f64,
    /// How far membership views lag behind real time.
    pub view_staleness: SimDuration,
    /// Mean connection-reset windows per directed link per hour; during
    /// a window every transmission on the link is dropped (a TCP-reset /
    /// middlebox-blackhole failure mode, as opposed to the i.i.d.
    /// `link_drop`). Zero disables resets.
    pub resets_per_hour: f64,
    /// Length of each reset window; [`SimDuration::ZERO`] disables
    /// resets.
    pub reset_window: SimDuration,
}

impl FaultConfig {
    /// No faults at all.
    pub const NONE: FaultConfig = FaultConfig {
        link_drop: 0.0,
        spike_prob: 0.0,
        spike_factor: 1.0,
        crashes_per_hour: 0.0,
        view_staleness: SimDuration::ZERO,
        resets_per_hour: 0.0,
        reset_window: SimDuration::ZERO,
    };

    /// Whether every ingredient is disabled.
    pub fn is_none(&self) -> bool {
        self.link_drop <= 0.0
            && (self.spike_prob <= 0.0 || self.spike_factor <= 1.0)
            && self.crashes_per_hour <= 0.0
            && self.view_staleness == SimDuration::ZERO
            && (self.resets_per_hour <= 0.0 || self.reset_window == SimDuration::ZERO)
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self::NONE
    }
}

/// A deterministic fault schedule over `n` nodes (see module docs).
///
/// ```
/// use simnet::{FaultConfig, FaultPlan, NodeId, SimTime};
///
/// let cfg = FaultConfig { link_drop: 0.5, ..FaultConfig::NONE };
/// let plan = FaultPlan::new(8, cfg, SimTime::from_secs(3600), 42);
///
/// // Drop decisions are pure functions of (seed, link, instant): asking
/// // twice — in any order, from any thread — gives the same answer.
/// let t = SimTime::from_secs(7);
/// let first = plan.drops(NodeId(0), NodeId(1), t);
/// assert_eq!(plan.drops(NodeId(0), NodeId(1), t), first);
///
/// // An identically-parameterised plan replays the same fault sequence.
/// let replay = FaultPlan::new(8, cfg, SimTime::from_secs(3600), 42);
/// assert_eq!(replay.drops(NodeId(0), NodeId(1), t), first);
/// ```
#[derive(Clone, Debug)]
pub struct FaultPlan {
    cfg: FaultConfig,
    seed: u64,
    crashes: Vec<Vec<SimTime>>,
}

const TAG_DROP: u64 = 0xD20F;
const TAG_SPIKE: u64 = 0x57E1;
const TAG_JITTER: u64 = 0x1177;
const TAG_CRASH: u64 = 0xC2A5;
const TAG_RESET: u64 = 0x2E5E;

/// One round of splitmix64 finalization.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Hash `(seed, tag, a, b)` to a uniform `[0, 1)` value.
///
/// This is the primitive every pure-function fault decision in the
/// workspace is built on (drops, spikes, reset windows — and the live
/// `transport::chaos` layer reuses it for its own fault plan): callers
/// pick a `tag` to separate decision streams and feed the identifying
/// words of the decision as `a`/`b`.
pub fn hash_unit(seed: u64, tag: u64, a: u64, b: u64) -> f64 {
    let h = splitmix(splitmix(splitmix(seed ^ tag).wrapping_add(a)).wrapping_add(b));
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Internal alias kept for brevity at the many call sites below.
use self::hash_unit as unit;

/// Whether `link` is inside one of its connection-reset windows at
/// `now_us`.
///
/// Time is divided into slots of mean reset spacing
/// (`3600 s / resets_per_hour`); each slot holds one window of
/// `window_us` at a hash-jittered offset. A pure function of
/// `(seed, tag, link, slot)` like every other fault decision; `tag`
/// separates the simulator's reset stream from the live chaos layer's.
pub fn in_reset_window(
    seed: u64,
    tag: u64,
    link: u64,
    now_us: u64,
    resets_per_hour: f64,
    window_us: u64,
) -> bool {
    if resets_per_hour <= 0.0 || window_us == 0 {
        return false;
    }
    let interval_us = ((3600.0 * 1e6 / resets_per_hour) as u64).max(1);
    if window_us >= interval_us {
        return true; // windows cover the whole timeline
    }
    let slot = now_us / interval_us;
    let jitter = hash_unit(seed, tag, link, slot);
    let start = slot * interval_us + (jitter * (interval_us - window_us) as f64) as u64;
    now_us >= start && now_us < start + window_us
}

/// The directed link `from → to` as one hash word for [`hash_unit`].
pub fn link_word(from: NodeId, to: NodeId) -> u64 {
    ((from.0 as u64) << 32) | to.0 as u64
}

impl FaultPlan {
    /// The empty plan: injects nothing, costs nothing.
    pub fn none() -> Self {
        FaultPlan {
            cfg: FaultConfig::NONE,
            seed: 0,
            crashes: Vec::new(),
        }
    }

    /// Build a plan for `n` nodes covering `[0, horizon)`. Identical
    /// `(n, cfg, horizon, seed)` inputs yield an identical plan.
    pub fn new(n: usize, cfg: FaultConfig, horizon: SimTime, seed: u64) -> Self {
        let crashes = (0..n)
            .map(|i| {
                if cfg.crashes_per_hour <= 0.0 {
                    return Vec::new();
                }
                let mut rng = StdRng::seed_from_u64(splitmix(seed ^ TAG_CRASH) ^ i as u64);
                let mean_secs = 3600.0 / cfg.crashes_per_hour;
                let mut t = SimTime::ZERO;
                let mut out = Vec::new();
                loop {
                    let u: f64 = 1.0 - rng.gen::<f64>();
                    t += SimDuration::from_secs_f64(-mean_secs * u.ln());
                    if t >= horizon {
                        break;
                    }
                    out.push(t);
                }
                out
            })
            .collect();
        FaultPlan { cfg, seed, crashes }
    }

    /// The intensities this plan was built from.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Whether this plan injects nothing.
    pub fn is_none(&self) -> bool {
        self.cfg.is_none()
    }

    /// Whether the transmission departing on `(from → to)` at `depart` is
    /// dropped — by the i.i.d. per-transmission coin *or* because the
    /// link is inside one of its reset windows.
    pub fn drops(&self, from: NodeId, to: NodeId, depart: SimTime) -> bool {
        (self.cfg.link_drop > 0.0
            && unit(self.seed, TAG_DROP, link_word(from, to), depart.as_micros())
                < self.cfg.link_drop)
            || self.link_reset(from, to, depart)
    }

    /// Whether the directed link `(from → to)` is inside a connection
    /// reset window at `at` (see [`in_reset_window`]).
    pub fn link_reset(&self, from: NodeId, to: NodeId, at: SimTime) -> bool {
        in_reset_window(
            self.seed,
            TAG_RESET,
            link_word(from, to),
            at.as_micros(),
            self.cfg.resets_per_hour,
            self.cfg.reset_window.as_micros(),
        )
    }

    /// The (possibly spiked) one-way delay for a transmission departing on
    /// `(from → to)` at `depart`; returns `owd` unchanged when no spike
    /// fires.
    pub fn scale_owd(
        &self,
        owd: SimDuration,
        from: NodeId,
        to: NodeId,
        depart: SimTime,
    ) -> SimDuration {
        if self.cfg.spike_prob <= 0.0 || self.cfg.spike_factor <= 1.0 {
            return owd;
        }
        let link = link_word(from, to);
        if unit(self.seed, TAG_SPIKE, link, depart.as_micros()) >= self.cfg.spike_prob {
            return owd;
        }
        let jitter = unit(self.seed, TAG_JITTER, link, depart.as_micros());
        let factor = 1.0 + (self.cfg.spike_factor - 1.0) * jitter;
        SimDuration((owd.as_micros() as f64 * factor).round() as u64)
    }

    /// The pre-generated crash instants of `node` (sorted ascending;
    /// empty for nodes beyond the plan's size).
    pub fn crash_times(&self, node: NodeId) -> &[SimTime] {
        self.crashes
            .get(node.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Total crash events across all nodes.
    pub fn total_crashes(&self) -> usize {
        self.crashes.iter().map(Vec::len).sum()
    }

    /// The instant membership views reflect when real time is `now`
    /// (lagged by `view_staleness`, floored at zero).
    pub fn stale_view_time(&self, now: SimTime) -> SimTime {
        SimTime(
            now.as_micros()
                .saturating_sub(self.cfg.view_staleness.as_micros()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn harsh() -> FaultConfig {
        FaultConfig {
            link_drop: 0.2,
            spike_prob: 0.3,
            spike_factor: 4.0,
            crashes_per_hour: 2.0,
            view_staleness: SimDuration::from_secs(60),
            ..FaultConfig::NONE
        }
    }

    #[test]
    fn empty_plan_injects_nothing() {
        let plan = FaultPlan::none();
        assert!(plan.is_none());
        let owd = SimDuration::from_millis(40);
        for i in 0..200u64 {
            let t = SimTime::from_secs(i);
            assert!(!plan.drops(NodeId(1), NodeId(2), t));
            assert_eq!(plan.scale_owd(owd, NodeId(1), NodeId(2), t), owd);
        }
        assert_eq!(plan.total_crashes(), 0);
        assert_eq!(
            plan.stale_view_time(SimTime::from_secs(9)),
            SimTime::from_secs(9)
        );
    }

    #[test]
    fn same_seed_same_plan() {
        let horizon = SimTime::from_secs(7200);
        let a = FaultPlan::new(32, harsh(), horizon, 99);
        let b = FaultPlan::new(32, harsh(), horizon, 99);
        for i in 0..32 {
            assert_eq!(a.crash_times(NodeId(i)), b.crash_times(NodeId(i)));
        }
        for i in 0..500u64 {
            let t = SimTime::from_millis(i * 37);
            let (x, y) = (NodeId((i % 7) as u32), NodeId((i % 11) as u32));
            assert_eq!(a.drops(x, y, t), b.drops(x, y, t));
            let owd = SimDuration::from_millis(40);
            assert_eq!(a.scale_owd(owd, x, y, t), b.scale_owd(owd, x, y, t));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let horizon = SimTime::from_secs(7200);
        let a = FaultPlan::new(16, harsh(), horizon, 1);
        let b = FaultPlan::new(16, harsh(), horizon, 2);
        let mut differs = false;
        for i in 0..2000u64 {
            let t = SimTime::from_millis(i * 13);
            if a.drops(NodeId(0), NodeId(1), t) != b.drops(NodeId(0), NodeId(1), t) {
                differs = true;
                break;
            }
        }
        assert!(differs, "independent seeds must produce different drops");
    }

    #[test]
    fn drop_rate_tracks_probability() {
        let plan = FaultPlan::new(
            4,
            FaultConfig {
                link_drop: 0.25,
                ..FaultConfig::NONE
            },
            SimTime::from_secs(10),
            5,
        );
        let trials = 20_000u64;
        let dropped = (0..trials)
            .filter(|&i| plan.drops(NodeId(0), NodeId(1), SimTime(i * 101)))
            .count();
        let rate = dropped as f64 / trials as f64;
        assert!((rate - 0.25).abs() < 0.02, "observed drop rate {rate}");
    }

    #[test]
    fn spikes_bounded_by_factor() {
        let plan = FaultPlan::new(
            4,
            FaultConfig {
                spike_prob: 1.0,
                spike_factor: 3.0,
                ..FaultConfig::NONE
            },
            SimTime::from_secs(10),
            6,
        );
        let owd = SimDuration::from_millis(50);
        let mut spiked = 0;
        for i in 0..1000u64 {
            let scaled = plan.scale_owd(owd, NodeId(2), NodeId(3), SimTime(i * 7));
            assert!(scaled >= owd, "spikes never shorten delays");
            assert!(scaled.as_micros() <= owd.as_micros() * 3 + 1);
            if scaled > owd {
                spiked += 1;
            }
        }
        assert!(spiked > 900, "spike_prob = 1 must nearly always spike");
    }

    #[test]
    fn crash_schedule_in_horizon_and_sorted() {
        let horizon = SimTime::from_secs(3600);
        let plan = FaultPlan::new(24, harsh(), horizon, 7);
        assert!(plan.total_crashes() > 0, "2/hour over 24 nodes must crash");
        for i in 0..24 {
            let times = plan.crash_times(NodeId(i));
            for w in times.windows(2) {
                assert!(w[0] < w[1]);
            }
            assert!(times.iter().all(|&t| t < horizon));
        }
        assert!(plan.crash_times(NodeId(999)).is_empty());
    }

    #[test]
    fn reset_windows_are_deterministic_and_track_duty_cycle() {
        let cfg = FaultConfig {
            // One 60 s window per hour per link: 1/60 duty cycle.
            resets_per_hour: 1.0,
            reset_window: SimDuration::from_secs(60),
            ..FaultConfig::NONE
        };
        let horizon = SimTime::from_secs(400 * 3600);
        let a = FaultPlan::new(4, cfg, horizon, 11);
        let b = FaultPlan::new(4, cfg, horizon, 11);
        let trials = 40_000u64;
        let mut inside = 0u64;
        for i in 0..trials {
            let t = SimTime(i * 36_000_000); // 36 s grid over 400 h
            let hit = a.link_reset(NodeId(0), NodeId(1), t);
            assert_eq!(hit, b.link_reset(NodeId(0), NodeId(1), t));
            assert_eq!(
                hit || a.drops(NodeId(0), NodeId(1), t),
                a.drops(NodeId(0), NodeId(1), t)
            );
            if hit {
                inside += 1;
            }
        }
        let duty = inside as f64 / trials as f64;
        assert!(
            (duty - 1.0 / 60.0).abs() < 0.01,
            "observed reset duty cycle {duty}"
        );
        // Different links see different windows.
        let mut differs = false;
        for i in 0..trials {
            let t = SimTime(i * 36_000_000);
            if a.link_reset(NodeId(0), NodeId(1), t) != a.link_reset(NodeId(2), NodeId(3), t) {
                differs = true;
                break;
            }
        }
        assert!(differs);
    }

    #[test]
    fn reset_defaults_are_inert() {
        assert!(FaultConfig::NONE.is_none());
        let plan = FaultPlan::new(4, FaultConfig::NONE, SimTime::from_secs(100), 3);
        for i in 0..1000u64 {
            assert!(!plan.link_reset(NodeId(0), NodeId(1), SimTime(i * 997)));
        }
        // A window with zero length (or zero rate) injects nothing.
        let half = FaultConfig {
            resets_per_hour: 5.0,
            ..FaultConfig::NONE
        };
        assert!(half.is_none());
    }

    #[test]
    fn stale_view_lags_and_floors() {
        let plan = FaultPlan::new(2, harsh(), SimTime::from_secs(100), 8);
        assert_eq!(
            plan.stale_view_time(SimTime::from_secs(90)),
            SimTime::from_secs(30)
        );
        assert_eq!(plan.stale_view_time(SimTime::from_secs(10)), SimTime::ZERO);
    }
}
