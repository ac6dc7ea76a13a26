//! Deterministic fault injection for the live stack: a seed-driven
//! [`ChaosTransport`] wrapper composable over any [`Transport`].
//!
//! This is the live-layer mirror of `simnet::fault`: where a
//! [`simnet::FaultPlan`] perturbs the simulator's link model from the
//! inside, a [`ChaosPlan`] perturbs the *transport boundary* itself —
//! the same wrapper runs over [`crate::SimTransport`] (for replayable
//! soak tests) and [`crate::EventedTransport`] (for live chaos drills).
//!
//! Ingredients, all driven by one [`ChaosConfig`]:
//!
//! * **message drops** — each send is dropped with `drop_prob`;
//! * **delays / reorder** — with `delay_prob` a frame is held for a
//!   hash-chosen delay in `(0, delay_max_us]` before being re-injected;
//!   frames held past later sends arrive out of order, which is the
//!   point;
//! * **byte corruption** — with `corrupt_prob` one hash-chosen bit of
//!   the encoded frame is flipped; if the mangled bytes still decode the
//!   corrupted frame is delivered (the protocol's crypto must catch it),
//!   otherwise the frame dies exactly as a TCP reader kills a garbage
//!   connection;
//! * **connection resets** — per-link reset windows (mean
//!   `resets_per_hour`, each `reset_window_us` long) during which every
//!   frame on the link is dropped;
//! * **asymmetric partitions** — explicit [`Partition`] windows cutting
//!   `from`-side nodes off the `to`-side (one direction only: replies
//!   still flow, the nastiest real-world failure shape);
//! * **slow peers** — frames *to* a listed peer are serialized through a
//!   `slow_bytes_per_sec` bottleneck, modeling a relay on a saturated
//!   uplink.
//!
//! Every verdict is a pure function of `(seed, link, send instant)` via
//! [`simnet::fault::hash_unit`] — no internal RNG state — so a soak run
//! is bit-replayable from its seed. The one stateful ingredient (the
//! slow-peer bottleneck clock) is deterministic in send order, which the
//! surrounding engine already fixes.
//!
//! An empty plan ([`ChaosPlan::none`]) is **inert by construction**:
//! `send` delegates without encoding or hashing anything, matching the
//! `FaultPlan::none()` precedent (and the `chaos_soak` test proves the
//! byte-identity).

use crate::policy::Priority;
use crate::{Transport, TransportError, TransportEvent};
use anon_core::wire::{decode_frame_vec, encode_frame, Frame};
use simnet::fault::{hash_unit, in_reset_window, link_word};
use simnet::NodeId;
use std::collections::HashMap;

/// The reserved timer owner the wrapper uses to schedule held-frame
/// releases on the inner transport. `u32::MAX` is not a routable node
/// id anywhere in the workspace (the node binary uses it as the unset
/// sentinel), so protocol timers can never collide with it.
const CHAOS_OWNER: NodeId = NodeId(u32::MAX);

const TAG_DROP: u64 = 0xC1A0_D209;
const TAG_CORRUPT: u64 = 0xC1A0_C029;
const TAG_CORRUPT_POS: u64 = 0xC1A0_05C4;
const TAG_DELAY: u64 = 0xC1A0_DE1A;
const TAG_DELAY_MAG: u64 = 0xC1A0_3A67;
const TAG_RESET: u64 = 0xC1A0_2E5E;

/// One asymmetric partition window: frames from any node in `from` to
/// any node in `to` are dropped while `start_us <= now < end_us`.
/// Traffic in the opposite direction is untouched.
#[derive(Clone, Debug, PartialEq)]
pub struct Partition {
    /// Sender-side node ids (raw `NodeId` words).
    pub from: Vec<u32>,
    /// Receiver-side node ids.
    pub to: Vec<u32>,
    /// Window start, transport-clock microseconds.
    pub start_us: u64,
    /// Window end (exclusive).
    pub end_us: u64,
}

impl Partition {
    fn cuts(&self, from: NodeId, to: NodeId, now_us: u64) -> bool {
        now_us >= self.start_us
            && now_us < self.end_us
            && self.from.contains(&from.0)
            && self.to.contains(&to.0)
    }
}

/// Chaos intensities; [`ChaosConfig::NONE`] disables every ingredient.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosConfig {
    /// Probability a send is dropped outright.
    pub drop_prob: f64,
    /// Probability a send is delayed (and thereby possibly reordered).
    pub delay_prob: f64,
    /// Upper bound of an injected delay, microseconds.
    pub delay_max_us: u64,
    /// Probability one bit of the encoded frame is flipped.
    pub corrupt_prob: f64,
    /// Mean connection-reset windows per directed link per hour.
    pub resets_per_hour: f64,
    /// Length of each reset window, microseconds.
    pub reset_window_us: u64,
    /// Asymmetric partition windows.
    pub partitions: Vec<Partition>,
    /// Peers whose inbound links are bandwidth-throttled.
    pub slow_peers: Vec<u32>,
    /// The throttled peers' drain rate, bytes per second.
    pub slow_bytes_per_sec: u64,
}

impl ChaosConfig {
    /// No chaos at all.
    pub const NONE: ChaosConfig = ChaosConfig {
        drop_prob: 0.0,
        delay_prob: 0.0,
        delay_max_us: 0,
        corrupt_prob: 0.0,
        resets_per_hour: 0.0,
        reset_window_us: 0,
        partitions: Vec::new(),
        slow_peers: Vec::new(),
        slow_bytes_per_sec: 0,
    };

    /// Whether every ingredient is disabled.
    pub fn is_none(&self) -> bool {
        self.drop_prob <= 0.0
            && (self.delay_prob <= 0.0 || self.delay_max_us == 0)
            && self.corrupt_prob <= 0.0
            && (self.resets_per_hour <= 0.0 || self.reset_window_us == 0)
            && self.partitions.is_empty()
            && (self.slow_peers.is_empty() || self.slow_bytes_per_sec == 0)
    }

    /// Parse a compact `key=value,key=value` spec (the `--chaos` CLI
    /// surface): `drop`, `delay` (probability), `delay_max_ms`,
    /// `corrupt`, `resets_per_hour`, `reset_window_ms`, `slow` (peer id,
    /// repeatable), `slow_bps`.
    ///
    /// ```
    /// let c = transport::ChaosConfig::from_spec("drop=0.05,delay=0.2,delay_max_ms=150").unwrap();
    /// assert!(!c.is_none());
    /// assert_eq!(c.delay_max_us, 150_000);
    /// ```
    pub fn from_spec(spec: &str) -> Result<ChaosConfig, String> {
        let mut cfg = ChaosConfig::NONE;
        for part in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("chaos spec `{part}`: expected key=value"))?;
            let (key, value) = (key.trim(), value.trim());
            let bad = || format!("chaos spec `{key}`: bad value `{value}`");
            match key {
                "drop" => cfg.drop_prob = value.parse().map_err(|_| bad())?,
                "delay" => cfg.delay_prob = value.parse().map_err(|_| bad())?,
                "delay_max_ms" => {
                    cfg.delay_max_us = value.parse::<u64>().map_err(|_| bad())? * 1_000;
                }
                "corrupt" => cfg.corrupt_prob = value.parse().map_err(|_| bad())?,
                "resets_per_hour" => cfg.resets_per_hour = value.parse().map_err(|_| bad())?,
                "reset_window_ms" => {
                    cfg.reset_window_us = value.parse::<u64>().map_err(|_| bad())? * 1_000;
                }
                "slow" => cfg.slow_peers.push(value.parse().map_err(|_| bad())?),
                "slow_bps" => cfg.slow_bytes_per_sec = value.parse().map_err(|_| bad())?,
                other => return Err(format!("chaos spec: unknown key `{other}`")),
            }
        }
        Ok(cfg)
    }
}

/// A seeded, immutable chaos schedule (see module docs).
#[derive(Clone, Debug)]
pub struct ChaosPlan {
    cfg: ChaosConfig,
    seed: u64,
}

impl ChaosPlan {
    /// The empty plan: injects nothing, costs nothing.
    pub fn none() -> Self {
        ChaosPlan {
            cfg: ChaosConfig::NONE,
            seed: 0,
        }
    }

    /// A plan injecting `cfg` deterministically under `seed`.
    pub fn new(cfg: ChaosConfig, seed: u64) -> Self {
        ChaosPlan { cfg, seed }
    }

    /// The intensities this plan injects.
    pub fn config(&self) -> &ChaosConfig {
        &self.cfg
    }

    /// Whether this plan injects nothing.
    pub fn is_none(&self) -> bool {
        self.cfg.is_none()
    }

    fn drops(&self, link: u64, now_us: u64) -> bool {
        self.cfg.drop_prob > 0.0
            && hash_unit(self.seed, TAG_DROP, link, now_us) < self.cfg.drop_prob
    }

    fn corrupts(&self, link: u64, now_us: u64) -> bool {
        self.cfg.corrupt_prob > 0.0
            && hash_unit(self.seed, TAG_CORRUPT, link, now_us) < self.cfg.corrupt_prob
    }

    /// Bit index to flip in an `len`-byte encoding.
    fn corrupt_bit(&self, link: u64, now_us: u64, len: usize) -> usize {
        let u = hash_unit(self.seed, TAG_CORRUPT_POS, link, now_us);
        ((u * (len * 8) as f64) as usize).min(len * 8 - 1)
    }

    /// The injected delay for this send, `0` when none fires.
    fn delay_us(&self, link: u64, now_us: u64) -> u64 {
        if self.cfg.delay_prob <= 0.0 || self.cfg.delay_max_us == 0 {
            return 0;
        }
        if hash_unit(self.seed, TAG_DELAY, link, now_us) >= self.cfg.delay_prob {
            return 0;
        }
        let u = hash_unit(self.seed, TAG_DELAY_MAG, link, now_us);
        ((u * self.cfg.delay_max_us as f64) as u64).max(1)
    }

    /// Whether the link sits inside one of its reset windows.
    fn link_reset(&self, link: u64, now_us: u64) -> bool {
        in_reset_window(
            self.seed,
            TAG_RESET,
            link,
            now_us,
            self.cfg.resets_per_hour,
            self.cfg.reset_window_us,
        )
    }

    fn partitioned(&self, from: NodeId, to: NodeId, now_us: u64) -> bool {
        self.cfg.partitions.iter().any(|p| p.cuts(from, to, now_us))
    }
}

/// Injection counters; every ingredient's hits are observable so soak
/// harnesses can assert the chaos actually happened.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Frames passed through untouched.
    pub passed: u64,
    /// Frames dropped by the i.i.d. drop coin.
    pub dropped: u64,
    /// Frames dropped inside a partition window.
    pub partition_drops: u64,
    /// Frames dropped inside a link-reset window.
    pub reset_drops: u64,
    /// Frames delivered with a flipped bit.
    pub corrupted: u64,
    /// Frames whose corruption broke the encoding (dropped, as a TCP
    /// reader drops a garbage connection).
    pub corrupt_dropped: u64,
    /// Frames held for an injected delay.
    pub delayed: u64,
    /// Frames additionally queued behind a slow peer's bottleneck.
    pub throttled: u64,
}

impl ChaosStats {
    /// Total frames the plan interfered with.
    pub fn total_injected(&self) -> u64 {
        self.dropped
            + self.partition_drops
            + self.reset_drops
            + self.corrupted
            + self.corrupt_dropped
            + self.delayed
    }
}

/// A frame held back for delayed (re)injection.
struct Held {
    from: NodeId,
    to: NodeId,
    frame: Frame,
    prio: Priority,
}

/// The chaos wrapper: a [`Transport`] that perturbs `send` according to
/// its [`ChaosPlan`] and delegates everything else to the inner
/// transport.
///
/// Delayed frames are parked and re-injected via timers armed on the
/// *inner* transport under a reserved owner id, so release instants are
/// exact on both simulated and wall clocks, and a released frame is
/// never re-judged (each send faces the plan once).
pub struct ChaosTransport<T: Transport> {
    inner: T,
    plan: ChaosPlan,
    held: HashMap<u64, Held>,
    next_hold: u64,
    /// Earliest instant each slow peer's bottleneck frees up.
    slow_next_free_us: HashMap<u32, u64>,
    stats: ChaosStats,
}

impl<T: Transport> ChaosTransport<T> {
    /// Wrap `inner` under `plan`.
    pub fn new(inner: T, plan: ChaosPlan) -> Self {
        ChaosTransport {
            inner,
            plan,
            held: HashMap::new(),
            next_hold: 0,
            slow_next_free_us: HashMap::new(),
            stats: ChaosStats::default(),
        }
    }

    /// The wrapped transport.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// The wrapped transport, mutably.
    pub fn inner_mut(&mut self) -> &mut T {
        &mut self.inner
    }

    /// The plan driving the injections.
    pub fn plan(&self) -> &ChaosPlan {
        &self.plan
    }

    /// Swap the fault plan mid-run. Frames already held for delayed
    /// release stay scheduled; only future sends see the new plan. Soaks
    /// use this to warm up fault-free and then turn the weather on.
    pub fn set_plan(&mut self, plan: ChaosPlan) {
        self.plan = plan;
    }

    /// Injection counters so far.
    pub fn stats(&self) -> ChaosStats {
        self.stats
    }

    /// Frames currently parked for delayed release.
    pub fn held_frames(&self) -> usize {
        self.held.len()
    }

    fn chaos_send(
        &mut self,
        from: NodeId,
        to: NodeId,
        frame: Frame,
        prio: Priority,
    ) -> Result<(), TransportError> {
        let now = self.inner.now_us();
        let link = link_word(from, to);
        if self.plan.partitioned(from, to, now) {
            self.stats.partition_drops += 1;
            return Ok(());
        }
        if self.plan.link_reset(link, now) {
            self.stats.reset_drops += 1;
            return Ok(());
        }
        if self.plan.drops(link, now) {
            self.stats.dropped += 1;
            return Ok(());
        }
        let mut frame = frame;
        let mut bytes_len = None;
        if self.plan.corrupts(link, now) {
            let mut bytes = encode_frame(&frame);
            let bit = self.plan.corrupt_bit(link, now, bytes.len());
            bytes[bit / 8] ^= 1 << (bit % 8);
            bytes_len = Some(bytes.len());
            match decode_frame_vec(bytes) {
                Ok(mangled) => {
                    self.stats.corrupted += 1;
                    frame = mangled;
                }
                Err(_) => {
                    self.stats.corrupt_dropped += 1;
                    return Ok(());
                }
            }
        }
        // Release instant: injected delay, then the slow-peer bottleneck
        // (service time proportional to the encoded size).
        let mut release = now + self.plan.delay_us(link, now);
        let cfg = self.plan.config();
        if cfg.slow_bytes_per_sec > 0 && cfg.slow_peers.contains(&to.0) {
            let len = bytes_len.unwrap_or_else(|| encode_frame(&frame).len());
            let service_us = (len as u64).saturating_mul(1_000_000) / cfg.slow_bytes_per_sec;
            let free = self.slow_next_free_us.entry(to.0).or_insert(now);
            let start = (*free).max(release);
            *free = start + service_us;
            if *free > release {
                self.stats.throttled += 1;
            }
            release = *free;
        }
        if release <= now {
            self.stats.passed += 1;
            return self.inner.send_prioritized(from, to, frame, prio);
        }
        // A frame can be both corrupted and delayed; `delayed` counts
        // every hold regardless of what else happened to the frame.
        self.stats.delayed += 1;
        self.next_hold += 1;
        let token = self.next_hold;
        self.held.insert(
            token,
            Held {
                from,
                to,
                frame,
                prio,
            },
        );
        self.inner.set_timer(CHAOS_OWNER, token, release - now);
        Ok(())
    }
}

impl<T: Transport> Transport for ChaosTransport<T> {
    fn now_us(&self) -> u64 {
        self.inner.now_us()
    }

    fn send(&mut self, from: NodeId, to: NodeId, frame: Frame) -> Result<(), TransportError> {
        let prio = Priority::of(&frame);
        self.send_prioritized(from, to, frame, prio)
    }

    fn send_prioritized(
        &mut self,
        from: NodeId,
        to: NodeId,
        frame: Frame,
        prio: Priority,
    ) -> Result<(), TransportError> {
        if self.plan.is_none() {
            // Inert fast path: no encode, no hashing, no counters — the
            // wrapped transport behaves byte-identically to the bare one.
            return self.inner.send_prioritized(from, to, frame, prio);
        }
        self.chaos_send(from, to, frame, prio)
    }

    fn set_timer(&mut self, owner: NodeId, token: u64, after_us: u64) {
        self.inner.set_timer(owner, token, after_us);
    }

    fn cancel_timer(&mut self, owner: NodeId, token: u64) {
        self.inner.cancel_timer(owner, token);
    }

    fn poll(&mut self, wait_us: u64) -> Option<TransportEvent> {
        let deadline = self.inner.now_us().saturating_add(wait_us);
        loop {
            let remaining = deadline.saturating_sub(self.inner.now_us());
            match self.inner.poll(remaining) {
                Some(TransportEvent::Timer { owner, token }) if owner == CHAOS_OWNER => {
                    // A held frame's release instant: re-inject it on the
                    // inner transport (no second chaos verdict) and keep
                    // polling for a real event.
                    if let Some(h) = self.held.remove(&token) {
                        let _ = self.inner.send_prioritized(h.from, h.to, h.frame, h.prio);
                    }
                    continue;
                }
                other => return other,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anon_core::wire::Wire;
    use anon_core::StreamId;
    use simnet::{ChurnSchedule, LatencyMatrix};

    fn sim(n: u32) -> crate::SimTransport {
        crate::SimTransport::new(
            ChurnSchedule::always_up(n as usize, simnet::SimTime::from_secs(1 << 20)),
            LatencyMatrix::uniform(n as usize, simnet::SimDuration::from_millis(10)),
        )
    }

    fn payload(b: u8) -> Frame {
        Frame::Stream {
            sid: StreamId(7),
            wire: Wire::Payload { blob: vec![b; 100] },
        }
    }

    #[test]
    fn empty_plan_delegates_without_counting() {
        let mut t = ChaosTransport::new(sim(4), ChaosPlan::none());
        for i in 0..50u8 {
            t.send(NodeId(0), NodeId(1), payload(i)).unwrap();
        }
        while t.poll(0).is_some() {}
        assert_eq!(t.stats(), ChaosStats::default());
        assert_eq!(t.held_frames(), 0);
        assert_eq!(t.inner().delivered(), 50);
    }

    #[test]
    fn drop_rate_tracks_probability() {
        let cfg = ChaosConfig {
            drop_prob: 0.3,
            ..ChaosConfig::NONE
        };
        let mut t = ChaosTransport::new(sim(4), ChaosPlan::new(cfg, 9));
        let sends = 4000u64;
        for i in 0..sends {
            // Distinct instants: drive the engine forward via a timer.
            t.inner_mut().set_timer(NodeId(3), i, 1_000);
            while t.poll(0).is_some() {}
            t.send(NodeId(0), NodeId(1), payload((i % 251) as u8))
                .unwrap();
        }
        while t.poll(0).is_some() {}
        let rate = t.stats().dropped as f64 / sends as f64;
        assert!((rate - 0.3).abs() < 0.03, "observed drop rate {rate}");
        assert_eq!(
            t.inner().delivered() + t.stats().dropped,
            sends,
            "every frame either arrives or is counted dropped"
        );
    }

    #[test]
    fn verdicts_are_deterministic_across_runs() {
        let cfg = ChaosConfig {
            drop_prob: 0.2,
            delay_prob: 0.3,
            delay_max_us: 50_000,
            corrupt_prob: 0.1,
            ..ChaosConfig::NONE
        };
        let run = |seed: u64| {
            let mut t = ChaosTransport::new(sim(4), ChaosPlan::new(cfg.clone(), seed));
            for i in 0..500u64 {
                t.inner_mut().set_timer(NodeId(3), i, 1_000);
                while t.poll(0).is_some() {}
                t.send(NodeId(0), NodeId(1), payload((i % 251) as u8))
                    .unwrap();
            }
            while t.poll(0).is_some() {}
            (t.stats(), t.inner().delivered())
        };
        assert_eq!(run(5), run(5), "same seed, same injections");
        assert_ne!(run(5).0, run(6).0, "different seeds differ");
    }

    #[test]
    fn delayed_frames_arrive_later_but_arrive() {
        let cfg = ChaosConfig {
            delay_prob: 1.0,
            delay_max_us: 80_000,
            ..ChaosConfig::NONE
        };
        let mut t = ChaosTransport::new(sim(4), ChaosPlan::new(cfg, 3));
        for i in 0..40u8 {
            t.send(NodeId(0), NodeId(1), payload(i)).unwrap();
        }
        assert_eq!(t.held_frames(), 40);
        let mut arrivals = 0;
        while let Some(ev) = t.poll(0) {
            if matches!(ev, TransportEvent::Frame { .. }) {
                arrivals += 1;
            }
        }
        assert_eq!(arrivals, 40, "held frames are re-injected, not lost");
        assert_eq!(t.held_frames(), 0);
        assert_eq!(t.stats().delayed, 40);
    }

    #[test]
    fn partitions_cut_one_direction_only() {
        let cfg = ChaosConfig {
            partitions: vec![Partition {
                from: vec![0],
                to: vec![1],
                start_us: 0,
                end_us: u64::MAX,
            }],
            ..ChaosConfig::NONE
        };
        let mut t = ChaosTransport::new(sim(4), ChaosPlan::new(cfg, 1));
        t.send(NodeId(0), NodeId(1), payload(1)).unwrap();
        t.send(NodeId(1), NodeId(0), payload(2)).unwrap();
        while t.poll(0).is_some() {}
        assert_eq!(t.stats().partition_drops, 1, "0→1 cut");
        assert_eq!(t.inner().delivered(), 1, "1→0 flows");
    }

    #[test]
    fn slow_peer_serializes_through_the_bottleneck() {
        let cfg = ChaosConfig {
            slow_peers: vec![1],
            slow_bytes_per_sec: 1_000, // ~115 ms per ~115-byte frame
            ..ChaosConfig::NONE
        };
        let mut t = ChaosTransport::new(sim(4), ChaosPlan::new(cfg, 2));
        for i in 0..5u8 {
            t.send(NodeId(0), NodeId(1), payload(i)).unwrap();
        }
        t.send(NodeId(0), NodeId(2), payload(9)).unwrap();
        let mut times = Vec::new();
        let mut fast_at = None;
        while let Some(ev) = t.poll(0) {
            if let TransportEvent::Frame { to, .. } = ev {
                if to == NodeId(1) {
                    times.push(t.now_us());
                } else {
                    fast_at = Some(t.now_us());
                }
            }
        }
        assert_eq!(times.len(), 5);
        assert!(t.stats().throttled >= 4, "queueing behind the bottleneck");
        for w in times.windows(2) {
            assert!(w[1] >= w[0] + 90_000, "spacing ≥ service time: {times:?}");
        }
        let fast = fast_at.expect("unthrottled peer delivered");
        assert!(fast < times[1], "other peers are not slowed");
    }

    #[test]
    fn corruption_flips_bits_or_kills_frames() {
        let cfg = ChaosConfig {
            corrupt_prob: 1.0,
            ..ChaosConfig::NONE
        };
        let mut t = ChaosTransport::new(sim(4), ChaosPlan::new(cfg, 8));
        let sends = 300u64;
        for i in 0..sends {
            t.inner_mut().set_timer(NodeId(3), i, 1_000);
            while t.poll(0).is_some() {}
            t.send(NodeId(0), NodeId(1), payload((i % 251) as u8))
                .unwrap();
        }
        while t.poll(0).is_some() {}
        let s = t.stats();
        assert_eq!(s.corrupted + s.corrupt_dropped, sends);
        assert!(s.corrupted > 0, "some corruptions still decode");
        assert!(s.corrupt_dropped > 0, "some corruptions kill the frame");
        assert_eq!(
            t.inner().delivered(),
            s.corrupted,
            "exactly the decodable corruptions arrive"
        );
    }

    #[test]
    fn spec_parser_round_trips_the_knobs() {
        let c = ChaosConfig::from_spec(
            "drop=0.1, delay=0.25, delay_max_ms=200, corrupt=0.02, \
             resets_per_hour=6, reset_window_ms=5000, slow=3, slow=4, slow_bps=65536",
        )
        .unwrap();
        assert_eq!(c.drop_prob, 0.1);
        assert_eq!(c.delay_max_us, 200_000);
        assert_eq!(c.reset_window_us, 5_000_000);
        assert_eq!(c.slow_peers, vec![3, 4]);
        assert_eq!(c.slow_bytes_per_sec, 65536);
        assert!(ChaosConfig::from_spec("").unwrap().is_none());
        assert!(ChaosConfig::from_spec("bogus=1").is_err());
        assert!(ChaosConfig::from_spec("drop").is_err());
    }
}
