//! One retry/backoff policy for the live stack.
//!
//! The live backend's reconnect loop and the protocol node's
//! ack-deadline retransmits both draw from a single [`PolicyConfig`]:
//!
//! * [`BackoffPolicy`] — jittered exponential backoff. The jitter is a
//!   pure function of `(seed, salt, attempt)` (the `simnet::fault`
//!   discipline), so two runs with the same policy seed back off at the
//!   same instants — faulted live runs stay replayable.
//! * **Deadline budgets** — every queued frame carries an absolute
//!   deadline; the transport retries until it passes, then counts the
//!   frame as dropped instead of retrying forever.
//! * [`CircuitBreaker`] — per-peer: after `threshold` consecutive
//!   failures the breaker opens and sends fail fast instead of queuing
//!   behind a dead peer; after `cooldown` one probe is let through and
//!   the breaker re-closes on its success.
//! * [`Priority`] — the shed order under overload: cover traffic first,
//!   then data, control last.
//!
//! The protocol layer's own retransmit behavior is not configurable
//! beyond the deadline and the budget: the ack deadline is fixed and a
//! retry rotates to the next path, which the `sim_equivalence` test pins
//! µs-exactly.

use anon_core::wire::{Frame, Wire};
use simnet::fault::hash_unit;

/// Hash tag separating backoff jitter from every other consumer of the
/// shared `hash_unit` stream.
const TAG_BACKOFF: u64 = 0x0BAC_00FF;

/// Shed priority of a queued frame: lower classes are shed first when a
/// bounded per-peer queue overflows.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Cover traffic: synthetic frames whose only job is to exist; the
    /// first thing dropped under overload.
    Cover = 0,
    /// Payload traffic: losable, the ack/retransmit machinery recovers.
    Data = 1,
    /// Construction, reverse and release traffic: the frames that keep
    /// paths alive; shed only when nothing lesser is left.
    Control = 2,
}

impl Priority {
    /// The class a frame belongs to by its wire type. Cover traffic is
    /// never inferred — senders mark it explicitly via
    /// [`crate::Transport::send_prioritized`].
    pub fn of(frame: &Frame) -> Priority {
        match frame {
            Frame::Stream {
                wire: Wire::Payload { .. },
                ..
            } => Priority::Data,
            _ => Priority::Control,
        }
    }

    /// Stable label for telemetry.
    pub fn label(self) -> &'static str {
        match self {
            Priority::Cover => "cover",
            Priority::Data => "data",
            Priority::Control => "control",
        }
    }
}

/// Jittered exponential backoff: attempt `n` (1-based) waits
/// `base · multiplier^(n-1)` capped at `max`, shrunk by up to
/// `jitter` (a fraction in `[0, 1]`) of itself.
///
/// The jitter draw is deterministic: `hash_unit(seed, salt, attempt)`,
/// so a given `(seed, salt)` stream always backs off identically.
///
/// ```
/// use transport::BackoffPolicy;
///
/// let p = BackoffPolicy { base_us: 1_000, max_us: 8_000, multiplier: 2.0, jitter: 0.0, seed: 0 };
/// assert_eq!(p.delay_us(1, 7), 1_000);
/// assert_eq!(p.delay_us(2, 7), 2_000);
/// assert_eq!(p.delay_us(5, 7), 8_000, "capped at max_us");
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BackoffPolicy {
    /// First-attempt delay, microseconds.
    pub base_us: u64,
    /// Delay ceiling, microseconds.
    pub max_us: u64,
    /// Exponential growth factor per attempt (`1.0` = constant delay).
    pub multiplier: f64,
    /// Fraction of each delay randomized away, in `[0, 1]` (`0.0` =
    /// fully deterministic delays).
    pub jitter: f64,
    /// Seed of the deterministic jitter stream.
    pub seed: u64,
}

impl BackoffPolicy {
    /// A constant, jitter-free delay (the degenerate policy).
    pub const fn fixed(base_us: u64) -> Self {
        BackoffPolicy {
            base_us,
            max_us: base_us,
            multiplier: 1.0,
            jitter: 0.0,
            seed: 0,
        }
    }

    /// The delay before attempt `attempt` (1-based; `0` maps to `1`).
    /// `salt` separates independent consumers (e.g. one per peer).
    pub fn delay_us(&self, attempt: u32, salt: u64) -> u64 {
        let step = attempt.max(1) - 1;
        let raw = (self.base_us as f64 * self.multiplier.powi(step as i32))
            .min(self.max_us as f64)
            .max(0.0);
        let jitter = self.jitter.clamp(0.0, 1.0);
        let scaled = if jitter > 0.0 {
            raw * (1.0 - jitter * hash_unit(self.seed, TAG_BACKOFF, salt, attempt as u64))
        } else {
            raw
        };
        scaled.round() as u64
    }
}

/// Breaker state (see [`CircuitBreaker`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: attempts flow freely.
    Closed,
    /// Tripped: attempts fail fast until the cooldown passes.
    Open,
    /// Cooldown elapsed: one probe attempt is in flight.
    HalfOpen,
}

/// A per-peer circuit breaker over consecutive failures.
///
/// Intended for single-threaded use (the event loop owns one per
/// peer); `check` may admit several probes if called concurrently.
#[derive(Clone, Debug)]
pub struct CircuitBreaker {
    threshold: u32,
    cooldown_us: u64,
    state: BreakerState,
    consecutive_failures: u32,
    opened_at_us: u64,
    trips: u64,
    recoveries: u64,
}

impl CircuitBreaker {
    /// A closed breaker tripping after `threshold` consecutive failures
    /// and probing again `cooldown_us` later. `threshold == 0` disables
    /// the breaker entirely (it never opens).
    pub fn new(threshold: u32, cooldown_us: u64) -> Self {
        CircuitBreaker {
            threshold,
            cooldown_us,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            opened_at_us: 0,
            trips: 0,
            recoveries: 0,
        }
    }

    /// Whether an attempt may proceed at `now_us`. Transitions
    /// `Open → HalfOpen` once the cooldown has elapsed.
    pub fn check(&mut self, now_us: u64) -> bool {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open => {
                if now_us.saturating_sub(self.opened_at_us) >= self.cooldown_us {
                    self.state = BreakerState::HalfOpen;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Record a successful attempt; returns `true` when this closed a
    /// previously open breaker (a recovery).
    pub fn record_success(&mut self) -> bool {
        self.consecutive_failures = 0;
        let recovered = self.state != BreakerState::Closed;
        self.state = BreakerState::Closed;
        if recovered {
            self.recoveries += 1;
        }
        recovered
    }

    /// Record a failed attempt at `now_us`; returns `true` when this
    /// tripped the breaker open (from closed or from a failed probe).
    pub fn record_failure(&mut self, now_us: u64) -> bool {
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        if self.threshold == 0 {
            return false;
        }
        match self.state {
            BreakerState::HalfOpen => {
                // Failed probe: straight back to open.
                self.state = BreakerState::Open;
                self.opened_at_us = now_us;
                self.trips += 1;
                true
            }
            BreakerState::Closed if self.consecutive_failures >= self.threshold => {
                self.state = BreakerState::Open;
                self.opened_at_us = now_us;
                self.trips += 1;
                true
            }
            _ => false,
        }
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Times the breaker has tripped open.
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// Times an open breaker closed again.
    pub fn recoveries(&self) -> u64 {
        self.recoveries
    }
}

/// Every retry/backoff/degradation knob of the live stack in one place.
///
/// The protocol-side defaults (ack deadline, retransmit budget) are the
/// ones the `sim_equivalence` pin runs with; the transport-side defaults
/// are the tuned replacements for the old hard-coded reconnect loop.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PolicyConfig {
    /// Reconnect backoff: first-attempt delay (µs).
    pub reconnect_base_us: u64,
    /// Reconnect backoff: delay ceiling (µs).
    pub reconnect_max_us: u64,
    /// Reconnect backoff: growth factor per attempt.
    pub reconnect_multiplier: f64,
    /// Reconnect backoff: jitter fraction in `[0, 1]`.
    pub reconnect_jitter: f64,
    /// Per-frame delivery budget (µs): a queued frame past this deadline
    /// is dropped and counted instead of retried.
    pub frame_deadline_us: u64,
    /// Consecutive connect/write failures before a peer's breaker opens
    /// (`0` disables the breaker).
    pub breaker_threshold: u32,
    /// How long an open breaker fails fast before probing again (µs).
    pub breaker_cooldown_us: u64,
    /// Bounded per-peer outbound queue capacity, in frames.
    pub queue_capacity: usize,
    /// End-to-end ack deadline of every transmission, first or retried
    /// (µs).
    pub ack_timeout_us: u64,
    /// Per-segment retransmit budget after the first send.
    pub max_retries: u32,
    /// Seed of every deterministic jitter stream in this policy.
    pub seed: u64,
}

impl Default for PolicyConfig {
    fn default() -> Self {
        PolicyConfig {
            reconnect_base_us: 20_000,
            reconnect_max_us: 500_000,
            reconnect_multiplier: 2.0,
            reconnect_jitter: 0.1,
            frame_deadline_us: 5_000_000,
            breaker_threshold: 8,
            breaker_cooldown_us: 2_000_000,
            queue_capacity: 1024,
            ack_timeout_us: crate::node::DEFAULT_ACK_TIMEOUT_US,
            max_retries: crate::node::DEFAULT_MAX_RETRIES,
            seed: 0,
        }
    }
}

impl PolicyConfig {
    /// The reconnect backoff this policy configures.
    pub fn reconnect(&self) -> BackoffPolicy {
        BackoffPolicy {
            base_us: self.reconnect_base_us,
            max_us: self.reconnect_max_us,
            multiplier: self.reconnect_multiplier,
            jitter: self.reconnect_jitter,
            seed: self.seed,
        }
    }

    /// The breaker a fresh peer starts with.
    pub fn breaker(&self) -> CircuitBreaker {
        CircuitBreaker::new(self.breaker_threshold, self.breaker_cooldown_us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_and_caps() {
        let b = BackoffPolicy {
            base_us: 10_000,
            max_us: 60_000,
            multiplier: 2.0,
            jitter: 0.0,
            seed: 0,
        };
        assert_eq!(b.delay_us(1, 0), 10_000);
        assert_eq!(b.delay_us(2, 0), 20_000);
        assert_eq!(b.delay_us(3, 0), 40_000);
        assert_eq!(b.delay_us(4, 0), 60_000, "capped");
        assert_eq!(b.delay_us(9, 0), 60_000, "stays capped");
        assert_eq!(b.delay_us(0, 0), 10_000, "attempt 0 maps to 1");
    }

    #[test]
    fn backoff_jitter_is_deterministic_and_bounded() {
        let b = BackoffPolicy {
            base_us: 100_000,
            max_us: 100_000,
            multiplier: 1.0,
            jitter: 0.5,
            seed: 7,
        };
        for attempt in 1..50u32 {
            let d = b.delay_us(attempt, 3);
            assert_eq!(d, b.delay_us(attempt, 3), "same inputs, same delay");
            assert!(d <= 100_000, "jitter never lengthens");
            assert!(d >= 50_000, "jitter bounded by the fraction");
        }
        // Different salts give different streams (some attempt differs).
        assert!((1..50u32).any(|a| b.delay_us(a, 3) != b.delay_us(a, 4)));
    }

    #[test]
    fn breaker_trips_probes_and_recovers() {
        let mut br = CircuitBreaker::new(3, 1_000);
        assert!(br.check(0));
        assert!(!br.record_failure(10));
        assert!(!br.record_failure(20));
        assert!(br.record_failure(30), "third consecutive failure trips");
        assert_eq!(br.state(), BreakerState::Open);
        assert!(!br.check(500), "open: fail fast inside cooldown");
        assert!(br.check(1_030), "cooldown over: probe admitted");
        assert_eq!(br.state(), BreakerState::HalfOpen);
        assert!(br.record_failure(1_040), "failed probe re-trips");
        assert!(!br.check(1_100));
        assert!(br.check(2_040));
        assert!(br.record_success(), "successful probe recovers");
        assert_eq!(br.state(), BreakerState::Closed);
        assert_eq!(br.trips(), 2);
        assert_eq!(br.recoveries(), 1);
    }

    #[test]
    fn breaker_success_resets_the_failure_streak() {
        let mut br = CircuitBreaker::new(3, 1_000);
        br.record_failure(0);
        br.record_failure(1);
        br.record_success();
        br.record_failure(2);
        br.record_failure(3);
        assert_eq!(br.state(), BreakerState::Closed, "streak was reset");
        assert!(br.record_failure(4));
    }

    #[test]
    fn zero_threshold_disables_the_breaker() {
        let mut br = CircuitBreaker::new(0, 1_000);
        for i in 0..100 {
            br.record_failure(i);
        }
        assert_eq!(br.state(), BreakerState::Closed);
        assert!(br.check(1_000_000));
    }

    #[test]
    fn priority_classifies_frames_and_orders_sheds() {
        use anon_core::StreamId;
        assert!(Priority::Cover < Priority::Data);
        assert!(Priority::Data < Priority::Control);
        let payload = Frame::Stream {
            sid: StreamId(1),
            wire: Wire::Payload { blob: vec![1] },
        };
        assert_eq!(Priority::of(&payload), Priority::Data);
        let construct = Frame::Stream {
            sid: StreamId(1),
            wire: Wire::Construct {
                initiator_sid: StreamId(1),
                onion: vec![2],
            },
        };
        assert_eq!(Priority::of(&construct), Priority::Control);
        assert_eq!(
            Priority::of(&Frame::Hello {
                node: simnet::NodeId(1)
            }),
            Priority::Control
        );
    }

    #[test]
    fn default_policy_preserves_protocol_behavior() {
        let p = PolicyConfig::default();
        assert_eq!(p.ack_timeout_us, crate::node::DEFAULT_ACK_TIMEOUT_US);
        assert_eq!(p.max_retries, crate::node::DEFAULT_MAX_RETRIES);
    }
}
