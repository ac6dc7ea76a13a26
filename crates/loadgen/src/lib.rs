//! Open/closed-loop onion-forward load generation against a live relay
//! chain.
//!
//! The generator plays a real protocol initiator: it constructs one
//! onion path through a chain of relay processes to a responder, then
//! drives erasure-trivial `(1,1)` messages through it and measures the
//! end-to-end ack round trip of every operation. Each completed
//! operation makes every chain hop process one forward onion layer and
//! one reverse layer, so operations/sec converts directly into the
//! onion-forwards/sec each relay sustained.
//!
//! Two arrival disciplines ([`Arrival`]):
//!
//! * **Closed loop** — a fixed number of operations in flight; a
//!   completion immediately launches the next. Measures the system's
//!   sustainable ceiling.
//! * **Open loop** — a fixed arrival rate with *intended-start*
//!   timestamps `t₀ + i/rate`. Latency is measured from the intended
//!   start, not the actual send, so a stalled system cannot silence the
//!   operations it delayed — the coordinated-omission correction. A
//!   backed-up generator launches late but never skips.
//!
//! Every latency lands in a [`telemetry::Histogram`] (log-linear
//! buckets, ≤0.8 % relative error), giving exact-count p50/p99/p999
//! without storing per-op samples. A warm-up window runs the same
//! traffic but records nothing: connections, buffer pools and queues
//! settle outside the measurement.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use anon_core::MessageId;
use sim_crypto::PublicKey;
use simnet::NodeId;
use std::collections::HashMap;
use telemetry::{Histogram, HistogramSnapshot};
use transport::{Runtime, Transport};

/// Histogram grouping power: ~0.8 % relative error, matching the
/// `protocol_ack_rtt_us` instrument.
const GROUPING_POWER: u32 = 7;

/// Hard ceiling on outstanding operations: an open-loop rate far beyond
/// the system's capacity would otherwise grow the in-flight set without
/// bound. Hitting it stops further launches and flags the run.
const MAX_OUTSTANDING: usize = 100_000;

/// How new operations arrive.
#[derive(Clone, Copy, Debug)]
pub enum Arrival {
    /// Keep exactly `in_flight` operations outstanding.
    Closed {
        /// Operations in flight at all times.
        in_flight: usize,
    },
    /// Launch at `rate_hz` operations/sec with intended-start
    /// timestamps, coordinated-omission safe.
    Open {
        /// Target arrival rate, operations per second.
        rate_hz: f64,
    },
}

/// One load-generation run's shape.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Arrival discipline.
    pub arrival: Arrival,
    /// Message payload handed to each `send_message`.
    pub payload: Vec<u8>,
    /// Unmeasured warm-up traffic before the window, microseconds.
    pub warmup_us: u64,
    /// The measurement window, microseconds.
    pub measure_us: u64,
    /// Grace period after the window for stragglers to complete,
    /// microseconds.
    pub drain_us: u64,
}

impl Default for Workload {
    fn default() -> Self {
        Workload {
            arrival: Arrival::Closed { in_flight: 32 },
            payload: vec![0xA5; 512],
            warmup_us: 2_000_000,
            measure_us: 10_000_000,
            drain_us: 2_000_000,
        }
    }
}

/// What a run measured.
#[derive(Debug)]
pub struct Summary {
    /// Operations whose intended start fell inside the window and that
    /// completed (acked end to end) by the end of the drain.
    pub ops: u64,
    /// Operations launched inside the window, completed or not.
    pub launched: u64,
    /// Window operations still unacked when the drain ended.
    pub incomplete: u64,
    /// Ack-deadline fires observed over the whole run (retransmission
    /// pressure; a retransmitted op that completes still counts once).
    pub timeout_events: u64,
    /// `send_message` calls the protocol layer rejected outright.
    pub send_errors: u64,
    /// The measurement window length, microseconds.
    pub measure_us: u64,
    /// Chain length the onions traversed (relays + responder).
    pub hops: usize,
    /// Intended-start → ack latency of every counted operation.
    pub latency: HistogramSnapshot,
    /// The open-loop in-flight ceiling was hit; throughput numbers
    /// understate the configured rate.
    pub saturated: bool,
}

impl Summary {
    /// Completed operations per second over the window.
    pub fn ops_per_sec(&self) -> f64 {
        self.ops as f64 / (self.measure_us as f64 / 1e6)
    }

    /// Onion layers processed per operation across the whole chain:
    /// every hop (relays and responder) handles one forward and one
    /// reverse layer.
    pub fn forwards_per_op(&self) -> u64 {
        2 * self.hops as u64
    }

    /// Total onion-forwards/sec across the chain.
    pub fn forwards_per_sec(&self) -> f64 {
        self.ops_per_sec() * self.forwards_per_op() as f64
    }

    /// Onion-forwards/sec through each single relay process (one
    /// forward peel + one reverse wrap per operation).
    pub fn per_relay_forwards_per_sec(&self) -> f64 {
        self.ops_per_sec() * 2.0
    }

    /// The `q`-quantile of intended-start latency, microseconds.
    pub fn quantile_us(&self, q: f64) -> u64 {
        self.latency.quantile(q).unwrap_or(0)
    }
}

/// Construct the single onion path `hops` (relays then responder) and
/// wait for its construction ack.
pub fn establish_chain<T: Transport>(
    rt: &mut Runtime<T>,
    id: NodeId,
    hops: &[(NodeId, PublicKey)],
    timeout_us: u64,
) -> Result<(), String> {
    rt.drive(id, |n, out| n.construct_paths(&[hops.to_vec()], out));
    let deadline = rt.transport.now_us() + timeout_us;
    rt.run_until(deadline, |rt| rt.node(id).established_paths() >= 1);
    if rt.node(id).established_paths() >= 1 {
        Ok(())
    } else {
        Err("path construction timed out".to_string())
    }
}

/// Run `workload` through the already-established chain, with `id`'s
/// node registered in `rt`. `hops` is the chain length (relays +
/// responder) for the forwards accounting.
pub fn run<T: Transport>(
    rt: &mut Runtime<T>,
    id: NodeId,
    workload: &Workload,
    hops: usize,
) -> Summary {
    let t0 = rt.transport.now_us();
    let warmup_end = t0 + workload.warmup_us;
    let measure_end = warmup_end + workload.measure_us;
    let drain_end = measure_end + workload.drain_us;

    let hist = Histogram::new(GROUPING_POWER);
    let mut lg = Launcher {
        id,
        payload: workload.payload.clone(),
        next_mid: 1,
        inflight: HashMap::new(),
        launched: 0,
        send_errors: 0,
        warmup_end,
        measure_end,
    };
    let mut open_next = t0;
    let period_us = match workload.arrival {
        Arrival::Open { rate_hz } => ((1e6 / rate_hz.max(1e-3)) as u64).max(1),
        Arrival::Closed { .. } => 0,
    };

    let mut ops = 0u64;
    let mut saturated = false;
    let mut timeout_events = 0u64;
    // The engine owns these logs for the duration of the run: they are
    // drained (and cleared) every iteration so a long window cannot
    // grow them without bound.
    rt.node_mut(id).events.acks.clear();
    rt.node_mut(id).events.ack_timeouts.clear();

    loop {
        let now = rt.transport.now_us();
        if now >= drain_end || (now >= measure_end && lg.inflight.is_empty()) {
            break;
        }

        // Launch phase (never past the window's end).
        if now < measure_end {
            match workload.arrival {
                Arrival::Closed { in_flight } => {
                    while lg.inflight.len() < in_flight.max(1) {
                        let now = rt.transport.now_us();
                        if now >= measure_end {
                            break;
                        }
                        lg.launch(rt, now);
                    }
                }
                Arrival::Open { .. } => {
                    // Launch every operation whose intended start has
                    // passed — late launches keep their intended
                    // timestamp, so the latency they report includes
                    // the generator's own backlog (no omission).
                    while open_next <= now && open_next < measure_end {
                        if lg.inflight.len() >= MAX_OUTSTANDING {
                            saturated = true;
                            break;
                        }
                        lg.launch(rt, open_next);
                        open_next += period_us;
                    }
                }
            }
        }

        // Pump: sleep at most until the next intended start (open loop)
        // or a short slice (closed loop — completions wake it).
        let budget = match workload.arrival {
            Arrival::Open { .. } => open_next
                .saturating_sub(rt.transport.now_us())
                .clamp(1, 1_000),
            Arrival::Closed { .. } => 1_000,
        };
        rt.poll_once(budget);

        // Settle completions against their intended starts.
        let ev = &mut rt.node_mut(id).events;
        for &(mid, _index, at) in &ev.acks {
            if let Some(intended) = lg.inflight.remove(&mid.0) {
                if (warmup_end..measure_end).contains(&intended) {
                    hist.record(at.saturating_sub(intended).max(1));
                    ops += 1;
                }
            }
        }
        ev.acks.clear();
        timeout_events += ev.ack_timeouts.len() as u64;
        ev.ack_timeouts.clear();
    }

    let incomplete = lg
        .inflight
        .values()
        .filter(|&&intended| (warmup_end..measure_end).contains(&intended))
        .count() as u64;
    Summary {
        ops,
        launched: lg.launched,
        incomplete,
        timeout_events,
        send_errors: lg.send_errors,
        measure_us: workload.measure_us,
        hops,
        latency: hist.snapshot(),
        saturated,
    }
}

/// Launch bookkeeping: mids, intended starts, window accounting.
struct Launcher {
    id: NodeId,
    payload: Vec<u8>,
    next_mid: u64,
    /// mid → intended start, for every outstanding operation.
    inflight: HashMap<u64, u64>,
    launched: u64,
    send_errors: u64,
    warmup_end: u64,
    measure_end: u64,
}

impl Launcher {
    /// Send one `(1,1)`-coded message with the next mid, recording its
    /// intended start if it lands inside the window.
    fn launch<T: Transport>(&mut self, rt: &mut Runtime<T>, intended_us: u64) {
        let mid = MessageId(self.next_mid);
        self.next_mid += 1;
        let payload = std::mem::take(&mut self.payload);
        let result = rt.drive(self.id, |n, out| n.send_message(mid, &payload, out));
        self.payload = payload;
        match result {
            Ok(()) => {
                if (self.warmup_end..self.measure_end).contains(&intended_us) {
                    self.launched += 1;
                }
                self.inflight.insert(mid.0, intended_us);
            }
            Err(_) => self.send_errors += 1,
        }
    }
}
