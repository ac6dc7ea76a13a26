//! The simulated backend: the [`Transport`] trait over a discrete-event
//! queue ([`simnet::sched::CalendarQueue`]).
//!
//! Frames cross links with the latency matrix's one-way delays and die
//! silently at churned-down destinations — the same failure model the
//! event-driven driver applies — and timers are cancellable simulation
//! events. Every frame round-trips through the real byte codec
//! ([`anon_core::wire`]) on the way, so the simulated path exercises the
//! exact bytes the TCP backend puts on a socket.
//!
//! `poll` advances simulated time: it pops the queue until an event
//! surfaces, returning `None` only at quiescence. The caller's
//! dispatching therefore happens at the event's simulated timestamp,
//! which is what makes a [`crate::Runtime`] over this transport
//! reproduce the driver's timing exactly.

use crate::{Transport, TransportError, TransportEvent};
use anon_core::pool::BufferPool;
use anon_core::wire::{decode_frame_vec, encode_frame_into, Frame, Wire};
use simnet::sched::{CalendarQueue, Scheduled};
use simnet::{ChurnSchedule, LatencyMatrix, NodeId, SimDuration, SimTime};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// A simulated transport over a churn schedule and latency matrix.
///
/// Its queue holds [`TransportEvent`]s themselves — a frame due to
/// arrive, a timer due to fire — in the `(time, seq)` order the
/// [`simnet::Engine`] keeps, so a run over it dispatches exactly what a
/// run over the engine would. A timer is cancelled by forgetting it: the
/// armed map holds the `seq` of each armed timer's queued event, and a
/// popped timer fires only while it is still the one armed.
pub struct SimTransport {
    now: SimTime,
    /// Scheduling counter: the FIFO tie-break among equal times.
    seq: u64,
    queue: CalendarQueue<TransportEvent>,
    /// Ground-truth churn: frames to down nodes are lost.
    schedule: ChurnSchedule,
    latency: LatencyMatrix,
    /// Armed timers, by owner and token: the `seq` of the queued event
    /// that fires each.
    timers: HashMap<(NodeId, u64), u64>,
    /// Frame buffers: each send encodes into one and returns the sent
    /// frame's blob.
    pool: BufferPool,
    /// Frames swallowed by down nodes.
    lost: u64,
    /// Frames delivered.
    delivered: u64,
    /// Total encoded frame bytes that crossed links.
    wire_bytes: u64,
}

impl SimTransport {
    /// A transport over the given ground truth.
    pub fn new(schedule: ChurnSchedule, latency: LatencyMatrix) -> Self {
        SimTransport {
            now: SimTime::ZERO,
            seq: 0,
            queue: CalendarQueue::default(),
            schedule,
            latency,
            timers: HashMap::new(),
            pool: BufferPool::new(),
            lost: 0,
            delivered: 0,
            wire_bytes: 0,
        }
    }

    /// Frames swallowed by down nodes so far.
    pub fn lost(&self) -> u64 {
        self.lost
    }

    /// Frames delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Total encoded bytes sent across links.
    pub fn wire_bytes(&self) -> u64 {
        self.wire_bytes
    }

    /// Queue `event` at `at` (never before now) under the next `seq`,
    /// returning that `seq`.
    fn schedule(&mut self, at: SimTime, event: TransportEvent) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        self.queue
            .push(Scheduled::new(at.max(self.now), seq, event));
        seq
    }
}

impl Transport for SimTransport {
    fn now_us(&self) -> u64 {
        self.now.as_micros()
    }

    fn send(&mut self, from: NodeId, to: NodeId, frame: Frame) -> Result<(), TransportError> {
        // Round-trip through the byte codec: the frame that arrives is
        // the one decoded from the encoded bytes, exactly as on a
        // socket. The bytes go into a pooled buffer, which becomes the
        // arriving frame's blob; the sent frame's blob takes its place.
        let mut bytes = self.pool.get();
        encode_frame_into(&frame, &mut bytes);
        self.wire_bytes += bytes.len() as u64;
        if let Frame::Stream {
            wire:
                Wire::Construct { onion: blob, .. } | Wire::Payload { blob } | Wire::Reverse { blob },
            ..
        } = frame
        {
            self.pool.put(blob);
        }
        let frame = decode_frame_vec(bytes)?;
        let at = self.now + self.latency.owd(from, to);
        self.schedule(at, TransportEvent::Frame { to, from, frame });
        Ok(())
    }

    fn set_timer(&mut self, owner: NodeId, token: u64, after_us: u64) {
        let at = self.now + SimDuration(after_us);
        let seq = self.schedule(at, TransportEvent::Timer { owner, token });
        self.timers.insert((owner, token), seq);
    }

    fn cancel_timer(&mut self, owner: NodeId, token: u64) {
        self.timers.remove(&(owner, token));
    }

    /// Advance simulated time to the next event. The `wait_us` bound is
    /// ignored: simulated waiting is free.
    fn poll(&mut self, _wait_us: u64) -> Option<TransportEvent> {
        loop {
            let ev = self.queue.pop()?;
            let (at, seq) = (ev.at(), ev.seq());
            let event = ev.into_item();
            match event {
                TransportEvent::Frame { to, .. } => {
                    self.now = at;
                    if !self.schedule.is_up(to, at) {
                        self.lost += 1;
                        continue;
                    }
                    self.delivered += 1;
                }
                TransportEvent::Timer { owner, token } => {
                    // Re-armed or cancelled since: the clock stays put,
                    // as for a cancelled engine event.
                    match self.timers.entry((owner, token)) {
                        Entry::Occupied(armed) if *armed.get() == seq => armed.remove(),
                        _ => continue,
                    };
                    self.now = at;
                }
            }
            return Some(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::SimTime;

    fn transport() -> SimTransport {
        SimTransport::new(
            ChurnSchedule::always_up(2, SimTime::from_secs(1 << 20)),
            LatencyMatrix::uniform(2, SimDuration::from_millis(10)),
        )
    }

    fn owner_token(ev: Option<TransportEvent>) -> (NodeId, u64) {
        match ev {
            Some(TransportEvent::Timer { owner, token }) => (owner, token),
            other => panic!("expected a timer, got {other:?}"),
        }
    }

    #[test]
    fn a_fired_timer_is_forgotten_and_a_rearmed_one_fires_once() {
        let mut t = transport();
        for token in 0..1_000 {
            t.set_timer(NodeId(token as u32 % 2), token, 10 + token);
        }
        assert_eq!(t.timers.len(), 1_000);
        let fired = std::iter::from_fn(|| t.poll(0)).count();
        assert_eq!((fired, t.timers.len()), (1_000, 0));

        // Re-arming replaces the deadline: only the later arming fires,
        // and the replaced event, popped later, moves no clock.
        let t0 = t.now_us();
        t.set_timer(NodeId(1), 7, 100);
        t.set_timer(NodeId(1), 7, 50);
        t.set_timer(NodeId(0), 8, 70);
        t.cancel_timer(NodeId(0), 8);
        assert_eq!(t.timers.len(), 1);
        assert_eq!(owner_token(t.poll(0)), (NodeId(1), 7));
        assert_eq!(t.now_us(), t0 + 50);
        assert!(t.poll(0).is_none());
        assert_eq!((t.now_us(), t.timers.len()), (t0 + 50, 0));

        // A token that fired can be armed again.
        t.set_timer(NodeId(1), 7, 5);
        assert_eq!(owner_token(t.poll(0)), (NodeId(1), 7));
        assert_eq!(t.timers.len(), 0);
    }

    #[test]
    fn a_huge_timer_saturates_at_the_end_of_time() {
        let mut t = transport();
        t.set_timer(NodeId(0), 1, 1_000);
        assert!(t.poll(0).is_some());
        t.set_timer(NodeId(0), 2, u64::MAX);
        t.set_timer(NodeId(1), 3, 5);
        assert_eq!(owner_token(t.poll(0)), (NodeId(1), 3));
        assert_eq!(t.now_us(), 1_005);
        assert_eq!(owner_token(t.poll(0)), (NodeId(0), 2));
        assert_eq!(t.now_us(), u64::MAX);
    }
}
