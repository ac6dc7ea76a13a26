//! The simulated backend: the [`Transport`] trait over
//! [`simnet::Engine`].
//!
//! Frames cross links with the latency matrix's one-way delays and die
//! silently at churned-down destinations — the same failure model the
//! event-driven driver applies — and timers are cancellable simulation
//! events. Every frame round-trips through the real byte codec
//! ([`anon_core::wire`]) on the way, so the simulated path exercises the
//! exact bytes the TCP backend puts on a socket.
//!
//! `poll` advances simulated time: it steps the engine until an event
//! surfaces, returning `None` only at quiescence. The caller's
//! dispatching therefore happens at the event's simulated timestamp,
//! which is what makes a [`crate::Runtime`] over this transport
//! reproduce the driver's timing exactly.

use crate::{Transport, TransportError, TransportEvent};
use anon_core::wire::{decode_frame_vec, encode_frame, Frame};
use simnet::{ChurnSchedule, Engine, EventHandle, LatencyMatrix, NodeId, SimDuration};
use std::collections::{HashMap, VecDeque};

/// World state threaded through the engine's events.
struct SimWorld {
    /// Events ready for the protocol layer, in arrival order.
    inbox: VecDeque<TransportEvent>,
    /// Ground-truth churn: frames to down nodes are lost.
    schedule: ChurnSchedule,
    /// Frames swallowed by down nodes.
    lost: u64,
    /// Frames delivered to the inbox.
    delivered: u64,
}

/// A simulated transport over a churn schedule and latency matrix.
pub struct SimTransport {
    engine: Engine<SimWorld>,
    world: SimWorld,
    latency: LatencyMatrix,
    /// Armed timers, cancellable when the owner cancels first.
    timers: HashMap<(NodeId, u64), EventHandle>,
    /// Total encoded frame bytes that crossed links.
    wire_bytes: u64,
}

impl SimTransport {
    /// A transport over the given ground truth.
    pub fn new(schedule: ChurnSchedule, latency: LatencyMatrix) -> Self {
        SimTransport {
            engine: Engine::new(),
            world: SimWorld {
                inbox: VecDeque::new(),
                schedule,
                lost: 0,
                delivered: 0,
            },
            latency,
            timers: HashMap::new(),
            wire_bytes: 0,
        }
    }

    /// Frames swallowed by down nodes so far.
    pub fn lost(&self) -> u64 {
        self.world.lost
    }

    /// Frames delivered so far.
    pub fn delivered(&self) -> u64 {
        self.world.delivered
    }

    /// Total encoded bytes sent across links.
    pub fn wire_bytes(&self) -> u64 {
        self.wire_bytes
    }
}

impl Transport for SimTransport {
    fn now_us(&self) -> u64 {
        self.engine.now().as_micros()
    }

    fn send(&mut self, from: NodeId, to: NodeId, frame: Frame) -> Result<(), TransportError> {
        // Round-trip through the byte codec: the frame that arrives is
        // the one decoded from the encoded bytes, exactly as on a
        // socket.
        let bytes = encode_frame(&frame);
        self.wire_bytes += bytes.len() as u64;
        let frame = decode_frame_vec(bytes)?;
        let owd = self.latency.owd(from, to);
        let at = self.engine.now() + owd;
        self.engine.schedule_at(at, move |w: &mut SimWorld, e| {
            if !w.schedule.is_up(to, e.now()) {
                w.lost += 1;
                return;
            }
            w.delivered += 1;
            w.inbox.push_back(TransportEvent::Frame { to, from, frame });
        });
        Ok(())
    }

    fn set_timer(&mut self, owner: NodeId, token: u64, after_us: u64) {
        let at = self.engine.now() + SimDuration(after_us);
        let handle = self
            .engine
            .schedule_cancellable(at, move |w: &mut SimWorld, _| {
                w.inbox.push_back(TransportEvent::Timer { owner, token });
            });
        if let Some(old) = self.timers.insert((owner, token), handle) {
            old.cancel();
        }
    }

    fn cancel_timer(&mut self, owner: NodeId, token: u64) {
        if let Some(handle) = self.timers.remove(&(owner, token)) {
            handle.cancel();
        }
    }

    /// Advance simulated time to the next event. The `wait_us` bound is
    /// ignored: simulated waiting is free.
    fn poll(&mut self, _wait_us: u64) -> Option<TransportEvent> {
        loop {
            if let Some(ev) = self.world.inbox.pop_front() {
                return Some(ev);
            }
            if !self.engine.step(&mut self.world) {
                return None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::SimTime;

    #[test]
    fn a_huge_timer_saturates_at_the_end_of_time() {
        let mut t = SimTransport::new(
            ChurnSchedule::always_up(2, SimTime::from_secs(1 << 20)),
            LatencyMatrix::uniform(2, SimDuration::from_millis(10)),
        );
        t.set_timer(NodeId(0), 1, 1_000);
        assert!(t.poll(0).is_some());
        t.set_timer(NodeId(0), 2, u64::MAX);
        t.set_timer(NodeId(1), 3, 5);
        let owner_token = |ev| match ev {
            Some(TransportEvent::Timer { owner, token }) => (owner, token),
            other => panic!("expected a timer, got {other:?}"),
        };
        assert_eq!(owner_token(t.poll(0)), (NodeId(1), 3));
        assert_eq!(t.now_us(), 1_005);
        assert_eq!(owner_token(t.poll(0)), (NodeId(0), 2));
        assert_eq!(t.now_us(), u64::MAX);
    }
}
