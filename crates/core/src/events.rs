//! One record of what the protocol did, shared by the simulator's
//! [`Driver`](crate::driver::Driver) and the live sans-io node
//! (`transport::ProtocolNode`).
//!
//! Both executors describe each protocol event once, as an [`Event`], and
//! hand it to [`Events::record`]: the only code that appends a log entry,
//! bumps an instrument ([`ProtocolTelemetry`]) or writes the adversary tap
//! ([`ObservationLog`]). A construction, an ack or a timeout therefore
//! reads the same in a simulated run and on a live node, down to the
//! instrument name. The telemetry and the tap are optional and
//! write-only: nothing reads them back, so attaching either changes what a
//! run reports, never what it does.

use crate::ids::{MessageId, StreamId};
use crate::instrument::ProtocolTelemetry;
use crate::observe::{ConstructionObservation, ObservationLog, PacketObservation};
use crate::onion::PathPlan;
use simnet::{NodeId, SimTime};

/// One protocol event, as the executor that saw it describes it.
#[derive(Debug)]
pub enum Event<'a> {
    /// A construction onion reached its responder over the terminal link
    /// `(upstream hop, stream id)`.
    Constructed(NodeId, StreamId),
    /// The construction ack of the path with this initiator-side stream
    /// id reached the initiator.
    Established(StreamId),
    /// Segment `(mid, index)` reached the responder.
    Delivered(MessageId, usize),
    /// The responder reassembled message `mid` into this body.
    Completed(MessageId, Vec<u8>),
    /// Segment `(mid, index)`'s end-to-end ack reached the initiator,
    /// with the round trip in µs since the segment's last send when the
    /// initiator timed it.
    Acked(MessageId, usize, Option<u64>),
    /// Segment `(mid, index)`'s ack deadline passed unanswered.
    TimedOut(MessageId, usize),
    /// A segment went out again after an ack timeout.
    Retransmitted,
    /// A frame died for want of relay or initiator state.
    StatelessDrop,
    /// A message reached `m` distinct segments at its responder.
    Decoded,
    /// A message ran out of retries short of `m` segments.
    Undecodable,
    /// A frame left a node, as a wiretap at its sender sees it, with the
    /// link's one-way delay in µs (simulator only).
    Sent(PacketObservation, u64),
    /// The frame [`Sent`](Event::Sent) with this observation arrived; the
    /// tap records it as its receiver sees it (simulator only).
    Arrived(PacketObservation),
    /// An initiator registered the path it built on this stream id
    /// (simulator only).
    PathRegistered(NodeId, StreamId, &'a PathPlan),
}

/// Exporter label of each event kind, indexed by [`Event::kind`].
pub const KINDS: [&str; 13] = [
    "constructed",
    "established",
    "delivered",
    "completed",
    "acked",
    "timed_out",
    "retransmitted",
    "stateless_drop",
    "decoded",
    "undecodable",
    "sent",
    "arrived",
    "path_registered",
];

impl Event<'_> {
    /// This event's index into [`KINDS`].
    pub fn kind(&self) -> usize {
        match self {
            Event::Constructed(..) => 0,
            Event::Established(_) => 1,
            Event::Delivered(..) => 2,
            Event::Completed(..) => 3,
            Event::Acked(..) => 4,
            Event::TimedOut(..) => 5,
            Event::Retransmitted => 6,
            Event::StatelessDrop => 7,
            Event::Decoded => 8,
            Event::Undecodable => 9,
            Event::Sent(..) => 10,
            Event::Arrived(_) => 11,
            Event::PathRegistered(..) => 12,
        }
    }
}

/// The event record of one executor: a driver's whole world, or one
/// protocol node.
///
/// Each log grows by one entry per event, stamped in µs of the executor's
/// clock, until its reader drains it; the two counters only count.
#[derive(Debug, Default)]
pub struct Events {
    /// Construction acks that reached the initiator: `(path sid, at)`.
    pub established: Vec<(StreamId, u64)>,
    /// Terminal construction completions at the responder:
    /// `(upstream hop, terminal sid, at)`.
    pub constructions: Vec<(NodeId, StreamId, u64)>,
    /// Segments delivered at the responder: `(mid, index, at)`.
    pub deliveries: Vec<(MessageId, usize, u64)>,
    /// End-to-end segment acks back at the initiator: `(mid, index, at)`.
    pub acks: Vec<(MessageId, usize, u64)>,
    /// Ack deadlines that fired unanswered: `(mid, index, at)`.
    pub ack_timeouts: Vec<(MessageId, usize, u64)>,
    /// Messages reassembled at the responder, in completion order.
    pub completed: Vec<(MessageId, Vec<u8>)>,
    /// Segments retransmitted after an ack timeout.
    pub retransmits: u64,
    /// Frames dropped for missing relay/initiator state.
    pub stateless_drops: u64,
    /// Instruments every event also counts into.
    pub telemetry: Option<ProtocolTelemetry>,
    /// Adversary tap: link crossings and path registrations (attached
    /// by [`Driver::with_observation`](crate::driver::Driver::with_observation)).
    pub(crate) tap: Option<ObservationLog>,
}

impl Events {
    /// Record `event`, which happened at `at_us`. With no telemetry and
    /// no tap attached, an event without a log (a link crossing, say)
    /// costs one never-taken branch.
    #[inline]
    pub fn record(&mut self, at_us: u64, event: Event<'_>) {
        if self.telemetry.is_some() || self.tap.is_some() {
            self.report(at_us, &event);
        }
        match event {
            Event::Constructed(from, sid) => self.constructions.push((from, sid, at_us)),
            Event::Established(sid) => self.established.push((sid, at_us)),
            Event::Delivered(mid, index) => self.deliveries.push((mid, index, at_us)),
            Event::Completed(mid, body) => self.completed.push((mid, body)),
            Event::Acked(mid, index, _) => self.acks.push((mid, index, at_us)),
            Event::TimedOut(mid, index) => self.ack_timeouts.push((mid, index, at_us)),
            Event::Retransmitted => self.retransmits += 1,
            Event::StatelessDrop => self.stateless_drops += 1,
            Event::Decoded
            | Event::Undecodable
            | Event::Sent(..)
            | Event::Arrived(_)
            | Event::PathRegistered(..) => {}
        }
    }

    /// The instruments' and the tap's share of [`record`](Self::record).
    #[cold]
    fn report(&mut self, at_us: u64, event: &Event<'_>) {
        if let Some(t) = &self.telemetry {
            t.events[event.kind()].inc();
            match *event {
                Event::Sent(packet, owd_us) => {
                    t.frame_bytes[packet.tag].add(packet.bytes);
                    t.hop_latency_us.record(owd_us);
                }
                Event::Acked(_, _, Some(rtt_us)) => t.ack_rtt_us.record(rtt_us),
                _ => {}
            }
        }
        let Some(tap) = &mut self.tap else { return };
        let at = SimTime(at_us);
        match *event {
            Event::Sent(packet, _) => tap.packets.push(packet),
            Event::Arrived(sent) => tap.packets.push(PacketObservation {
                node: sent.peer,
                peer: sent.node,
                at,
                ingress: true,
                ..sent
            }),
            Event::PathRegistered(initiator, sid, plan) => {
                tap.constructions.push(ConstructionObservation {
                    initiator,
                    responder: plan.responder(),
                    relays: plan.hops[..plan.num_relays()].to_vec(),
                    sid,
                    at,
                })
            }
            _ => {}
        }
    }

    /// Empty every log, keeping the `retransmits` / `stateless_drops`
    /// counters. A long-running process calls this once it has read what
    /// it wants: each log grows by one entry per protocol event (and
    /// `completed` by a whole message body) for as long as nobody does.
    pub fn clear_logs(&mut self) {
        self.established.clear();
        self.constructions.clear();
        self.deliveries.clear();
        self.acks.clear();
        self.ack_timeouts.clear();
        self.completed.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::{Registry, Snapshot, SnapshotValue};

    /// A two-relay path to node 5.
    fn plan() -> PathPlan {
        PathPlan {
            hops: vec![NodeId(1), NodeId(2), NodeId(5)],
            session_keys: Vec::new(),
        }
    }

    /// One event of every kind, in [`KINDS`] order.
    fn one_of_each(plan: &PathPlan) -> Vec<Event<'_>> {
        let (mid, sid, node) = (MessageId(1), StreamId(7), NodeId(2));
        let sent = PacketObservation {
            node: NodeId(0),
            peer: node,
            at: SimTime::from_secs(1),
            ingress: false,
            tag: 1,
            bytes: 128,
            sid,
        };
        vec![
            Event::Constructed(node, sid),
            Event::Established(sid),
            Event::Delivered(mid, 0),
            Event::Completed(mid, b"body".to_vec()),
            Event::Acked(mid, 0, Some(40)),
            Event::TimedOut(mid, 1),
            Event::Retransmitted,
            Event::StatelessDrop,
            Event::Decoded,
            Event::Undecodable,
            Event::Sent(sent, 20),
            Event::Arrived(sent),
            Event::PathRegistered(NodeId(0), sid, plan),
        ]
    }

    /// `(samples, sum)` of the unlabelled histogram `name`.
    fn histogram(snap: &Snapshot, name: &str) -> (u64, u64) {
        match snap.get(name, &[]) {
            Some(SnapshotValue::Histogram(h)) => (h.count(), h.sum()),
            other => panic!("{name} is not a histogram: {other:?}"),
        }
    }

    #[test]
    fn kinds_cover_every_variant() {
        let kinds: Vec<usize> = one_of_each(&plan()).iter().map(Event::kind).collect();
        assert_eq!(kinds, (0..KINDS.len()).collect::<Vec<_>>());
        let mut labels = KINDS.to_vec();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), KINDS.len(), "labels are unique");
    }

    #[test]
    fn every_event_is_counted_once_and_logged_where_it_has_a_log() {
        let registry = Registry::new();
        let mut events = Events {
            telemetry: Some(ProtocolTelemetry::register(&registry, None)),
            ..Events::default()
        };
        for (at, event) in one_of_each(&plan()).into_iter().enumerate() {
            events.record(at as u64, event);
        }
        let snap = registry.snapshot();
        for kind in KINDS {
            assert_eq!(
                snap.counter_value("protocol_events_total", &[("kind", kind)]),
                1,
                "{kind}"
            );
        }
        assert_eq!(
            snap.counter_value("protocol_frame_bytes_total", &[("wire", "payload")]),
            128
        );
        assert_eq!(histogram(&snap, "protocol_hop_latency_us"), (1, 20));
        assert_eq!(histogram(&snap, "protocol_ack_rtt_us"), (1, 40));
        assert_eq!(events.constructions, [(NodeId(2), StreamId(7), 0)]);
        assert_eq!(events.established, [(StreamId(7), 1)]);
        assert_eq!(events.deliveries, [(MessageId(1), 0, 2)]);
        assert_eq!(events.completed, [(MessageId(1), b"body".to_vec())]);
        assert_eq!(events.acks, [(MessageId(1), 0, 4)]);
        assert_eq!(events.ack_timeouts, [(MessageId(1), 1, 5)]);
        assert_eq!((events.retransmits, events.stateless_drops), (1, 1));

        // An ack the initiator did not time is counted and logged, and
        // adds no round-trip sample.
        events.record(13, Event::Acked(MessageId(1), 1, None));
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter_value("protocol_events_total", &[("kind", "acked")]),
            2
        );
        assert_eq!(histogram(&snap, "protocol_ack_rtt_us"), (1, 40));
        assert_eq!(events.acks, [(MessageId(1), 0, 4), (MessageId(1), 1, 13)]);
    }

    #[test]
    fn the_tap_sees_link_crossings_and_path_registrations_in_order() {
        let mut events = Events {
            tap: Some(ObservationLog::new()),
            ..Events::default()
        };
        for event in one_of_each(&plan()) {
            events.record(3_000_000, event);
        }
        let log = events.tap.expect("tap attached");
        let crossings: Vec<_> = log
            .packets
            .iter()
            .map(|p| (p.node, p.peer, p.at.as_micros(), p.ingress))
            .collect();
        let (sender, receiver) = (NodeId(0), NodeId(2));
        assert_eq!(
            crossings,
            [
                (sender, receiver, 1_000_000, false),
                (receiver, sender, 3_000_000, true)
            ]
        );
        assert_eq!(log.constructions.len(), 1);
        let path = &log.constructions[0];
        assert_eq!((path.initiator, path.responder), (NodeId(0), NodeId(5)));
        assert_eq!(path.relays, [NodeId(1), NodeId(2)]);
        assert_eq!((path.sid, path.at), (StreamId(7), SimTime::from_secs(3)));
    }

    #[test]
    fn clear_logs_empties_every_log_and_keeps_the_counters() {
        let mut events = Events::default();
        for event in one_of_each(&plan()) {
            events.record(0, event);
        }
        events.clear_logs();
        assert!(events.established.is_empty());
        assert!(events.constructions.is_empty());
        assert!(events.deliveries.is_empty());
        assert!(events.acks.is_empty());
        assert!(events.ack_timeouts.is_empty());
        assert!(events.completed.is_empty());
        assert_eq!((events.retransmits, events.stateless_drops), (1, 1));
    }
}
