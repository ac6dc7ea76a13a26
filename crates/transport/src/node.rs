//! The sans-io protocol node: one peer's complete protocol state —
//! relay half, optional initiator half, reassembly — as a pure state
//! machine.
//!
//! A [`ProtocolNode`] never touches a socket or a clock. It consumes
//! [`Input`]s (a frame arrived, a timer fired) stamped with the caller's
//! notion of *now*, and emits [`Output`]s (send this frame, arm/cancel
//! this timer). The same node runs unchanged over [`crate::SimTransport`]
//! and [`crate::EventedTransport`]; only the event loop around it differs.
//!
//! The relay half is the exact [`Relay`] state machine the event-driven
//! driver uses — same caches, same TTLs, same stream-id forwarding — so
//! behavior proven in simulation carries over to the live node verbatim.

use crate::policy::PolicyConfig;
use anon_core::endpoint::{Initiator, Outgoing, Reassembler, CONSTRUCT_ACK};
use anon_core::events::{Event, Events};
use anon_core::instrument::ProtocolTelemetry;
use anon_core::relay::{Relay, Step};
use anon_core::wire::{Frame, Wire};
use anon_core::{AnonError, MessageId, StreamId};
use erasure::{Codec, Segment};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sim_crypto::{KeyPair, PublicKey};
use simnet::{NodeId, SimDuration, SimTime};
use std::collections::HashMap;

/// Default end-to-end ack deadline for live nodes (1 s).
pub const DEFAULT_ACK_TIMEOUT_US: u64 = 1_000_000;

/// Default per-segment retransmit budget after the first send.
pub const DEFAULT_MAX_RETRIES: u32 = 4;

/// An event fed into the node.
#[derive(Debug)]
pub enum Input {
    /// A frame arrived from `from`.
    Frame {
        /// Sending peer.
        from: NodeId,
        /// The decoded frame.
        frame: Frame,
    },
    /// A timer this node armed fired.
    Timer {
        /// The token the node chose when arming it.
        token: u64,
    },
}

/// An effect the node asks its transport to perform.
#[derive(Debug)]
pub enum Output {
    /// Send `frame` to peer `to`.
    Send {
        /// Destination peer.
        to: NodeId,
        /// The frame to deliver.
        frame: Frame,
    },
    /// Arm timer `token` to fire after `after_us` microseconds.
    SetTimer {
        /// Node-chosen timer identity.
        token: u64,
        /// Relative deadline in microseconds.
        after_us: u64,
    },
    /// Cancel timer `token` (no-op if it already fired).
    CancelTimer {
        /// Node-chosen timer identity.
        token: u64,
    },
}

impl Output {
    /// Send `wire` to peer `to` on stream `sid`.
    fn stream(to: NodeId, sid: StreamId, wire: Wire) -> Self {
        Output::Send {
            to,
            frame: Frame::Stream { sid, wire },
        }
    }
}

/// One peer's complete protocol state machine.
pub struct ProtocolNode {
    id: NodeId,
    relay: Relay,
    rng: StdRng,
    auto_ack: bool,
    codec: Option<Box<dyn Codec>>,
    /// Initiator half: paths, and the ledger of what was sent and acked.
    /// The node adds only time — when deadlines are armed and fire.
    initiator: Initiator,
    /// Responder-side segment reassembly.
    reassembler: Reassembler,
    /// Armed ack-deadline timers: token → the segment it guards (the
    /// ledger holds the other direction).
    timers: HashMap<u64, (MessageId, usize)>,
    /// When the relay half and the reassembler last reclaimed expired
    /// state.
    last_sweep: SimTime,
    /// When the initiator half's ledger last did.
    ledger_swept: SimTime,
    next_token: u64,
    policy: PolicyConfig,
    /// The caller's clock as of the last `handle`/`set_now`, letting
    /// clock-less entry points (`send_message`) stamp send times.
    now_hint: u64,
    /// Observable protocol events (drained/inspected by the embedder),
    /// in the record a simulated [`Driver`](anon_core::driver::Driver)
    /// keeps, so the equivalence test compares the two layers record for
    /// record.
    pub events: Events,
}

impl ProtocolNode {
    /// A node with the given identity and long-term key pair; `seed`
    /// drives its local randomness (stream ids, onion nonces).
    pub fn new(id: NodeId, keypair: KeyPair, seed: u64) -> Self {
        ProtocolNode {
            id,
            relay: Relay::new(id, keypair),
            rng: StdRng::seed_from_u64(seed),
            auto_ack: false,
            codec: None,
            initiator: Initiator::new(id),
            reassembler: Reassembler::new(),
            timers: HashMap::new(),
            last_sweep: SimTime::ZERO,
            ledger_swept: SimTime::ZERO,
            next_token: 1,
            policy: PolicyConfig::default(),
            now_hint: 0,
            events: Events::default(),
        }
    }

    /// Attach live instruments (see [`ProtocolTelemetry`]; register them
    /// with this node's id): every recorded event also counts into them.
    pub fn with_telemetry(mut self, telemetry: ProtocolTelemetry) -> Self {
        self.events.telemetry = Some(telemetry);
        self
    }

    /// Ack every delivery and construction completion with a real
    /// reverse onion (the responder role).
    pub fn with_auto_ack(mut self) -> Self {
        self.auto_ack = true;
        self
    }

    /// Attach the erasure codec used to split outgoing and reassemble
    /// incoming messages (initiator and responder roles).
    pub fn with_codec(mut self, codec: Box<dyn Codec>) -> Self {
        self.codec = Some(codec);
        self
    }

    /// Adopt a full retry/backoff policy (ack deadline, retransmit
    /// budget). The default policy reproduces the historical behavior
    /// exactly.
    pub fn with_policy(mut self, policy: &PolicyConfig) -> Self {
        self.policy = *policy;
        self
    }

    /// Override the relay half's per-entry state TTL (long soaks keep
    /// idle paths alive past the 120 s production default with this).
    pub fn with_state_ttl(mut self, ttl: SimDuration) -> Self {
        self.relay = self.relay.with_state_ttl(ttl);
        self
    }

    /// Stamp the caller's clock for entry points that take no `now_us`
    /// of their own (`send_message`, `construct_paths`). [`handle`]
    /// stamps it automatically.
    ///
    /// [`handle`]: ProtocolNode::handle
    pub fn set_now(&mut self, now_us: u64) {
        self.now_hint = now_us;
    }

    /// Wipe the relay half's forwarding state, as a crash-and-restart
    /// would: in-flight traffic through this node starts dying with
    /// `stateless_drops` until paths are rebuilt. Returns the number of
    /// forward entries wiped. (Chaos harness hook.)
    pub fn crash_relay_state(&mut self) -> usize {
        self.relay.crash()
    }

    /// This node's identity.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// This node's long-term public key.
    pub fn public_key(&self) -> PublicKey {
        self.relay.public_key()
    }

    /// Paths whose construction ack has arrived.
    pub fn established_paths(&self) -> usize {
        self.initiator.established()
    }

    /// This initiator's paths: `(stream id, first hop, established)`.
    pub fn paths(&self) -> Vec<(StreamId, NodeId, bool)> {
        self.initiator
            .paths()
            .iter()
            .map(|p| (p.sid, p.plan.first_hop(), p.established))
            .collect()
    }

    /// Whether every segment of `mid` has been acked end to end. A
    /// message's record is reclaimed one state TTL after it settled (every
    /// segment acked or out of retry budget); from then on its id answers
    /// `false`, like one never sent.
    pub fn message_complete(&self, mid: MessageId) -> bool {
        self.initiator.is_complete(mid)
    }

    /// Build `k` construction onions (one per hop list, responder last)
    /// and emit their first-hop frames. Initiator role.
    pub fn construct_paths(
        &mut self,
        paths_hops: &[Vec<(NodeId, PublicKey)>],
        out: &mut Vec<Output>,
    ) {
        for msg in self.initiator.construct_paths(paths_hops, &mut self.rng) {
            let wire = Wire::Construct {
                initiator_sid: msg.sid,
                onion: msg.blob,
            };
            out.push(Output::stream(msg.to, msg.sid, wire));
        }
    }

    /// Erasure-code `message`, send one payload onion per segment over
    /// the node's paths (segment `i` on path `i mod k`), and arm an ack
    /// deadline for each. Initiator role; requires a codec. This call is
    /// what grows the ledger, so it pays for reclaiming settled records,
    /// at most once per state TTL.
    pub fn send_message(
        &mut self,
        mid: MessageId,
        message: &[u8],
        out: &mut Vec<Output>,
    ) -> Result<(), AnonError> {
        let codec = self
            .codec
            .as_deref()
            .ok_or(AnonError::InvalidParameters("no codec attached".into()))?;
        let (now, ttl) = (SimTime(self.now_hint), self.relay.state_ttl());
        if now.since(self.ledger_swept) >= ttl {
            self.initiator.sweep(now, ttl);
            self.ledger_swept = now;
        }
        let msgs = self
            .initiator
            .send_message(mid, message, codec, None, &mut self.rng)?;
        for (index, msg) in msgs.into_iter().enumerate() {
            self.launch(mid, index, msg, out);
        }
        Ok(())
    }

    /// Feed one event into the state machine. `now_us` is the caller's
    /// clock (transport time); effects are appended to `out`.
    pub fn handle(&mut self, now_us: u64, input: Input, out: &mut Vec<Output>) {
        self.now_hint = now_us;
        match input {
            Input::Frame { from, frame } => match frame {
                // Hellos identify connections; transports consume them.
                Frame::Hello { .. } => {}
                Frame::Stream { sid, wire } => self.on_wire(now_us, from, sid, wire, out),
            },
            Input::Timer { token } => self.on_timer(now_us, token, out),
        }
    }

    fn note_stateless_drop(&mut self) {
        self.events.record(self.now_hint, Event::StatelessDrop);
    }

    /// Send segment `index` of `mid` as the payload onion `msg` and arm
    /// its ack deadline.
    fn launch(&mut self, mid: MessageId, index: usize, msg: Outgoing, out: &mut Vec<Output>) {
        let wire = Wire::Payload { blob: msg.blob };
        out.push(Output::stream(msg.to, msg.sid, wire));
        let token = self.next_token;
        self.next_token += 1;
        self.timers.insert(token, (mid, index));
        self.initiator
            .arm(mid, index, token, SimTime(self.now_hint));
        out.push(Output::SetTimer {
            token,
            after_us: self.policy.ack_timeout_us.max(1),
        });
    }

    fn on_wire(
        &mut self,
        now_us: u64,
        from: NodeId,
        sid: StreamId,
        mut wire: Wire,
        out: &mut Vec<Output>,
    ) {
        let now = SimTime(now_us);
        // Reverse traffic on a stream this node built terminates here as
        // the initiator; on any other stream it is relay work, below.
        if let Wire::Reverse { blob } = &mut wire {
            match self.initiator.open_ack(sid, blob, now) {
                Err(AnonError::UnknownStream) => {}
                Ok(acked) => return self.on_ack(now_us, sid, acked, out),
                Err(_) => return self.note_stateless_drop(),
            }
        }
        // Constructions are what grow the relay half's state, so they pay
        // for reclaiming what has expired, at most once per TTL — and the
        // responder half's with it: segments of messages whose sender gave
        // up, and the ids of delivered ones.
        if matches!(wire, Wire::Construct { .. })
            && now.since(self.last_sweep) >= self.relay.state_ttl()
        {
            self.relay.sweep(now);
            self.reassembler.sweep(now, self.relay.state_ttl());
            self.last_sweep = now;
        }
        // Everything else is relay/responder work, decided by the one
        // dispatch the simulator's driver uses.
        let step = self
            .relay
            .handle_wire(from, sid, &mut wire, now, &mut self.rng);
        match (step, wire) {
            (Ok(Step::Forward { to, sid }), wire) => out.push(Output::stream(to, sid, wire)),
            (Ok(Step::Constructed), Wire::Construct { onion, .. }) => {
                self.events.record(now_us, Event::Constructed(from, sid));
                if self.auto_ack {
                    self.send_auto_ack(from, sid, CONSTRUCT_ACK, 0, onion, out);
                }
            }
            (Ok(Step::Delivered { mid, index }), Wire::Payload { blob }) => {
                self.events.record(now_us, Event::Delivered(mid, index));
                if let Some(codec) = self.codec.as_ref() {
                    let seg = Segment::new(index, blob.clone());
                    if let Ok(Some(body)) = self.reassembler.push(mid, seg, codec.as_ref(), now) {
                        self.events.record(now_us, Event::Completed(mid, body));
                    }
                }
                if self.auto_ack {
                    self.send_auto_ack(from, sid, mid, index, blob, out);
                }
            }
            (Ok(Step::Released), _) => {}
            (Ok(step), wire) => unreachable!("{step:?} for {wire:?}"),
            (Err(_), _) => self.note_stateless_drop(),
        }
    }

    /// Initiator side: the reverse onion on path `sid` acked a segment —
    /// `(mid, index, token of the deadline that disarmed)` — or, `None`,
    /// the path's construction; the ledger has booked either.
    fn on_ack(
        &mut self,
        now_us: u64,
        sid: StreamId,
        acked: Option<(MessageId, usize, Option<u64>)>,
        out: &mut Vec<Output>,
    ) {
        let Some((mid, index, disarmed)) = acked else {
            return self.events.record(now_us, Event::Established(sid));
        };
        // Only an ack that disarms a deadline times a round trip, and only
        // attached telemetry reads it, so the ledger is asked only then.
        let timed = disarmed.is_some() && self.events.telemetry.is_some();
        let rtt_us = timed
            .then(|| self.initiator.segment(mid, index))
            .flatten()
            .map(|s| now_us.saturating_sub(s.sent_at.0));
        self.events.record(now_us, Event::Acked(mid, index, rtt_us));
        let Some(token) = disarmed else {
            return; // a duplicate, or later than its last deadline
        };
        self.timers.remove(&token);
        out.push(Output::CancelTimer { token });
    }

    /// Responder's ack for segment `index` of `mid`, written into `buf`
    /// (the buffer of the frame being acked) and sent back the way that
    /// frame came. Without a terminal entry for
    /// the stream there is no key to ack under and the frame counts as a
    /// stateless drop.
    fn send_auto_ack(
        &mut self,
        from: NodeId,
        sid: StreamId,
        mid: MessageId,
        index: usize,
        mut buf: Vec<u8>,
        out: &mut Vec<Output>,
    ) {
        match self
            .relay
            .write_ack(from, sid, mid, index, &mut buf, &mut self.rng)
        {
            Ok(()) => out.push(Output::stream(from, sid, Wire::Reverse { blob: buf })),
            Err(_) => self.note_stateless_drop(),
        }
    }

    /// An armed ack deadline fired: record the timeout and retransmit
    /// the segment over another path, so a dead path is routed around
    /// instead of hammered: retry `r` of segment `i` rides path
    /// `(i + r) mod k` — the behavior the driver-equivalence test pins.
    fn on_timer(&mut self, now_us: u64, token: u64, out: &mut Vec<Output>) {
        let Some((mid, index)) = self.timers.remove(&token) else {
            return; // stale token (cancelled and re-fired in a race)
        };
        let retries = match self.initiator.segment(mid, index) {
            Some(seg) if !seg.acked => seg.retries,
            _ => return, // ack raced the timer through the transport
        };
        self.events.record(now_us, Event::TimedOut(mid, index));
        let slot = index + retries as usize + 1;
        let resent = match self.codec.as_deref() {
            Some(codec) if retries < self.policy.max_retries => self
                .initiator
                .resend(mid, codec, &[(index, slot)], &mut self.rng)
                .ok(),
            _ => None,
        };
        let Some(msg) = resent.and_then(|mut msgs| msgs.pop()) else {
            self.initiator.disarm(mid, index);
            return;
        };
        self.events.record(now_us, Event::Retransmitted);
        self.launch(mid, index, msg, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Runtime, SimTransport, Transport, TransportError, TransportEvent};
    use anon_core::events::KINDS;
    use erasure::ErasureCodec;
    use simnet::{ChurnSchedule, LatencyMatrix};
    use std::fmt::Debug;
    use telemetry::{Registry, SnapshotValue};

    const INITIATOR: NodeId = NodeId(0);
    const RESPONDER: NodeId = NodeId(3);
    const MAX_RETRIES: u32 = 2;

    /// A `SimTransport` that writes down every output the runtime applies
    /// to it, in order, with the time it was applied.
    struct Recorder {
        sim: SimTransport,
        outputs: Vec<String>,
    }

    impl Transport for Recorder {
        fn now_us(&self) -> u64 {
            self.sim.now_us()
        }
        fn send(&mut self, from: NodeId, to: NodeId, frame: Frame) -> Result<(), TransportError> {
            let now = self.now_us();
            self.outputs
                .push(format!("{now} {from:?}: send {to:?} {frame:?}"));
            self.sim.send(from, to, frame)
        }
        fn set_timer(&mut self, owner: NodeId, token: u64, after_us: u64) {
            let now = self.now_us();
            self.outputs
                .push(format!("{now} {owner:?}: set {token} {after_us}"));
            self.sim.set_timer(owner, token, after_us);
        }
        fn cancel_timer(&mut self, owner: NodeId, token: u64) {
            let now = self.now_us();
            self.outputs
                .push(format!("{now} {owner:?}: cancel {token}"));
            self.sim.cancel_timer(owner, token);
        }
        fn poll(&mut self, wait_us: u64) -> Option<TransportEvent> {
            self.sim.poll(wait_us)
        }
    }

    type Net = Runtime<Recorder>;

    /// Initiator 0, responder 3, one established single-relay path per
    /// entry of `relays`, one segment per path, any `needed` of which
    /// rebuild the message. With a `registry`, every node counts into it.
    fn world(needed: usize, relays: &[NodeId], registry: Option<&Registry>) -> Net {
        let codec = || Box::new(ErasureCodec::new(needed, relays.len()).unwrap());
        let mut rt = Runtime::new(Recorder {
            sim: SimTransport::new(
                ChurnSchedule::always_up(4, SimTime::from_secs(1 << 20)),
                LatencyMatrix::uniform(4, SimDuration::from_millis(10)),
            ),
            outputs: Vec::new(),
        });
        let mut keyrng = StdRng::seed_from_u64(9);
        for i in 0..4 {
            let mut node = ProtocolNode::new(NodeId(i), KeyPair::generate(&mut keyrng), i.into());
            if let Some(registry) = registry {
                node = node.with_telemetry(ProtocolTelemetry::register(registry, Some(NodeId(i))));
            }
            if node.id == INITIATOR {
                node = node.with_codec(codec()).with_policy(&PolicyConfig {
                    max_retries: MAX_RETRIES,
                    ..PolicyConfig::default()
                });
            } else if node.id == RESPONDER {
                node = node.with_auto_ack().with_codec(codec());
            }
            rt.add_node(node);
        }
        let keyed = |hop: NodeId| (hop, rt.node(hop).public_key());
        let hop_lists: Vec<Vec<_>> = relays
            .iter()
            .map(|&relay| vec![keyed(relay), keyed(RESPONDER)])
            .collect();
        rt.drive(INITIATOR, |n, out| n.construct_paths(&hop_lists, out));
        rt.run_until_idle(0);
        assert_eq!(rt.node(INITIATOR).established_paths(), relays.len());
        rt
    }

    #[test]
    fn completed_messages_leave_the_outbox() {
        let mut rt = world(1, &[NodeId(1), NodeId(2)], None);
        for m in 1..=5 {
            let mid = MessageId(m);
            rt.drive(INITIATOR, |n, out| {
                n.send_message(mid, &[m as u8; 300], out)
            })
            .unwrap();
            assert_eq!(rt.node(INITIATOR).initiator.ledger_len().1, 1);
            rt.run_until_idle(0);
            assert!(rt.node(INITIATOR).message_complete(mid));
        }
        let node = rt.node(INITIATOR);
        assert_eq!(
            node.initiator.ledger_len().1,
            0,
            "payloads outlived their acks"
        );
        assert!(node.timers.is_empty());
        assert!((1..=5).all(|m| node.message_complete(MessageId(m))));
    }

    #[test]
    fn a_message_on_a_dead_path_leaves_the_outbox_after_max_retries() {
        let mut rt = world(1, &[NodeId(1)], None);
        rt.drive(NodeId(1), |n, _| n.crash_relay_state());
        let mid = MessageId(1);
        rt.drive(INITIATOR, |n, out| n.send_message(mid, b"lost", out))
            .unwrap();
        assert_eq!(rt.node(INITIATOR).initiator.ledger_len().1, 1);
        rt.run_until_idle(0);
        let node = rt.node(INITIATOR);
        // The first send and every retransmit timed out, then it gave up.
        assert_eq!(node.events.ack_timeouts.len() as u32, MAX_RETRIES + 1);
        assert_eq!(node.events.retransmits, u64::from(MAX_RETRIES));
        assert!(!node.message_complete(mid));
        assert_eq!(
            node.initiator.ledger_len().1,
            0,
            "payload outlived its retry budget"
        );
        assert!(node.timers.is_empty());
    }

    #[test]
    fn settled_messages_are_reclaimed_after_the_ttl() {
        let mut rt = world(1, &[NodeId(1), NodeId(2)], None);
        let send = |rt: &mut Net, m: u64| {
            rt.drive(INITIATOR, |n, out| {
                n.send_message(MessageId(m), &[m as u8; 300], out)
            })
            .unwrap();
            rt.run_until_idle(0);
        };
        // Messages 1–3 are acked in full; 4 loses one segment for good and
        // settles by running out of retry budget.
        (1..=3).for_each(|m| send(&mut rt, m));
        rt.drive(NodeId(2), |n, _| n.crash_relay_state());
        rt.drive(INITIATOR, |n, _| n.policy.max_retries = 0);
        send(&mut rt, 4);
        let node = rt.node(INITIATOR);
        assert_eq!(
            node.initiator.ledger_len().0,
            4,
            "records answer until the TTL"
        );
        assert!(node.message_complete(MessageId(3)) && !node.message_complete(MessageId(4)));

        // Silence for longer than the TTL: nothing reclaims without a send;
        // the next send drops the four settled records, not its own.
        let idle = anon_core::relay::DEFAULT_STATE_TTL.as_micros() + 1;
        rt.transport.set_timer(INITIATOR, u64::MAX, idle);
        rt.run_until_idle(0);
        assert_eq!(rt.node(INITIATOR).initiator.ledger_len().0, 4);
        rt.drive(INITIATOR, |n, out| n.send_message(MessageId(5), b"x", out))
            .unwrap();
        let node = rt.node(INITIATOR);
        assert_eq!(node.initiator.ledger_len().0, 1);
        assert!(
            !node.message_complete(MessageId(3)),
            "a swept id answers false"
        );
    }

    #[test]
    fn expired_relay_state_is_reclaimed_when_the_next_construction_arrives() {
        // Two paths through relay 1, then silence for longer than the TTL.
        let mut rt = world(1, &[NodeId(1), NodeId(1)], None);
        let idle = anon_core::relay::DEFAULT_STATE_TTL.as_micros() + 1;
        // A token nobody armed: firing it only moves the clock.
        rt.transport.set_timer(INITIATOR, u64::MAX, idle);
        rt.run_until_idle(0);
        let cached = |rt: &Net, id| rt.node(id).relay.cached_paths();
        assert_eq!((cached(&rt, NodeId(1)), cached(&rt, RESPONDER)), (2, 2));

        let hops: Vec<_> = [NodeId(1), RESPONDER]
            .map(|hop| (hop, rt.node(hop).public_key()))
            .into();
        rt.drive(INITIATOR, |n, out| n.construct_paths(&[hops], out));
        rt.run_until_idle(0);
        assert_eq!(rt.node(INITIATOR).established_paths(), 3);
        // Only the path just built is still held, at the relay and at
        // the responder.
        assert_eq!((cached(&rt, NodeId(1)), cached(&rt, RESPONDER)), (1, 1));
    }

    #[test]
    fn stale_reassembly_state_is_reclaimed_when_the_next_construction_arrives() {
        let mut rt = world(2, &[NodeId(1), NodeId(2)], None);
        let send = |rt: &mut Net, m: u64| {
            rt.drive(INITIATOR, |n, out| {
                n.send_message(MessageId(m), &[m as u8; 300], out)
            })
            .unwrap();
            rt.run_until_idle(0);
        };
        send(&mut rt, 1);
        // Message 2 loses its second segment for good: relay 2 forgets
        // the path and the sender has no retransmit left.
        rt.drive(NodeId(2), |n, _| n.crash_relay_state());
        rt.drive(INITIATOR, |n, _| n.policy.max_retries = 0);
        send(&mut rt, 2);
        let held = |rt: &Net| {
            let reassembler = &rt.node(RESPONDER).reassembler;
            (reassembler.pending(), reassembler.completed())
        };
        assert_eq!(rt.node(RESPONDER).events.completed.len(), 1);
        assert_eq!(held(&rt), (1, 1));

        // Silence for longer than the TTL, then one more construction.
        let idle = anon_core::relay::DEFAULT_STATE_TTL.as_micros() + 1;
        rt.transport.set_timer(INITIATOR, u64::MAX, idle);
        rt.run_until_idle(0);
        assert_eq!(held(&rt), (1, 1), "nothing reclaims without a construction");
        let hops: Vec<_> = [NodeId(1), RESPONDER]
            .map(|hop| (hop, rt.node(hop).public_key()))
            .into();
        rt.drive(INITIATOR, |n, out| n.construct_paths(&[hops], out));
        rt.run_until_idle(0);
        assert_eq!(held(&rt), (0, 0));
    }

    /// Two paths, relay 2 crashed, three messages: each loses its second
    /// segment at relay 2, times out and is retransmitted over path 1 —
    /// every kind of event a node records.
    fn recovery_run(registry: Option<&Registry>) -> Net {
        let mut rt = world(1, &[NodeId(1), NodeId(2)], registry);
        rt.drive(NodeId(2), |n, _| n.crash_relay_state());
        for m in 1..=3 {
            rt.drive(INITIATOR, |n, out| {
                n.send_message(MessageId(m), &[m as u8; 300], out)
            })
            .unwrap();
            rt.run_until_idle(0);
        }
        rt
    }

    /// Every log of `events`, and its two counters.
    fn logs(events: &Events) -> impl PartialEq + Debug + '_ {
        (
            &events.established,
            &events.constructions,
            &events.deliveries,
            &events.acks,
            &events.ack_timeouts,
            &events.completed,
            events.retransmits,
            events.stateless_drops,
        )
    }

    #[test]
    fn telemetry_changes_no_output_and_counts_every_log_entry() {
        let registry = Registry::new();
        let (off, on) = (recovery_run(None), recovery_run(Some(&registry)));
        assert_eq!(off.transport.outputs, on.transport.outputs);
        let snap = registry.snapshot();
        let mut totals = [0u64; KINDS.len()];
        for i in 0..4 {
            let events = &on.node(NodeId(i)).events;
            assert_eq!(logs(&off.node(NodeId(i)).events), logs(events), "node {i}");
            // The logged kinds, in `KINDS` order; a node records no other.
            let lens = [
                events.constructions.len() as u64,
                events.established.len() as u64,
                events.deliveries.len() as u64,
                events.completed.len() as u64,
                events.acks.len() as u64,
                events.ack_timeouts.len() as u64,
                events.retransmits,
                events.stateless_drops,
            ];
            let node = i.to_string();
            for (k, kind) in KINDS.into_iter().enumerate() {
                let labels = [("kind", kind), ("node", node.as_str())];
                let count = snap.counter_value("protocol_events_total", &labels);
                assert_eq!(count, lens.get(k).copied().unwrap_or(0), "node {i}, {kind}");
                totals[k] += count;
            }
        }
        // The scenario reaches every kind a node records.
        let recorded: Vec<&str> = (0..KINDS.len())
            .filter(|&k| totals[k] > 0)
            .map(|k| KINDS[k])
            .collect();
        assert_eq!(recorded, KINDS[..8]);
        // The initiator times the acks that disarm a deadline, and only
        // those: a late ack (its segment already retransmitted) is not.
        let timed = match snap.get("protocol_ack_rtt_us", &[("node", "0")]) {
            Some(SnapshotValue::Histogram(h)) => h.count(),
            other => panic!("no ack round trips: {other:?}"),
        };
        assert!(
            timed > 0 && timed <= totals[4],
            "{timed} of {} acks timed",
            totals[4]
        );
    }
}
