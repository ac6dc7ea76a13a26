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

use crate::instrument::NodeTelemetry;
use crate::policy::PolicyConfig;
use anon_core::driver::CONSTRUCT_ACK;
use anon_core::endpoint::{Initiator, Reassembler};
use anon_core::onion::{build_payload_onion, peel_reverse_payload_in_place, PathPlan};
use anon_core::relay::{Relay, Step};
use anon_core::wire::{Frame, Wire};
use anon_core::{AnonError, MessageId, StreamId};
use erasure::{Codec, Segment};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sim_crypto::{KeyPair, PublicKey};
use simnet::{NodeId, SimDuration, SimTime};
use std::collections::{HashMap, HashSet};

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

/// Observable protocol events, appended to as the node runs.
///
/// These are the node's outward face: the driver's outcome logs
/// (`established`, `deliveries`, `acks`, …) reproduced per node so the
/// equivalence test can compare the two layers record for record.
#[derive(Debug, Default)]
pub struct NodeEvents {
    /// Construction acks that reached this initiator: `(path sid, at)`.
    pub established: Vec<(StreamId, u64)>,
    /// Terminal construction completions at this responder:
    /// `(upstream hop, terminal sid, at)`.
    pub constructions: Vec<(NodeId, StreamId, u64)>,
    /// Segments delivered at this responder: `(mid, index, at)`.
    pub deliveries: Vec<(MessageId, usize, u64)>,
    /// End-to-end segment acks back at this initiator: `(mid, index, at)`.
    pub acks: Vec<(MessageId, usize, u64)>,
    /// Ack deadlines that fired unanswered: `(mid, index, at)`.
    pub ack_timeouts: Vec<(MessageId, usize, u64)>,
    /// Messages reassembled at this responder (in completion order).
    pub completed: Vec<(MessageId, Vec<u8>)>,
    /// Segments retransmitted after an ack timeout.
    pub retransmits: u64,
    /// Frames dropped for missing relay/initiator state.
    pub stateless_drops: u64,
}

impl NodeEvents {
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

/// One peer's complete protocol state machine.
pub struct ProtocolNode {
    id: NodeId,
    relay: Relay,
    rng: StdRng,
    auto_ack: bool,
    codec: Option<Box<dyn Codec>>,
    initiator: Option<Initiator>,
    /// Responder-side segment reassembly.
    reassembler: Reassembler,
    /// Initiator side: where in `initiator.paths()` the path of a stream
    /// id sits, so a reverse onion finds its plan without the node keeping
    /// a second copy of every session key. Paths are never dropped here.
    path_index: HashMap<StreamId, usize>,
    /// Outgoing messages kept for erasure-aware retransmission, until no
    /// segment of theirs can be retransmitted again (`retire_if_settled`).
    outbox: HashMap<MessageId, Vec<u8>>,
    /// Segments acked so far, per message.
    acked: HashMap<MessageId, HashSet<usize>>,
    /// Total segment count per in-flight message.
    want: HashMap<MessageId, usize>,
    /// Armed ack-deadline timers: `(mid, index)` → token.
    pending_acks: HashMap<(MessageId, usize), u64>,
    /// Reverse map: token → the segment it guards.
    timer_purpose: HashMap<u64, (MessageId, usize)>,
    /// Retransmits already spent per segment (dropped with the message's
    /// `outbox` entry).
    retries: HashMap<(MessageId, usize), u32>,
    /// When each in-flight segment last left, for the ack round-trip
    /// histogram: `(mid, index)` → `sent_at_us`.
    inflight: HashMap<(MessageId, usize), u64>,
    /// When the relay half and the reassembler last reclaimed expired
    /// state.
    last_sweep: SimTime,
    next_token: u64,
    policy: PolicyConfig,
    /// The caller's clock as of the last `handle`/`set_now`, letting
    /// clock-less entry points (`send_message`) stamp send times.
    now_hint: u64,
    /// Observable protocol events (drained/inspected by the embedder).
    pub events: NodeEvents,
    /// Live instruments mirroring the `events` record sites (optional;
    /// write-only, so attaching them cannot change behavior).
    telemetry: Option<NodeTelemetry>,
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
            initiator: None,
            reassembler: Reassembler::new(),
            path_index: HashMap::new(),
            outbox: HashMap::new(),
            acked: HashMap::new(),
            want: HashMap::new(),
            pending_acks: HashMap::new(),
            timer_purpose: HashMap::new(),
            retries: HashMap::new(),
            inflight: HashMap::new(),
            last_sweep: SimTime::ZERO,
            next_token: 1,
            policy: PolicyConfig::default(),
            now_hint: 0,
            events: NodeEvents::default(),
            telemetry: None,
        }
    }

    /// Attach live instruments (see [`NodeTelemetry`]); each protocol
    /// event increments its counter alongside the `events` log entry.
    pub fn with_telemetry(mut self, telemetry: NodeTelemetry) -> Self {
        self.telemetry = Some(telemetry);
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

    /// Override the end-to-end ack deadline.
    pub fn with_ack_timeout_us(mut self, us: u64) -> Self {
        self.policy.ack_timeout_us = us;
        self
    }

    /// Override the per-segment retransmit budget.
    pub fn with_max_retries(mut self, retries: u32) -> Self {
        self.policy.max_retries = retries;
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
        self.initiator
            .as_ref()
            .map(|i| i.paths().iter().filter(|p| p.established).count())
            .unwrap_or(0)
    }

    /// This initiator's paths: `(stream id, first hop, established)`.
    pub fn paths(&self) -> Vec<(StreamId, NodeId, bool)> {
        self.initiator
            .as_ref()
            .map(|i| {
                i.paths()
                    .iter()
                    .map(|p| (p.sid, p.plan.first_hop(), p.established))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// The plan of the path this node built under stream id `sid`.
    fn plan(&self, sid: StreamId) -> Option<&PathPlan> {
        let &i = self.path_index.get(&sid)?;
        Some(&self.initiator.as_ref()?.paths().get(i)?.plan)
    }

    /// Whether every segment of `mid` has been acked end to end.
    pub fn message_complete(&self, mid: MessageId) -> bool {
        match (self.acked.get(&mid), self.want.get(&mid)) {
            (Some(acked), Some(&want)) => acked.len() >= want,
            _ => false,
        }
    }

    /// Build `k` construction onions (one per hop list, responder last)
    /// and emit their first-hop frames. Initiator role.
    pub fn construct_paths(
        &mut self,
        paths_hops: &[Vec<(NodeId, PublicKey)>],
        out: &mut Vec<Output>,
    ) {
        let id = self.id;
        let initiator = self.initiator.get_or_insert_with(|| Initiator::new(id));
        let start = initiator.paths().len();
        let msgs = initiator.construct_paths(paths_hops, &mut self.rng);
        for (i, p) in initiator.paths().iter().enumerate().skip(start) {
            self.path_index.insert(p.sid, i);
        }
        for msg in msgs {
            out.push(Output::Send {
                to: msg.to,
                frame: Frame::Stream {
                    sid: msg.sid,
                    wire: Wire::Construct {
                        initiator_sid: msg.sid,
                        onion: msg.blob,
                    },
                },
            });
        }
    }

    /// Erasure-code `message`, send one payload onion per segment over
    /// the node's paths (segment `i` on path `i mod k`), and arm an ack
    /// deadline for each. Initiator role; requires a codec.
    pub fn send_message(
        &mut self,
        mid: MessageId,
        message: &[u8],
        out: &mut Vec<Output>,
    ) -> Result<(), AnonError> {
        let codec = self
            .codec
            .as_ref()
            .ok_or(AnonError::InvalidParameters("no codec attached".into()))?;
        let initiator = self
            .initiator
            .as_mut()
            .ok_or(AnonError::InvalidParameters("no paths constructed".into()))?;
        let msgs = initiator.send_message(mid, message, codec.as_ref(), None, &mut self.rng)?;
        self.outbox.insert(mid, message.to_vec());
        self.want.insert(mid, msgs.len());
        self.acked.entry(mid).or_default();
        for (index, msg) in msgs.into_iter().enumerate() {
            self.inflight.insert((mid, index), self.now_hint);
            out.push(Output::Send {
                to: msg.to,
                frame: Frame::Stream {
                    sid: msg.sid,
                    wire: Wire::Payload { blob: msg.blob },
                },
            });
            self.arm_ack_timer(mid, index, out);
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
        self.events.stateless_drops += 1;
        if let Some(t) = &self.telemetry {
            t.stateless_drops.inc();
        }
    }

    /// Forget `mid`'s payload and retry counters once no ack deadline of
    /// it is armed: every segment is then either acked or out of retry
    /// budget, so nothing can ask for the payload again. `acked`/`want`
    /// stay, keeping [`ProtocolNode::message_complete`] answerable.
    fn retire_if_settled(&mut self, mid: MessageId) {
        let want = self.want.get(&mid).copied().unwrap_or(0);
        if (0..want).any(|index| self.pending_acks.contains_key(&(mid, index))) {
            return;
        }
        self.outbox.remove(&mid);
        for index in 0..want {
            self.retries.remove(&(mid, index));
        }
    }

    fn alloc_token(&mut self) -> u64 {
        let t = self.next_token;
        self.next_token += 1;
        t
    }

    fn arm_ack_timer(&mut self, mid: MessageId, index: usize, out: &mut Vec<Output>) {
        let token = self.alloc_token();
        self.pending_acks.insert((mid, index), token);
        self.timer_purpose.insert(token, (mid, index));
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
        // the initiator: peel all layers with the path's plan.
        if let Wire::Reverse { blob } = &mut wire {
            if let Some(plan) = self.plan(sid) {
                return match peel_reverse_payload_in_place(plan, blob, None) {
                    Ok((mid, index)) => self.on_ack(now_us, sid, mid, index, out),
                    Err(_) => self.note_stateless_drop(),
                };
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
            (Ok(Step::Forward { to, sid }), wire) => out.push(Output::Send {
                to,
                frame: Frame::Stream { sid, wire },
            }),
            (Ok(Step::Constructed), Wire::Construct { onion, .. }) => {
                self.events.constructions.push((from, sid, now_us));
                if let Some(t) = &self.telemetry {
                    t.constructions.inc();
                }
                if self.auto_ack {
                    self.send_auto_ack(from, sid, CONSTRUCT_ACK, 0, onion, out);
                }
            }
            (Ok(Step::Delivered { mid, index }), Wire::Payload { blob }) => {
                self.events.deliveries.push((mid, index, now_us));
                if let Some(t) = &self.telemetry {
                    t.deliveries.inc();
                }
                if let Some(codec) = self.codec.as_ref() {
                    let seg = Segment::new(index, blob.clone());
                    if let Ok(Some(msg)) = self.reassembler.push(mid, seg, codec.as_ref(), now) {
                        self.events.completed.push((mid, msg));
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

    /// Initiator side: the reverse onion on path `sid` peeled to an ack for
    /// segment `index` of `mid` (or to the path's construction ack).
    fn on_ack(
        &mut self,
        now_us: u64,
        sid: StreamId,
        mid: MessageId,
        index: usize,
        out: &mut Vec<Output>,
    ) {
        if mid == CONSTRUCT_ACK {
            self.events.established.push((sid, now_us));
            if let Some(t) = &self.telemetry {
                t.established.inc();
            }
            if let Some(init) = self.initiator.as_mut() {
                init.mark_established(sid);
            }
            return;
        }
        if let Some(token) = self.pending_acks.remove(&(mid, index)) {
            self.timer_purpose.remove(&token);
            out.push(Output::CancelTimer { token });
        }
        if let Some(sent_at) = self.inflight.remove(&(mid, index)) {
            if let Some(t) = &self.telemetry {
                t.ack_rtt_us.record(now_us.saturating_sub(sent_at));
            }
        }
        self.acked.entry(mid).or_default().insert(index);
        self.events.acks.push((mid, index, now_us));
        if let Some(t) = &self.telemetry {
            t.acks.inc();
        }
        self.retire_if_settled(mid);
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
            Ok(()) => out.push(Output::Send {
                to: from,
                frame: Frame::Stream {
                    sid,
                    wire: Wire::Reverse { blob: buf },
                },
            }),
            Err(_) => self.note_stateless_drop(),
        }
    }

    /// An armed ack deadline fired: record the timeout and retransmit
    /// the segment over another path, so a dead path is routed around
    /// instead of hammered: retry `r` of segment `i` rides path
    /// `(i + r) mod k` — the behavior the driver-equivalence test pins.
    fn on_timer(&mut self, now_us: u64, token: u64, out: &mut Vec<Output>) {
        let Some((mid, index)) = self.timer_purpose.remove(&token) else {
            return; // stale token (cancelled and re-fired in a race)
        };
        self.pending_acks.remove(&(mid, index));
        if self.acked.get(&mid).is_some_and(|a| a.contains(&index)) {
            return; // ack raced the timer through the transport
        }
        self.events.ack_timeouts.push((mid, index, now_us));
        if let Some(t) = &self.telemetry {
            t.ack_timeouts.inc();
        }
        let retry = self.retries.entry((mid, index)).or_insert(0);
        *retry += 1;
        if *retry > self.policy.max_retries {
            self.inflight.remove(&(mid, index));
            self.retire_if_settled(mid);
            return;
        }
        let retry = *retry;
        let (Some(codec), Some(init), Some(message)) = (
            self.codec.as_ref(),
            self.initiator.as_ref(),
            self.outbox.get(&mid),
        ) else {
            return;
        };
        let k = init.paths().len();
        if k == 0 {
            return;
        }
        let segments = codec.encode(message);
        let Some(segment) = segments.get(index) else {
            return;
        };
        let path = &init.paths()[(index + retry as usize) % k];
        let (blob, _) = build_payload_onion(&path.plan, mid, segment, None, &mut self.rng);
        self.events.retransmits += 1;
        if let Some(t) = &self.telemetry {
            t.retransmits.inc();
        }
        self.inflight.insert((mid, index), now_us);
        out.push(Output::Send {
            to: path.plan.first_hop(),
            frame: Frame::Stream {
                sid: path.sid,
                wire: Wire::Payload { blob },
            },
        });
        self.arm_ack_timer(mid, index, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Runtime, SimTransport, Transport};
    use erasure::ErasureCodec;
    use simnet::{ChurnSchedule, LatencyMatrix};

    const INITIATOR: NodeId = NodeId(0);
    const RESPONDER: NodeId = NodeId(3);
    const MAX_RETRIES: u32 = 2;

    /// Initiator 0, responder 3, one established single-relay path per
    /// entry of `relays`, one segment per path, any `needed` of which
    /// rebuild the message.
    fn world(needed: usize, relays: &[NodeId]) -> Runtime<SimTransport> {
        let codec = || Box::new(ErasureCodec::new(needed, relays.len()).unwrap());
        let mut rt = Runtime::new(SimTransport::new(
            ChurnSchedule::always_up(4, SimTime::from_secs(1 << 20)),
            LatencyMatrix::uniform(4, SimDuration::from_millis(10)),
        ));
        let mut keyrng = StdRng::seed_from_u64(9);
        for i in 0..4 {
            let mut node = ProtocolNode::new(NodeId(i), KeyPair::generate(&mut keyrng), i.into());
            if node.id == INITIATOR {
                node = node.with_codec(codec()).with_max_retries(MAX_RETRIES);
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
        let mut rt = world(1, &[NodeId(1), NodeId(2)]);
        for m in 1..=5 {
            let mid = MessageId(m);
            rt.drive(INITIATOR, |n, out| {
                n.send_message(mid, &[m as u8; 300], out)
            })
            .unwrap();
            assert!(rt.node(INITIATOR).outbox.contains_key(&mid));
            rt.run_until_idle(0);
            assert!(rt.node(INITIATOR).message_complete(mid));
        }
        let node = rt.node(INITIATOR);
        assert!(node.outbox.is_empty(), "payloads outlived their acks");
        assert!(node.retries.is_empty());
        assert!((1..=5).all(|m| node.message_complete(MessageId(m))));
    }

    #[test]
    fn a_message_on_a_dead_path_leaves_the_outbox_after_max_retries() {
        let mut rt = world(1, &[NodeId(1)]);
        rt.drive(NodeId(1), |n, _| n.crash_relay_state());
        let mid = MessageId(1);
        rt.drive(INITIATOR, |n, out| n.send_message(mid, b"lost", out))
            .unwrap();
        assert!(rt.node(INITIATOR).outbox.contains_key(&mid));
        rt.run_until_idle(0);
        let node = rt.node(INITIATOR);
        // The first send and every retransmit timed out, then it gave up.
        assert_eq!(node.events.ack_timeouts.len() as u32, MAX_RETRIES + 1);
        assert_eq!(node.events.retransmits, u64::from(MAX_RETRIES));
        assert!(!node.message_complete(mid));
        assert!(node.outbox.is_empty(), "payload outlived its retry budget");
        assert!(node.retries.is_empty());
    }

    #[test]
    fn expired_relay_state_is_reclaimed_when_the_next_construction_arrives() {
        // Two paths through relay 1, then silence for longer than the TTL.
        let mut rt = world(1, &[NodeId(1), NodeId(1)]);
        let idle = anon_core::relay::DEFAULT_STATE_TTL.as_micros() + 1;
        // A token nobody armed: firing it only moves the clock.
        rt.transport.set_timer(INITIATOR, u64::MAX, idle);
        rt.run_until_idle(0);
        let cached = |rt: &Runtime<SimTransport>, id| rt.node(id).relay.cached_paths();
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
        let mut rt = world(2, &[NodeId(1), NodeId(2)]);
        let send = |rt: &mut Runtime<SimTransport>, m: u64| {
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
        let held = |rt: &Runtime<SimTransport>| {
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

    #[test]
    fn clear_logs_empties_every_log_and_keeps_the_counters() {
        let (mid, sid) = (MessageId(1), StreamId(7));
        // No `..Default::default()`: a new field has to be placed here.
        let mut events = NodeEvents {
            established: vec![(sid, 1)],
            constructions: vec![(NodeId(1), sid, 2)],
            deliveries: vec![(mid, 0, 3)],
            acks: vec![(mid, 0, 4)],
            ack_timeouts: vec![(mid, 1, 5)],
            completed: vec![(mid, b"body".to_vec())],
            retransmits: 3,
            stateless_drops: 2,
        };
        events.clear_logs();
        assert!(events.established.is_empty());
        assert!(events.constructions.is_empty());
        assert!(events.deliveries.is_empty());
        assert!(events.acks.is_empty());
        assert!(events.ack_timeouts.is_empty());
        assert!(events.completed.is_empty());
        assert_eq!((events.retransmits, events.stateless_drops), (3, 2));
    }
}
