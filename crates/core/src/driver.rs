//! Event-driven, message-level protocol execution over the simulated
//! network: real onions, real relay state machines, real per-link
//! latencies and churn — the highest-fidelity layer of the reproduction.
//!
//! Where [`crate::sim::World`] *predicts* hop-by-hop outcomes from the
//! churn schedule, the [`Driver`] actually runs them: every construction
//! onion, payload onion and reverse reply is scheduled on the
//! [`simnet::Engine`], travels with the latency matrix's one-way delays,
//! dies silently at down relays, and mutates genuine [`Relay`] caches.
//! The `validate` experiment cross-checks the two layers on identical
//! ground truth.

use crate::endpoint::{Initiator, Outgoing, CONSTRUCT_ACK};
use crate::events::{Event, Events};
use crate::ids::{MessageId, StreamId};
use crate::instrument::{wire_tag, ProtocolTelemetry};
use crate::observe::{ObservationLog, PacketObservation};
use crate::pool::BufferPool;
use crate::relay::{Relay, Step};
use crate::wire::{self, Frame, Wire};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use sim_crypto::{KeyPair, PublicKey};
use simnet::{ChurnSchedule, Engine, EventHandle, FaultPlan, LatencyMatrix, NodeId, SimTime};
use std::collections::HashMap;
use std::sync::Arc;

/// Every node's relay, derived the first time the run needs it.
///
/// The secret bytes are drawn up front, in node order, exactly as
/// [`KeyPair::generate`] draws them, so the driver's RNG stream — and every
/// stream id and ciphertext drawn from it later — is the one an eager build
/// leaves. The base-point multiplication that turns the bytes into a key
/// pair runs when a frame is first routed to the node or its public key is
/// first asked for; most relays of a large world are never on a path and
/// never pay it.
struct RelayTable {
    secrets: Vec<[u8; 32]>,
    relays: Vec<Option<Relay>>,
}

impl RelayTable {
    fn draw(n: usize, rng: &mut StdRng) -> Self {
        let secrets = (0..n)
            .map(|_| {
                let mut bytes = [0u8; 32];
                rng.fill_bytes(&mut bytes);
                bytes
            })
            .collect();
        RelayTable {
            secrets,
            relays: (0..n).map(|_| None).collect(),
        }
    }

    /// Whether `node` is one of the table's `0..n`.
    fn contains(&self, node: NodeId) -> bool {
        node.index() < self.secrets.len()
    }

    /// `node`'s relay, derived now if nothing needed it before. `node` must
    /// be in `0..n`.
    fn get(&mut self, node: NodeId) -> &mut Relay {
        let secret = self.secrets[node.index()];
        self.relays[node.index()]
            .get_or_insert_with(|| Relay::new(node, KeyPair::from_secret_bytes(secret)))
    }

    /// `node`'s relay if it has been derived: one that has not holds no
    /// soft state yet.
    fn derived(&mut self, node: NodeId) -> Option<&mut Relay> {
        self.relays.get_mut(node.index())?.as_mut()
    }
}

/// The event-driven world: the initiator, relays, ground truth and the
/// event record.
pub struct DriverWorld {
    /// The one initiator the driver serves: its paths open the reverse
    /// onions that reach it, and its ledger books their acks, as a live
    /// node's does.
    pub initiator: Initiator,
    relays: RelayTable,
    /// Ground-truth churn, shared with the trajectory-level world the
    /// driver runs beside.
    pub schedule: Arc<ChurnSchedule>,
    /// Pairwise one-way delays, shared the same way.
    pub latency: Arc<LatencyMatrix>,
    /// Injected faults (drops, latency spikes, crash-restarts); the empty
    /// plan reproduces pre-fault behavior event for event.
    pub faults: FaultPlan,
    /// RNG for relay-side stream ids.
    pub rng: StdRng,
    /// Every protocol event of the run, the initiator's and every
    /// relay's and the responder's alike, with the optional telemetry and
    /// adversary tap it feeds.
    pub events: Events,
    /// Messages swallowed by down nodes (or addressed outside `0..n`,
    /// where no node ever answers).
    pub lost: u64,
    /// Messages eaten by injected link-drop faults.
    pub fault_drops: u64,
    /// Crash-restart events applied (each wipes one relay's soft state;
    /// one that was never derived has none, and still counts).
    pub crash_wipes: u64,
    /// When the responder acks traffic end to end (reverse onions for
    /// every delivery and construction completion).
    pub auto_ack: bool,
    /// Recycled message buffers: every in-flight onion is one owned
    /// `Vec<u8>` peeled/wrapped in place hop to hop, and terminated
    /// messages return their capacity here for the next launch.
    pub pool: BufferPool,
    /// Armed ack-deadline timers, cancelled when the ack arrives first.
    pending_acks: HashMap<(MessageId, usize), EventHandle>,
    /// Per-node cursor into the fault plan's crash schedule.
    crash_cursor: Vec<usize>,
}

impl DriverWorld {
    /// A node's public key, deriving its key pair if this is the first use.
    ///
    /// # Panics
    ///
    /// If `node` is outside the driver's `0..n`: no key is published for it.
    pub fn public_key(&mut self, node: NodeId) -> PublicKey {
        self.relays.get(node).public_key()
    }

    /// Hop list (relays then responder) with public keys; see
    /// [`public_key`](Self::public_key).
    pub fn hops(&mut self, relays: &[NodeId], responder: NodeId) -> Vec<(NodeId, PublicKey)> {
        relays
            .iter()
            .chain(std::iter::once(&responder))
            .map(|&n| (n, self.public_key(n)))
            .collect()
    }

    /// A frame died for want of relay or initiator state at `now`.
    fn stateless_drop(&mut self, now: SimTime) {
        self.events.record(now.as_micros(), Event::StatelessDrop);
    }

    /// Return a terminated message's buffer to the pool.
    fn recycle(&mut self, wire: Wire) {
        if let Wire::Payload { blob } | Wire::Reverse { blob } = wire {
            self.pool.put(blob);
        }
    }
}

/// The event-driven protocol driver for one initiator.
pub struct Driver {
    /// The event engine; `world` is stepped against it.
    pub engine: Engine<DriverWorld>,
    /// The world (relays + ground truth + the event record).
    pub world: DriverWorld,
}

impl Driver {
    /// Build a driver over `n` relay-capable nodes, sharing externally
    /// built ground truth (hand it the trajectory-level world's own
    /// `Arc`s to compare like for like, without a copy). Every node's secret
    /// key bytes are drawn now, in node order, from `seed`; its key pair is
    /// derived from them on first use (see [`DriverWorld::public_key`]).
    pub fn new(
        n: usize,
        schedule: Arc<ChurnSchedule>,
        latency: Arc<LatencyMatrix>,
        initiator_id: NodeId,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let world = DriverWorld {
            initiator: Initiator::new(initiator_id),
            relays: RelayTable::draw(n, &mut rng),
            schedule,
            latency,
            faults: FaultPlan::none(),
            rng,
            events: Events::default(),
            lost: 0,
            fault_drops: 0,
            crash_wipes: 0,
            auto_ack: false,
            pool: BufferPool::new(),
            pending_acks: HashMap::new(),
            crash_cursor: vec![0; n],
        };
        Driver {
            engine: Engine::new(),
            world,
        }
    }

    /// Attach live telemetry from a shared registry: engine instruments
    /// ([`simnet::instrument::EngineTelemetry`]) plus the protocol's
    /// ([`ProtocolTelemetry`], without a node label). Telemetry is
    /// write-only, so the run's trajectory is identical with or without
    /// this call.
    pub fn attach_telemetry(&mut self, registry: &telemetry::Registry) {
        self.engine
            .set_telemetry(simnet::EngineTelemetry::register(registry));
        self.world.events.telemetry = Some(ProtocolTelemetry::register(registry, None));
    }

    /// Inject a fault plan (link drops, latency spikes, crash-restarts).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.world.faults = faults;
        self
    }

    /// Make the responder ack every delivery and construction completion
    /// with a real reverse onion.
    pub fn with_auto_ack(mut self) -> Self {
        self.world.auto_ack = true;
        self
    }

    /// Attach the adversary observation tap: every subsequent link
    /// crossing and path registration is recorded into an
    /// [`ObservationLog`], retrievable with
    /// [`take_observations`](Self::take_observations). Record-only —
    /// the trajectory is identical with or without this call.
    pub fn with_observation(mut self) -> Self {
        self.world.events.tap = Some(ObservationLog::new());
        self
    }

    /// Detach and return the observation log (`None` if the tap was
    /// never attached).
    pub fn take_observations(&mut self) -> Option<ObservationLog> {
        self.world.events.tap.take()
    }

    /// Arm an end-to-end ack deadline for `(mid, index)`: if no ack
    /// arrives by `deadline`, a timeout is recorded. An ack arriving
    /// first cancels the timer.
    pub fn arm_ack_timer(&mut self, mid: MessageId, index: usize, deadline: SimTime) {
        let handle = self.engine.schedule_cancellable(
            deadline,
            move |w: &mut DriverWorld, e: &mut Engine<DriverWorld>| {
                w.pending_acks.remove(&(mid, index));
                w.events
                    .record(e.now().as_micros(), Event::TimedOut(mid, index));
            },
        );
        if let Some(old) = self.world.pending_acks.insert((mid, index), handle) {
            old.cancel();
        }
    }

    /// Schedule `wire` to leave the initiator for `to` on stream `sid` at
    /// `at`.
    fn launch(&mut self, to: NodeId, sid: StreamId, wire: Wire, at: SimTime) {
        let from = self.world.initiator.id();
        Self::send(&mut self.engine, from, to, sid, wire, at);
    }

    /// Schedule an explicit teardown to leave the initiator at `at`,
    /// releasing state hop by hop along the path (§4.3).
    pub fn launch_release(&mut self, first_hop: NodeId, sid: StreamId, at: SimTime) {
        self.launch(first_hop, sid, Wire::Release, at);
    }

    /// Schedule a construction onion (from [`Initiator::construct_paths`]
    /// on [`DriverWorld::initiator`]) to leave the initiator at `at`, and
    /// register the path it builds with the observation tap.
    pub fn launch_construction(&mut self, msg: &Outgoing, at: SimTime) {
        let w = &mut self.world;
        if let Some(path) = w.initiator.path(msg.sid) {
            let event = Event::PathRegistered(w.initiator.id(), msg.sid, &path.plan);
            w.events.record(self.engine.now().as_micros(), event);
        }
        let wire = Wire::Construct {
            initiator_sid: msg.sid,
            onion: msg.blob.clone(),
        };
        self.launch(msg.to, msg.sid, wire, at);
    }

    /// Schedule a payload onion to leave the initiator at `at`.
    pub fn launch_payload(&mut self, msg: &Outgoing, at: SimTime) {
        let wire = Wire::Payload {
            blob: self.world.pool.get_copy(&msg.blob),
        };
        self.launch(msg.to, msg.sid, wire, at);
    }

    /// Run all scheduled traffic to completion (or up to `until`).
    pub fn run_until(&mut self, until: SimTime) {
        self.engine.run_until(&mut self.world, until);
    }

    /// Internal: schedule delivery of `wire` on link `(from → to, sid)`
    /// departing at `depart`.
    ///
    /// Every link crossing goes through the real frame codec
    /// ([`crate::wire`]): the departure edge encodes the message into a
    /// pooled buffer (returning the in-memory blob's capacity to the
    /// pool), the bytes travel, and the arrival edge decodes them back —
    /// so the simulator exercises the exact bytes a live transport puts
    /// on a socket, at zero extra events and (steady-state) zero extra
    /// allocations. A frame addressed outside `0..n` is lost on departure.
    fn send(
        engine: &mut Engine<DriverWorld>,
        from: NodeId,
        to: NodeId,
        sid: StreamId,
        wire: Wire,
        depart: SimTime,
    ) {
        engine.schedule_at(
            depart,
            move |w: &mut DriverWorld, e: &mut Engine<DriverWorld>| {
                let now = e.now();
                if !w.relays.contains(to) {
                    w.lost += 1;
                    return w.recycle(wire);
                }
                if w.faults.drops(from, to, now) {
                    w.fault_drops += 1;
                    return w.recycle(wire);
                }
                let tag = wire_tag(&wire);
                let frame = Frame::Stream { sid, wire };
                let mut bytes = w.pool.get();
                wire::encode_frame_into(&frame, &mut bytes);
                if let Frame::Stream { wire, .. } = frame {
                    w.recycle(wire);
                }
                let owd = w.faults.scale_owd(w.latency.owd(from, to), from, to, now);
                let packet = PacketObservation {
                    node: from,
                    peer: to,
                    at: now,
                    ingress: false,
                    tag,
                    bytes: bytes.len() as u64,
                    sid,
                };
                w.events
                    .record(now.as_micros(), Event::Sent(packet, owd.as_micros()));
                e.schedule_at(now + owd, move |w, e| {
                    w.events.record(e.now().as_micros(), Event::Arrived(packet));
                    let (from, to) = (packet.node, packet.peer);
                    match wire::decode_frame_vec(bytes) {
                        Ok(Frame::Stream { sid, wire }) => Self::receive(w, e, from, to, sid, wire),
                        // A node drops what it cannot decode; the driver
                        // only encodes stream frames, so none arrive here.
                        _ => {
                            debug_assert!(false, "a driver-encoded stream frame decodes");
                            w.stateless_drop(e.now());
                        }
                    }
                });
            },
        );
    }

    /// Internal: a node processes an arriving message (or loses it if
    /// down — the paper's relay failure model).
    fn receive(
        w: &mut DriverWorld,
        e: &mut Engine<DriverWorld>,
        from: NodeId,
        to: NodeId,
        sid: StreamId,
        mut wire: Wire,
    ) {
        let now = e.now();
        let now_us = now.as_micros();
        if !w.schedule.is_up(to, now) {
            w.lost += 1;
            return w.recycle(wire);
        }
        // Lazily apply crash-restarts from the fault plan: the first time
        // a crashed node is asked to act after a crash instant, its soft
        // state is gone (one wipe per crash event).
        if let Some(cursor) = w.crash_cursor.get_mut(to.index()) {
            let times = w.faults.crash_times(to);
            let mut fired = 0u64;
            while *cursor < times.len() && times[*cursor] <= now {
                *cursor += 1;
                fired += 1;
            }
            if fired > 0 {
                w.crash_wipes += fired;
                if let Some(relay) = w.relays.derived(to) {
                    relay.crash();
                }
            }
        }
        // Reverse traffic terminating at the initiator: its own paths open
        // it and its ledger books the ack. A stream it does not hold — a
        // path torn down meanwhile — leaves nothing to open it with.
        if to == w.initiator.id() {
            if let Wire::Reverse { mut blob } = wire {
                match w.initiator.open_ack(sid, &mut blob, now) {
                    Ok(None) => w.events.record(now_us, Event::Established(sid)),
                    Ok(Some((mid, index, _))) => {
                        if let Some(timer) = w.pending_acks.remove(&(mid, index)) {
                            timer.cancel();
                        }
                        w.events.record(now_us, Event::Acked(mid, index, None));
                    }
                    Err(_) => w.stateless_drop(now),
                }
                return w.pool.put(blob);
            }
        }
        // Everything else is relay/responder work: one shared dispatch,
        // and the frame — rewritten in its own buffer — stays ours.
        // `send` lost every frame addressed outside `0..n`.
        let relay = w.relays.get(to);
        let step = relay.handle_wire(from, sid, &mut wire, now, &mut w.rng);
        // The responder's end-to-end ack: (mid, index, buffer to write it in).
        let ack = match (step, wire) {
            (
                Ok(Step::Forward {
                    to: next,
                    sid: nsid,
                }),
                wire,
            ) => {
                Self::send(e, to, next, nsid, wire, now);
                None
            }
            (Ok(Step::Constructed), Wire::Construct { .. }) => {
                w.events.record(now_us, Event::Constructed(from, sid));
                w.auto_ack.then(|| (CONSTRUCT_ACK, 0, w.pool.get()))
            }
            (Ok(Step::Delivered { mid, index }), Wire::Payload { blob }) => {
                w.events.record(now_us, Event::Delivered(mid, index));
                // Reuse the delivered onion's buffer for the reverse ack
                // travelling back.
                if w.auto_ack {
                    Some((mid, index, blob))
                } else {
                    w.pool.put(blob);
                    None
                }
            }
            (Ok(Step::Released), _) => None,
            (Ok(step), wire) => unreachable!("{step:?} for {wire:?}"),
            (Err(_), wire) => {
                w.stateless_drop(now);
                w.recycle(wire);
                None
            }
        };
        if let Some((mid, index, mut blob)) = ack {
            // The terminal entry `write_ack` keys on was cached or used by
            // the step above; were it gone, there is no key to ack under.
            let relay = w.relays.get(to);
            match relay.write_ack(from, sid, mid, index, &mut blob, &mut w.rng) {
                Ok(()) => Self::send(e, to, from, sid, Wire::Reverse { blob }, now),
                Err(_) => {
                    w.stateless_drop(now);
                    w.pool.put(blob);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use erasure::ErasureCodec;
    use simnet::{FaultConfig, LifetimeDistribution, SimDuration};

    fn always_up(n: usize) -> (Arc<ChurnSchedule>, Arc<LatencyMatrix>) {
        let horizon = SimTime::from_secs(10_000);
        let schedule = ChurnSchedule::always_up(n, horizon);
        let latency = LatencyMatrix::uniform(n, SimDuration::from_millis(20));
        (Arc::new(schedule), Arc::new(latency))
    }

    /// Build the path 1 → 2 → 3 → 7 on the driver's initiator; returns its
    /// construction onion.
    fn build_path(driver: &mut Driver, rng: &mut StdRng) -> Outgoing {
        let relays = [NodeId(1), NodeId(2), NodeId(3)];
        let hops = [driver.world.hops(&relays, NodeId(7))];
        driver.world.initiator.construct_paths(&hops, rng).remove(0)
    }

    /// Send `body` from the driver's initiator as message `mid`, coded
    /// `(m, n)`: one payload onion per segment.
    fn send(
        driver: &mut Driver,
        mid: MessageId,
        body: &[u8],
        (m, n): (usize, usize),
        rng: &mut StdRng,
    ) -> Vec<Outgoing> {
        let codec = ErasureCodec::new(m, n).unwrap();
        let initiator = &mut driver.world.initiator;
        initiator
            .send_message(mid, body, &codec, None, rng)
            .unwrap()
    }

    #[test]
    fn construction_completes_with_link_latency() {
        let (schedule, latency) = always_up(8);
        let mut driver = Driver::new(8, schedule, latency, NodeId(0), 1);
        let mut rng = StdRng::seed_from_u64(2);
        let msg = build_path(&mut driver, &mut rng);
        driver.launch_construction(&msg, SimTime::from_secs(1));
        driver.run_until(SimTime::from_secs(10));
        assert_eq!(driver.world.events.constructions.len(), 1);
        // 4 links at 20 ms each.
        assert_eq!(
            SimTime(driver.world.events.constructions[0].2),
            SimTime::from_secs(1) + SimDuration::from_millis(80)
        );
        assert_eq!(driver.world.lost, 0);
    }

    /// The nodes whose key pair has been derived, in id order.
    fn derived(driver: &Driver) -> Vec<NodeId> {
        let table = &driver.world.relays.relays;
        (0..table.len())
            .filter(|&i| table[i].is_some())
            .map(NodeId::from)
            .collect()
    }

    #[test]
    fn lazy_keys_are_the_eager_build() {
        let n = 16;
        let seed = 21;
        let mut eager_rng = StdRng::seed_from_u64(seed);
        let eager: Vec<PublicKey> = (0..n)
            .map(|_| KeyPair::generate(&mut eager_rng).public)
            .collect();
        let in_order: Vec<usize> = (0..n).collect();
        // A fixed shuffle: stride 7 is coprime to 16.
        let shuffled: Vec<usize> = (0..n).map(|i| i * 7 % n).collect();
        for order in [in_order, shuffled] {
            let (schedule, latency) = always_up(n);
            let mut driver = Driver::new(n, schedule, latency, NodeId(0), seed);
            for &i in &order {
                assert_eq!(
                    driver.world.public_key(NodeId::from(i)),
                    eager[i],
                    "node {i}"
                );
            }
            assert_eq!(derived(&driver).len(), n);
            // Asking again re-derives nothing and answers the same.
            assert_eq!(driver.world.public_key(NodeId(3)), eager[3]);
            let mut twin = eager_rng.clone();
            assert_eq!(driver.world.rng.next_u64(), twin.next_u64());
        }
    }

    #[test]
    fn a_relay_is_derived_when_first_used() {
        let (schedule, latency) = always_up(8);
        let mut driver = Driver::new(8, schedule, latency, NodeId(0), 1);
        assert!(
            derived(&driver).is_empty(),
            "a fresh driver derives nothing"
        );
        let msg = build_path(&mut driver, &mut StdRng::seed_from_u64(2));
        let four_hops = [NodeId(1), NodeId(2), NodeId(3), NodeId(7)];
        assert_eq!(derived(&driver), four_hops, "the hops' keys");
        driver.launch_construction(&msg, SimTime::from_secs(1));
        driver.run_until(SimTime::from_secs(10));
        assert_eq!(driver.world.events.constructions.len(), 1);
        assert_eq!(derived(&driver), four_hops, "routing derived no one else");
    }

    #[test]
    fn crashing_an_underived_node_derives_nothing_and_counts() {
        // Every crash instant falls before the horizon, and the path is
        // built after it, so each node wipes all of its crashes at the
        // first frame it meets — the initiator when the construct ack
        // comes back, without ever needing a key pair.
        let (schedule, latency) = always_up(8);
        let faults = FaultPlan::new(
            8,
            FaultConfig {
                crashes_per_hour: 36.0,
                ..FaultConfig::NONE
            },
            SimTime::from_secs(1_000),
            13,
        );
        let touched = [0u32, 1, 2, 3, 7].map(NodeId);
        let crashes: u64 = touched
            .iter()
            .map(|&node| faults.crash_times(node).len() as u64)
            .sum();
        assert!(
            !faults.crash_times(NodeId(0)).is_empty(),
            "the initiator crashes"
        );
        let mut driver = Driver::new(8, schedule, latency, NodeId(0), 1)
            .with_faults(faults)
            .with_auto_ack();
        let mut rng = StdRng::seed_from_u64(5);
        let msg = build_path(&mut driver, &mut rng);
        driver.launch_construction(&msg, SimTime::from_secs(2_000));
        driver.run_until(SimTime::from_secs(2_001));
        assert_eq!(
            driver.world.events.established.len(),
            1,
            "the ack came home"
        );
        assert_eq!(driver.world.crash_wipes, crashes);
        assert_eq!(
            derived(&driver),
            &touched[1..],
            "the initiator stays underived"
        );
    }

    #[test]
    fn a_frame_addressed_outside_the_world_is_lost() {
        let (schedule, latency) = always_up(8);
        let mut driver = Driver::new(8, schedule, latency, NodeId(0), 1);
        driver.launch_release(NodeId(8), StreamId(1), SimTime::from_secs(1));
        driver.run_until(SimTime::from_secs(2));
        assert_eq!(driver.world.lost, 1);
        assert!(derived(&driver).is_empty());
    }

    #[test]
    fn segments_deliver_and_arrival_times_match_topology() {
        let (schedule, latency) = always_up(12);
        let paths = [
            vec![NodeId(1), NodeId(2), NodeId(3)],
            vec![NodeId(4), NodeId(5), NodeId(6)],
        ];
        let mut driver = Driver::new(12, schedule, latency, NodeId(0), 3);
        let mut rng = StdRng::seed_from_u64(3 ^ 0x51ed);
        let hop_lists: Vec<_> = paths
            .iter()
            .map(|p| driver.world.hops(p, NodeId(11)))
            .collect();
        for msg in driver.world.initiator.construct_paths(&hop_lists, &mut rng) {
            driver.launch_construction(&msg, SimTime::from_secs(1));
        }
        let out = send(&mut driver, MessageId(5), &[0xEE; 1024], (1, 2), &mut rng);
        for msg in &out {
            driver.launch_payload(msg, SimTime::from_secs(2));
        }
        driver.run_until(SimTime::from_secs(62));
        assert_eq!(
            driver.world.events.deliveries.len(),
            2,
            "both segments arrive"
        );
        for &(mid, _, at) in &driver.world.events.deliveries {
            assert_eq!(mid, MessageId(5));
            assert_eq!(
                SimTime(at),
                SimTime::from_secs(2) + SimDuration::from_millis(80)
            );
        }
    }

    #[test]
    fn auto_ack_round_trip_and_timer_cancellation() {
        let (schedule, latency) = always_up(8);
        let mut driver = Driver::new(8, schedule, latency, NodeId(0), 1).with_auto_ack();
        let mut rng = StdRng::seed_from_u64(2);
        let msg = build_path(&mut driver, &mut rng);
        let sid = msg.sid;
        driver.launch_construction(&msg, SimTime::from_secs(1));
        driver.run_until(SimTime::from_secs(2));

        // Construct ack: 4 links out + 4 links back at 20 ms each.
        assert_eq!(driver.world.events.established.len(), 1);
        assert_eq!(driver.world.events.established[0].0, sid);
        assert_eq!(
            SimTime(driver.world.events.established[0].1),
            SimTime::from_secs(1) + SimDuration::from_millis(160)
        );

        // Payload ack beats its deadline: the timer is cancelled.
        let out = send(&mut driver, MessageId(9), b"hi", (1, 1), &mut rng);
        driver.launch_payload(&out[0], SimTime::from_secs(2));
        driver.arm_ack_timer(MessageId(9), 0, SimTime::from_secs(3));
        driver.run_until(SimTime::from_secs(5));
        assert_eq!(driver.world.events.acks.len(), 1);
        assert_eq!(driver.world.events.acks[0].0, MessageId(9));
        assert_eq!(
            SimTime(driver.world.events.acks[0].2),
            SimTime::from_secs(2) + SimDuration::from_millis(160)
        );
        assert!(driver.world.events.ack_timeouts.is_empty());
        assert_eq!(driver.engine.counters().cancelled, 1, "timer cancelled");
    }

    /// A driver with auto-ack over `always_up(8)` whose initiator holds
    /// the path 1 → 2 → 3 → 7, formed by `t = 1 s`, and has sent the
    /// two-segment message 9 over it at 1 s (both acks home at 1.16 s).
    fn one_path_one_message() -> (Driver, StreamId) {
        let (schedule, latency) = always_up(8);
        let mut driver = Driver::new(8, schedule, latency, NodeId(0), 1).with_auto_ack();
        let mut rng = StdRng::seed_from_u64(8);
        let msg = build_path(&mut driver, &mut rng);
        driver.launch_construction(&msg, SimTime::ZERO);
        driver.run_until(SimTime::from_secs(1));
        assert_eq!(driver.world.initiator.established(), 1, "formed");
        for segment in send(&mut driver, MessageId(9), b"booked", (1, 2), &mut rng) {
            driver.launch_payload(&segment, SimTime::from_secs(1));
        }
        (driver, msg.sid)
    }

    #[test]
    fn an_ack_is_booked_in_the_initiators_ledger_when_it_arrives() {
        let (mut driver, _) = one_path_one_message();
        let mid = MessageId(9);
        assert_eq!(driver.world.initiator.missing(mid), [0, 1]);
        driver.run_until(SimTime::from_secs(2));
        assert!(driver.world.initiator.missing(mid).is_empty());
        assert!(driver.world.initiator.is_complete(mid));
    }

    #[test]
    fn an_ack_on_a_dropped_path_is_one_stateless_drop() {
        let (mut driver, sid) = one_path_one_message();
        let mid = MessageId(9);
        // Both segments are delivered at 1.08 s; their acks are on the
        // way back when the initiator gives the path up.
        driver.run_until(SimTime::from_secs(1) + SimDuration::from_millis(100));
        assert_eq!(driver.world.events.deliveries.len(), 2);
        assert!(driver.world.initiator.drop_path(sid));
        let drops = driver.world.events.stateless_drops;
        driver.run_until(SimTime::from_secs(2));
        assert_eq!(
            driver.world.events.stateless_drops,
            drops + 2,
            "one per ack"
        );
        assert!(driver.world.events.acks.is_empty());
        assert_eq!(
            driver.world.initiator.missing(mid),
            [0, 1],
            "ledger untouched"
        );
    }

    #[test]
    fn each_launched_construction_registers_one_path() {
        let (schedule, latency) = always_up(12);
        let mut driver = Driver::new(12, schedule, latency, NodeId(0), 3).with_observation();
        let mut rng = StdRng::seed_from_u64(4);
        let mut launched = Vec::new();
        for (relays, at) in [([1u32, 2, 3], 0), ([4, 5, 6], 2)].map(|(r, s)| (r.map(NodeId), s)) {
            driver.run_until(SimTime::from_secs(at));
            let hops = [driver.world.hops(&relays, NodeId(11))];
            let msg = driver
                .world
                .initiator
                .construct_paths(&hops, &mut rng)
                .remove(0);
            driver.launch_construction(&msg, SimTime::from_secs(at + 1));
            launched.push((msg.sid, relays.to_vec(), SimTime::from_secs(at)));
        }
        let log = driver.take_observations().expect("tap attached");
        let registered: Vec<_> = log
            .constructions
            .iter()
            .map(|c| (c.sid, c.relays.clone(), c.at))
            .collect();
        assert_eq!(registered, launched, "one each, stamped at launch");
        assert!(log.constructions.iter().all(|c| c.initiator == NodeId(0)));
    }

    #[test]
    fn ack_deadline_fires_when_the_path_never_formed() {
        let (schedule, latency) = always_up(8);
        let mut driver = Driver::new(8, schedule, latency, NodeId(0), 1).with_auto_ack();
        let mut rng = StdRng::seed_from_u64(3);
        build_path(&mut driver, &mut rng);
        // Never launch the construction: the payload dies statelessly and
        // the deadline fires.
        let out = send(&mut driver, MessageId(7), b"x", (1, 1), &mut rng);
        driver.launch_payload(&out[0], SimTime::from_secs(1));
        driver.arm_ack_timer(MessageId(7), 0, SimTime::from_secs(2));
        driver.run_until(SimTime::from_secs(5));
        assert!(driver.world.events.acks.is_empty());
        assert_eq!(driver.world.events.ack_timeouts.len(), 1);
        assert_eq!(driver.world.events.ack_timeouts[0].0, MessageId(7));
        assert_eq!(
            SimTime(driver.world.events.ack_timeouts[0].2),
            SimTime::from_secs(2)
        );
        assert!(driver.world.events.stateless_drops >= 1);
    }

    #[test]
    fn link_drop_faults_eat_traffic_without_touching_churn_loss() {
        let (schedule, latency) = always_up(8);
        let faults = FaultPlan::new(
            8,
            FaultConfig {
                link_drop: 1.0,
                ..FaultConfig::NONE
            },
            SimTime::from_secs(10_000),
            7,
        );
        let mut driver = Driver::new(8, schedule, latency, NodeId(0), 1).with_faults(faults);
        let mut rng = StdRng::seed_from_u64(4);
        let msg = build_path(&mut driver, &mut rng);
        driver.launch_construction(&msg, SimTime::from_secs(1));
        driver.run_until(SimTime::from_secs(5));
        assert_eq!(driver.world.events.constructions.len(), 0);
        assert_eq!(driver.world.fault_drops, 1, "died on the first link");
        assert_eq!(driver.world.lost, 0, "no churn losses involved");
    }

    #[test]
    fn crash_restart_wipes_relay_state() {
        let (schedule, latency) = always_up(8);
        // Mean one crash per second: by t = 500 s every relay on the path
        // has crashed at least once since construction.
        let faults = FaultPlan::new(
            8,
            FaultConfig {
                crashes_per_hour: 3600.0,
                ..FaultConfig::NONE
            },
            SimTime::from_secs(1_000),
            11,
        );
        let mut driver = Driver::new(8, schedule, latency, NodeId(0), 1).with_faults(faults);
        let mut rng = StdRng::seed_from_u64(5);
        let msg = build_path(&mut driver, &mut rng);
        driver.launch_construction(&msg, SimTime::from_millis(1));
        driver.run_until(SimTime::from_secs(1));

        let out = send(&mut driver, MessageId(1), b"x", (1, 1), &mut rng);
        driver.launch_payload(&out[0], SimTime::from_secs(500));
        driver.run_until(SimTime::from_secs(600));
        assert!(driver.world.crash_wipes > 0, "crashes were applied");
        assert_eq!(driver.world.events.deliveries.len(), 0);
        assert!(
            driver.world.events.stateless_drops >= 1,
            "payload died at a crashed relay"
        );
    }

    #[test]
    fn empty_fault_plan_changes_nothing() {
        let (schedule, latency) = always_up(12);
        let paths = [
            vec![NodeId(1), NodeId(2), NodeId(3)],
            vec![NodeId(4), NodeId(5), NodeId(6)],
        ];
        let times = [(MessageId(5), SimTime::from_secs(2))];
        let run = |faulted: bool| {
            let (schedule, latency) = (schedule.clone(), latency.clone());
            let mut driver = Driver::new(12, schedule, latency, NodeId(0), 3);
            if faulted {
                driver = driver.with_faults(FaultPlan::none());
            }
            let mut rng = StdRng::seed_from_u64(0x51ed ^ 3);
            let hop_lists: Vec<Vec<(NodeId, PublicKey)>> = paths
                .iter()
                .map(|p| driver.world.hops(p, NodeId(11)))
                .collect();
            for msg in driver.world.initiator.construct_paths(&hop_lists, &mut rng) {
                driver.launch_construction(&msg, SimTime::from_secs(1));
            }
            let payload = vec![0xEEu8; 1024];
            for &(mid, at) in &times {
                let out = send(&mut driver, mid, &payload, (1, 2), &mut rng);
                for msg in &out {
                    driver.launch_payload(msg, at);
                }
            }
            driver.run_until(SimTime::from_secs(100));
            (
                driver.engine.counters(),
                driver
                    .world
                    .events
                    .deliveries
                    .iter()
                    .map(|d| d.2)
                    .collect::<Vec<_>>(),
            )
        };
        assert_eq!(run(false), run(true), "empty plan is event-for-event inert");
    }

    #[test]
    fn observation_tap_changes_nothing() {
        // The adversary tap is record-only: attaching it must leave the
        // trajectory event-for-event identical — same engine counters,
        // same delivery times — exactly like FaultPlan::none() and
        // telemetry-off.
        let (schedule, latency) = always_up(12);
        let paths = [
            vec![NodeId(1), NodeId(2), NodeId(3)],
            vec![NodeId(4), NodeId(5), NodeId(6)],
        ];
        let times = [(MessageId(5), SimTime::from_secs(2))];
        let run = |observed: bool| {
            let (schedule, latency) = (schedule.clone(), latency.clone());
            let mut driver = Driver::new(12, schedule, latency, NodeId(0), 3).with_auto_ack();
            if observed {
                driver = driver.with_observation();
            }
            let mut rng = StdRng::seed_from_u64(0x51ed ^ 3);
            let hop_lists: Vec<Vec<(NodeId, PublicKey)>> = paths
                .iter()
                .map(|p| driver.world.hops(p, NodeId(11)))
                .collect();
            let msgs = driver.world.initiator.construct_paths(&hop_lists, &mut rng);
            for msg in &msgs {
                driver.launch_construction(msg, SimTime::from_secs(1));
            }
            let payload = vec![0xEEu8; 1024];
            for &(mid, at) in &times {
                let out = send(&mut driver, mid, &payload, (1, 2), &mut rng);
                for msg in &out {
                    driver.launch_payload(msg, at);
                }
            }
            driver.run_until(SimTime::from_secs(100));
            let obs = driver.take_observations();
            if observed {
                let log = obs.expect("tap attached");
                assert!(!log.packets.is_empty(), "link crossings observed");
                assert_eq!(log.constructions.len(), paths.len());
                assert!(
                    log.packets.iter().any(|p| p.ingress) && log.packets.iter().any(|p| !p.ingress),
                    "both directions observed"
                );
            } else {
                assert!(obs.is_none());
            }
            (
                driver.engine.counters(),
                driver
                    .world
                    .events
                    .deliveries
                    .iter()
                    .map(|d| d.2)
                    .collect::<Vec<_>>(),
                driver.world.events.acks.len(),
            )
        };
        assert_eq!(run(false), run(true), "the tap is event-for-event inert");
    }

    #[test]
    fn release_tears_down_relay_state_hop_by_hop() {
        let (schedule, latency) = always_up(8);
        let mut driver = Driver::new(8, schedule, latency, NodeId(0), 1);
        let mut rng = StdRng::seed_from_u64(6);
        let msg = build_path(&mut driver, &mut rng);
        let sid = msg.sid;
        driver.launch_construction(&msg, SimTime::from_secs(1));
        driver.run_until(SimTime::from_secs(2));
        assert_eq!(driver.world.events.constructions.len(), 1);

        driver.launch_release(NodeId(1), sid, SimTime::from_secs(3));
        driver.run_until(SimTime::from_secs(4));
        for node in [1u32, 2, 3, 7] {
            assert_eq!(
                driver.world.relays.get(NodeId(node)).cached_paths(),
                0,
                "node {node} state released"
            );
        }

        // A payload after teardown dies with a stateless drop.
        let out = send(&mut driver, MessageId(2), b"late", (1, 1), &mut rng);
        driver.launch_payload(&out[0], SimTime::from_secs(5));
        driver.run_until(SimTime::from_secs(6));
        assert_eq!(driver.world.events.deliveries.len(), 0);
        assert!(driver.world.events.stateless_drops >= 1);
    }

    #[test]
    fn down_relay_loses_traffic_and_recovery_does_not_resurrect_state() {
        // Build churn where node 2 is down for construction, up later:
        // the path never forms, so even after recovery the payload dies
        // with a stateless drop — the fidelity difference vs the
        // trajectory level that the validation experiment quantifies.
        let n = 8;
        let horizon = SimTime::from_secs(10_000);
        let mut schedule = ChurnSchedule::generate(
            n,
            &LifetimeDistribution::Uniform {
                min_secs: 1.0,
                max_secs: 2.0,
            },
            &LifetimeDistribution::Uniform {
                min_secs: 1.0,
                max_secs: 2.0,
            },
            horizon,
            &mut StdRng::seed_from_u64(9),
        );
        for i in [0usize, 1, 3, 7] {
            schedule.pin_up(NodeId::from(i));
        }
        // Node 2 alternates 1–2 s up/down; find a time it is down.
        let t_down = (0..100)
            .map(|s| SimTime::from_secs_f64(10.0 + s as f64 * 0.25))
            .find(|&t| !schedule.is_up(NodeId(2), t + SimDuration::from_millis(40)))
            .expect("node 2 is down somewhere");
        let latency = LatencyMatrix::uniform(n, SimDuration::from_millis(20));

        let mut driver = Driver::new(n, Arc::new(schedule), Arc::new(latency), NodeId(0), 4);
        let mut rng = StdRng::seed_from_u64(5);
        let msg = build_path(&mut driver, &mut rng);
        driver.launch_construction(&msg, t_down);

        let out = send(&mut driver, MessageId(1), b"x", (1, 1), &mut rng);
        // Send long after node 2 recovered.
        driver.launch_payload(&out[0], t_down + SimDuration::from_secs(600));
        driver.run_until(t_down + SimDuration::from_secs(700));

        assert_eq!(
            driver.world.events.constructions.len(),
            0,
            "construction died at node 2"
        );
        assert_eq!(driver.world.lost, 1, "construction onion lost");
        assert_eq!(driver.world.events.deliveries.len(), 0);
        // The payload reached relay 1 (which has state) then relay 2
        // (which has none): a stateless drop, not a loss.
        assert!(driver.world.events.stateless_drops >= 1);
    }
}
