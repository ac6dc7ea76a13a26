//! The chaos soak: hundreds of message rounds through the live protocol
//! stack (`ProtocolNode` over `SimTransport`) under deterministic fault
//! injection — drops, delays, corruption, link resets — with a relay's
//! state wiped on a schedule. It is the live-stack check of the paper's
//! §4.7 claim: under the same weather, 2-of-4 coding over four paths
//! completes nearly every message and a single CurMix path does not.
//!
//! One world builder ([`build_world`]), one soak loop ([`soak`]) that
//! returns a [`Digest`], and one [`check`] that states the invariants
//! every soak digest must satisfy. The runs are deterministic, so the
//! seed-42 comparison is pinned to exact counts; the 2 000-round case is
//! `#[ignore]`d here and runs in release
//! (`cargo test --release -p transport --test chaos_soak -- --ignored`).
//!
//! Also pins the inertness contract: a [`ChaosTransport`] with an empty
//! plan is byte-identical to the bare transport (the `FaultPlan::none()`
//! precedent), and the live backend's bounded queue sheds cover traffic
//! first under overload.

use anon_core::MessageId;
use erasure::ErasureCodec;
use rand::rngs::StdRng;
use rand::SeedableRng;
use simnet::{ChurnSchedule, LatencyMatrix, NodeId, SimDuration, SimTime};
use std::collections::HashSet;
use transport::{
    ChaosConfig, ChaosPlan, ChaosStats, ChaosTransport, PolicyConfig, Priority, ProtocolNode,
    Roster, Runtime, SimTransport, Transport,
};

/// The soak's weather: moderate drops, delays and corruption plus link
/// reset windows (the `simnet::fault` duty-cycle discipline).
const WEATHER: &str =
    "drop=0.03,delay=0.1,delay_max_ms=25,corrupt=0.01,resets_per_hour=30,reset_window_ms=2000";

/// A relay crash every this many rounds.
const CRASH_EVERY: u64 = 50;

/// The initiator's retry budget. The weather costs about one round trip
/// in four, so it is deeper than the default the knob exists to change.
const SOAK_RETRIES: u32 = 8;

/// A soak world's shape: `paths` disjoint relay chains from the initiator
/// (node 0) to one responder (the last node), coded `need`-of-`total`.
struct Topology {
    paths: Vec<Vec<NodeId>>,
    need: usize,
    total: usize,
}

impl Topology {
    /// SimEra: 2-of-4 erasure coding over four disjoint 3-relay paths.
    fn era() -> Self {
        Topology {
            paths: (0..4)
                .map(|p| (0..3).map(|h| NodeId(1 + p * 3 + h)).collect())
                .collect(),
            need: 2,
            total: 4,
        }
    }

    /// CurMix: one 3-relay path, no redundancy.
    fn curmix() -> Self {
        Topology {
            paths: vec![(1..=3).map(NodeId).collect()],
            need: 1,
            total: 1,
        }
    }

    /// Initiator, relays and responder.
    fn nodes(&self) -> usize {
        2 + self.paths.iter().map(Vec::len).sum::<usize>()
    }

    fn responder(&self) -> NodeId {
        NodeId::from(self.nodes() - 1)
    }

    /// The fault-free transport the world starts on: every node always
    /// up, 20 ms one-way delay on every link.
    fn sim(&self) -> SimTransport {
        let n = self.nodes();
        SimTransport::new(
            ChurnSchedule::always_up(n, SimTime::from_secs(1 << 22)),
            LatencyMatrix::uniform(n, SimDuration::from_millis(20)),
        )
    }
}

/// What a world is drawn from besides its topology.
struct Seeds {
    /// Seeds the one RNG every node's key pair is drawn from, in id order.
    key: u64,
    /// Node `i`'s protocol RNG is seeded with `node ^ (i << 3)`.
    node: u64,
    /// Relay path-state TTL, seconds: long, so a soak in simulated time
    /// outlives the 120 s production default.
    state_ttl_secs: u64,
}

const SOAK_SEEDS: Seeds = Seeds {
    key: 0x5eed,
    node: 0xA0,
    state_ttl_secs: 1 << 20,
};

/// Build `topo` over `transport` and establish every path. The initiator
/// and the responder run the topology's codec; the responder acks.
fn build_world<T: Transport>(transport: T, topo: &Topology, seeds: &Seeds) -> Runtime<T> {
    let responder = topo.responder();
    let codec = || Box::new(ErasureCodec::new(topo.need, topo.total).unwrap());
    let policy = PolicyConfig {
        max_retries: SOAK_RETRIES,
        ..PolicyConfig::default()
    };
    let mut rt = Runtime::new(transport);
    let mut keyrng = StdRng::seed_from_u64(seeds.key);
    for i in 0..topo.nodes() {
        let id = NodeId::from(i);
        let keys = sim_crypto::KeyPair::generate(&mut keyrng);
        let mut node = ProtocolNode::new(id, keys, seeds.node ^ ((i as u64) << 3))
            .with_state_ttl(SimDuration::from_secs(seeds.state_ttl_secs));
        if id == responder {
            node = node.with_auto_ack().with_codec(codec());
        }
        if id == NodeId(0) {
            node = node.with_codec(codec()).with_policy(&policy);
        }
        rt.add_node(node);
    }
    let hop_lists: Vec<Vec<_>> = topo
        .paths
        .iter()
        .map(|p| {
            p.iter()
                .chain(std::iter::once(&responder))
                .map(|&h| (h, rt.node(h).public_key()))
                .collect()
        })
        .collect();
    rt.drive(NodeId(0), |node, out| node.construct_paths(&hop_lists, out));
    rt.run_until_idle(0);
    assert_eq!(
        rt.node(NodeId(0)).established_paths(),
        topo.paths.len(),
        "fault-free warm-up must establish every path"
    );
    rt
}

/// Every observable protocol event of one soak, comparable across
/// replays.
#[derive(Debug, PartialEq, Eq)]
struct Digest {
    rounds: u64,
    /// Coded segments per message (the topology's `total`).
    segments: u64,
    /// Per round: whether its message completed before the next began.
    completions: Vec<bool>,
    /// `(mid, index, at_us)` of every ack the initiator booked.
    acks: Vec<(u64, usize, u64)>,
    /// `(mid, index, at_us)` of every segment the responder delivered.
    deliveries: Vec<(u64, usize, u64)>,
    retransmits: u64,
    ack_timeouts: u64,
    chaos: ChaosStats,
}

impl Digest {
    fn completed(&self) -> u64 {
        self.completions.iter().filter(|&&c| c).count() as u64
    }

    /// `[injected, drop, corrupt, delay, reset]`; `corrupt` counts both
    /// corruptions that decoded and those that killed the frame.
    fn faults(&self) -> [u64; 5] {
        let c = &self.chaos;
        [
            c.total_injected(),
            c.dropped,
            c.corrupted + c.corrupt_dropped,
            c.delayed,
            c.reset_drops,
        ]
    }
}

/// Warm `topo` up fault-free (construction has no retry machinery), turn
/// the [`WEATHER`] on under `seed`, then send one 256-byte message per
/// round and run to idle. Every [`CRASH_EVERY`] rounds path 0's first
/// relay loses its state: a crash without restart for that path, which
/// multipath coding routes around and a single path cannot.
fn soak(topo: &Topology, rounds: u64, seed: u64) -> Digest {
    let chaos = ChaosConfig::from_spec(WEATHER).unwrap();
    let transport = ChaosTransport::new(topo.sim(), ChaosPlan::none());
    let mut rt = build_world(transport, topo, &SOAK_SEEDS);
    rt.transport.set_plan(ChaosPlan::new(chaos, seed));

    let sacrificial = topo.paths[0][0];
    let mut completions = Vec::new();
    for round in 0..rounds {
        if round % CRASH_EVERY == CRASH_EVERY - 1 {
            rt.drive(sacrificial, |node, _| node.crash_relay_state());
        }
        let mid = MessageId(round + 1);
        let body = vec![(round & 0xFF) as u8; 256];
        rt.drive(NodeId(0), |node, out| {
            node.send_message(mid, &body, out).unwrap()
        });
        rt.run_until_idle(0);
        completions.push(rt.node(NodeId(0)).message_complete(mid));
    }

    let init = &rt.node(NodeId(0)).events;
    let resp = &rt.node(topo.responder()).events;
    Digest {
        rounds,
        segments: topo.total as u64,
        completions,
        acks: entries(&init.acks),
        deliveries: entries(&resp.deliveries),
        retransmits: init.retransmits,
        ack_timeouts: init.ack_timeouts.len() as u64,
        chaos: rt.transport.stats(),
    }
}

/// An event log's `(mid, index, at_us)` entries with bare message ids.
fn entries(log: &[(MessageId, usize, u64)]) -> Vec<(u64, usize, u64)> {
    log.iter().map(|&(m, i, at)| (m.0, i, at)).collect()
}

/// The soak's invariants (DESIGN.md §13.4), on any digest of a soak whose
/// initiator retries each segment at most `budget` times.
fn check(d: &Digest, budget: u32) {
    // No acked-message loss: every ack the initiator holds maps to a
    // delivery the responder recorded. Reverse onions are authenticated,
    // so a forged ack cannot exist; this checks the accounting.
    let delivered: HashSet<(u64, usize)> = d.deliveries.iter().map(|&(m, i, _)| (m, i)).collect();
    for &(mid, index, _) in &d.acks {
        assert!(
            delivered.contains(&(mid, index)),
            "ack for (mid={mid}, index={index}) without a delivery"
        );
    }
    // Bounded retry storms: the budget caps every segment's retries.
    let cap = d.rounds * d.segments * u64::from(budget);
    assert!(
        d.retransmits <= cap,
        "retry storm: {} retransmits over {} rounds (cap {cap})",
        d.retransmits,
        d.rounds
    );
    // The plan acted, and the faults cost ack deadlines and retransmits.
    assert!(d.chaos.total_injected() > 0, "no faults injected");
    assert!(d.ack_timeouts > 0, "faults never cost an ack deadline");
    assert!(d.retransmits > 0, "recovery machinery never engaged");
}

/// `(completed, retransmits, ack timeouts)` of one configuration.
type Outcome = (u64, u64, u64);

/// Era against CurMix under the same weather at seed 42: both satisfy
/// [`check`], their outcomes and era's fault tally equal the pinned
/// values, and multipath coding beats the single path by a wide margin.
fn era_vs_curmix(rounds: u64, era_want: Outcome, curmix_want: Outcome, faults_want: [u64; 5]) {
    let outcome = |d: &Digest| (d.completed(), d.retransmits, d.ack_timeouts);
    let era = soak(&Topology::era(), rounds, 42);
    check(&era, SOAK_RETRIES);
    let curmix = soak(&Topology::curmix(), rounds, 42);
    check(&curmix, SOAK_RETRIES);

    assert_eq!(outcome(&era), era_want, "era");
    assert_eq!(outcome(&curmix), curmix_want, "curmix");
    assert_eq!(era.faults(), faults_want, "era's injected faults");
    // The shape the pins encode, stated on its own.
    assert!(era.completed() * 10 >= rounds * 8, "era delivery collapsed");
    assert!(
        era.completed() * 10 > curmix.completed() * 10 + rounds * 2,
        "multipath coding shows no advantage"
    );
}

/// The same seed replays the same digest; another seed does not.
fn replays(rounds: u64) {
    let digest = soak(&Topology::era(), rounds, 42);
    assert_eq!(
        digest,
        soak(&Topology::era(), rounds, 42),
        "replay diverged"
    );
    assert_ne!(
        digest,
        soak(&Topology::era(), rounds, 43),
        "seed has no effect"
    );
}

#[test]
fn soak_200_rounds_matches_the_pinned_run() {
    era_vs_curmix(
        200,
        (199, 622, 623),
        (49, 1237, 1388),
        [1195, 232, 73, 789, 101],
    );
}

#[test]
fn soak_replays_under_its_seed() {
    replays(200);
}

/// Ten times the tier-1 rounds, with its replays: seconds in release,
/// too slow for the debug suite.
#[test]
#[ignore = "2 000 rounds; run with --release -- --ignored"]
fn soak_2000_rounds_matches_the_pinned_run() {
    era_vs_curmix(
        2_000,
        (1990, 7169, 7179),
        (49, 15637, 17588),
        [12484, 2412, 857, 8158, 1057],
    );
    replays(2_000);
}

#[test]
fn empty_chaos_plan_is_byte_inert_end_to_end() {
    let topo = Topology::era();
    let run = |wrap: bool| {
        // Outcome tuple: (events digest, delivered frames, wire bytes).
        if wrap {
            let transport = ChaosTransport::new(topo.sim(), ChaosPlan::none());
            let mut rt = build_world(transport, &topo, &SOAK_SEEDS);
            drive_one_message(&mut rt);
            assert_eq!(rt.transport.stats().total_injected(), 0);
            digest_world(&rt, &topo, rt.transport.inner())
        } else {
            let mut rt = build_world(topo.sim(), &topo, &SOAK_SEEDS);
            drive_one_message(&mut rt);
            digest_world(&rt, &topo, &rt.transport)
        }
    };
    assert_eq!(run(false), run(true), "empty chaos plan changed behavior");
}

fn drive_one_message<T: Transport>(rt: &mut Runtime<T>) {
    rt.drive(NodeId(0), |node, out| {
        node.send_message(MessageId(1), &[0xAB; 512], out).unwrap()
    });
    rt.run_until_idle(0);
}

/// (acks, deliveries, delivered frames, wire bytes) of one run.
type WorldDigest = (Vec<(u64, usize, u64)>, Vec<(u64, usize, u64)>, u64, u64);

fn digest_world<T: Transport>(rt: &Runtime<T>, topo: &Topology, sim: &SimTransport) -> WorldDigest {
    let init = &rt.node(NodeId(0)).events;
    let resp = &rt.node(topo.responder()).events;
    (
        entries(&init.acks),
        entries(&resp.deliveries),
        sim.delivered(),
        sim.wire_bytes(),
    )
}

#[test]
fn tcp_bounded_queue_sheds_cover_first() {
    use anon_core::wire::Frame;
    use std::sync::Arc;

    // Two free localhost ports: node 0 binds its own, node 1's refuses
    // connections (the listener that reserved it is gone).
    let free_addr = || {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().to_string()
    };
    let mut roster = Roster::new(1);
    roster.policy = PolicyConfig {
        queue_capacity: 4,
        frame_deadline_us: 400_000,
        reconnect_base_us: 50_000,
        reconnect_max_us: 100_000,
        breaker_threshold: 3,
        breaker_cooldown_us: 5_000_000,
        ..PolicyConfig::default()
    };
    roster.insert(NodeId(0), free_addr());
    roster.insert(NodeId(1), free_addr());

    let registry = Arc::new(telemetry::Registry::new());
    let mut t = transport::EventedTransport::bind(NodeId(0), roster).unwrap();
    t.set_telemetry(transport::TcpTelemetry::register(registry.clone()));

    let frame = || Frame::Hello { node: NodeId(0) };
    // Nothing leaves the queue before the first `poll`, so these sends
    // hit it back to back. Fill it: 2 cover + 2 data, then 2 control
    // arrivals must shed exactly the cover frames.
    for prio in [Priority::Cover, Priority::Data, Priority::Control] {
        for _ in 0..2 {
            t.send_prioritized(NodeId(0), NodeId(1), frame(), prio)
                .unwrap();
        }
    }
    let counter =
        |name: &str, labels: &[(&str, &str)]| registry.snapshot().counter_value(name, labels);
    let dropped = || counter("transport_frames_dropped_total", &[("peer", "1")]);
    // Run the loop until the refused connects have cost the queue its
    // frames: the survivors expire at their deadline or fail fast once
    // the breaker opens after 3 failures.
    let deadline = t.now_us() + 5_000_000;
    while dropped() < 6 && t.now_us() < deadline {
        assert!(t.poll(20_000).is_none(), "nothing sends to node 0");
    }

    let shed = |class: &str| {
        counter(
            "transport_frames_shed_total",
            &[("peer", "1"), ("class", class)],
        )
    };
    assert_eq!(shed("cover"), 2, "cover traffic is shed first");
    assert_eq!(shed("data"), 0, "data outlives cover under this load");
    assert_eq!(shed("control"), 0, "control is never the victim here");
    assert!(
        counter("transport_breaker_trips_total", &[("peer", "1")]) >= 1,
        "breaker tripped on the dead peer"
    );
    assert_eq!(
        dropped(),
        6,
        "every undeliverable frame was counted, none lost silently"
    );
}
