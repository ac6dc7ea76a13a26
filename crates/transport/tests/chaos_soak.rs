//! Chaos soak: the protocol stack survives deterministic fault
//! injection — relay state wipes, frame drops, delays and corruption —
//! without ever losing an acked message, and two runs under the same
//! chaos seed agree event for event.
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
use transport::{
    ChaosConfig, ChaosPlan, ChaosTransport, PolicyConfig, Priority, ProtocolNode, Roster, Runtime,
    SimTransport, Transport,
};

const N: usize = 12;
const RESPONDER: NodeId = NodeId(11);

/// Chaos at soak intensity costs ~44% of round trips; the default
/// 4-retry budget is sized for gentler weather, so the soak initiator
/// runs with a deeper one (the knob exists for exactly this).
const SOAK_RETRIES: u32 = 8;

fn soak_policy() -> PolicyConfig {
    PolicyConfig {
        max_retries: SOAK_RETRIES,
        ..PolicyConfig::default()
    }
}

fn ground_truth() -> (ChurnSchedule, LatencyMatrix) {
    (
        ChurnSchedule::always_up(N, SimTime::from_secs(1 << 20)),
        LatencyMatrix::uniform(N, SimDuration::from_millis(20)),
    )
}

fn paths() -> [Vec<NodeId>; 2] {
    [
        vec![NodeId(1), NodeId(2), NodeId(3)],
        vec![NodeId(4), NodeId(5), NodeId(6)],
    ]
}

/// Build the 12-node world over `transport`, with long relay TTLs so
/// sim-time soaks outlive the 120 s production default.
fn build_world<T: Transport>(transport: T, seed: u64) -> Runtime<T> {
    let mut rt = Runtime::new(transport);
    let mut keyrng = StdRng::seed_from_u64(seed ^ 0x5eed);
    for i in 0..N {
        let id = NodeId::from(i);
        let mut node = ProtocolNode::new(
            id,
            sim_crypto::KeyPair::generate(&mut keyrng),
            seed ^ ((i as u64) << 3),
        )
        .with_state_ttl(SimDuration::from_secs(1 << 16));
        if id == RESPONDER {
            node = node
                .with_auto_ack()
                .with_codec(Box::new(ErasureCodec::new(1, 2).unwrap()));
        }
        if id == NodeId(0) {
            node = node
                .with_codec(Box::new(ErasureCodec::new(1, 2).unwrap()))
                .with_policy(&soak_policy());
        }
        rt.add_node(node);
    }
    let hop_lists: Vec<Vec<_>> = paths()
        .iter()
        .map(|p| {
            p.iter()
                .chain(std::iter::once(&RESPONDER))
                .map(|&h| (h, rt.node(h).public_key()))
                .collect()
        })
        .collect();
    rt.drive(NodeId(0), |node, out| node.construct_paths(&hop_lists, out));
    rt.run_until_idle(0);
    rt
}

/// Every observable protocol event of one run, digestible for the
/// run-twice determinism comparison.
#[derive(Debug, PartialEq, Eq)]
struct Digest {
    completions: Vec<(u64, bool)>,
    acks: Vec<(u64, usize, u64)>,
    deliveries: Vec<(u64, usize, u64)>,
    retransmits: u64,
    ack_timeouts: usize,
    injected: u64,
}

/// Drive `rounds` messages through a chaos-wrapped sim world, wiping a
/// path-0 relay's state every `crash_every` rounds.
fn soak(seed: u64, rounds: u64, crash_every: u64) -> Digest {
    let (schedule, latency) = ground_truth();
    let chaos = ChaosConfig::from_spec("drop=0.05,delay=0.15,delay_max_ms=30,corrupt=0.02")
        .expect("valid spec");
    // Warm up fault-free (construction has no retry machinery of its
    // own), then turn the weather on for the payload soak.
    let transport = ChaosTransport::new(SimTransport::new(schedule, latency), ChaosPlan::none());
    let mut rt = build_world(transport, 77);
    assert_eq!(rt.node(NodeId(0)).established_paths(), 2);
    rt.transport.set_plan(ChaosPlan::new(chaos, seed));

    let mut completions = Vec::new();
    for round in 0..rounds {
        if crash_every > 0 && round % crash_every == crash_every - 1 {
            // Path 0's first relay crashes: its stream state is gone and
            // traffic through it dies statelessly until retries rotate
            // onto path 1 (which stays alive — recovery, not extinction).
            rt.drive(NodeId(1), |node, _| node.crash_relay_state());
        }
        let mid = MessageId(round + 1);
        let body = vec![(round & 0xFF) as u8; 256];
        rt.drive(NodeId(0), |node, out| {
            node.send_message(mid, &body, out).unwrap()
        });
        rt.run_until_idle(0);
        completions.push((mid.0, rt.node(NodeId(0)).message_complete(mid)));
    }

    let init = &rt.node(NodeId(0)).events;
    let resp = &rt.node(RESPONDER).events;
    Digest {
        completions,
        acks: init.acks.iter().map(|&(m, i, at)| (m.0, i, at)).collect(),
        deliveries: resp
            .deliveries
            .iter()
            .map(|&(m, i, at)| (m.0, i, at))
            .collect(),
        retransmits: init.retransmits,
        ack_timeouts: init.ack_timeouts.len(),
        injected: rt.transport.stats().total_injected(),
    }
}

#[test]
fn chaos_soak_recovers_deterministically_without_acked_loss() {
    const ROUNDS: u64 = 30;
    let digest = soak(0xC405, ROUNDS, 7);

    // The chaos plan actually did something.
    assert!(digest.injected > 0, "no faults injected: {digest:?}");
    assert!(digest.ack_timeouts > 0, "faults never cost an ack deadline");
    assert!(digest.retransmits > 0, "recovery machinery never engaged");

    // Zero acked-message loss: every ack the initiator holds corresponds
    // to a delivery the responder actually recorded (authenticated
    // reverse onions make forgery impossible; this checks accounting).
    for &(mid, index, _) in &digest.acks {
        assert!(
            digest
                .deliveries
                .iter()
                .any(|&(m, i, _)| m == mid && i == index),
            "ack for (mid={mid}, index={index}) without a delivery"
        );
    }

    // Under 1-of-2 erasure coding with one pristine path, chaos may slow
    // rounds down but most must still complete end to end.
    let completed = digest.completions.iter().filter(|&&(_, c)| c).count();
    assert!(
        completed * 10 >= ROUNDS as usize * 8,
        "only {completed}/{ROUNDS} rounds completed: {:?}",
        digest.completions
    );

    // Bounded retry storms: the retransmit budget caps total retries.
    assert!(
        digest.retransmits <= ROUNDS * 2 * SOAK_RETRIES as u64,
        "retry storm: {} retransmits",
        digest.retransmits
    );

    // Determinism: the identical seed replays the identical soak.
    assert_eq!(digest, soak(0xC405, ROUNDS, 7), "soak is not deterministic");
    // And a different seed genuinely reshuffles the faults.
    assert_ne!(digest, soak(0xC406, ROUNDS, 7), "seed has no effect");
}

#[test]
fn empty_chaos_plan_is_byte_inert_end_to_end() {
    let run = |wrap: bool| {
        let (schedule, latency) = ground_truth();
        let sim = SimTransport::new(schedule, latency);
        // Outcome tuple: (events digest, delivered frames, wire bytes).
        if wrap {
            let mut rt = build_world(ChaosTransport::new(sim, ChaosPlan::none()), 5);
            drive_one_message(&mut rt);
            assert_eq!(rt.transport.stats().total_injected(), 0);
            digest_world(&rt, rt.transport.inner().delivered(), {
                rt.transport.inner().wire_bytes()
            })
        } else {
            let mut rt = build_world(sim, 5);
            drive_one_message(&mut rt);
            digest_world(&rt, rt.transport.delivered(), rt.transport.wire_bytes())
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

fn digest_world<T: Transport>(rt: &Runtime<T>, delivered: u64, wire_bytes: u64) -> WorldDigest {
    let init = &rt.node(NodeId(0)).events;
    let resp = &rt.node(RESPONDER).events;
    (
        init.acks.iter().map(|&(m, i, at)| (m.0, i, at)).collect(),
        resp.deliveries
            .iter()
            .map(|&(m, i, at)| (m.0, i, at))
            .collect(),
        delivered,
        wire_bytes,
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
