//! SimTransport ≡ Driver: the protocol stack behind the `Transport`
//! trait reproduces the event-driven driver's outcomes record for
//! record, at identical (relative) simulated times.
//!
//! The two executions share ground truth (churn schedule, latency
//! matrix) but not randomness — stream ids and keys differ — so the
//! equivalence claim is over the *observable protocol events*:
//! construction completions, path establishments, deliveries and acks,
//! each at its exact microsecond offset from launch, plus the loss
//! counters. Timing in both layers is a pure function of topology and
//! the latency matrix, so any divergence (an extra hop, a missing ack,
//! a reordered arrival) shows up as a changed offset or count. Both
//! layers write the same `Events` record, so one projection reads both,
//! and both count the same events into `protocol_events_total`.

use anon_core::driver::Driver;
use anon_core::endpoint::Initiator;
use anon_core::events::Events;
use anon_core::instrument::ProtocolTelemetry;
use anon_core::MessageId;
use erasure::ErasureCodec;
use rand::rngs::StdRng;
use rand::SeedableRng;
use simnet::{ChurnSchedule, LatencyMatrix, NodeId, SimDuration, SimTime};
use std::collections::BTreeMap;
use telemetry::{Registry, SnapshotValue};
use transport::{ProtocolNode, Runtime, SimTransport, Transport};

const OWD_MS: u64 = 20;

fn ground_truth(n: usize) -> (ChurnSchedule, LatencyMatrix) {
    let horizon = SimTime::from_secs(10_000);
    (
        ChurnSchedule::always_up(n, horizon),
        LatencyMatrix::uniform(n, SimDuration::from_millis(OWD_MS)),
    )
}

/// Observable outcome of one scenario, with times relative to launch.
#[derive(Debug, Default, PartialEq, Eq)]
struct Outcome {
    /// Sorted Δt of construction completions at the responder.
    constructions: Vec<u64>,
    /// Sorted Δt of path establishments at the initiator.
    established: Vec<u64>,
    /// Sorted (index, Δt from payload send) of responder deliveries.
    deliveries: Vec<(usize, u64)>,
    /// Sorted (index, Δt from payload send) of initiator acks.
    acks: Vec<(usize, u64)>,
    lost: u64,
    stateless_drops: u64,
}

/// The outcome `records` hold, constructions launched at `t0` µs and the
/// payload at `t1`: one record for a driver's whole world, one per node
/// for a transport run.
fn outcome<'a>(records: impl IntoIterator<Item = &'a Events>, t0: u64, t1: u64) -> Outcome {
    let mut o = Outcome::default();
    for e in records {
        o.constructions
            .extend(e.constructions.iter().map(|&(_, _, at)| at - t0));
        o.established
            .extend(e.established.iter().map(|&(_, at)| at - t0));
        o.deliveries
            .extend(e.deliveries.iter().map(|&(_, index, at)| (index, at - t1)));
        o.acks
            .extend(e.acks.iter().map(|&(_, index, at)| (index, at - t1)));
        o.stateless_drops += e.stateless_drops;
    }
    o.constructions.sort_unstable();
    o.established.sort_unstable();
    o.deliveries.sort_unstable();
    o.acks.sort_unstable();
    o
}

/// `protocol_events_total` per `kind` label, summed over `node` labels.
fn kind_totals(registry: &Registry) -> BTreeMap<String, u64> {
    let mut totals = BTreeMap::new();
    for (id, value) in registry.snapshot().entries() {
        let (true, SnapshotValue::Counter(v)) = (id.name() == "protocol_events_total", value)
        else {
            continue;
        };
        let kind = id.labels().iter().find(|(k, _)| k == "kind");
        *totals
            .entry(kind.expect("kind label").1.clone())
            .or_default() += v;
    }
    totals
}

/// Run the scenario through the event-driven driver, counting into
/// `registry`.
fn run_driver(
    n: usize,
    paths: &[Vec<NodeId>],
    responder: NodeId,
    m: usize,
    segs: usize,
    seed: u64,
    registry: &Registry,
) -> Outcome {
    let (schedule, latency) = ground_truth(n);
    let t0 = SimTime::from_secs(1);
    let mut driver = Driver::new(n, schedule, latency, NodeId(0), seed).with_auto_ack();
    driver.attach_telemetry(registry);
    let mut initiator = Initiator::new(NodeId(0));
    let mut rng = StdRng::seed_from_u64(seed ^ 0xfeed);
    let hop_lists: Vec<Vec<_>> = paths
        .iter()
        .map(|p| driver.world.hops(p, responder))
        .collect();
    for msg in initiator.construct_paths(&hop_lists, &mut rng) {
        driver.launch_construction(&msg, t0);
    }
    for p in initiator.paths() {
        driver.register_path(p.sid, p.plan.clone());
    }
    driver.run_until(SimTime::from_secs(5));

    assert!(
        !driver.world.events.established.is_empty(),
        "paths established"
    );
    // `run_until` advanced the clock to exactly 5 s; launch the payload
    // there. (The transport run launches at its own `now`; the deltas
    // below are relative to each run's launch instant, so the two are
    // comparable.)
    let t1 = SimTime::from_secs(5);
    let codec = ErasureCodec::new(m, segs).unwrap();
    let out = initiator
        .send_message(MessageId(9), &vec![0xEE; 512], &codec, None, &mut rng)
        .unwrap();
    for msg in &out {
        driver.launch_payload(msg, t1);
    }
    driver.run_until(SimTime::from_secs(20));
    Outcome {
        lost: driver.world.lost,
        ..outcome([&driver.world.events], t0.as_micros(), t1.as_micros())
    }
}

/// Run the same scenario through `Runtime` + `SimTransport`, every node
/// counting into `registry` under its own `node` label.
fn run_transport(
    n: usize,
    paths: &[Vec<NodeId>],
    responder: NodeId,
    m: usize,
    segs: usize,
    seed: u64,
    registry: &Registry,
) -> Outcome {
    let (schedule, latency) = ground_truth(n);
    let mut rt = Runtime::new(SimTransport::new(schedule, latency));
    let mut keyrng = StdRng::seed_from_u64(seed ^ 0x1234);
    for i in 0..n {
        let id = NodeId::from(i);
        let keypair = sim_crypto::KeyPair::generate(&mut keyrng);
        let mut node = ProtocolNode::new(id, keypair, seed ^ (i as u64) << 3)
            .with_telemetry(ProtocolTelemetry::register(registry, Some(id)));
        if id == responder {
            node = node.with_auto_ack();
        }
        if id == NodeId(0) {
            node = node.with_codec(Box::new(ErasureCodec::new(m, segs).unwrap()));
        }
        rt.add_node(node);
    }
    let hop_lists: Vec<Vec<_>> = paths
        .iter()
        .map(|p| {
            p.iter()
                .chain(std::iter::once(&responder))
                .map(|&h| (h, rt.node(h).public_key()))
                .collect()
        })
        .collect();
    // t0 is simulated 0: the transport clock starts at the launch.
    rt.drive(NodeId(0), |node, out| node.construct_paths(&hop_lists, out));
    rt.run_until_idle(0);
    let t1 = rt.transport.now_us();
    rt.drive(NodeId(0), |node, out| {
        node.send_message(MessageId(9), &vec![0xEE; 512], out)
            .unwrap()
    });
    rt.run_until_idle(0);
    let records = (0..n).map(|i| &rt.node(NodeId::from(i)).events);
    Outcome {
        lost: rt.transport.lost(),
        ..outcome(records, 0, t1)
    }
}

#[test]
fn single_path_round_trip_matches_driver_exactly() {
    let paths = [vec![NodeId(1), NodeId(2), NodeId(3)]];
    let d = run_driver(8, &paths, NodeId(7), 1, 1, 11, &Registry::new());
    let t = run_transport(8, &paths, NodeId(7), 1, 1, 11, &Registry::new());
    assert_eq!(d, t, "driver and transport outcomes diverge");
    // And both match the closed-form timing: 4 links out, 4 back.
    assert_eq!(d.constructions, vec![4 * OWD_MS * 1_000]);
    assert_eq!(d.established, vec![8 * OWD_MS * 1_000]);
    assert_eq!(d.deliveries, vec![(0, 4 * OWD_MS * 1_000)]);
    assert_eq!(d.acks, vec![(0, 8 * OWD_MS * 1_000)]);
    assert_eq!((d.lost, d.stateless_drops), (0, 0));
}

#[test]
fn simera_two_paths_match_driver_exactly() {
    // SimEra(k=2, r=2): 2 segments, either reconstructs; both paths
    // carry one.
    let paths = [
        vec![NodeId(1), NodeId(2), NodeId(3)],
        vec![NodeId(4), NodeId(5), NodeId(6)],
    ];
    let d = run_driver(12, &paths, NodeId(11), 1, 2, 23, &Registry::new());
    let t = run_transport(12, &paths, NodeId(11), 1, 2, 23, &Registry::new());
    assert_eq!(d, t, "driver and transport outcomes diverge");
    assert_eq!(d.constructions.len(), 2);
    assert_eq!(d.established.len(), 2);
    assert_eq!(d.deliveries.len(), 2);
    assert_eq!(d.acks.len(), 2);
}

#[test]
fn both_executors_count_the_same_events() {
    // Kinds only one executor records: the driver's link crossings and
    // path registrations; the node's reassembly and retransmits; the
    // runner's erasure outcomes.
    const ONE_SIDED: [&str; 7] = [
        "sent",
        "arrived",
        "path_registered",
        "completed",
        "retransmitted",
        "decoded",
        "undecodable",
    ];
    let paths = [
        vec![NodeId(1), NodeId(2), NodeId(3)],
        vec![NodeId(4), NodeId(5), NodeId(6)],
    ];
    let (sim, live) = (Registry::new(), Registry::new());
    run_driver(12, &paths, NodeId(11), 1, 2, 23, &sim);
    run_transport(12, &paths, NodeId(11), 1, 2, 23, &live);
    let (d, t) = (kind_totals(&sim), kind_totals(&live));
    assert_eq!(
        d.keys().collect::<Vec<_>>(),
        t.keys().collect::<Vec<_>>(),
        "the same kind labels"
    );
    for (kind, total) in &d {
        if !ONE_SIDED.contains(&kind.as_str()) {
            assert_eq!(t[kind], *total, "{kind}");
        }
    }
    for kind in ["constructed", "established", "delivered", "acked"] {
        assert_eq!(d[kind], 2, "{kind}: one per path");
    }
}

#[test]
fn frames_on_simulated_links_are_real_bytes() {
    // The simulated transport routes every frame through the byte codec;
    // a clean run therefore proves the encoded bytes carry the whole
    // protocol (this is the property that transfers to TCP).
    let paths = [vec![NodeId(1), NodeId(2), NodeId(3)]];
    let (schedule, latency) = ground_truth(8);
    let mut rt = Runtime::new(SimTransport::new(schedule, latency));
    let mut keyrng = StdRng::seed_from_u64(7);
    for i in 0..8usize {
        let id = NodeId::from(i);
        let mut node = ProtocolNode::new(
            id,
            sim_crypto::KeyPair::generate(&mut keyrng),
            70 + i as u64,
        );
        if id == NodeId(7) {
            node = node.with_auto_ack();
        }
        rt.add_node(node);
    }
    let hop_lists: Vec<Vec<_>> = paths
        .iter()
        .map(|p| {
            p.iter()
                .chain(std::iter::once(&NodeId(7)))
                .map(|&h| (h, rt.node(h).public_key()))
                .collect()
        })
        .collect();
    rt.drive(NodeId(0), |node, out| node.construct_paths(&hop_lists, out));
    rt.run_until_idle(0);
    assert_eq!(rt.node(NodeId(0)).events.established.len(), 1);
    // 4 construction hops + 4 reverse hops crossed links as bytes.
    assert_eq!(rt.transport.delivered(), 8);
    assert!(rt.transport.wire_bytes() > 0);
}

#[test]
fn retransmit_rotates_to_a_live_path_and_completes() {
    // Recovery machinery over the Transport trait: path 0's relay state
    // is torn down behind the initiator's back (Release injected at the
    // relays), so segment 0 dies statelessly, its ack deadline fires,
    // and the retransmit rotates onto path 1 — the message still
    // completes end to end.
    let paths = [
        vec![NodeId(1), NodeId(2), NodeId(3)],
        vec![NodeId(4), NodeId(5), NodeId(6)],
    ];
    let responder = NodeId(11);
    let (schedule, latency) = ground_truth(12);
    let mut rt = Runtime::new(SimTransport::new(schedule, latency));
    let mut keyrng = StdRng::seed_from_u64(31);
    for i in 0..12usize {
        let id = NodeId::from(i);
        let mut node = ProtocolNode::new(
            id,
            sim_crypto::KeyPair::generate(&mut keyrng),
            400 + i as u64,
        );
        if id == responder {
            node = node
                .with_auto_ack()
                .with_codec(Box::new(ErasureCodec::new(1, 2).unwrap()));
        }
        if id == NodeId(0) {
            node = node.with_codec(Box::new(ErasureCodec::new(1, 2).unwrap()));
        }
        rt.add_node(node);
    }
    let hop_lists: Vec<Vec<_>> = paths
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
    assert_eq!(rt.node(NodeId(0)).established_paths(), 2);

    // Kill path 0 at the relays only: inject a Release without touching
    // the initiator's local path state (simulating a silent failure).
    let (sid0, first_hop, _) = rt.node(NodeId(0)).paths()[0];
    rt.drive(NodeId(0), |_, out| {
        out.push(transport::Output::Send {
            to: first_hop,
            frame: anon_core::wire::Frame::Stream {
                sid: sid0,
                wire: anon_core::wire::Wire::Release,
            },
        })
    });
    rt.run_until_idle(0);

    let mid = MessageId(77);
    rt.drive(NodeId(0), |node, out| {
        node.send_message(mid, b"resilient message", out).unwrap()
    });
    rt.run_until_idle(0);

    let init = &rt.node(NodeId(0)).events;
    assert!(
        init.ack_timeouts
            .iter()
            .any(|&(m, i, _)| m == mid && i == 0),
        "segment 0's deadline fired: {:?}",
        init.ack_timeouts
    );
    assert!(init.retransmits >= 1, "a retransmit was sent");
    assert!(
        rt.node(NodeId(0)).message_complete(mid),
        "message completed after rotation (acks: {:?})",
        init.acks
    );
    // The responder reassembled the message despite the dead path.
    let resp = &rt.node(responder).events;
    assert_eq!(resp.completed.len(), 1);
    assert_eq!(resp.completed[0].1, b"resilient message".to_vec());
    // Segment 0 died at relay 1 (stateless), then travelled path 1.
    assert!(rt.node(NodeId(1)).events.stateless_drops >= 1);
}
