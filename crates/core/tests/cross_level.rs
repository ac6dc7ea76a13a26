//! Cross-level fidelity: the trajectory-level [`World`] shortcut must
//! agree with the event-driven message level ([`Driver`] carrying real
//! onions) on identical churn schedules, latency matrices and seeds.
//!
//! This is the `validate` binary's cross-check promoted into `cargo
//! test`: construction outcomes, delivery outcomes on formed paths and
//! their µs-exact timings must match, and `path_fails_at` must agree
//! with the churn ground truth the driver runs on.

use anon_core::driver::Driver;
use anon_core::endpoint::Initiator;
use anon_core::ids::MessageId;
use anon_core::mix::MixStrategy;
use anon_core::sim::{World, WorldConfig};
use erasure::ErasureCodec;
use rand::rngs::StdRng;
use rand::SeedableRng;
use simnet::{LifetimeDistribution, NodeId, SimDuration, SimTime};

fn validation_world() -> World {
    let cfg = WorldConfig {
        n: 96,
        l: 3,
        avg_rtt_ms: 152.0,
        lifetime: LifetimeDistribution::pareto_with_median(900.0),
        downtime: LifetimeDistribution::pareto_with_median(900.0),
        horizon: SimTime::from_secs(7200),
        schedule_margin: SimDuration::from_secs(3600),
        membership: Default::default(),
        topology: simnet::TopologyKind::King,
        churn_events: Vec::new(),
        seed: 424242,
    };
    let mut world = World::new(cfg);
    world.pin_up(&[NodeId(0), NodeId(1)]);
    world
}

#[test]
fn trajectory_level_matches_driver_ground_truth() {
    let initiator_id = NodeId(0);
    let responder_id = NodeId(1);
    let mut world = validation_world();
    let schedule = world.schedule.clone();
    let latency = world
        .latency
        .as_matrix()
        .expect("validation worlds use matrix-backed topologies")
        .clone();
    let codec = ErasureCodec::new(1, 4).unwrap(); // SimEra(k=4, r=4)
    let k = 4;

    let mut cons_checked = 0u64;
    let mut msg_checked = 0u64;

    for trial in 0..25u64 {
        let t0 = SimTime::from_secs(600 + trial * 97);
        world.advance_gossip(t0);
        let Ok(paths) = world.pick_paths(initiator_id, responder_id, k, MixStrategy::Random, t0)
        else {
            continue;
        };
        let t_msg = t0 + SimDuration::from_secs(30);

        let pred_cons: Vec<_> = paths
            .iter()
            .map(|relays| world.construct_path(initiator_id, relays, responder_id, t0))
            .collect();
        let pred_msgs: Vec<_> = paths
            .iter()
            .map(|relays| world.send_over_path(initiator_id, relays, responder_id, t_msg))
            .collect();

        let mut driver = Driver::new(
            96,
            schedule.clone(),
            latency.clone(),
            initiator_id,
            5000 + trial,
        );
        let mut proto_rng = StdRng::seed_from_u64(9000 + trial);
        let mut init = Initiator::new(initiator_id);
        let hop_lists: Vec<_> = paths
            .iter()
            .map(|p| driver.world.hops(p, responder_id))
            .collect();
        let cons_msgs = init.construct_paths(&hop_lists, &mut proto_rng);
        for msg in &cons_msgs {
            driver.launch_construction(msg, t0);
        }
        let out = init
            .send_message(
                MessageId(trial),
                &vec![0u8; 1024],
                &codec,
                None,
                &mut proto_rng,
            )
            .unwrap();
        for msg in &out {
            driver.launch_payload(msg, t_msg);
        }
        driver.run_until(t_msg + SimDuration::from_secs(120));

        for (i, pred) in pred_cons.iter().enumerate() {
            cons_checked += 1;
            // `pick_paths` returns relay-disjoint paths, so the last
            // relay names the path at the responder.
            let last_relay = paths[i].last().copied();
            let record = driver
                .world
                .events
                .constructions
                .iter()
                .find(|c| Some(c.0) == last_relay);
            match (pred.success, record) {
                (true, Some(rec)) => assert_eq!(
                    SimTime(rec.2),
                    pred.completed_at,
                    "trial {trial} path {i}: construction timing must agree to the µs"
                ),
                (false, None) => {}
                (p, r) => panic!(
                    "trial {trial} path {i}: trajectory predicted success={p}, \
                     driver recorded {:?}",
                    r.map(|c| SimTime(c.2))
                ),
            }
        }
        for (i, pred) in pred_msgs.iter().enumerate() {
            // Segment index i rides path i (k segments, k paths).
            let delivered = driver.world.events.deliveries.iter().find(|d| d.1 == i);
            if pred_cons[i].success {
                msg_checked += 1;
                match (pred.delivered, delivered) {
                    (true, Some(d)) => assert_eq!(
                        Some(SimTime(d.2)),
                        pred.arrival,
                        "trial {trial} segment {i}: arrival must agree to the µs"
                    ),
                    (false, None) => {}
                    (p, d) => panic!(
                        "trial {trial} segment {i}: trajectory predicted delivered={p}, \
                         driver recorded {:?}",
                        d.map(|x| SimTime(x.2))
                    ),
                }
            } else {
                // Unformed path: no relay state exists at the message
                // level, so the driver must never deliver.
                assert!(delivered.is_none(), "stateless path must not deliver");
            }
        }
    }
    assert!(
        cons_checked >= 60,
        "enough constructions compared, got {cons_checked}"
    );
    assert!(
        msg_checked >= 15,
        "enough formed-path sends compared, got {msg_checked}"
    );
}

#[test]
fn path_fails_at_agrees_with_churn_ground_truth() {
    let world = validation_world();
    let l = world.cfg.l;
    let mut rng = StdRng::seed_from_u64(77);
    let mut checked = 0u64;
    for trial in 0..200u64 {
        let t = SimTime::from_secs(300 + trial * 31);
        // Random candidate relay sets straight off the ground truth.
        let relays: Vec<NodeId> = (0..l)
            .map(|_| NodeId(2 + rand::Rng::gen_range(&mut rng, 0..94u32)))
            .collect();
        let fails = world.path_fails_at(&relays, t);
        match fails {
            None => {
                // Some relay must already be down at t.
                assert!(
                    relays.iter().any(|&r| !world.schedule.is_up(r, t)),
                    "None means a relay is already down at {t:?}"
                );
            }
            Some(end) => {
                checked += 1;
                assert!(end >= t);
                // Every relay is up through the failure instant...
                for &r in &relays {
                    assert!(world.schedule.is_up(r, t), "intact at the start");
                    assert_eq!(
                        world.schedule.fails_at(r, t).map(|e| e >= end),
                        Some(true),
                        "no relay dies before the reported path failure"
                    );
                }
                // ...and at the instant itself the path is dead: fails_at
                // equality for at least one relay.
                assert!(
                    relays
                        .iter()
                        .any(|&r| world.schedule.fails_at(r, t) == Some(end)),
                    "the reported instant is some relay's actual failure time"
                );
            }
        }
    }
    assert!(checked >= 25, "enough intact paths sampled, got {checked}");
}
