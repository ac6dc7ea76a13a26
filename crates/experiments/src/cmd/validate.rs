//! Fidelity validation: the trajectory-level evaluator (used for the
//! 16 000-construction experiments) against the event-driven message
//! level (real onions over the event engine) on *identical* ground truth.
//!
//! For every trial the two layers see the same churn schedule, the same
//! latency matrix, the same paths and the same timings. The trajectory
//! layer must predict, exactly:
//! * which path constructions succeed and when they complete,
//! * which segments arrive and their arrival instants —
//!
//! for every path whose construction succeeded. (Paths that never finished
//! constructing have no relay state at the message level; the trajectory
//! shortcut doesn't model state, so those sends are compared separately.)

use super::{Args, ExitCode};
use anon_core::driver::Driver;
use anon_core::endpoint::Initiator;
use anon_core::ids::MessageId;
use anon_core::mix::MixStrategy;
use anon_core::sim::{World, WorldConfig};
use erasure::ErasureCodec;
use experiments::Table;
use rand::rngs::StdRng;
use rand::SeedableRng;
use simnet::trace::EngineCounters;
use simnet::{LifetimeDistribution, NodeId, SimDuration, SimTime};

pub fn run(args: &Args) -> ExitCode {
    let quick = args.quick;
    let trials = if quick { 10 } else { 60 };
    let n = 96;
    println!("fidelity validation — trajectory vs message level, {trials} trials, n = {n}\n");

    let cfg = WorldConfig {
        n,
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
    let initiator_id = NodeId(0);
    let responder_id = NodeId(1);
    let mut world = World::new(cfg.clone());
    world.pin_up(&[initiator_id, responder_id]);
    let schedule = world.schedule.clone();
    let latency = world
        .latency
        .as_matrix()
        .expect("validation worlds use matrix-backed topologies")
        .clone();

    let codec = ErasureCodec::new(1, 4).unwrap(); // SimEra(k=4, r=4)
    let k = 4;

    let mut cons_checked = 0u64;
    let mut cons_mismatch = 0u64;
    let mut time_mismatch = 0u64;
    let mut msg_checked = 0u64;
    let mut msg_mismatch = 0u64;
    let mut unformed_msgs = 0u64;
    let mut unformed_agree = 0u64;
    let mut engine_totals = EngineCounters::default();

    for trial in 0..trials {
        let t0 = SimTime::from_secs(600 + trial as u64 * 97);
        world.advance_gossip(t0);
        let Ok(paths) = world.pick_paths(initiator_id, responder_id, k, MixStrategy::Random, t0)
        else {
            continue;
        };
        let t_msg = t0 + SimDuration::from_secs(30);

        // ---- Trajectory predictions --------------------------------------
        let pred_cons: Vec<_> = paths
            .iter()
            .map(|relays| world.construct_path(initiator_id, relays, responder_id, t0))
            .collect();
        let pred_msgs: Vec<_> = paths
            .iter()
            .map(|relays| world.send_over_path(initiator_id, relays, responder_id, t_msg))
            .collect();

        // ---- Message-level ground truth ----------------------------------
        let mut driver = Driver::new(
            n,
            schedule.clone(),
            latency.clone(),
            initiator_id,
            5000 + trial as u64,
        );
        let mut proto_rng = StdRng::seed_from_u64(9000 + trial as u64);
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
                MessageId(trial as u64),
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
        engine_totals.absorb(&driver.engine.counters());

        // ---- Compare ------------------------------------------------------
        for (i, pred) in pred_cons.iter().enumerate() {
            cons_checked += 1;
            let record = driver
                .world
                .constructions
                .iter()
                .find(|c| c.initiator_sid == cons_msgs[i].sid);
            match (pred.success, record) {
                (true, Some(rec)) => {
                    if rec.at != pred.completed_at {
                        time_mismatch += 1;
                    }
                }
                (false, None) => {}
                _ => cons_mismatch += 1,
            }
        }
        for (i, pred) in pred_msgs.iter().enumerate() {
            // Segment index i rides path i (k segments, k paths).
            let delivered = driver.world.deliveries.iter().find(|d| d.index == i);
            if pred_cons[i].success {
                msg_checked += 1;
                match (pred.delivered, delivered) {
                    (true, Some(d)) => {
                        if Some(d.at) != pred.arrival {
                            time_mismatch += 1;
                        }
                    }
                    (false, None) => {}
                    _ => msg_mismatch += 1,
                }
            } else {
                // Unformed path: the driver must never deliver; the
                // trajectory may optimistically predict delivery if the
                // dead relay recovered — count agreement for reporting.
                unformed_msgs += 1;
                if delivered.is_none() && !pred.delivered {
                    unformed_agree += 1;
                }
                assert!(delivered.is_none(), "stateless path must not deliver");
            }
        }
    }

    let mut table = Table::new("validation summary", &["check", "compared", "mismatches"]);
    table.row(&[
        "construction outcome".into(),
        cons_checked.to_string(),
        cons_mismatch.to_string(),
    ]);
    table.row(&[
        "delivery outcome (formed paths)".into(),
        msg_checked.to_string(),
        msg_mismatch.to_string(),
    ]);
    table.row(&[
        "exact timing (µs)".into(),
        (cons_checked + msg_checked).to_string(),
        time_mismatch.to_string(),
    ]);
    table.print();
    table
        .save_csv("validate")
        .expect("write results/validate.csv");

    println!(
        "\nunformed-path sends: {unformed_msgs} (trajectory agrees on {unformed_agree}; \
         disagreements are the documented state-model gap)"
    );
    println!(
        "engine totals: {} scheduled, {} processed, {} cancelled, peak queue {}",
        engine_totals.scheduled,
        engine_totals.processed,
        engine_totals.cancelled,
        engine_totals.max_pending
    );
    assert_eq!(
        cons_mismatch, 0,
        "trajectory must predict construction outcomes exactly"
    );
    assert_eq!(
        msg_mismatch, 0,
        "trajectory must predict deliveries on formed paths exactly"
    );
    assert_eq!(
        time_mismatch, 0,
        "hop arithmetic must agree to the microsecond"
    );
    println!("\nVALIDATED: trajectory level reproduces the message level exactly on formed paths");
    ExitCode::SUCCESS
}
