//! Cross-level fidelity: `path_fails_at` on the trajectory-level
//! [`World`] must agree with the churn ground truth the message-level
//! driver runs on. (The trajectory-vs-driver comparison itself is
//! `experiments::experiments::validate_data`, run by `experiments
//! validate` and that crate's tests.)

use anon_core::sim::{World, WorldConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use simnet::{LifetimeDistribution, NodeId, SimTime};

fn validation_world() -> World {
    let cfg = WorldConfig {
        n: 96,
        lifetime: LifetimeDistribution::pareto_with_median(900.0),
        downtime: LifetimeDistribution::pareto_with_median(900.0),
        ..WorldConfig::paper_default(424242)
    };
    let mut world = World::new(cfg);
    world.pin_up(&[NodeId(0), NodeId(1)]);
    world
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
