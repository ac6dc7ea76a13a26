//! Differential test for [`SampledView::track`]: the entry-by-entry view
//! construction the batch build replaced (PR 24) is kept here, written
//! against public methods only, and every tracked view must equal it —
//! same peers, same [`CacheEntry`] for each, same mix choices.

use membership::{CacheEntry, LivenessInfo, NodeCache, SampledConfig, SampledView};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use simnet::{ChurnSchedule, NodeId, Session, SimDuration, SimTime};

const HORIZON: SimTime = SimTime::from_secs(600);

fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn hash3(seed: u64, a: u64, b: u64) -> u64 {
    mix64(seed ^ mix64(a ^ mix64(b)))
}

/// One peer at a time: draw, reject self and duplicates by asking the cache
/// being filled, jitter, probe the schedule, store.
fn reference_view(
    seed: u64,
    n: usize,
    cfg: SampledConfig,
    node: NodeId,
    schedule: &ChurnSchedule,
    t: SimTime,
) -> NodeCache {
    let k = cfg.view_size.min(n - 1);
    let mut cache = NodeCache::with_capacity(k);
    let mut attempt: u64 = 0;
    while cache.len() < k {
        let h = hash3(seed, u64::from(node.0), attempt);
        attempt += 1;
        let peer = NodeId((h % n as u64) as u32);
        if peer == node || cache.contains(peer) {
            continue;
        }
        let span = cfg.max_staleness.as_micros() + 1;
        let jitter = hash3(
            seed ^ 0xA5A5_A5A5_A5A5_A5A5,
            u64::from(node.0),
            u64::from(peer.0) ^ t.as_micros(),
        ) % span;
        let age = SimDuration(jitter);
        let t_obs = SimTime(t.as_micros().saturating_sub(age.as_micros()));
        let info = match schedule.uptime_at(peer, t_obs) {
            Some(delta_alive) => LivenessInfo::alive(delta_alive, age),
            None => LivenessInfo::death(age),
        };
        cache.hear_indirect(peer, info, t);
    }
    cache
}

/// A schedule mixing the shapes a view can meet: nodes up for the whole
/// horizon, nodes with no session at all, nodes that alternate, and (after
/// the caller pins some) sessions that end far past the horizon.
fn mixed_schedule(n: usize, word: u64) -> ChurnSchedule {
    let per_node = (0..n as u64)
        .map(|i| {
            let h = mix64(word ^ i);
            match h % 4 {
                0 => vec![Session {
                    start: SimTime::ZERO,
                    end: HORIZON,
                }],
                1 => Vec::new(),
                _ => {
                    // Up `up` s, down `down` s, repeating from a phase.
                    let (up, down) = (1 + (h >> 8) % 90, 1 + (h >> 16) % 90);
                    let mut sessions = Vec::new();
                    let mut start = (h >> 24) % 60;
                    while start < HORIZON.as_micros() / 1_000_000 {
                        sessions.push(Session {
                            start: SimTime::from_secs(start),
                            end: SimTime::from_secs(start + up).min(HORIZON),
                        });
                        start += up + down;
                    }
                    sessions
                }
            }
        })
        .collect();
    ChurnSchedule::from_sessions(per_node, HORIZON)
}

fn sorted_entries(cache: &NodeCache) -> Vec<(NodeId, CacheEntry)> {
    let mut entries: Vec<_> = cache.entries().collect();
    entries.sort_unstable_by_key(|&(n, _)| n);
    entries
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn track_matches_the_entry_by_entry_reference(
        n in 2usize..5000,
        view_size in 1usize..300,
        word in any::<u64>(),
        t_ms in 0u64..600_000,
    ) {
        // A third of the cases get a world no larger than the view asks
        // for, where the clamp to n − 1 decides and draws mostly repeat.
        let n = match word % 3 {
            0 => 2 + n % (view_size + 1),
            _ => n,
        };
        let t = SimTime(t_ms * 1_000);
        let max_staleness = match (word >> 2) % 3 {
            0 => SimDuration::ZERO,
            1 => SimDuration::from_secs(30),
            // Always beyond `t`: some observation instants clamp to zero.
            _ => SimDuration(t.as_micros() + 1 + (word >> 8) % 1_000_000_000),
        };
        let cfg = SampledConfig { view_size, max_staleness };
        let mut schedule = mixed_schedule(n, word);
        for i in 0..3 {
            schedule.pin_up(NodeId((mix64(word ^ i) % n as u64) as u32));
        }
        let mut view = SampledView::new(n, cfg, &mut StdRng::seed_from_u64(word));

        // Several owners through one `SampledView`, so a scratch buffer
        // left dirty by one build would show in the next.
        for i in 0..3 {
            let node = NodeId((mix64(word.wrapping_add(i)) % n as u64) as u32);
            view.track(node, &schedule, t);
            let reference = reference_view(view.seed(), n, cfg, node, &schedule, t);
            let built = view.cache(node);
            prop_assert_eq!(built.len(), view_size.min(n - 1));
            prop_assert!(!built.contains(node));
            prop_assert_eq!(sorted_entries(built), sorted_entries(&reference));
            for count in [1, 3, 12] {
                prop_assert_eq!(
                    built.select_biased(count, &[node], t),
                    reference.select_biased(count, &[node], t)
                );
                prop_assert_eq!(
                    built.select_random(count, &[node], &mut StdRng::seed_from_u64(word)),
                    reference.select_random(count, &[node], &mut StdRng::seed_from_u64(word))
                );
            }
        }
    }
}
