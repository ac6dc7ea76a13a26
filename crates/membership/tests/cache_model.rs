//! Differential model test for [`NodeCache`]: random operation sequences
//! run against a `BTreeMap<NodeId, CacheEntry>` reference, once on a
//! `bootstrap`-built cache (id-indexed slots) and once on an empty-built one
//! (flat `(id, entry)` list). Every observable must match the model — and
//! therefore the other layout.

use membership::{CacheEntry, LivenessInfo, NodeCache};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use simnet::{NodeId, SimDuration, SimTime};
use std::collections::BTreeMap;

/// Ids `0..UNIVERSE` are bootstrapped. Half the cases keep every op inside
/// that range, so the slot layout is exercised to the end; the other half
/// draw from `0..2 * UNIVERSE` and sooner or later hand the bootstrap-built
/// cache an id beyond the slots it laid out.
const UNIVERSE: u32 = 12;

type Model = BTreeMap<NodeId, CacheEntry>;

/// The paper's update rules, written against the simplest possible store.
fn model_hear_indirect(model: &mut Model, node: NodeId, info: LivenessInfo, now: SimTime) {
    let heard = CacheEntry {
        delta_alive: info.delta_alive,
        delta_since: info.delta_since,
        t_last: now,
        dead: info.dead,
    };
    match model.get_mut(&node) {
        None => {
            model.insert(node, heard);
        }
        Some(e) if info.delta_since < e.effective_delta_since(now) => *e = heard,
        Some(_) => {}
    }
}

/// Top `count` by `(score desc, id asc)` via a full stable sort with
/// `partial_cmp` — the pre-PR-16 formulation the top-k selection must equal.
fn model_top(
    model: &Model,
    count: usize,
    exclude: &[NodeId],
    score: impl Fn(&CacheEntry) -> f64,
) -> Vec<NodeId> {
    let mut scored: Vec<(f64, NodeId)> = model
        .iter()
        .filter(|(n, _)| !exclude.contains(n))
        .map(|(&n, e)| (score(e), n))
        .collect();
    scored.sort_by(|a, b| {
        b.0.partial_cmp(&a.0)
            .expect("predictor is never NaN")
            .then_with(|| a.1.cmp(&b.1))
    });
    scored.truncate(count);
    scored.into_iter().map(|(_, n)| n).collect()
}

fn check_observables(
    cache: &NodeCache,
    model: &Model,
    now: SimTime,
    word: u64,
) -> Result<(), String> {
    prop_assert_eq!(cache.len(), model.len());
    prop_assert_eq!(cache.is_empty(), model.is_empty());
    let mut entries: Vec<(NodeId, CacheEntry)> = cache.entries().map(|(n, e)| (n, *e)).collect();
    entries.sort_unstable_by_key(|&(n, _)| n);
    let expected: Vec<(NodeId, CacheEntry)> = model.iter().map(|(&n, &e)| (n, e)).collect();
    prop_assert_eq!(&entries, &expected);
    let mut nodes: Vec<NodeId> = cache.nodes().collect();
    nodes.sort_unstable();
    prop_assert_eq!(nodes, model.keys().copied().collect::<Vec<_>>());
    for id in 0..2 * UNIVERSE + 1 {
        let node = NodeId(id);
        prop_assert_eq!(cache.get(node), model.get(&node));
        prop_assert_eq!(cache.contains(node), model.contains_key(&node));
        prop_assert_eq!(
            cache.predictor(node, now),
            model.get(&node).map(|e| e.predictor(now))
        );
    }

    let exclude = [NodeId(word as u32 % UNIVERSE), NodeId(2 * UNIVERSE + 7)];
    let horizon = SimDuration::from_secs(word >> 8 & 0x3ff);
    let len = model.len();
    for count in [0, 1, len.saturating_sub(2), len, len + 1] {
        prop_assert_eq!(
            cache.select_biased(count, &exclude, now),
            model_top(model, count, &exclude, |e| e.predictor(now))
        );
        prop_assert_eq!(
            cache.select_biased_with_horizon(count, &exclude, now, horizon),
            model_top(model, count, &exclude, |e| e
                .predictor_with_horizon(now, horizon))
        );
        // Random choice: sorted candidates, seeded shuffle, truncate — so
        // the same seed must give the same picks whatever the layout.
        let mut expected: Vec<NodeId> = model
            .keys()
            .copied()
            .filter(|n| !exclude.contains(n))
            .collect();
        expected.shuffle(&mut StdRng::seed_from_u64(word));
        expected.truncate(count);
        prop_assert_eq!(
            cache.select_random(count, &exclude, &mut StdRng::seed_from_u64(word)),
            expected
        );
    }
    Ok(())
}

/// Apply one op, decoded from `word`, to both caches and the model alike.
fn apply(
    caches: &mut [NodeCache; 2],
    model: &mut Model,
    now: SimTime,
    word: u64,
    id_span: u32,
) -> Result<(), String> {
    let node = NodeId((word >> 8) as u32 % id_span);
    let alive = SimDuration::from_secs(word >> 16 & 0xfff);
    let since = SimDuration::from_secs(word >> 28 & 0x3ff);
    match word & 0x7 {
        0 => {
            caches
                .iter_mut()
                .for_each(|c| c.hear_direct(node, alive, now));
            model.insert(
                node,
                CacheEntry {
                    delta_alive: alive,
                    delta_since: SimDuration::ZERO,
                    t_last: now,
                    dead: false,
                },
            );
        }
        1..=3 => {
            let info = if word & 0x7 == 3 {
                LivenessInfo::death(since)
            } else {
                LivenessInfo::alive(alive, since)
            };
            caches
                .iter_mut()
                .for_each(|c| c.hear_indirect(node, info, now));
            model_hear_indirect(model, node, info, now);
        }
        4 => {
            caches.iter_mut().for_each(|c| c.record_death(node, now));
            let delta_alive = model
                .get(&node)
                .map_or(SimDuration::ZERO, |e| e.delta_alive);
            model.insert(
                node,
                CacheEntry {
                    delta_alive,
                    delta_since: SimDuration::ZERO,
                    t_last: now,
                    dead: true,
                },
            );
        }
        5 => {
            let removed = model.remove(&node).is_some();
            for cache in caches {
                prop_assert_eq!(cache.remove(node), removed);
            }
        }
        6 => {
            let before = model.len();
            model.retain(|_, e| e.effective_delta_since(now) <= since);
            for cache in caches {
                prop_assert_eq!(cache.evict_stale(now, since), before - model.len());
            }
        }
        _ => {}
    }
    Ok(())
}

/// Both layouts and the model, holding ids `0..UNIVERSE` as bootstrapped.
fn bootstrapped() -> ([NodeCache; 2], Model) {
    let bootstrap: Vec<NodeId> = (0..UNIVERSE).map(NodeId).collect();
    // [bootstrap-built: id-indexed slots, empty-built: flat list]
    let mut caches = [
        NodeCache::bootstrap(bootstrap.iter().copied()),
        NodeCache::new(),
    ];
    let mut model = Model::new();
    // Bring the empty-built cache and the model to the bootstrap state
    // through the public update rule.
    for &node in &bootstrap {
        let info = LivenessInfo::alive(SimDuration::ZERO, SimDuration::ZERO);
        caches[1].hear_indirect(node, info, SimTime::ZERO);
        model_hear_indirect(&mut model, node, info, SimTime::ZERO);
    }
    (caches, model)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn both_layouts_match_the_btreemap_model(
        ops in prop::collection::vec(any::<u64>(), 1..80),
    ) {
        let (mut caches, mut model) = bootstrapped();
        let id_span = if ops[0] & 0x8 == 0 { UNIVERSE } else { 2 * UNIVERSE };
        let mut now = SimTime::ZERO;
        for &word in &ops {
            now += SimDuration::from_secs(word >> 56);
            apply(&mut caches, &mut model, now, word, id_span)?;
            for cache in &caches {
                check_observables(cache, &model, now, word)?;
            }
        }
    }
}

/// The list layout fills holes by moving its last pair into them, so an id
/// that was removed or evicted and is then heard about again must come
/// back as a fresh insert — at the end, not into the slot it once had.
#[test]
fn list_reinserts_ids_it_removed_or_evicted() {
    let (mut caches, mut model) = bootstrapped();
    let mut step = |now: u64, word: u64| {
        let now = SimTime::from_secs(now);
        apply(&mut caches, &mut model, now, word, UNIVERSE).unwrap();
        for cache in &caches {
            check_observables(cache, &model, now, word).unwrap();
        }
        model.keys().map(|n| n.0).collect::<Vec<_>>()
    };
    // Op words as `apply` decodes them: kind in bits 0..3, Δt_alive (s) in
    // bits 16..28, Δt_since (s) in bits 28..38, and the id is everything
    // above bit 8 modulo UNIVERSE — which `alive + since` leaves alone
    // when it is a multiple of 3 (2^8 ≡ 2^20 ≡ 4 mod 12).
    let word =
        |kind: u64, id: u64, alive: u64, since: u64| kind | id << 8 | alive << 16 | since << 28;
    // Ids 0..3 get a first-hand death at t = 10, so they are 10 s fresher
    // than the bootstrap entries from t = 0.
    for id in 0..3 {
        step(10, word(4, id, 0, 0));
    }
    step(20, word(5, 1, 0, 0)); // remove a middle id
    let kept = step(20, word(5, 1, 0, 0)); // and again: not there
    assert_eq!(kept, [0, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]);
    // At t = 70 the deaths are 60 s old, the bootstrap entries 70 s.
    let kept = step(70, word(6, 0, 0, 65));
    assert_eq!(kept, [0, 2]);
    for id in [1, 5, 11, 3] {
        step(80, word(2, id, 900, 6));
    }
    let kept = step(90, word(3, 1, 0, 3)); // a fresher death notice lands
    assert_eq!(kept, [0, 1, 2, 3, 5, 11]);
    assert!(model[&NodeId(1)].dead);
}
