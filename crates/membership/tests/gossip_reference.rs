//! Differential test for the gossip round: `GossipSim::advance` against
//! the round as it was written before its digest was packed, kept here.
//! The reference pops rounds off a `(time, id)` min-heap, draws with
//! `gen_range`, unpacks each digest entry into a `LivenessInfo` and merges
//! it with one `NodeCache::hear_indirect` per entry and target. After every
//! advance step both sides must hold identical caches, counters and clock,
//! and their RNGs must be about to draw the same word.
//!
//! Half the cases gossip every 1–16 µs, so that many nodes share a round
//! phase and the order of tied rounds is exercised, not only the order of
//! distinct ones.

use membership::{GossipConfig, GossipSim, LivenessInfo, NodeCache};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use simnet::{ChurnSchedule, NodeId, Session, SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The round before its digest was packed.
struct Reference {
    caches: Vec<NodeCache>,
    rounds: BinaryHeap<Reverse<(SimTime, u32)>>,
    cfg: GossipConfig,
    now: SimTime,
    messages_sent: u64,
    messages_lost: u64,
    picked: Vec<NodeId>,
    digest: Vec<(NodeId, LivenessInfo)>,
    seen: Vec<u64>,
}

impl Reference {
    fn new(n: usize, cfg: GossipConfig, rng: &mut StdRng) -> Self {
        let caches = (0..n)
            .map(|i| NodeCache::bootstrap((0..n).filter(|&j| j != i).map(NodeId::from)))
            .collect();
        let mut rounds = BinaryHeap::with_capacity(n);
        for i in 0..n {
            let phase = SimDuration(rng.gen_range(0..cfg.interval.as_micros().max(1)));
            rounds.push(Reverse((SimTime::ZERO + phase, i as u32)));
        }
        Reference {
            caches,
            rounds,
            cfg,
            now: SimTime::ZERO,
            messages_sent: 0,
            messages_lost: 0,
            picked: Vec::new(),
            digest: Vec::new(),
            seen: vec![0; n.div_ceil(64)],
        }
    }

    fn advance(&mut self, schedule: &ChurnSchedule, until: SimTime, rng: &mut StdRng) {
        while let Some(&Reverse((t, node_idx))) = self.rounds.peek() {
            if t > until {
                break;
            }
            self.rounds.pop();
            self.rounds.push(Reverse((t + self.cfg.interval, node_idx)));
            self.now = t;
            let sender = NodeId(node_idx);
            let Some(sender_uptime) = schedule.uptime_at(sender, t) else {
                continue;
            };
            if let Some(timeout) = self.cfg.stale_timeout {
                self.caches[sender.index()].evict_stale(t, timeout);
            }
            let Reference {
                caches,
                picked,
                digest,
                seen,
                ..
            } = self;
            let n = caches.len() as u32;
            let cache = &caches[sender.index()];
            digest.clear();
            let digest_size = self.cfg.digest_size.min(caches.len() - 1);
            sample(n, sender, digest_size, rng, picked, seen, |cand| {
                cache
                    .get(cand)
                    .map(|entry| digest.push((cand, entry.piggyback(t))))
                    .is_some()
            });
            sample(n, sender, self.cfg.fanout, rng, picked, seen, |cand| {
                cache.contains(cand)
            });
            for &target in picked.iter() {
                if !schedule.is_up(target, t) {
                    self.messages_lost += 1;
                    caches[sender.index()].record_death(target, t);
                    continue;
                }
                self.messages_sent += 1;
                let cache = &mut caches[target.index()];
                cache.hear_direct(sender, sender_uptime, t);
                for &(node, info) in digest.iter() {
                    if node != target {
                        cache.hear_indirect(node, info, t);
                    }
                }
            }
        }
        if self.now < until {
            self.now = until;
        }
    }
}

/// The bitset sampler with a `gen_range` per draw.
fn sample(
    n: u32,
    sender: NodeId,
    count: usize,
    rng: &mut StdRng,
    out: &mut Vec<NodeId>,
    seen: &mut [u64],
    mut accept: impl FnMut(NodeId) -> bool,
) {
    out.clear();
    let mut tries = 0usize;
    while out.len() < count && tries < count * 8 + 16 {
        tries += 1;
        let cand = NodeId(rng.gen_range(0..n));
        let (word, bit) = (cand.index() / 64, 1u64 << (cand.0 % 64));
        if cand != sender && seen[word] & bit == 0 && accept(cand) {
            seen[word] |= bit;
            out.push(cand);
        }
    }
    for &id in out.iter() {
        seen[id.index() / 64] = 0;
    }
}

/// Alternating sessions of 1 µs to three intervals, up or down first;
/// one schedule in four has nobody churn.
fn churn(n: usize, interval: u64, horizon: SimTime, seed: u64) -> ChurnSchedule {
    if seed & 3 == 0 {
        return ChurnSchedule::always_up(n, horizon);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let per_node = (0..n)
        .map(|_| {
            let mut sessions = Vec::new();
            let mut up = rng.gen_bool(0.7);
            let mut t = SimTime::ZERO;
            while t < horizon {
                let end = t + SimDuration(rng.gen_range(1..=3 * interval));
                if up {
                    sessions.push(Session { start: t, end });
                }
                (t, up) = (end, !up);
            }
            sessions
        })
        .collect();
    ChurnSchedule::from_sessions(per_node, horizon)
}

fn check(
    gossip: &GossipSim,
    reference: &Reference,
    rng: &StdRng,
    twin: &StdRng,
) -> Result<(), String> {
    prop_assert_eq!(gossip.now(), reference.now);
    prop_assert_eq!(gossip.messages_sent(), reference.messages_sent);
    prop_assert_eq!(gossip.messages_lost(), reference.messages_lost);
    for (i, expected) in reference.caches.iter().enumerate() {
        let cache = gossip.cache(NodeId::from(i));
        prop_assert_eq!(cache.len(), expected.len(), "node {}", i);
        let mut got: Vec<_> = cache.entries().collect();
        let mut want: Vec<_> = expected.entries().collect();
        got.sort_unstable_by_key(|&(peer, _)| peer);
        want.sort_unstable_by_key(|&(peer, _)| peer);
        prop_assert_eq!(got, want, "node {}", i);
    }
    prop_assert_eq!(rng.clone().next_u64(), twin.clone().next_u64());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn packed_rounds_match_the_per_entry_reference(
        n_word in any::<u64>(),
        digest_size in 0usize..100,
        fanout in 1usize..5,
        stale in 0u64..4,
        interval_word in any::<u64>(),
        churn_seed in any::<u64>(),
        steps in prop::collection::vec(any::<u64>(), 1..5),
    ) {
        // Powers of two and everything else from 2 to 300.
        let n = if n_word & 1 == 0 {
            1 << (1 + (n_word >> 1) % 8)
        } else {
            2 + (n_word >> 1) as usize % 299
        };
        let interval = if interval_word & 1 == 0 {
            1 + (interval_word >> 1) % 16
        } else {
            SimDuration::from_secs(1 + (interval_word >> 1) % 60).as_micros()
        };
        let cfg = GossipConfig {
            interval: SimDuration(interval),
            fanout,
            digest_size,
            stale_timeout: (stale > 0).then(|| SimDuration(stale * interval)),
        };
        // Each step advances up to six intervals; the low bits of its word
        // pick a direct observation both sides receive from outside, a
        // little ahead of the gossip clock, before the step runs.
        let ends: Vec<SimTime> = steps
            .iter()
            .scan(SimTime::ZERO, |t, &w| {
                *t += SimDuration((w >> 16) % (6 * interval + 1));
                Some(*t)
            })
            .collect();
        let horizon = ends[ends.len() - 1] + SimDuration(4 * interval);
        let schedule = churn(n, interval, horizon, churn_seed);

        let (mut rng, mut twin) = (StdRng::seed_from_u64(churn_seed), StdRng::seed_from_u64(churn_seed));
        let mut gossip = GossipSim::new(n, cfg, &mut rng);
        let mut reference = Reference::new(n, cfg, &mut twin);
        check(&gossip, &reference, &rng, &twin)?;
        for (&w, &until) in steps.iter().zip(&ends) {
            let (a, b) = (NodeId((w % n as u64) as u32), NodeId((w >> 8) as u32 % n as u32));
            let ahead = until + SimDuration(w >> 40 & 0xff);
            match w >> 4 & 3 {
                0 => {
                    gossip.cache_mut(a).record_death(b, ahead);
                    reference.caches[a.index()].record_death(b, ahead);
                }
                1 => {
                    let alive = SimDuration(w >> 48);
                    gossip.cache_mut(a).hear_direct(b, alive, ahead);
                    reference.caches[a.index()].hear_direct(b, alive, ahead);
                }
                _ => {}
            }
            gossip.advance(&schedule, until, &mut rng);
            reference.advance(&schedule, until, &mut twin);
            check(&gossip, &reference, &rng, &twin)?;
        }
    }
}
