//! The per-node membership cache (paper §4.9, "Learning Node Liveness
//! Information").
//!
//! Every node keeps one [`NodeCache`]. Entries record, for each known peer,
//! the triple `(Δt_alive, Δt_since, t_last)`; update rules follow the paper
//! exactly:
//!
//! * **Direct** — hearing *from* node A: store the received Δt_alive, reset
//!   Δt_since to 0, stamp `t_last = now`.
//! * **Indirect** — hearing *about* node B from someone else with
//!   `(Δt_alive, Δt_since)`: insert if absent; otherwise accept only if the
//!   received Δt_since is smaller than the entry's current effective
//!   Δt_since (fresher information), then stamp `t_last = now`.

use crate::liveness::{self, LivenessInfo};
use rand::seq::SliceRandom;
use rand::Rng;
use simnet::{NodeId, SimDuration, SimTime};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// One cache entry: liveness bookkeeping for a known peer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheEntry {
    /// Δt_alive: uptime of the peer when the information originated.
    pub delta_alive: SimDuration,
    /// Δt_since: staleness of the information at receipt time (for a death
    /// notice, the age of the detection at receipt time).
    pub delta_since: SimDuration,
    /// Local timestamp when this entry was last written.
    pub t_last: SimTime,
    /// Whether the freshest news about this peer is a death notice (§4.5
    /// failure detection / OneHop membership-change dissemination). Dead
    /// entries stay in the cache — random mix choice is oblivious to them,
    /// matching the paper's baseline — but their predictor is zero.
    pub dead: bool,
}

impl CacheEntry {
    /// Effective Δt_since at `now` (Eq. 3's denominator contribution).
    pub fn effective_delta_since(&self, now: SimTime) -> SimDuration {
        liveness::effective_delta_since(self.delta_since, self.t_last, now)
    }

    /// The liveness predictor `q` at `now`; zero for known-dead peers.
    pub fn predictor(&self, now: SimTime) -> f64 {
        if self.dead {
            0.0
        } else {
            liveness::predictor(self.delta_alive, self.effective_delta_since(now))
        }
    }

    /// Horizon predictor (extension; see `MixStrategy::BiasedHorizon`):
    /// the probability-shape score that the node survives a further
    /// `horizon` beyond the information gap,
    /// `q_H = Δt_alive / (Δt_alive + Δt_since_eff + H)`. With a common
    /// `H` the ranking is driven by uptime instead of gossip recency
    /// noise, which stabilizes biased choice when staleness varies widely
    /// across entries.
    pub fn predictor_with_horizon(&self, now: SimTime, horizon: SimDuration) -> f64 {
        if self.dead {
            0.0
        } else {
            liveness::predictor(self.delta_alive, self.effective_delta_since(now) + horizon)
        }
    }

    /// The liveness info to piggyback onto an outgoing gossip message at
    /// `now`.
    pub fn piggyback(&self, now: SimTime) -> LivenessInfo {
        LivenessInfo {
            delta_alive: self.delta_alive,
            delta_since: self.effective_delta_since(now),
            dead: self.dead,
        }
    }
}

/// `NodeId → V` table for ids that are *not* a dense `0..n` range (the set
/// of tracked initiators of a sampled layer). Ids are simulator-generated
/// indices, never outside input, so std's keyed SipHash buys nothing here
/// and costs most of a lookup.
pub(crate) type IdMap<V> = HashMap<NodeId, V, BuildHasherDefault<IdHasher>>;

/// One multiply (Fibonacci hashing) and a fold, so hashbrown's bucket index
/// (low bits) and control byte (top bits) both see every bit of the id.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // `NodeId` hashes through `write_u32`; this keeps the hasher
        // correct for any other key without being on a hot path.
        for &b in bytes {
            self.write_u32(u32::from(b));
        }
    }

    fn write_u32(&mut self, id: u32) {
        let h = (self.0 ^ u64::from(id)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }
}

/// The two layouts behind [`NodeCache`]. Which one a cache gets follows
/// from how it is built, because the two traffic shapes are real: full
/// views over a universe of a few thousand ids, updated entry by entry
/// every gossip round, and 256-entry samples of a million, built once from
/// distinct ids, read by full scans and point-updated only by a death
/// notice.
#[derive(Clone, Debug)]
enum Store {
    /// Slot `i` holds node `i`'s entry, packed; `len` counts the occupied
    /// slots. A lookup is one bounds check and a view is 16 B per universe
    /// id.
    Slots { slots: Vec<Slot>, len: usize },
    /// `(id, entry)` pairs in insertion order, ids distinct, for views
    /// whose ids are sparse. A lookup is a linear scan: these views hold a
    /// few hundred entries and are read whole (mix choice ranks every
    /// entry), so a hash table's buckets cost more to fill and to walk
    /// than they save.
    List(Vec<(NodeId, CacheEntry)>),
}

/// One [`CacheEntry`] of the slot layout, losslessly packed into two
/// words: Δt_alive, Δt_since and t_last as 42-bit microsecond fields, a
/// dead bit and an occupied bit. All zeros is an empty slot.
///
/// ```text
/// word 0:  t_last (42) | Δt_alive low 20 | dead | occupied   (bit 0)
/// word 1:  Δt_since (42) | Δt_alive high 22
/// ```
///
/// The two times the freshness test reads sit at the top of their words,
/// so each is one shift: a gossip round makes that test once per digest
/// entry and target, the warm-up's innermost loop.
///
/// 2^42 µs is about 50.9 days. An entry with a longer time does not fit,
/// and the cache moves to the list layout ([`NodeCache::spill`]), as it
/// does for an id beyond its universe.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Slot([u64; 2]);

// The slot layout's memory claim: a full view at n = 256 is 1 MiB of slots
// per layer, and a cloned world holds two layers. A change that widens the
// slot should fail here, not in `peak_rss_mb`.
const _: () = assert!(std::mem::size_of::<Slot>() == 16);

impl Slot {
    const EMPTY: Slot = Slot([0; 2]);
    /// Largest microsecond value a field holds.
    const MAX: u64 = (1 << 42) - 1;
    /// Where the two times start in their words.
    const TIME: u32 = 22;
    /// Δt_alive's bits kept in word 0, above the two flags.
    const ALIVE_LO: u32 = 20;
    const DEAD: u64 = 1 << 1;
    const OCCUPIED: u64 = 1;

    /// `entry` packed, or `None` if one of its times needs more than 42
    /// bits.
    #[inline]
    fn pack(entry: &CacheEntry) -> Option<Slot> {
        let (alive, since, t_last) = (entry.delta_alive.0, entry.delta_since.0, entry.t_last.0);
        if alive | since | t_last > Self::MAX {
            return None;
        }
        let alive_lo = alive & ((1 << Self::ALIVE_LO) - 1);
        let dead = if entry.dead { Self::DEAD } else { 0 };
        Some(Slot([
            t_last << Self::TIME | alive_lo << 2 | dead | Self::OCCUPIED,
            since << Self::TIME | alive >> Self::ALIVE_LO,
        ]))
    }

    #[inline]
    fn occupied(self) -> bool {
        self.0[0] & Self::OCCUPIED != 0
    }

    #[inline]
    fn t_last(self) -> SimTime {
        SimTime(self.0[0] >> Self::TIME)
    }

    #[inline]
    fn delta_since(self) -> SimDuration {
        SimDuration(self.0[1] >> Self::TIME)
    }

    #[inline]
    fn delta_alive(self) -> SimDuration {
        let [w0, w1] = self.0;
        let alive_lo = (w0 >> 2) & ((1 << Self::ALIVE_LO) - 1);
        let alive_hi = w1 & ((1 << Self::TIME) - 1);
        SimDuration(alive_hi << Self::ALIVE_LO | alive_lo)
    }

    #[inline]
    fn dead(self) -> bool {
        self.0[0] & Self::DEAD != 0
    }

    /// The entry this slot holds, if it holds one.
    #[inline]
    fn unpack(self) -> Option<CacheEntry> {
        self.occupied().then(|| CacheEntry {
            delta_alive: self.delta_alive(),
            delta_since: self.delta_since(),
            t_last: self.t_last(),
            dead: self.dead(),
        })
    }

    /// [`CacheEntry::effective_delta_since`] read off the packed words.
    #[inline]
    fn effective_delta_since(self, now: SimTime) -> SimDuration {
        liveness::effective_delta_since(self.delta_since(), self.t_last(), now)
    }

    /// What a winning indirect update of `info` writes, with its t_last
    /// field left zero for the receiver to fill; `None` if a time needs
    /// more than 42 bits.
    #[inline]
    fn heard(info: &LivenessInfo) -> Option<Slot> {
        Slot::pack(&CacheEntry {
            delta_alive: info.delta_alive,
            delta_since: info.delta_since,
            t_last: SimTime::ZERO,
            dead: info.dead,
        })
    }

    /// [`CacheEntry::piggyback`] of this occupied slot, packed as
    /// [`Slot::heard`] packs it; `None` if the piggybacked Δt_since needs
    /// more than 42 bits.
    #[inline]
    fn piggyback(self, now: SimTime) -> Option<Slot> {
        const LOW: u64 = (1 << Slot::TIME) - 1;
        let since = self.effective_delta_since(now).0;
        (since <= Self::MAX).then_some(Slot([
            self.0[0] & LOW,
            since << Self::TIME | self.0[1] & LOW,
        ]))
    }

    /// 1 if an indirect update packed as `heard` ([`Slot::heard`]) wins
    /// against this slot at `now`, else 0: the slot is empty, or the news
    /// is fresher (`Δt_since < stored Δt_since + (now − t_last)`).
    #[inline]
    fn taken_by(self, heard: Slot, now: SimTime) -> u64 {
        let [s0, s1] = self.0;
        let empty = !s0 & Self::OCCUPIED;
        let since = (s1 >> Self::TIME) + now.0.saturating_sub(s0 >> Self::TIME);
        u64::from(heard.0[1] >> Self::TIME < since) | empty
    }

    /// The liveness info a [`Slot::heard`] slot carries.
    #[inline]
    fn info(self) -> LivenessInfo {
        LivenessInfo {
            delta_alive: self.delta_alive(),
            delta_since: self.delta_since(),
            dead: self.dead(),
        }
    }
}

/// One gossip round's digest: `(id, liveness info)` entries in the order
/// they were pushed, packed once so that every target of the round merges
/// the same words ([`NodeCache::hear_digest`]).
///
/// An entry is kept as the slot a winning indirect update writes, t_last
/// left for the receiver to stamp. An entry with a time of 2^42 µs or more
/// does not pack; from then on the digest keeps every entry unpacked and
/// receivers take them one at a time, as a list-layout receiver does.
#[derive(Clone, Debug, Default)]
pub struct Digest {
    packed: Vec<(NodeId, Slot)>,
    /// One more than the largest id in `packed`: a receiver with fewer
    /// slots takes the entries one at a time.
    universe: usize,
    /// Every entry, unpacked, once one did not pack (`packed` is empty
    /// then).
    wide: Vec<(NodeId, LivenessInfo)>,
}

impl Digest {
    /// Drop every entry, keeping the allocation.
    pub(crate) fn clear(&mut self) {
        self.packed.clear();
        self.wide.clear();
        self.universe = 0;
    }

    /// Append `node`'s liveness info.
    pub fn push(&mut self, node: NodeId, info: LivenessInfo) {
        match Slot::heard(&info) {
            Some(heard) => self.push_packed(node, heard),
            None => {
                self.widen();
                self.wide.push((node, info));
            }
        }
    }

    #[inline]
    fn push_packed(&mut self, node: NodeId, heard: Slot) {
        if self.wide.is_empty() {
            self.universe = self.universe.max(node.index() + 1);
            self.packed.push((node, heard));
        } else {
            self.wide.push((node, heard.info()));
        }
    }

    #[cold]
    fn widen(&mut self) {
        let packed = self
            .packed
            .drain(..)
            .map(|(node, heard)| (node, heard.info()));
        self.wide.extend(packed);
    }

    /// The entries, in the order they were pushed.
    pub fn entries(&self) -> impl Iterator<Item = (NodeId, LivenessInfo)> + '_ {
        let packed = self
            .packed
            .iter()
            .map(|&(node, heard)| (node, heard.info()));
        packed.chain(self.wide.iter().copied())
    }
}

/// A node's membership cache.
///
/// Two layouts sit behind this one type and the constructor picks:
/// [`NodeCache::bootstrap`] over a dense id universe `0..n` (the gossip and
/// OneHop layers) stores id-indexed slots, while [`NodeCache::new`] /
/// [`NodeCache::with_capacity`] (sampled views, hand-built caches) start a
/// flat list of `(id, entry)` pairs, since a slot per id cannot exist for
/// a 256-of-1M sample. Behaviour is identical; iteration order is
/// unspecified in both.
///
/// ```
/// use membership::{NodeCache, LivenessInfo};
/// use simnet::{NodeId, SimDuration, SimTime};
/// let mut cache = NodeCache::new();
/// let now = SimTime::from_secs(1000);
/// cache.hear_direct(NodeId(1), SimDuration::from_secs(600), now);
/// cache.hear_indirect(
///     NodeId(2),
///     LivenessInfo::alive(SimDuration::from_secs(600), SimDuration::from_secs(300)),
///     now,
/// );
/// // Node 1 was heard just now (q = 1); node 2's info is 300 s stale.
/// assert_eq!(cache.predictor(NodeId(1), now), Some(1.0));
/// assert!((cache.predictor(NodeId(2), now).unwrap() - 600.0 / 900.0).abs() < 1e-12);
/// assert_eq!(cache.select_biased(1, &[], now), vec![NodeId(1)]);
/// ```
#[derive(Clone, Debug)]
pub struct NodeCache {
    store: Store,
}

impl Default for NodeCache {
    fn default() -> Self {
        NodeCache::new()
    }
}

/// Iterator behind [`NodeCache::entries`]: one concrete type over both
/// layouts, so callers stay statically dispatched.
enum Entries<'a> {
    Slots(std::iter::Enumerate<std::slice::Iter<'a, Slot>>),
    List(std::slice::Iter<'a, (NodeId, CacheEntry)>),
}

impl Iterator for Entries<'_> {
    type Item = (NodeId, CacheEntry);

    fn next(&mut self) -> Option<Self::Item> {
        match self {
            Entries::Slots(slots) => {
                slots.find_map(|(i, slot)| slot.unpack().map(|entry| (NodeId(i as u32), entry)))
            }
            Entries::List(list) => list.next().copied(),
        }
    }
}

impl NodeCache {
    /// Empty cache.
    pub fn new() -> Self {
        NodeCache::with_capacity(0)
    }

    /// Empty cache with room for `capacity` peers, so a view of known size
    /// is filled without reallocating.
    pub fn with_capacity(capacity: usize) -> Self {
        NodeCache::from_distinct(Vec::with_capacity(capacity))
    }

    /// A list-layout cache holding exactly `list`, whose ids the caller
    /// has already made distinct (a sampled view dedupes its draws before
    /// it computes a single entry).
    pub(crate) fn from_distinct(list: Vec<(NodeId, CacheEntry)>) -> Self {
        NodeCache {
            store: Store::List(list),
        }
    }

    /// Cache pre-populated with `nodes` at time zero with zero uptime —
    /// the bootstrap state (OneHop gives every node complete membership).
    ///
    /// The ids are taken to be (most of) a universe `0..n` and stored as
    /// id-indexed slots; a sparse set, where that would waste more than
    /// half the slots, gets the list instead.
    pub fn bootstrap(nodes: impl IntoIterator<Item = NodeId>) -> Self {
        let entry = CacheEntry {
            delta_alive: SimDuration::ZERO,
            delta_since: SimDuration::ZERO,
            t_last: SimTime::ZERO,
            dead: false,
        };
        let nodes: Vec<NodeId> = nodes.into_iter().collect();
        let universe = nodes.iter().map(|n| n.index() + 1).max().unwrap_or(0);
        let mut cache = if universe <= 2 * nodes.len() {
            NodeCache {
                store: Store::Slots {
                    slots: vec![Slot::EMPTY; universe],
                    len: 0,
                },
            }
        } else {
            NodeCache::with_capacity(nodes.len())
        };
        for node in nodes {
            cache.insert(node, entry);
        }
        cache
    }

    /// Number of cached peers.
    pub fn len(&self) -> usize {
        match &self.store {
            Store::Slots { len, .. } => *len,
            Store::List(list) => list.len(),
        }
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `node` is cached.
    pub fn contains(&self, node: NodeId) -> bool {
        self.get(node).is_some()
    }

    /// Look up an entry.
    // `#[inline]` here and on `insert`/`hear_indirect`: a gossip round is
    // ~200 of these back to back; left to the inliner, `advance` measured
    // 10 % slower at n = 256 and 30 % slower at n = 1024.
    #[inline]
    pub fn get(&self, node: NodeId) -> Option<CacheEntry> {
        match &self.store {
            Store::Slots { slots, .. } => slots.get(node.index())?.unpack(),
            Store::List(list) => list.iter().find(|(id, _)| *id == node).map(|&(_, e)| e),
        }
    }

    /// Write `node`'s entry, inserting or overwriting.
    #[inline]
    fn insert(&mut self, node: NodeId, entry: CacheEntry) {
        match &mut self.store {
            Store::Slots { slots, len } => {
                if let (Some(slot), Some(packed)) =
                    (slots.get_mut(node.index()), Slot::pack(&entry))
                {
                    *len += usize::from(!slot.occupied());
                    *slot = packed;
                    return;
                }
                self.spill();
                self.insert(node, entry);
            }
            Store::List(list) => match list.iter_mut().find(|(id, _)| *id == node) {
                Some((_, slot)) => *slot = entry,
                None => list.push((node, entry)),
            },
        }
    }

    /// An id beyond the bootstrap universe, or a time beyond a slot's 42
    /// bits, arrived: move to the list layout rather than grow slots up to
    /// an arbitrary id or widen every slot for one entry. No simulated
    /// overlay does this (its universe is fixed at construction and its
    /// runs last hours, not weeks); it keeps the type total over `NodeId`
    /// and `SimTime`.
    #[cold]
    fn spill(&mut self) {
        self.store = Store::List(self.entries().collect());
    }

    /// Direct update: we heard *from* `node` with its self-reported uptime
    /// (a direct observation is by definition fresh, so it also clears any
    /// death notice).
    pub fn hear_direct(&mut self, node: NodeId, delta_alive: SimDuration, now: SimTime) {
        self.insert(
            node,
            CacheEntry {
                delta_alive,
                delta_since: SimDuration::ZERO,
                t_last: now,
                dead: false,
            },
        );
    }

    /// Indirect update: we heard *about* `node` with the given liveness
    /// info or death notice. Fresher information (smaller effective
    /// Δt_since / death age) wins — so a rejoin observed after a death
    /// resurrects the entry, and a fresh death eclipses stale liveness.
    #[inline]
    pub fn hear_indirect(&mut self, node: NodeId, info: LivenessInfo, now: SimTime) {
        let heard = CacheEntry {
            delta_alive: info.delta_alive,
            delta_since: info.delta_since,
            t_last: now,
            dead: info.dead,
        };
        match &mut self.store {
            // The freshness test reads the two fields it needs off the
            // packed word; only news that wins is packed.
            Store::Slots { slots, len } => {
                if let Some(slot) = slots.get_mut(node.index()) {
                    if slot.occupied() && info.delta_since >= slot.effective_delta_since(now) {
                        return;
                    }
                    if let Some(packed) = Slot::pack(&heard) {
                        *len += usize::from(!slot.occupied());
                        *slot = packed;
                        return;
                    }
                }
                self.spill();
                self.hear_indirect(node, info, now);
            }
            Store::List(list) => match list.iter_mut().find(|(id, _)| *id == node) {
                None => list.push((node, heard)),
                Some((_, entry)) => {
                    if info.delta_since < entry.effective_delta_since(now) {
                        *entry = heard;
                    }
                }
            },
        }
    }

    /// [`NodeCache::hear_indirect`] of every entry of `digest` whose id is
    /// not `skip`, in digest order.
    ///
    /// On the slot layout, when every entry packed and has a slot here and
    /// `now` fits 42 bits, no entry branches on its data. A first pass
    /// runs the freshness test on the packed words and lists the entries
    /// that can win; a second applies them in order, selecting the winning
    /// 16 bytes by mask, so only the slots that change are written.
    /// Anything else goes entry by entry.
    pub fn hear_digest(&mut self, digest: &Digest, skip: NodeId, now: SimTime) {
        if let Store::Slots { slots, len } = &mut self.store {
            if digest.wide.is_empty() && digest.universe <= slots.len() && now.0 <= Slot::MAX {
                let stamp = now.0 << Slot::TIME;
                let mut added = 0;
                let mut picked = [0u8; 64];
                for chunk in digest.packed.chunks(picked.len()) {
                    // Loads only. An entry that loses to a slot as it
                    // stands loses to every later state of it as well: a
                    // win only lowers the slot's effective Δt_since.
                    let mut k = 0;
                    for (i, &(node, heard)) in chunk.iter().enumerate() {
                        let win =
                            slots[node.index()].taken_by(heard, now) & u64::from(node != skip);
                        picked[k] = i as u8;
                        k += win as usize;
                    }
                    // The test again, against the slot as the entries
                    // before left it (which differs only for a repeated id).
                    for &i in &picked[..k] {
                        let (node, Slot([h0, h1])) = chunk[usize::from(i)];
                        let slot = &mut slots[node.index()];
                        let [s0, s1] = slot.0;
                        let win = slot.taken_by(Slot([h0, h1]), now);
                        added += win & !s0 & Slot::OCCUPIED;
                        let mask = win.wrapping_neg();
                        slot.0 = [s0 ^ ((s0 ^ (h0 | stamp)) & mask), s1 ^ ((s1 ^ h1) & mask)];
                    }
                }
                *len += added as usize;
                return;
            }
        }
        for (node, info) in digest.entries() {
            if node != skip {
                self.hear_indirect(node, info, now);
            }
        }
    }

    /// Append `node`'s entry, piggybacked at `now`
    /// ([`CacheEntry::piggyback`]), to `digest`. Returns whether `node` is
    /// cached; if not, `digest` is left as it was.
    #[inline]
    pub fn piggyback_into(&self, node: NodeId, now: SimTime, digest: &mut Digest) -> bool {
        if let Store::Slots { slots, .. } = &self.store {
            let Some(&slot) = slots.get(node.index()).filter(|slot| slot.occupied()) else {
                return false;
            };
            if let Some(heard) = slot.piggyback(now) {
                digest.push_packed(node, heard);
                return true;
            }
        }
        self.get(node)
            .map(|entry| digest.push(node, entry.piggyback(now)))
            .is_some()
    }

    /// First-hand death observation (§4.5: the initiator detects the point
    /// of failure by timeout; a gossiping node detects an unreachable
    /// target): freshest possible news, so it always wins.
    pub fn record_death(&mut self, node: NodeId, now: SimTime) {
        let delta_alive = self.get(node).map_or(SimDuration::ZERO, |e| e.delta_alive);
        self.insert(
            node,
            CacheEntry {
                delta_alive,
                delta_since: SimDuration::ZERO,
                t_last: now,
                dead: true,
            },
        );
    }

    /// Remove a peer (e.g. a leave announcement).
    pub fn remove(&mut self, node: NodeId) -> bool {
        match &mut self.store {
            Store::Slots { slots, len } => {
                let removed = slots
                    .get_mut(node.index())
                    .is_some_and(|slot| std::mem::replace(slot, Slot::EMPTY).occupied());
                *len -= usize::from(removed);
                removed
            }
            Store::List(list) => match list.iter().position(|(id, _)| *id == node) {
                Some(i) => {
                    list.swap_remove(i);
                    true
                }
                None => false,
            },
        }
    }

    /// Evict entries whose effective Δt_since exceeds `timeout`.
    /// Returns how many entries were evicted.
    pub fn evict_stale(&mut self, now: SimTime, timeout: SimDuration) -> usize {
        let before = self.len();
        match &mut self.store {
            Store::Slots { slots, len } => {
                for slot in slots.iter_mut() {
                    if slot.occupied() && slot.effective_delta_since(now) > timeout {
                        *slot = Slot::EMPTY;
                        *len -= 1;
                    }
                }
            }
            Store::List(list) => list.retain(|(_, e)| e.effective_delta_since(now) <= timeout),
        }
        before - self.len()
    }

    /// The predictor `q` for a cached node at `now`.
    pub fn predictor(&self, node: NodeId, now: SimTime) -> Option<f64> {
        self.get(node).map(|e| e.predictor(now))
    }

    /// Iterate over all cached peers.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.entries().map(|(node, _)| node)
    }

    /// Iterate over `(node, entry)` pairs.
    pub fn entries(&self) -> impl Iterator<Item = (NodeId, CacheEntry)> + '_ {
        match &self.store {
            Store::Slots { slots, .. } => Entries::Slots(slots.iter().enumerate()),
            Store::List(list) => Entries::List(list.iter()),
        }
    }

    /// Uniformly sample `count` distinct cached peers, excluding `exclude`.
    /// Returns fewer if the cache is too small — the *random* mix choice.
    pub fn select_random<R: Rng>(
        &self,
        count: usize,
        exclude: &[NodeId],
        rng: &mut R,
    ) -> Vec<NodeId> {
        let mut candidates: Vec<NodeId> = self.nodes().filter(|n| !exclude.contains(n)).collect();
        // The list layout iterates in insertion order; sort so the seeded
        // shuffle sees the same input whatever the layout (slots already
        // iterate in id order, where this is one linear pass).
        candidates.sort_unstable();
        candidates.shuffle(rng);
        candidates.truncate(count);
        candidates
    }

    /// The *biased* mix choice: the `count` peers with the highest liveness
    /// predictor values at `now`, excluding `exclude`. Ties break by node
    /// id for determinism.
    pub fn select_biased(&self, count: usize, exclude: &[NodeId], now: SimTime) -> Vec<NodeId> {
        self.select_by_score(count, exclude, |e| e.predictor(now))
    }

    /// Biased choice under the horizon predictor (extension): rank by
    /// `q_H` so nodes with long uptime win even when some entries were
    /// direct-heard seconds ago.
    pub fn select_biased_with_horizon(
        &self,
        count: usize,
        exclude: &[NodeId],
        now: SimTime,
        horizon: SimDuration,
    ) -> Vec<NodeId> {
        self.select_by_score(count, exclude, |e| e.predictor_with_horizon(now, horizon))
    }

    fn select_by_score(
        &self,
        count: usize,
        exclude: &[NodeId],
        score: impl Fn(&CacheEntry) -> f64,
    ) -> Vec<NodeId> {
        let mut scored: Vec<(f64, NodeId)> = Vec::with_capacity(self.len());
        let mut rank = |n: NodeId, e: &CacheEntry| {
            if !exclude.contains(&n) {
                let q = score(e);
                debug_assert!(
                    !q.is_nan(),
                    "predictor is a ratio of non-negative durations"
                );
                scored.push((q, n));
            }
        };
        // The list is scored in place: a sampled view is ranked whole for
        // every path, and `entries` would copy each entry out first.
        match &self.store {
            Store::Slots { .. } => self.entries().for_each(|(n, e)| rank(n, &e)),
            Store::List(list) => list.iter().for_each(|(n, e)| rank(*n, e)),
        }
        // `(score desc, id asc)` is a strict total order (ids are unique),
        // so partitioning at `count` and sorting only the kept prefix gives
        // exactly the first `count` of a full sort. `total_cmp` agrees with
        // `partial_cmp` on every value the predictor produces: it is never
        // NaN and never -0.0 (the zero cases return the literal `0.0`).
        let by_rank =
            |a: &(f64, NodeId), b: &(f64, NodeId)| b.0.total_cmp(&a.0).then_with(|| a.1.cmp(&b.1));
        if 0 < count && count < scored.len() {
            scored.select_nth_unstable_by(count - 1, by_rank);
        }
        scored.truncate(count);
        scored.sort_unstable_by(by_rank);
        scored.into_iter().map(|(_, n)| n).collect()
    }

    /// Fraction of cached peers that are actually up per the ground-truth
    /// oracle (diagnostics only).
    pub fn cache_accuracy(&self, is_up: impl Fn(NodeId) -> bool) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let up = self.nodes().filter(|&n| is_up(n)).count();
        up as f64 / self.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn secs(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    fn at(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn direct_update_resets_staleness() {
        let mut cache = NodeCache::new();
        cache.hear_indirect(
            NodeId(1),
            LivenessInfo {
                delta_alive: secs(100),
                delta_since: secs(50),
                dead: false,
            },
            at(10),
        );
        cache.hear_direct(NodeId(1), secs(200), at(20));
        let e = cache.get(NodeId(1)).unwrap();
        assert_eq!(e.delta_alive, secs(200));
        assert_eq!(e.delta_since, SimDuration::ZERO);
        assert_eq!(e.t_last, at(20));
        assert_eq!(e.predictor(at(20)), 1.0);
    }

    #[test]
    fn indirect_update_inserts_when_absent() {
        let mut cache = NodeCache::new();
        let info = LivenessInfo {
            delta_alive: secs(60),
            delta_since: secs(30),
            dead: false,
        };
        cache.hear_indirect(NodeId(2), info, at(100));
        let e = cache.get(NodeId(2)).unwrap();
        assert_eq!(e.delta_alive, secs(60));
        assert_eq!(e.delta_since, secs(30));
        assert_eq!(e.t_last, at(100));
    }

    #[test]
    fn indirect_update_keeps_fresher_info() {
        let mut cache = NodeCache::new();
        // Stored at t=100 with Δt_since = 10; at t=120 its effective
        // staleness is 30.
        cache.hear_indirect(
            NodeId(3),
            LivenessInfo {
                delta_alive: secs(500),
                delta_since: secs(10),
                dead: false,
            },
            at(100),
        );
        // Staler news (Δt_since = 40 > 30) must be ignored.
        cache.hear_indirect(
            NodeId(3),
            LivenessInfo {
                delta_alive: secs(999),
                delta_since: secs(40),
                dead: false,
            },
            at(120),
        );
        assert_eq!(cache.get(NodeId(3)).unwrap().delta_alive, secs(500));
        // Fresher news (Δt_since = 5 < 30) must be accepted.
        cache.hear_indirect(
            NodeId(3),
            LivenessInfo {
                delta_alive: secs(700),
                delta_since: secs(5),
                dead: false,
            },
            at(120),
        );
        let e = cache.get(NodeId(3)).unwrap();
        assert_eq!(e.delta_alive, secs(700));
        assert_eq!(e.t_last, at(120));
    }

    #[test]
    fn predictor_follows_equation_3() {
        let mut cache = NodeCache::new();
        cache.hear_indirect(
            NodeId(4),
            LivenessInfo {
                delta_alive: secs(300),
                delta_since: secs(100),
                dead: false,
            },
            at(1000),
        );
        // At t=1100: q = 300 / (300 + 100 + 100) = 0.6.
        let q = cache.predictor(NodeId(4), at(1100)).unwrap();
        assert!((q - 0.6).abs() < 1e-12);
    }

    #[test]
    fn piggyback_adds_local_staleness() {
        let mut cache = NodeCache::new();
        cache.hear_direct(NodeId(5), secs(40), at(10));
        let info = cache.get(NodeId(5)).unwrap().piggyback(at(25));
        assert_eq!(
            info,
            LivenessInfo {
                delta_alive: secs(40),
                delta_since: secs(15),
                dead: false
            }
        );
    }

    #[test]
    fn biased_selection_prefers_high_predictor() {
        let mut cache = NodeCache::new();
        let now = at(1000);
        // Node 1: old-timer heard recently => q near 1.
        cache.hear_direct(NodeId(1), secs(5000), now);
        // Node 2: newborn heard recently => low q (small Δt_alive relative
        // to nothing... q = 1 actually since Δt_since = 0). Make it stale:
        cache.hear_indirect(
            NodeId(2),
            LivenessInfo {
                delta_alive: secs(10),
                delta_since: secs(90),
                dead: false,
            },
            now,
        );
        // Node 3: mid.
        cache.hear_indirect(
            NodeId(3),
            LivenessInfo {
                delta_alive: secs(100),
                delta_since: secs(50),
                dead: false,
            },
            now,
        );
        let picks = cache.select_biased(2, &[], now);
        assert_eq!(picks, vec![NodeId(1), NodeId(3)]);
    }

    #[test]
    fn biased_selection_respects_exclusions() {
        let mut cache = NodeCache::new();
        let now = at(100);
        for i in 0..5u32 {
            cache.hear_direct(NodeId(i), secs(1000 - i as u64 * 100), now);
        }
        let picks = cache.select_biased(3, &[NodeId(0), NodeId(1)], now);
        assert!(!picks.contains(&NodeId(0)));
        assert!(!picks.contains(&NodeId(1)));
        assert_eq!(picks.len(), 3);
    }

    #[test]
    fn random_selection_is_uniformish_and_excludes() {
        let mut cache = NodeCache::bootstrap((0..100).map(NodeId));
        cache.remove(NodeId(99));
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = vec![0u32; 100];
        for _ in 0..2000 {
            for n in cache.select_random(3, &[NodeId(0)], &mut rng) {
                counts[n.index()] += 1;
            }
        }
        assert_eq!(counts[0], 0, "excluded node must never appear");
        assert_eq!(counts[99], 0, "removed node must never appear");
        // Remaining 98 nodes share 6000 picks; each expects ~61.
        for (i, &c) in counts.iter().enumerate().skip(1).take(98) {
            assert!(c > 20 && c < 130, "node {i} picked {c} times");
        }
    }

    #[test]
    fn random_selection_returns_fewer_when_cache_small() {
        let cache = NodeCache::bootstrap((0..2).map(NodeId));
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(cache.select_random(5, &[], &mut rng).len(), 2);
    }

    #[test]
    fn eviction_drops_only_stale() {
        let mut cache = NodeCache::new();
        cache.hear_direct(NodeId(1), secs(10), at(100)); // fresh at 100
        cache.hear_indirect(
            NodeId(2),
            LivenessInfo {
                delta_alive: secs(10),
                delta_since: secs(500),
                dead: false,
            },
            at(100),
        );
        let evicted = cache.evict_stale(at(150), secs(200));
        assert_eq!(evicted, 1);
        assert!(cache.contains(NodeId(1)));
        assert!(!cache.contains(NodeId(2)));
    }

    #[test]
    fn bootstrap_of_sparse_ids_does_not_lay_out_a_slot_per_id() {
        // A slot per id up to 4 billion would be 128 GB; the constructor
        // must see that these ids are no dense universe.
        let ids = [NodeId(7), NodeId(1_000_000), NodeId(u32::MAX)];
        let mut cache = NodeCache::bootstrap(ids);
        assert_eq!(cache.len(), 3);
        assert!(ids.iter().all(|&n| cache.contains(n)));
        assert!(cache.remove(NodeId(u32::MAX)));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn slots_hold_times_below_2_pow_42_and_spill_beyond() {
        let limit = SimTime(Slot::MAX);
        let mut cache = NodeCache::bootstrap((0..4).map(NodeId));
        cache.hear_direct(NodeId(1), SimDuration(Slot::MAX), limit);
        // The bootstrap entry's staleness at `limit` is `limit` itself, so
        // a death notice one µs fresher wins.
        let age = SimDuration(Slot::MAX - 1);
        cache.hear_indirect(NodeId(2), LivenessInfo::death(age), limit);
        assert!(matches!(cache.store, Store::Slots { .. }), "2^42 - 1 fits");
        let before: Vec<_> = cache.entries().collect();
        assert_eq!(before[1].1.t_last, limit, "lossless at the top");
        assert_eq!(before[2].1.delta_since, age);
        assert!(before[2].1.dead);

        // One µs later no longer fits: the cache moves to the list, whole.
        let later = SimTime(Slot::MAX + 1);
        cache.hear_direct(NodeId(3), secs(5), later);
        assert!(matches!(cache.store, Store::List(_)));
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.get(NodeId(3)).unwrap().t_last, later);
        for (node, entry) in &before[..3] {
            assert_eq!(cache.get(*node), Some(*entry));
        }

        // A losing update with a huge time stores nothing, so it does not
        // spill either.
        let mut cache = NodeCache::bootstrap((0..4).map(NodeId));
        cache.hear_direct(NodeId(1), secs(5), at(10));
        let stale = LivenessInfo::alive(SimDuration(1 << 50), secs(20));
        cache.hear_indirect(NodeId(1), stale, at(10));
        assert!(matches!(cache.store, Store::Slots { .. }));
        assert_eq!(cache.get(NodeId(1)).unwrap().delta_alive, secs(5));
    }

    #[test]
    fn digests_a_slot_cannot_take_go_entry_by_entry() {
        let merge = |entries: &[(u32, LivenessInfo)], now: SimTime| {
            let mut digest = Digest::default();
            let mut by_entry = NodeCache::bootstrap((0..4).map(NodeId));
            let mut by_digest = by_entry.clone();
            for &(id, info) in entries {
                digest.push(NodeId(id), info);
                by_entry.hear_indirect(NodeId(id), info, now);
            }
            by_digest.hear_digest(&digest, NodeId(3), now);
            assert!(
                matches!(by_digest.store, Store::List(_)),
                "{entries:?} at {now:?}"
            );
            let sorted = |cache: &NodeCache| {
                let mut entries: Vec<_> = cache.entries().collect();
                entries.sort_unstable_by_key(|&(id, _)| id);
                entries
            };
            assert_eq!(sorted(&by_digest), sorted(&by_entry));
        };
        let fits = [
            (1, LivenessInfo::alive(secs(5), secs(1))),
            (2, LivenessInfo::death(secs(2))),
        ];
        // Entries that pack, stamped one µs past what a slot holds.
        merge(&fits, SimTime(Slot::MAX + 1));
        // An id beyond the four slots.
        merge(&[fits[0], (9, LivenessInfo::death(secs(3)))], at(10));
        // A Δt_alive a slot cannot hold: the digest keeps it unpacked.
        merge(
            &[
                fits[0],
                (2, LivenessInfo::alive(SimDuration(1 << 42), secs(1))),
            ],
            at(10),
        );
    }

    #[test]
    fn bootstrap_contains_everyone() {
        let cache = NodeCache::bootstrap((0..10).map(NodeId));
        assert_eq!(cache.len(), 10);
        for i in 0..10u32 {
            assert!(cache.contains(NodeId(i)));
        }
    }

    #[test]
    fn death_notice_zeroes_predictor_but_keeps_entry() {
        let mut cache = NodeCache::new();
        cache.hear_direct(NodeId(1), secs(5000), at(100));
        assert_eq!(cache.predictor(NodeId(1), at(100)), Some(1.0));
        cache.record_death(NodeId(1), at(150));
        assert!(
            cache.contains(NodeId(1)),
            "dead entries stay for random choice"
        );
        assert_eq!(cache.predictor(NodeId(1), at(200)), Some(0.0));
        // Random choice still samples it; biased never picks it over a
        // live node.
        cache.hear_direct(NodeId(2), secs(10), at(200));
        assert_eq!(cache.select_biased(1, &[], at(200)), vec![NodeId(2)]);
    }

    #[test]
    fn fresh_liveness_resurrects_dead_entry() {
        let mut cache = NodeCache::new();
        cache.record_death(NodeId(3), at(100));
        // Stale liveness (older than the death) must NOT resurrect.
        cache.hear_indirect(
            NodeId(3),
            LivenessInfo {
                delta_alive: secs(900),
                delta_since: secs(60),
                dead: false,
            },
            at(110),
        );
        assert!(
            cache.get(NodeId(3)).unwrap().dead,
            "stale news loses to fresh death"
        );
        // Fresh direct contact resurrects.
        cache.hear_direct(NodeId(3), secs(5), at(120));
        assert!(!cache.get(NodeId(3)).unwrap().dead);
        assert!(cache.predictor(NodeId(3), at(120)).unwrap() > 0.9);
    }

    #[test]
    fn death_notices_propagate_indirectly() {
        let mut cache = NodeCache::new();
        cache.hear_direct(NodeId(4), secs(1000), at(50));
        // A fresher death notice arrives via gossip (age 10 s < our 60 s
        // staleness).
        cache.hear_indirect(NodeId(4), LivenessInfo::death(secs(10)), at(110));
        assert!(cache.get(NodeId(4)).unwrap().dead);
        // An even staler death notice does not downgrade t_last.
        let t_last = cache.get(NodeId(4)).unwrap().t_last;
        cache.hear_indirect(NodeId(4), LivenessInfo::death(secs(500)), at(120));
        assert_eq!(cache.get(NodeId(4)).unwrap().t_last, t_last);
    }

    #[test]
    fn horizon_predictor_prefers_uptime_over_recency() {
        let mut cache = NodeCache::new();
        let now = at(1000);
        // Old-timer with slightly stale info vs newborn heard just now.
        cache.hear_indirect(
            NodeId(1),
            LivenessInfo {
                delta_alive: secs(7000),
                delta_since: secs(60),
                dead: false,
            },
            now,
        );
        cache.hear_direct(NodeId(2), secs(120), now);
        // Plain q ranks the fresh newborn first...
        assert_eq!(cache.select_biased(1, &[], now), vec![NodeId(2)]);
        // ...the horizon predictor ranks the old-timer first.
        assert_eq!(
            cache.select_biased_with_horizon(1, &[], now, secs(600)),
            vec![NodeId(1)]
        );
    }

    #[test]
    fn cache_accuracy_diagnostic() {
        let cache = NodeCache::bootstrap((0..10).map(NodeId));
        let acc = cache.cache_accuracy(|n| n.0 < 5);
        assert!((acc - 0.5).abs() < 1e-12);
    }
}
