//! Endpoint state machines: the initiator (path owner and sender ledger)
//! and responder (segment reassembly and replies).
//!
//! The initiator holds the [`PathPlan`]s for its `k` disjoint paths,
//! erasure-codes outgoing messages, allocates segments to paths
//! round-robin (SimEra's even allocation), keeps the one record of what
//! it sent and what was acked, and strips reverse onions from acks and
//! replies. The responder is a [`Relay`](crate::relay::Relay) whose terminal cache entries feed
//! a [`Reassembler`] that reconstructs messages once any `m` segments of a
//! `MID` have arrived.

use crate::ids::{MessageId, StreamId};
use crate::onion::{
    build_construction_onion_sealing, build_payload_onion, build_payload_onion_into,
    build_reverse_payload, payload_onion_len, peel_reverse_payload_in_place, PathPlan,
};
use crate::pool::BufferPool;
use crate::wire::MAX_BLOB_LEN;
use crate::AnonError;
use erasure::{Codec, Segment};
use rand::{CryptoRng, Rng};
use sim_crypto::{PublicKey, RecipientTable, SymmetricKey};
use simnet::{NodeId, SimDuration, SimTime};
use std::collections::HashMap;

/// Sentinel message id carried by construction acks (reverse onions the
/// responder sends when a path finishes forming under auto-ack).
pub const CONSTRUCT_ACK: MessageId = MessageId(u64::MAX);

/// One outgoing wire message: destination plus opaque bytes, paired with
/// the stream id expected on that link.
#[derive(Debug)]
pub struct Outgoing {
    /// First-hop node to hand the blob to.
    pub to: NodeId,
    /// Stream id on the initiator → first-relay link.
    pub sid: StreamId,
    /// Payload or construction blob.
    pub blob: Vec<u8>,
}

/// A combined construction + first-payload wire message (§4.2).
#[derive(Debug)]
pub struct CombinedOutgoing {
    /// First-hop node.
    pub to: NodeId,
    /// Stream id on the first link.
    pub sid: StreamId,
    /// Construction onion.
    pub onion: Vec<u8>,
    /// Payload onions riding along (the segments this path carries).
    pub payloads: Vec<Vec<u8>>,
}

/// An established (or in-construction) path owned by an initiator.
#[derive(Debug)]
pub struct OwnedPath {
    /// Private plan: hops and session keys.
    pub plan: PathPlan,
    /// Stream id on the first link.
    pub sid: StreamId,
    /// Whether the end-to-end construction ack arrived.
    pub established: bool,
    /// Per-message fresh responder keys minted for reused paths,
    /// keyed by message id (needed to decrypt the replies).
    pub reuse_keys: HashMap<MessageId, SymmetricKey>,
}

/// One segment of a sent message, as its sender last knew it.
#[derive(Clone, Copy, Debug)]
pub struct SentSegment {
    /// Whether its end-to-end ack arrived.
    pub acked: bool,
    /// Stream id of the path it last rode.
    pub path: StreamId,
    /// Retransmits spent on it.
    pub retries: u32,
    /// When its ack deadline was last armed: for a caller that arms one
    /// per send, when it last left.
    pub sent_at: SimTime,
    /// The caller's token for that deadline, while armed.
    deadline: Option<u64>,
}

/// The sender's record of one message.
struct SentMessage {
    /// Kept for re-coding until the last armed deadline is disarmed: the
    /// record is then *settled*, every segment acked or given up.
    payload: Option<Vec<u8>>,
    segments: Vec<SentSegment>,
    /// When a deadline of it was last armed or a segment of it acked.
    last_event: SimTime,
}

impl SentMessage {
    /// Take the deadline armed for segment `index`; with the message's
    /// last one goes the payload.
    fn disarm(&mut self, index: usize) -> Option<u64> {
        let token = self.segments.get_mut(index)?.deadline.take()?;
        if self.segments.iter().all(|s| s.deadline.is_none()) {
            self.payload = None;
        }
        Some(token)
    }
}

/// How many recipients an initiator remembers for [`RecipientTables`]: 64
/// holds every key a `chain_construct` run seals to (13) and the most used
/// of a heavy `sim_recovery` call's (32 of its 84 keys take 1 300 of its
/// 1 728 seals), and bounds the tables at 64 × 7.7 KB ≈ 0.5 MB per
/// initiator.
const MAX_RECIPIENTS: usize = 64;

/// What the initiator knows of one recipient's comb table.
enum Comb {
    /// Sealed to once, by the ladder; the next seal builds the table.
    /// Building on first use would cost a set-up that seals each key once
    /// (a chain's relays, the live node's) ~1.6 ladders per key for a
    /// table it never uses.
    NotYet,
    /// The table: later seals run its comb, about half a ladder.
    Built(Box<RecipientTable>),
    /// The key has no table (u = −1, or a u on the twist): the ladder.
    Ladder,
}

/// One remembered recipient.
struct Recipient {
    key: PublicKey,
    /// The `clock` of its last seal.
    last_use: u64,
    comb: Comb,
}

/// The recipients this initiator seals construction layers to, least
/// recently used evicted past [`MAX_RECIPIENTS`]: biased choice keeps
/// drawing the same long-lived relays, so a key's second seal builds its
/// comb table and every later one runs the comb instead of the ladder.
/// The boxes are the bytes [`sim_crypto::seal`] gives from the same RNG
/// draws. Which of the two runs depends on public facts only: whether this
/// key was sealed to before, and whether it has a table.
///
/// An onion's seals are booked first, one [`touch`](Self::touch) per layer
/// in sealing order, and then sealed together through [`table`](Self::table):
/// the clock, evictions and builds are those of one seal at a time. A key
/// that appears twice in one onion gets its table on both layers, and one
/// evicted by a later layer of the same onion (an onion of more than
/// [`MAX_RECIPIENTS`] keys) gets the ladder; neither changes a byte.
#[derive(Default)]
struct RecipientTables {
    recipients: Vec<Recipient>,
    clock: u64,
}

impl RecipientTables {
    /// Book one seal to `key`: remember it (evicting the least recent at
    /// [`MAX_RECIPIENTS`]) or, on its second seal, build its table.
    fn touch(&mut self, key: &PublicKey) {
        self.clock += 1;
        let Some(recipient) = self.recipients.iter_mut().find(|r| r.key == *key) else {
            if self.recipients.len() == MAX_RECIPIENTS {
                let lru = (0..self.recipients.len()).min_by_key(|&i| self.recipients[i].last_use);
                if let Some(lru) = lru {
                    self.recipients.swap_remove(lru);
                }
            }
            self.recipients.push(Recipient {
                key: *key,
                last_use: self.clock,
                comb: Comb::NotYet,
            });
            return;
        };
        recipient.last_use = self.clock;
        if let Comb::NotYet = recipient.comb {
            recipient.comb = match RecipientTable::new(&key.0) {
                Some(table) => Comb::Built(Box::new(table)),
                None => Comb::Ladder,
            };
        }
    }

    /// `key`'s table, once built.
    fn table(&self, key: &PublicKey) -> Option<&RecipientTable> {
        match &self.recipients.iter().find(|r| r.key == *key)?.comb {
            Comb::Built(table) => Some(table),
            Comb::NotYet | Comb::Ladder => None,
        }
    }
}

/// The initiator: builds paths, codes messages, sends segments, books
/// their acks, decodes replies. It owns all sender-side state; its callers
/// own time — when to [`resend`](Self::resend), and over which paths.
pub struct Initiator {
    id: NodeId,
    paths: Vec<OwnedPath>,
    /// Where in `paths` each stream id sits.
    index: HashMap<StreamId, usize>,
    /// How many of `paths` are established.
    established: usize,
    /// The ledger: one record per message sent and not yet swept.
    sent: HashMap<MessageId, SentMessage>,
    reassembler: Reassembler,
    /// Comb tables of the relays it keeps sealing construction layers to.
    tables: RecipientTables,
    /// Buffers for payload onions: the acks it opened hand theirs back
    /// through [`recycle`](Self::recycle).
    pool: BufferPool,
}

impl Initiator {
    /// New initiator with no paths.
    pub fn new(id: NodeId) -> Self {
        Initiator {
            id,
            paths: Vec::new(),
            index: HashMap::new(),
            established: 0,
            sent: HashMap::new(),
            reassembler: Reassembler::new(),
            tables: RecipientTables::default(),
            pool: BufferPool::new(),
        }
    }

    /// Take back a buffer this initiator is done with — an ack's, once
    /// [`open_ack`](Self::open_ack) has booked it — for a later payload
    /// onion.
    pub fn recycle(&mut self, buf: Vec<u8>) {
        self.pool.put(buf);
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Established + pending paths.
    pub fn paths(&self) -> &[OwnedPath] {
        &self.paths
    }

    /// The path built under stream id `sid`.
    pub fn path(&self, sid: StreamId) -> Option<&OwnedPath> {
        self.paths.get(*self.index.get(&sid)?)
    }

    /// Number of paths whose construction ack arrived.
    pub fn established(&self) -> usize {
        self.established
    }

    /// Build construction onions for `k` disjoint paths. `paths_hops[i]`
    /// lists `(node, public_key)` for every hop of path `i`, responder
    /// last. Returns the wire messages for the first hops.
    pub fn construct_paths<R: Rng + CryptoRng>(
        &mut self,
        paths_hops: &[Vec<(NodeId, PublicKey)>],
        rng: &mut R,
    ) -> Vec<Outgoing> {
        let mut out = Vec::with_capacity(paths_hops.len());
        for hops in paths_hops {
            for (_, key) in hops.iter().rev() {
                self.tables.touch(key);
            }
            let tables = &self.tables;
            let (plan, blob) = build_construction_onion_sealing(hops, rng, |key| tables.table(key));
            let sid = StreamId::generate(rng);
            out.push(Outgoing {
                to: plan.first_hop(),
                sid,
                blob,
            });
            self.index.insert(sid, self.paths.len());
            self.paths.push(OwnedPath {
                plan,
                sid,
                established: false,
                reuse_keys: HashMap::new(),
            });
        }
        out
    }

    /// §4.2's combined mode: build paths and send the first message's
    /// segments in the same round trip ("allows the initiator to form
    /// paths on-demand ... without message delays"). One combined wire
    /// message per segment-carrying path; an error, and no segment sent,
    /// when `paths_hops` is empty.
    pub fn construct_and_send<R: Rng + CryptoRng>(
        &mut self,
        paths_hops: &[Vec<(NodeId, PublicKey)>],
        mid: MessageId,
        message: &[u8],
        codec: &dyn Codec,
        rng: &mut R,
    ) -> Result<Vec<CombinedOutgoing>, AnonError> {
        if paths_hops.is_empty() {
            return Err(AnonError::InvalidParameters("no paths to construct".into()));
        }
        let start = self.paths.len();
        let cons = self.construct_paths(paths_hops, rng);
        let k = paths_hops.len();
        let segments = codec.encode(message);
        let mut out: Vec<CombinedOutgoing> = cons
            .into_iter()
            .map(|o| CombinedOutgoing {
                to: o.to,
                sid: o.sid,
                onion: o.blob,
                payloads: Vec::new(),
            })
            .collect();
        let pairs = (0..segments.len()).map(|i| (i, start + i % k));
        for (i, o) in self
            .segment_onions(mid, &segments, pairs, None, rng)?
            .into_iter()
            .enumerate()
        {
            out[i % k].payloads.push(o.blob);
        }
        Ok(out)
    }

    /// Mark a path established (end-to-end ack arrived on its stream).
    pub fn mark_established(&mut self, sid: StreamId) -> bool {
        let Some(path) = self.index.get(&sid).map(|&at| &mut self.paths[at]) else {
            return false;
        };
        self.established += usize::from(!path.established);
        path.established = true;
        true
    }

    /// Drop a path (failure detected, §4.5). Returns true if it existed.
    pub fn drop_path(&mut self, sid: StreamId) -> bool {
        let Some(at) = self.index.remove(&sid) else {
            return false;
        };
        self.established -= usize::from(self.paths.remove(at).established);
        for (i, later) in self.paths.iter().enumerate().skip(at) {
            self.index.insert(later.sid, i);
        }
        true
    }

    /// Erasure-code `message` with `codec`, allocate segments evenly
    /// over this initiator's paths (SimEra: segment `i` goes to path
    /// `i % k`) and open the message's ledger record. Returns the wire
    /// messages, one per segment.
    ///
    /// With `reuse_for` set, paths are *reused* for a different responder
    /// (§4.4): the last relay redirects and the new responder's key rides
    /// along sealed to `reuse_for.1`.
    ///
    /// A message whose segment onion would not fit in a frame
    /// ([`MAX_BLOB_LEN`]) is refused with [`AnonError::Oversized`] before
    /// any RNG draw or ledger write.
    pub fn send_message<R: Rng + CryptoRng>(
        &mut self,
        mid: MessageId,
        message: &[u8],
        codec: &dyn Codec,
        reuse_for: Option<(NodeId, PublicKey)>,
        rng: &mut R,
    ) -> Result<Vec<Outgoing>, AnonError> {
        let segments = codec.encode(message);
        let pairs = (0..segments.len()).map(|i| (i, i));
        let out = self.segment_onions(mid, &segments, pairs, reuse_for, rng)?;
        let unacked = |path| SentSegment {
            acked: false,
            path,
            retries: 0,
            sent_at: SimTime::ZERO,
            deadline: None,
        };
        let record = SentMessage {
            payload: Some(message.to_vec()),
            segments: out.iter().map(|msg| unacked(msg.sid)).collect(),
            last_event: SimTime::ZERO,
        };
        self.sent.insert(mid, record);
        Ok(out)
    }

    /// Re-send the segments of `mid` named by `pairs` (erasure-aware
    /// retransmission, §4.5): after an ack timeout the initiator needs
    /// just enough missing segments to reach `m`, never the whole
    /// message. Each pair is `(segment index, path slot)`, the slot taken
    /// modulo the *current* path set — which may differ from the original
    /// allocation if failed paths were torn down and replaced. The slot
    /// rule is the caller's retransmit policy: a round passes `(idx, j)`
    /// for its `j`-th missing segment, a per-segment timer
    /// `(idx, idx + retry)`. An onion that would not fit in a frame is
    /// refused as in [`send_message`](Self::send_message).
    pub fn resend<R: Rng + CryptoRng>(
        &mut self,
        mid: MessageId,
        codec: &dyn Codec,
        pairs: &[(usize, usize)],
        rng: &mut R,
    ) -> Result<Vec<Outgoing>, AnonError> {
        let payload = self.sent.get(&mid).and_then(|m| m.payload.as_ref());
        let no_payload = || AnonError::InvalidParameters("no payload kept for the message".into());
        let segments = codec.encode(payload.ok_or_else(no_payload)?);
        let out = self.segment_onions(mid, &segments, pairs.iter().copied(), None, rng)?;
        // The payload above came from this record.
        let segs = self
            .sent
            .get_mut(&mid)
            .map_or(&mut [][..], |m| &mut m.segments);
        for (&(index, _), msg) in pairs.iter().zip(&out) {
            if let Some(seg) = segs.get_mut(index) {
                (seg.path, seg.retries) = (msg.sid, seg.retries + 1);
            }
        }
        Ok(out)
    }

    /// The one segment-onion builder: for each `(segment index, path
    /// slot)` pair, in order, the onion carrying that segment of `mid`
    /// over `paths[slot mod k]`. Every onion is checked to fit in a frame
    /// before the first is built.
    fn segment_onions<R: Rng + CryptoRng>(
        &mut self,
        mid: MessageId,
        segments: &[Segment],
        pairs: impl Iterator<Item = (usize, usize)> + Clone,
        reuse_for: Option<(NodeId, PublicKey)>,
        rng: &mut R,
    ) -> Result<Vec<Outgoing>, AnonError> {
        if self.paths.is_empty() {
            return Err(AnonError::InvalidParameters("no paths constructed".into()));
        }
        let k = self.paths.len();
        for (index, slot) in pairs.clone() {
            let seg_len = segments.get(index).map_or(0, Segment::len);
            let len = payload_onion_len(&self.paths[slot % k].plan, seg_len, reuse_for.is_some());
            if len > MAX_BLOB_LEN {
                let max = MAX_BLOB_LEN;
                return Err(AnonError::Oversized { len, max });
            }
        }
        let mut out = Vec::with_capacity(pairs.size_hint().0);
        for (index, slot) in pairs {
            let out_of_range = || AnonError::InvalidParameters("segment index out of range".into());
            let seg = segments.get(index).ok_or_else(out_of_range)?;
            let path = &mut self.paths[slot % k];
            let blob = match reuse_for {
                None => {
                    let mut blob = self.pool.get();
                    build_payload_onion_into(&path.plan, mid, seg, &mut blob, rng);
                    blob
                }
                Some(_) => {
                    let (blob, fresh) = build_payload_onion(&path.plan, mid, seg, reuse_for, rng);
                    path.reuse_keys.extend(fresh.map(|key| (mid, key)));
                    blob
                }
            };
            out.push(Outgoing {
                to: path.plan.first_hop(),
                sid: path.sid,
                blob,
            });
        }
        Ok(out)
    }

    /// What the ledger holds on segment `index` of `mid`.
    pub fn segment(&self, mid: MessageId, index: usize) -> Option<&SentSegment> {
        self.sent.get(&mid)?.segments.get(index)
    }

    /// Indices of `mid`'s segments not acked so far, ascending (none for
    /// a message the ledger does not hold).
    pub fn missing(&self, mid: MessageId) -> Vec<usize> {
        let segments = self.sent.get(&mid).map_or(&[][..], |m| &m.segments);
        (0..segments.len())
            .filter(|&i| !segments[i].acked)
            .collect()
    }

    /// Whether every segment of `mid` was acked end to end; `false` for a
    /// message never sent or already [swept](Self::sweep).
    pub fn is_complete(&self, mid: MessageId) -> bool {
        let record = self.sent.get(&mid);
        record.is_some_and(|m| m.segments.iter().all(|s| s.acked))
    }

    /// Messages the ledger holds a record of, and how many of them still
    /// keep their payload for re-coding (are not settled).
    pub fn ledger_len(&self) -> (usize, usize) {
        let kept = self.sent.values().filter(|m| m.payload.is_some());
        (self.sent.len(), kept.count())
    }

    /// Terminate the reverse onion `blob` that arrived on stream `sid` at
    /// `now`, stripping every layer with that path's plan, and book it:
    /// `None` and the path established for its [`CONSTRUCT_ACK`], or the
    /// segment acked with what [`note_ack`](Self::note_ack) returned for
    /// it. The one termination the simulator's driver and the live node
    /// share. On [`AnonError::UnknownStream`] — `sid` is no path of this
    /// initiator — `blob` is untouched; no error changes the ledger.
    pub fn open_ack(
        &mut self,
        sid: StreamId,
        blob: &mut Vec<u8>,
        now: SimTime,
    ) -> Result<Option<(MessageId, usize, Option<u64>)>, AnonError> {
        let path = self.path(sid).ok_or(AnonError::UnknownStream)?;
        let (mid, index) = peel_reverse_payload_in_place(&path.plan, blob, None)?;
        if mid == CONSTRUCT_ACK {
            self.mark_established(sid);
            return Ok(None);
        }
        Ok(Some((mid, index, self.note_ack(mid, index, now))))
    }

    /// Book an end-to-end ack, arriving at `now`, for segment `index` of
    /// `mid`; one for a segment the ledger does not hold changes nothing.
    /// Returns the token of the deadline it disarms, if one was armed.
    pub fn note_ack(&mut self, mid: MessageId, index: usize, now: SimTime) -> Option<u64> {
        let record = self.sent.get_mut(&mid)?;
        let seg = record.segments.get_mut(index)?;
        if !seg.acked {
            (seg.acked, record.last_event) = (true, now);
        }
        record.disarm(index)
    }

    /// The caller armed, at `now`, an ack deadline for segment `index` of
    /// `mid` under its own `token` (in place of any armed before).
    pub fn arm(&mut self, mid: MessageId, index: usize, token: u64, now: SimTime) {
        if let Some(record) = self.sent.get_mut(&mid) {
            if let Some(seg) = record.segments.get_mut(index) {
                (seg.deadline, seg.sent_at, record.last_event) = (Some(token), now, now);
            }
        }
    }

    /// The deadline of segment `index` of `mid` passed and the caller
    /// gives the segment up. Returns its token, if one was armed; a message
    /// with no deadline left is settled and lets go of its payload.
    pub fn disarm(&mut self, mid: MessageId, index: usize) -> Option<u64> {
        self.sent.get_mut(&mid)?.disarm(index)
    }

    /// Drop every settled record whose last event is more than `ttl`
    /// before `now`; returns how many. A swept id answers `false` to
    /// [`is_complete`](Self::is_complete) and ignores late acks, so `ttl`
    /// must outlast both. Only a caller that arms deadlines settles
    /// records, so only one with a clock has anything to sweep.
    pub fn sweep(&mut self, now: SimTime, ttl: SimDuration) -> usize {
        let before = self.sent.len();
        self.sent
            .retain(|_, m| m.payload.is_some() || now.since(m.last_event) <= ttl);
        before - self.sent.len()
    }

    /// Process a reverse (reply) blob arriving on stream `sid`; feeds the
    /// reassembler and returns the reconstructed reply once `m` segments of
    /// its `MID` are in.
    pub fn handle_reply(
        &mut self,
        sid: StreamId,
        blob: &[u8],
        codec: &dyn Codec,
    ) -> Result<Option<(MessageId, Vec<u8>)>, AnonError> {
        let path = self.path(sid).ok_or(AnonError::UnknownStream)?;
        // Try the construction-time responder key first, then any minted
        // reuse keys (the reply's MID is inside the onion, so we cannot
        // pre-select; the paths hold few reuse keys in practice). A failed
        // attempt leaves the buffer half peeled, so each starts from `blob`.
        let mut buf = Vec::new();
        let mut peel = |key: Option<&SymmetricKey>| {
            buf.clear();
            buf.extend_from_slice(blob);
            peel_reverse_payload_in_place(&path.plan, &mut buf, key)
        };
        let mut peeled = peel(None);
        for key in path.reuse_keys.values() {
            if peeled.is_ok() {
                break;
            }
            peeled = peel(Some(key));
        }
        let (mid, index) = peeled?;
        // This endpoint has no clock and never sweeps: the stamp goes unread.
        Ok(self
            .reassembler
            .push(mid, index, &mut buf, codec, SimTime::ZERO)?
            .map(|msg| (mid, msg)))
    }
}

/// Reassembles erasure-coded segments into messages, per message id.
///
/// Every entry carries the time of its last arrival so that an owner with
/// a clock can [`sweep`](Self::sweep) what went quiet: the segment bodies
/// of a message that never reaches `m`, and the ids of delivered ones.
#[derive(Default)]
pub struct Reassembler {
    pending: HashMap<MessageId, Partial>,
    /// Delivered message ids, with when they completed.
    completed: HashMap<MessageId, SimTime>,
}

/// The segments of a message still short of `m`.
struct Partial {
    last_arrival: SimTime,
    segments: Vec<Segment>,
}

impl Reassembler {
    /// Empty reassembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of messages with outstanding segments.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Number of delivered message ids still remembered.
    pub fn completed(&self) -> usize {
        self.completed.len()
    }

    /// Add segment `index` of `mid`, arriving at `now` with its bytes in
    /// `bytes`. Returns the reconstructed message when `m` distinct
    /// segments have arrived (exactly once per message id — duplicates and
    /// late segments after completion are ignored).
    ///
    /// `bytes` is left as it was. It is copied only to wait for the rest
    /// of its message; the `m`-th segment is decoded where it lies. A
    /// segment the codec refuses changes nothing.
    pub fn push(
        &mut self,
        mid: MessageId,
        index: usize,
        bytes: &mut Vec<u8>,
        codec: &dyn Codec,
        now: SimTime,
    ) -> Result<Option<Vec<u8>>, AnonError> {
        if self.completed.contains_key(&mid) {
            return Ok(None);
        }
        let held = self.pending.get(&mid).map_or(&[][..], |p| &p.segments);
        if held.iter().any(|s| s.index == index) {
            return Ok(None); // duplicate
        }
        if held.len() + 1 < codec.required() {
            let partial = self.pending.entry(mid).or_insert_with(|| Partial {
                last_arrival: now,
                segments: Vec::new(),
            });
            partial.last_arrival = now;
            partial.segments.push(Segment::new(index, bytes.clone()));
            return Ok(None);
        }
        // The `m`-th segment: lent to the decoder, then handed back. A
        // refused one leaves the segments before it where they were.
        let lent = Segment::new(index, std::mem::take(bytes));
        let (decoded, lent) = match self.pending.remove(&mid) {
            None => (codec.decode(std::slice::from_ref(&lent)), lent),
            Some(mut partial) => {
                partial.segments.push(lent);
                let decoded = codec.decode(&partial.segments);
                let last = partial.segments.len() - 1;
                let lent = partial.segments.swap_remove(last);
                if decoded.is_err() {
                    self.pending.insert(mid, partial);
                }
                (decoded, lent)
            }
        };
        *bytes = lent.data;
        let msg = decoded?;
        self.completed.insert(mid, now);
        Ok(Some(msg))
    }

    /// Drop every entry whose last arrival is more than `ttl` before
    /// `now`. Returns the number of entries removed.
    ///
    /// Forgetting a *delivered* id reopens it: a segment of that message
    /// arriving later would start a fresh entry and, at `m = 1`, deliver
    /// twice. That needs a segment still in flight `ttl` after the message
    /// completed, so `ttl` must exceed the sender's retransmit horizon,
    /// `ack_timeout × (max_retries + 1)` — 5 s at the node's defaults
    /// against the 120-s relay TTL the node sweeps with.
    pub fn sweep(&mut self, now: SimTime, ttl: SimDuration) -> usize {
        let before = self.pending.len() + self.completed.len();
        self.pending
            .retain(|_, partial| now.since(partial.last_arrival) <= ttl);
        self.completed.retain(|_, &mut at| now.since(at) <= ttl);
        before - self.pending.len() - self.completed.len()
    }
}

/// The responder's upper half: reassembly plus reply emission. (Its lower
/// half is a [`crate::relay::Relay`] holding the terminal cache entries.)
pub struct Responder {
    id: NodeId,
    reassembler: Reassembler,
    /// Arrival records: for each message, which (upstream hop, sid, key)
    /// tuples delivered segments — the reverse-path handles for replying.
    arrivals: HashMap<MessageId, Vec<(NodeId, StreamId, SymmetricKey)>>,
}

impl Responder {
    /// New responder.
    pub fn new(id: NodeId) -> Self {
        Responder {
            id,
            reassembler: Reassembler::new(),
            arrivals: HashMap::new(),
        }
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Record a delivered segment that arrived from `from` on stream `sid`
    /// secured by `key`. Returns the reconstructed message once complete.
    pub fn accept_segment(
        &mut self,
        from: NodeId,
        sid: StreamId,
        key: SymmetricKey,
        mid: MessageId,
        mut segment: Segment,
        codec: &dyn Codec,
    ) -> Result<Option<Vec<u8>>, AnonError> {
        self.arrivals.entry(mid).or_default().push((from, sid, key));
        // This endpoint has no clock and never sweeps: the stamp goes unread.
        let index = segment.index;
        self.reassembler
            .push(mid, index, &mut segment.data, codec, SimTime::ZERO)
    }

    /// Build reply wire messages: the response is coded with `codec` and
    /// its segments sent back over the paths that delivered the request
    /// ("some time later he/she may send back the coded response segments
    /// over the k paths", §4).
    pub fn reply<R: Rng + CryptoRng>(
        &mut self,
        request_mid: MessageId,
        response: &[u8],
        codec: &dyn Codec,
        rng: &mut R,
    ) -> Result<Vec<Outgoing>, AnonError> {
        let arrivals = self
            .arrivals
            .get(&request_mid)
            .ok_or(AnonError::UnknownStream)?;
        if arrivals.is_empty() {
            return Err(AnonError::UnknownStream);
        }
        let segments = codec.encode(response);
        let k = arrivals.len();
        let mut out = Vec::with_capacity(segments.len());
        for seg in &segments {
            let (to, sid, key) = arrivals[seg.index % k];
            let blob = build_reverse_payload(&key, request_mid, seg, rng);
            out.push(Outgoing { to, sid, blob });
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::onion::wrap_reverse_layer_in_place;
    use erasure::{ErasureCodec, ErasureError, ReplicationCodec};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};
    use std::collections::{BTreeMap, BTreeSet};

    /// Whether the initiator remembers `key`, and then whether it has
    /// built its table.
    fn table_built(initiator: &Initiator, key: &PublicKey) -> Option<bool> {
        let recipients = &initiator.tables.recipients;
        let recipient = recipients.iter().find(|r| r.key == *key)?;
        Some(matches!(recipient.comb, Comb::Built(_)))
    }

    #[test]
    fn a_keys_second_seal_builds_its_table_and_the_least_recent_is_evicted() {
        let mut rng = StdRng::seed_from_u64(40);
        let keys: Vec<(NodeId, PublicKey)> = (0..100)
            .map(|n| (NodeId(n), sim_crypto::KeyPair::generate(&mut rng).public))
            .collect();
        let mut initiator = Initiator::new(NodeId(1_000));
        // A one-hop path seals one layer, to its responder.
        let mut seal_to = |initiator: &mut Initiator, at: usize| {
            initiator.construct_paths(&[vec![keys[at]]], &mut rng);
            assert!(initiator.tables.recipients.len() <= MAX_RECIPIENTS);
        };

        seal_to(&mut initiator, 0);
        assert_eq!(table_built(&initiator, &keys[0].1), Some(false));
        seal_to(&mut initiator, 0);
        assert_eq!(table_built(&initiator, &keys[0].1), Some(true));

        for at in 1..MAX_RECIPIENTS {
            seal_to(&mut initiator, at);
        }
        assert_eq!(initiator.tables.recipients.len(), MAX_RECIPIENTS);
        // Key 0 is used again, so key 1 is now the least recent: the 65th
        // key evicts it and keeps key 0 with its table.
        seal_to(&mut initiator, 0);
        seal_to(&mut initiator, MAX_RECIPIENTS);
        assert_eq!(table_built(&initiator, &keys[1].1), None);
        assert_eq!(table_built(&initiator, &keys[0].1), Some(true));
        assert_eq!(table_built(&initiator, &keys[2].1), Some(false));

        for at in MAX_RECIPIENTS + 1..100 {
            seal_to(&mut initiator, at);
        }
        assert_eq!(initiator.tables.recipients.len(), MAX_RECIPIENTS);
        assert_eq!(table_built(&initiator, &keys[99].1), Some(false));

        // An onion's seals are booked innermost first, as they are
        // sealed: of a two-hop path's keys, the responder's is the less
        // recent, and the 65th key evicts it.
        let mut initiator = Initiator::new(NodeId(1_001));
        initiator.construct_paths(&[vec![keys[0], keys[1]]], &mut rng);
        for key in &keys[2..=MAX_RECIPIENTS] {
            initiator.construct_paths(&[vec![*key]], &mut rng);
        }
        assert_eq!(table_built(&initiator, &keys[1].1), None);
        assert_eq!(table_built(&initiator, &keys[0].1), Some(false));
    }

    #[test]
    fn constructions_through_tables_are_the_plain_onions() {
        // Four rounds over the same relays: the first seals by the ladder,
        // the second builds tables, the rest run combs. Every blob, session
        // key and stream id is what the table-free builder gives from the
        // same RNG state, and both drew the same bytes.
        let paths = hop_lists(&[&[1, 2, 3, 9], &[4, 5, 6, 9], &[7, 8, 2, 9]]);
        let mut a = StdRng::seed_from_u64(41);
        let mut b = a.clone();
        let mut initiator = Initiator::new(NodeId(0));
        for round in 0..4 {
            let sent = initiator.construct_paths(&paths, &mut a);
            for (hops, out) in paths.iter().zip(&sent) {
                let (plan, blob) = crate::onion::build_construction_onion(hops, &mut b);
                let sid = StreamId::generate(&mut b);
                assert_eq!((out.sid, &out.blob), (sid, &blob), "round {round}");
                let ours = &initiator.path(sid).expect("just built").plan;
                assert_eq!(ours.session_keys, plan.session_keys, "round {round}");
            }
            assert_eq!(a.next_u64(), b.next_u64());
        }
        assert!(paths
            .iter()
            .flatten()
            .all(|(_, key)| table_built(&initiator, key) == Some(true)));
    }

    /// One hop list per entry of `paths` (node ids, responder last), keyed
    /// from a fixed stream of its own.
    fn hop_lists(paths: &[&[u32]]) -> Vec<Vec<(NodeId, PublicKey)>> {
        let mut keys = StdRng::seed_from_u64(99);
        let mut keyed = |&n| (NodeId(n), sim_crypto::KeyPair::generate(&mut keys).public);
        paths
            .iter()
            .map(|p| p.iter().map(&mut keyed).collect())
            .collect()
    }

    /// The reverse onion acking segment `index` of `mid` as it reaches the
    /// initiator over `path`: the responder's layer, then one per relay.
    fn ack_blob(path: &OwnedPath, mid: MessageId, index: usize, rng: &mut StdRng) -> Vec<u8> {
        let (responder, relays) = path.plan.session_keys.split_last().unwrap();
        let mut blob = build_reverse_payload(responder, mid, &Segment::new(index, vec![]), rng);
        for key in relays.iter().rev() {
            wrap_reverse_layer_in_place(key, &mut blob, rng);
        }
        blob
    }

    #[test]
    fn reassembler_completes_at_m_segments() {
        let codec = ErasureCodec::new(3, 6).unwrap();
        let msg = b"reassemble me please".to_vec();
        let segs = codec.encode(&msg);
        let mut r = Reassembler::new();
        let mid = MessageId(1);
        assert_eq!(
            r.push(mid, 5, &mut segs[5].data.clone(), &codec, SimTime::ZERO)
                .unwrap(),
            None
        );
        assert_eq!(
            r.push(mid, 1, &mut segs[1].data.clone(), &codec, SimTime::ZERO)
                .unwrap(),
            None
        );
        let got = r
            .push(mid, 3, &mut segs[3].data.clone(), &codec, SimTime::ZERO)
            .unwrap();
        assert_eq!(got, Some(msg));
        assert_eq!(r.pending(), 0);
    }

    #[test]
    fn reassembler_ignores_duplicates_and_post_completion() {
        let codec = ReplicationCodec::new(3).unwrap();
        let msg = b"dup".to_vec();
        let segs = codec.encode(&msg);
        let mut r = Reassembler::new();
        let mid = MessageId(2);
        // Replication completes on the first segment.
        assert_eq!(
            r.push(mid, 0, &mut segs[0].data.clone(), &codec, SimTime::ZERO)
                .unwrap(),
            Some(msg)
        );
        // Later segments of a completed message are swallowed.
        assert_eq!(
            r.push(mid, 1, &mut segs[1].data.clone(), &codec, SimTime::ZERO)
                .unwrap(),
            None
        );
        assert_eq!(
            r.push(mid, 2, &mut segs[2].data.clone(), &codec, SimTime::ZERO)
                .unwrap(),
            None
        );
    }

    #[test]
    fn reassembler_duplicate_segment_does_not_count() {
        let codec = ErasureCodec::new(2, 4).unwrap();
        let msg = b"two needed".to_vec();
        let segs = codec.encode(&msg);
        let mut r = Reassembler::new();
        let mid = MessageId(3);
        assert_eq!(
            r.push(mid, 0, &mut segs[0].data.clone(), &codec, SimTime::ZERO)
                .unwrap(),
            None
        );
        assert_eq!(
            r.push(mid, 0, &mut segs[0].data.clone(), &codec, SimTime::ZERO)
                .unwrap(),
            None,
            "same index again"
        );
        assert_eq!(
            r.push(mid, 2, &mut segs[2].data.clone(), &codec, SimTime::ZERO)
                .unwrap(),
            Some(msg)
        );
    }

    /// The segment that would complete a message, refused by the codec
    /// (an out-of-range index, a ragged length), changes nothing: the
    /// held segment stays, its bytes come back, and a good segment still
    /// completes the message. A 1-of-n refusal holds nothing either.
    #[test]
    fn a_refused_completing_segment_leaves_the_held_ones() {
        let codec = ErasureCodec::new(2, 4).unwrap();
        let msg = b"two needed".to_vec();
        let segs = codec.encode(&msg);
        let mut r = Reassembler::new();
        let mid = MessageId(4);
        let at = SimTime::ZERO;
        assert_eq!(
            r.push(mid, 1, &mut segs[1].data.clone(), &codec, at),
            Ok(None)
        );
        let mut bad_index = segs[3].data.clone();
        let refused = r.push(mid, 9, &mut bad_index, &codec, at);
        assert_eq!(refused, Err(AnonError::Erasure(ErasureError::BadIndex(9))));
        assert_eq!(bad_index, segs[3].data, "the bytes come back");
        let mut ragged = segs[3].data[1..].to_vec();
        let refused = r.push(mid, 3, &mut ragged, &codec, at);
        assert_eq!(
            refused,
            Err(AnonError::Erasure(ErasureError::LengthMismatch))
        );
        assert_eq!((r.pending(), r.completed()), (1, 0));
        let done = r.push(mid, 3, &mut segs[3].data.clone(), &codec, at);
        assert_eq!(done, Ok(Some(msg)));
        assert_eq!((r.pending(), r.completed()), (0, 1));

        let single = ErasureCodec::new(1, 2).unwrap();
        let refused = r.push(MessageId(5), 7, &mut vec![0; 8], &single, at);
        assert_eq!(refused, Err(AnonError::Erasure(ErasureError::BadIndex(7))));
        assert_eq!((r.pending(), r.completed()), (0, 1));
    }

    #[test]
    fn reassembler_tracks_messages_independently() {
        let codec = ErasureCodec::new(2, 2).unwrap();
        let m1 = b"first".to_vec();
        let m2 = b"second".to_vec();
        let s1 = codec.encode(&m1);
        let s2 = codec.encode(&m2);
        let mut r = Reassembler::new();
        assert_eq!(
            r.push(
                MessageId(1),
                0,
                &mut s1[0].data.clone(),
                &codec,
                SimTime::ZERO
            )
            .unwrap(),
            None
        );
        assert_eq!(
            r.push(
                MessageId(2),
                1,
                &mut s2[1].data.clone(),
                &codec,
                SimTime::ZERO
            )
            .unwrap(),
            None
        );
        assert_eq!(r.pending(), 2);
        assert_eq!(
            r.push(
                MessageId(2),
                0,
                &mut s2[0].data.clone(),
                &codec,
                SimTime::ZERO
            )
            .unwrap(),
            Some(m2)
        );
        assert_eq!(
            r.push(
                MessageId(1),
                1,
                &mut s1[1].data.clone(),
                &codec,
                SimTime::ZERO
            )
            .unwrap(),
            Some(m1)
        );
    }

    #[test]
    fn sweep_drops_what_went_quiet_for_longer_than_the_ttl() {
        let codec = ErasureCodec::new(2, 3).unwrap();
        let segs = codec.encode(b"aged");
        let (at, ttl) = (SimTime::from_secs, SimDuration::from_secs(10));
        let mut r = Reassembler::new();
        // Message 1 completes at 1 s; 2 and 3 stay one segment short, 3
        // (which needs all three) with a last arrival at 8 s.
        r.push(MessageId(1), 0, &mut segs[0].data.clone(), &codec, at(0))
            .unwrap();
        r.push(MessageId(1), 1, &mut segs[1].data.clone(), &codec, at(1))
            .unwrap();
        r.push(MessageId(2), 0, &mut segs[0].data.clone(), &codec, at(1))
            .unwrap();
        let all = ErasureCodec::new(3, 3).unwrap();
        r.push(MessageId(3), 0, &mut segs[0].data.clone(), &all, at(1))
            .unwrap();
        r.push(MessageId(3), 2, &mut segs[2].data.clone(), &all, at(8))
            .unwrap();
        assert_eq!(r.sweep(at(11), ttl), 0, "exactly `ttl` old is kept");
        assert_eq!(r.sweep(at(12), ttl), 2);
        assert_eq!((r.pending(), r.completed()), (1, 0));
        assert_eq!(r.sweep(at(19), ttl), 1);
        assert_eq!(r.pending(), 0);
    }

    #[test]
    fn construct_and_send_bundles_segments_per_path() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut initiator = Initiator::new(NodeId(0));
        let kp1 = sim_crypto::KeyPair::generate(&mut rng);
        let kp2 = sim_crypto::KeyPair::generate(&mut rng);
        let paths = vec![
            vec![(NodeId(10), kp1.public)],
            vec![(NodeId(20), kp2.public)],
        ];
        // 4 segments over 2 paths: each combined message carries 2 payloads.
        let codec = ErasureCodec::new(2, 4).unwrap();
        let out = initiator
            .construct_and_send(&paths, MessageId(1), b"bundle", &codec, &mut rng)
            .unwrap();
        assert_eq!(out.len(), 2);
        for c in &out {
            assert_eq!(c.payloads.len(), 2);
            assert!(!c.onion.is_empty());
        }
        assert_eq!(out[0].to, NodeId(10));
        assert_eq!(out[1].to, NodeId(20));
        assert_eq!(
            initiator.paths().len(),
            2,
            "paths are cached for later sends"
        );
    }

    #[test]
    fn initiator_allocates_segments_round_robin() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut initiator = Initiator::new(NodeId(0));
        // Two fake 1-hop paths (responder only) — enough to observe the
        // allocation pattern.
        let kp1 = sim_crypto::KeyPair::generate(&mut rng);
        let kp2 = sim_crypto::KeyPair::generate(&mut rng);
        let paths = vec![
            vec![(NodeId(10), kp1.public)],
            vec![(NodeId(20), kp2.public)],
        ];
        let cons = initiator.construct_paths(&paths, &mut rng);
        assert_eq!(cons.len(), 2);
        assert_eq!(cons[0].to, NodeId(10));
        assert_eq!(cons[1].to, NodeId(20));

        let codec = ErasureCodec::new(2, 4).unwrap();
        let out = initiator
            .send_message(MessageId(9), b"split me", &codec, None, &mut rng)
            .unwrap();
        assert_eq!(out.len(), 4);
        // Segments 0,2 -> path 0; 1,3 -> path 1.
        assert_eq!(out[0].to, NodeId(10));
        assert_eq!(out[1].to, NodeId(20));
        assert_eq!(out[2].to, NodeId(10));
        assert_eq!(out[3].to, NodeId(20));
    }

    #[test]
    fn resend_targets_only_missing_indices() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut initiator = Initiator::new(NodeId(0));
        initiator.construct_paths(&hop_lists(&[&[10], &[20]]), &mut rng);
        let codec = ErasureCodec::new(2, 4).unwrap();
        let mid = MessageId(4);
        initiator
            .send_message(mid, b"partial loss", &codec, None, &mut rng)
            .unwrap();
        // Only segments 1 and 3 went missing: exactly two retransmits,
        // spread round-robin from path 0.
        let out = initiator
            .resend(mid, &codec, &[(1, 0), (3, 1)], &mut rng)
            .unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].to, NodeId(10));
        assert_eq!(out[1].to, NodeId(20));
        let seg = |i| *initiator.segment(mid, i).unwrap();
        assert_eq!((seg(1).path, seg(1).retries), (out[0].sid, 1));
        assert_eq!((seg(2).path, seg(2).retries), (out[0].sid, 0));
        assert_eq!((seg(3).path, seg(3).retries), (out[1].sid, 1));
        // Out-of-range index and unknown message are errors, not panics.
        assert!(initiator.resend(mid, &codec, &[(9, 0)], &mut rng).is_err());
        let unsent = MessageId(5);
        assert!(initiator
            .resend(unsent, &codec, &[(1, 0)], &mut rng)
            .is_err());
    }

    /// Recorded on the parent commit, where the two retransmit paths were
    /// separate code: sha256 over `(to, sid, blob)` of the onions
    /// `resend_segments(.., &[1, 3])` returned (the runner's rounds) and of
    /// the ones `ProtocolNode::on_timer` sent for retry 1 and 2 of segment
    /// 1 (the node's timers), for `StdRng` seeds 1, 2 and 3. The blobs are
    /// ciphertext, so the hashes were taken again when the payload layer's
    /// tag changed (wire v2), on a commit that touched nothing in this file,
    /// and again when the session keys' cipher key moved from HKDF to
    /// HChaCha20, before the construction onion's layers were batched.
    #[test]
    fn resend_reproduces_both_retransmit_policies_byte_for_byte() {
        const RECORDED: [[&str; 3]; 3] = [
            [
                "6704e53e39cfac09b03292a95fd36d52d72c5189a9cc58e6c6f905119b0f57c8",
                "b0bbe3cf75d64c0baa60878b9d975f55232aa4948de6dd6fedb5ee60021713f1",
                "93a67f78871625f1fbee6bfbdbf245d1c8b713ed2c236ada5dee2700370b439f",
            ],
            [
                "fbb90274a1047ebaf9237050a03cbbd48c723fb659a28dda643229ac56a0e0bd",
                "8c0f87fc1e702a8a78b496492492554c2029e01825f15a6c2be6f5b9253cb23d",
                "23baccb412db3bc8fc6a498ae47c71cde51218a5c9e6fd5707f0b79b5912fb75",
            ],
            [
                "2782417993b253b2fae7b6ca5a90cbe15af2b286caa128e5bde95b8fcba136b2",
                "0040c23ee3459eea1f1a629ef9517a18611adfdda7ac5123b0e17147f8eae60e",
                "1980d8fb4b1c36d0ec16d7e597d4cd23e35a42d97d3cc54da53a513f9f255f99",
            ],
        ];
        let digest = |out: Vec<Outgoing>| {
            let mut bytes = Vec::new();
            for o in &out {
                bytes.extend_from_slice(&o.to.0.to_le_bytes());
                bytes.extend_from_slice(&o.sid.0.to_le_bytes());
                bytes.extend_from_slice(&o.blob);
            }
            let hash = sim_crypto::sha256::sha256(&bytes);
            hash.iter().map(|b| format!("{b:02x}")).collect::<String>()
        };
        let codec = ErasureCodec::new(2, 4).unwrap();
        let mid = MessageId(4);
        let sent = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut initiator = Initiator::new(NodeId(0));
            initiator.construct_paths(&hop_lists(&[&[10, 11], &[20, 21]]), &mut rng);
            initiator
                .send_message(mid, b"partial loss", &codec, None, &mut rng)
                .unwrap();
            (initiator, rng)
        };
        for (seed, [round, retry_1, retry_2]) in (1..).zip(RECORDED) {
            // The runner's slot rule: the round's `j`-th segment on slot `j`.
            let (mut initiator, mut rng) = sent(seed);
            let out = initiator.resend(mid, &codec, &[(1, 0), (3, 1)], &mut rng);
            assert_eq!(digest(out.unwrap()), round, "rounds, seed {seed}");
            // The node's: retry `r` of segment `i` on slot `i + r`.
            let (mut initiator, mut rng) = sent(seed);
            for (retry, recorded) in [(1, retry_1), (2, retry_2)] {
                let out = initiator.resend(mid, &codec, &[(1, 1 + retry)], &mut rng);
                assert_eq!(digest(out.unwrap()), recorded, "timers, seed {seed}");
            }
        }
    }

    #[test]
    fn open_ack_errors_are_typed_and_leave_the_ledger_untouched() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut initiator = Initiator::new(NodeId(0));
        let cons = initiator.construct_paths(&hop_lists(&[&[10, 11], &[20, 21]]), &mut rng);
        let codec = ErasureCodec::new(2, 4).unwrap();
        let (mid, now) = (MessageId(1), SimTime::ZERO);
        initiator
            .send_message(mid, b"acked or not", &codec, None, &mut rng)
            .unwrap();
        let state = |i: &Initiator| (i.missing(mid), i.is_complete(mid), i.established());
        let before = state(&initiator);
        let good = ack_blob(&initiator.paths()[0], mid, 2, &mut rng);

        let mut blob = good.clone();
        let unknown = initiator.open_ack(StreamId(0xdead), &mut blob, now);
        assert_eq!(unknown, Err(AnonError::UnknownStream));
        assert_eq!(blob, good, "not ours: left for the relay half");
        let mut truncated = good[..good.len() - 1].to_vec();
        let err = initiator.open_ack(cons[0].sid, &mut truncated, now);
        assert!(matches!(err, Err(AnonError::Crypto(_))), "{err:?}");
        // Path 1's ack arriving on path 0: every layer under the wrong key.
        let mut misrouted = ack_blob(&initiator.paths()[1], mid, 2, &mut rng);
        let err = initiator.open_ack(cons[0].sid, &mut misrouted, now);
        assert!(matches!(err, Err(AnonError::Crypto(_))), "{err:?}");
        assert_eq!(state(&initiator), before);

        let opened = initiator.open_ack(cons[0].sid, &mut good.clone(), now);
        assert_eq!(opened, Ok(Some((mid, 2, None))));
        assert_eq!(initiator.missing(mid), [0, 1, 3]);
        let mut formed = ack_blob(&initiator.paths()[1], CONSTRUCT_ACK, 0, &mut rng);
        let opened = initiator.open_ack(cons[1].sid, &mut formed, now);
        assert_eq!(opened, Ok(None));
        assert_eq!(initiator.established(), 1);
    }

    #[test]
    fn a_record_settles_with_its_last_deadline_and_only_then_is_swept() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut initiator = Initiator::new(NodeId(0));
        initiator.construct_paths(&hop_lists(&[&[10]]), &mut rng);
        let codec = ErasureCodec::new(1, 2).unwrap();
        let (at, ttl) = (SimTime::from_secs, SimDuration::from_secs(10));
        let mid = MessageId(1);
        initiator
            .send_message(mid, b"two", &codec, None, &mut rng)
            .unwrap();
        initiator.arm(mid, 0, 70, at(1));
        initiator.arm(mid, 1, 71, at(1));
        initiator.arm(mid, 1, 72, at(2));
        assert_eq!(initiator.sweep(at(100), ttl), 0, "deadlines armed");
        assert_eq!(initiator.note_ack(mid, 0, at(3)), Some(70));
        assert_eq!(initiator.note_ack(mid, 0, at(4)), None, "duplicate");
        assert_eq!(initiator.segment(mid, 1).unwrap().sent_at, at(2));
        assert_eq!(initiator.ledger_len(), (1, 1));
        assert_eq!(initiator.disarm(mid, 1), Some(72), "given up");
        assert_eq!(initiator.ledger_len(), (1, 0), "nothing can re-send it");
        assert!(initiator.resend(mid, &codec, &[(1, 0)], &mut rng).is_err());
        assert_eq!(initiator.sweep(at(13), ttl), 0, "exactly `ttl` old is kept");
        assert!(!initiator.is_complete(mid) && initiator.missing(mid) == [1]);
        // A late ack still counts, and restarts the clock.
        assert_eq!(initiator.note_ack(mid, 1, at(13)), None);
        assert!(initiator.is_complete(mid));
        assert_eq!(initiator.sweep(at(23), ttl), 0);
        assert_eq!(initiator.sweep(at(24), ttl), 1);
        assert_eq!(initiator.ledger_len(), (0, 0));
        assert!(!initiator.is_complete(mid), "a swept id answers false");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random interleavings of send / ack (first, duplicate, for a
        /// message or index never sent) / resend / path teardown and
        /// rebuild / establishment against a plain ordered-map model.
        #[test]
        fn ledger_matches_a_map_model(ops in prop::collection::vec(any::<[u8; 4]>(), 1..48)) {
            const MIDS: u64 = 4;
            let mut rng = StdRng::seed_from_u64(7);
            let hops = hop_lists(&[&[9]]);
            let codec = ErasureCodec::new(2, 4).unwrap();
            let mut initiator = Initiator::new(NodeId(0));
            // Model: paths in order with their established flag; per sent
            // message the path each segment last rode and the acked set.
            let mut paths: Vec<(StreamId, bool)> = Vec::new();
            let mut sent: BTreeMap<u64, (Vec<StreamId>, BTreeSet<usize>)> = BTreeMap::new();
            let mut last_ack = (MessageId(0), 0);
            for [kind, a, b, c] in ops {
                let (a, b, c) = (a as usize, b as usize, c as usize);
                let mid = MessageId(a as u64 % MIDS);
                match kind % 6 {
                    0 => {
                        let out = initiator.send_message(mid, &[c as u8; 24][..b % 24], &codec, None, &mut rng);
                        prop_assert_eq!(out.is_ok(), !paths.is_empty());
                        if let Ok(out) = out {
                            let rode = (0..4).map(|i| paths[i % paths.len()].0).collect::<Vec<_>>();
                            prop_assert_eq!(out.iter().map(|o| o.sid).collect::<Vec<_>>(), rode.clone());
                            sent.insert(mid.0, (rode, BTreeSet::new()));
                        }
                    }
                    // An ack, through the shared entry point when a path
                    // can carry it; every other one repeats the last.
                    1 | 2 => {
                        if kind % 6 == 1 {
                            last_ack = (mid, b % 6);
                        }
                        let (mid, index) = last_ack;
                        if paths.is_empty() {
                            initiator.note_ack(mid, index, SimTime::ZERO);
                        } else {
                            let path = &initiator.paths()[c % paths.len()];
                            let (sid, mut blob) = (path.sid, ack_blob(path, mid, index, &mut rng));
                            let opened = initiator.open_ack(sid, &mut blob, SimTime::ZERO);
                            prop_assert_eq!(opened, Ok(Some((mid, index, None))));
                        }
                        if let Some((rode, acked)) = sent.get_mut(&mid.0) {
                            if index < rode.len() {
                                acked.insert(index);
                            }
                        }
                    }
                    3 => {
                        let pairs = [(b % 5, c), (c % 5, b)];
                        let out = initiator.resend(mid, &codec, &pairs[..1 + a % 2], &mut rng);
                        let valid = pairs[..1 + a % 2].iter().all(|p| p.0 < 4);
                        let known = sent.get_mut(&mid.0).filter(|_| valid && !paths.is_empty());
                        prop_assert_eq!(out.is_ok(), known.is_some());
                        if let Some((rode, _)) = known {
                            for &(index, slot) in &pairs[..1 + a % 2] {
                                rode[index] = paths[slot % paths.len()].0;
                            }
                        }
                    }
                    4 if !paths.is_empty() => {
                        let (sid, _) = paths.remove(b % paths.len());
                        prop_assert!(initiator.drop_path(sid) && !initiator.drop_path(sid));
                        paths.push((initiator.construct_paths(&hops, &mut rng)[0].sid, false));
                    }
                    4 => paths.push((initiator.construct_paths(&hops, &mut rng)[0].sid, false)),
                    _ => {
                        let sid = paths.get(b % paths.len().max(1)).map_or(StreamId(b as u64), |p| p.0);
                        prop_assert_eq!(initiator.mark_established(sid), !paths.is_empty());
                        if let Some(p) = paths.iter_mut().find(|p| p.0 == sid) {
                            p.1 = true;
                        }
                    }
                }
                for m in 0..MIDS {
                    let model = sent.get(&m);
                    let missing = model.map_or(vec![], |(_, acked)| (0..4).filter(|i| !acked.contains(i)).collect());
                    prop_assert_eq!(initiator.missing(MessageId(m)), missing);
                    prop_assert_eq!(initiator.is_complete(MessageId(m)), model.is_some_and(|(_, acked)| acked.len() == 4));
                    for i in 0..5 {
                        let rode = initiator.segment(MessageId(m), i).map(|seg| seg.path);
                        prop_assert_eq!(rode, model.and_then(|(rode, _)| rode.get(i).copied()));
                    }
                }
                prop_assert_eq!(initiator.established(), paths.iter().filter(|p| p.1).count());
                let held = initiator.paths().iter().map(|p| (p.sid, p.established)).collect::<Vec<_>>();
                prop_assert_eq!(&held, &paths);
                prop_assert!(held.iter().all(|&(sid, _)| initiator.path(sid).is_some_and(|p| p.sid == sid)));
                prop_assert_eq!(initiator.ledger_len(), (sent.len(), sent.len()));
            }
        }
    }

    #[test]
    fn initiator_without_paths_errors() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut initiator = Initiator::new(NodeId(0));
        let codec = ReplicationCodec::new(1).unwrap();
        assert!(initiator
            .send_message(MessageId(1), b"x", &codec, None, &mut rng)
            .is_err());
    }

    #[test]
    fn mark_established_and_drop() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut initiator = Initiator::new(NodeId(0));
        let kp = sim_crypto::KeyPair::generate(&mut rng);
        let out = initiator.construct_paths(&[vec![(NodeId(5), kp.public)]], &mut rng);
        let sid = out[0].sid;
        assert!(!initiator.paths()[0].established);
        assert!(initiator.mark_established(sid));
        assert!(initiator.paths()[0].established);
        assert!(!initiator.mark_established(StreamId(0xdead)));
        assert!(initiator.drop_path(sid));
        assert!(initiator.paths().is_empty());
        assert!(!initiator.drop_path(sid));
    }
}
