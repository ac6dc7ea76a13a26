//! The [`Engine`]'s event queue.
//!
//! The engine's hot loop is "pop the earliest event, run its handler,
//! repeat". [`CalendarQueue`] is the one queue behind it: a calendar
//! queue (Brown 1988), i.e. a bucketed timing wheel with amortised `O(1)`
//! push/pop under the uniformly-spread event distributions a
//! discrete-event network simulation produces.
//!
//! It pops in ascending `(time, seq)` order, where `seq` is the engine's
//! monotone scheduling counter — a total order, so a run is a pure
//! function of what was scheduled. A `std::collections::BinaryHeap` over
//! the same keys is the obviously-correct oracle the proptest
//! `calendar_pops_like_a_binary_heap` below compares it against; the
//! engine-level trajectory is pinned by known-answer hashes in
//! `engine.rs`.
//!
//! ```
//! use simnet::sched::{CalendarQueue, Scheduled};
//! use simnet::SimTime;
//!
//! let mut queue: CalendarQueue<()> = CalendarQueue::default();
//! for (seq, t) in [5u64, 1, 5, 3].into_iter().enumerate() {
//!     queue.push(Scheduled::new(SimTime::from_secs(t), seq as u64, |_, _| {}));
//! }
//! let order: Vec<_> = std::iter::from_fn(|| queue.pop())
//!     .map(|ev| (ev.at().as_micros() / 1_000_000, ev.seq()))
//!     .collect();
//! assert_eq!(order, [(1, 1), (3, 3), (5, 0), (5, 2)]);
//! ```

use crate::engine::Engine;
use crate::time::SimTime;
use std::cell::Cell;
use std::rc::Rc;

/// Boxed event handler: consumes the world and the engine that fired it.
pub type Handler<W> = Box<dyn FnOnce(&mut W, &mut Engine<W>)>;

/// One queued event: an absolute firing time, the engine's monotone
/// scheduling sequence number (FIFO tie-break), an optional cancellation
/// flag and the handler to run.
pub struct Scheduled<W> {
    pub(crate) at: SimTime,
    pub(crate) seq: u64,
    pub(crate) cancelled: Option<Rc<Cell<bool>>>,
    pub(crate) handler: Handler<W>,
}

impl<W> Scheduled<W> {
    /// Build an event; used by the engine and by the queue tests.
    pub fn new(
        at: SimTime,
        seq: u64,
        handler: impl FnOnce(&mut W, &mut Engine<W>) + 'static,
    ) -> Self {
        Scheduled {
            at,
            seq,
            cancelled: None,
            handler: Box::new(handler),
        }
    }

    /// Absolute firing time.
    pub fn at(&self) -> SimTime {
        self.at
    }

    /// Engine scheduling sequence number (the FIFO tie-breaker).
    pub fn seq(&self) -> u64 {
        self.seq
    }
}

/// Smallest bucket count the calendar keeps (power of two).
const MIN_BUCKETS: usize = 16;
/// Largest bucket count the calendar grows to (power of two).
const MAX_BUCKETS: usize = 1 << 16;

/// Calendar queue (Brown 1988): the engine's pending-event queue.
///
/// Pops in ascending `(at, seq)` order — a *total* order, since `seq` is
/// unique. The engine guarantees pushes are monotone in time relative to
/// pops: an event is never pushed with a firing time earlier than the
/// last popped event's time (scheduling in the past clamps to `now`).
///
/// Events hash into `buckets.len()` day-buckets by `(at / width) %
/// buckets.len()`; the calendar "year" is `buckets.len() * width`
/// microseconds and wraps, so a bucket holds events from the current year
/// and from future years. Each bucket stays sorted descending by
/// `(at, seq)` so its earliest event is `last()` and popping it is `O(1)`.
///
/// `pop` sweeps the cursor bucket-by-bucket, popping the bucket minimum
/// while it falls inside the cursor's current-year window
/// `[bucket_top - width, bucket_top)`; a sweep that covers a whole year
/// without a hit falls back to a direct scan of all bucket minima and
/// jumps the cursor to the global minimum (this bounds the cost of
/// pathologically sparse schedules). The queue resizes — doubling-style
/// rebuilds keyed to the live event count, with the width re-derived from
/// the observed event span — so buckets hold `O(1)` events on average and
/// push/pop are amortised `O(1)`.
///
/// All sizing decisions are functions of queue content only (no RNG, no
/// wall clock), so runs stay deterministic.
pub struct CalendarQueue<W> {
    /// Each bucket sorted descending by `(at, seq)`; minimum at the end.
    buckets: Vec<Vec<Scheduled<W>>>,
    /// Bucket width in microseconds (>= 1).
    width: u64,
    /// `buckets.len() - 1`; bucket count is always a power of two.
    mask: usize,
    /// Cursor: the bucket the year-sweep is currently inspecting.
    cur: usize,
    /// Exclusive upper bound (µs) of the cursor bucket's current window.
    bucket_top: u64,
    /// Total pending events.
    len: usize,
    /// Lifetime count of [`resize`](Self::resize) rebuilds (telemetry).
    resizes: u64,
}

impl<W> Default for CalendarQueue<W> {
    fn default() -> Self {
        CalendarQueue {
            buckets: (0..MIN_BUCKETS).map(|_| Vec::new()).collect(),
            width: 1,
            mask: MIN_BUCKETS - 1,
            cur: 0,
            bucket_top: 1,
            len: 0,
            resizes: 0,
        }
    }
}

impl<W> CalendarQueue<W> {
    fn bucket_of(&self, at_us: u64) -> usize {
        ((at_us / self.width) as usize) & self.mask
    }

    /// Point the cursor at the window containing `at_us`.
    fn position_at(&mut self, at_us: u64) {
        self.cur = self.bucket_of(at_us);
        self.bucket_top = (at_us / self.width + 1) * self.width;
    }

    /// Insert into the (descending-sorted) home bucket of `ev`.
    fn insert(&mut self, ev: Scheduled<W>) {
        let b = self.bucket_of(ev.at.0);
        let bucket = &mut self.buckets[b];
        let key = (ev.at.0, ev.seq);
        // Descending order: find the first element with a smaller key and
        // insert before it (bucket minimum stays at the end).
        let pos = bucket.partition_point(|e| (e.at.0, e.seq) > key);
        bucket.insert(pos, ev);
    }

    /// Rebuild with a bucket count and width fitted to the current
    /// population, then park the cursor on the global minimum.
    fn resize(&mut self) {
        self.resizes += 1;
        let events: Vec<Scheduled<W>> = self.buckets.iter_mut().flat_map(std::mem::take).collect();
        let n = events
            .len()
            .next_power_of_two()
            .clamp(MIN_BUCKETS, MAX_BUCKETS);
        let (mut lo, mut hi) = (u64::MAX, 0u64);
        for ev in &events {
            lo = lo.min(ev.at.0);
            hi = hi.max(ev.at.0);
        }
        // Aim for one event per bucket over the observed span; a zero
        // span (all events simultaneous) degrades to width 1 and a single
        // sorted bucket, which is still correct.
        self.width = if events.is_empty() || hi == lo {
            1
        } else {
            ((hi - lo) / n as u64).max(1)
        };
        self.buckets = (0..n).map(|_| Vec::new()).collect();
        self.mask = n - 1;
        let min_at = if lo == u64::MAX { 0 } else { lo };
        for ev in events {
            self.insert(ev);
        }
        self.position_at(min_at);
    }

    /// Direct scan of all bucket minima; used when a year-sweep comes up
    /// empty (very sparse schedules).
    fn pop_global_min(&mut self) -> Option<Scheduled<W>> {
        let mut best: Option<(u64, u64, usize)> = None;
        for (i, bucket) in self.buckets.iter().enumerate() {
            if let Some(ev) = bucket.last() {
                let key = (ev.at.0, ev.seq, i);
                if best.is_none_or(|b| key < b) {
                    best = Some(key);
                }
            }
        }
        let (at_us, _, i) = best?;
        self.position_at(at_us);
        self.len -= 1;
        self.buckets[i].pop()
    }

    /// Enqueue an event.
    pub fn push(&mut self, ev: Scheduled<W>) {
        if self.len == 0 || ev.at.0 < self.bucket_top.saturating_sub(self.width) {
            // Empty calendar, or an event landing before the cursor's
            // current window (possible before the first pop): re-park the
            // cursor on the incoming event so no event is left behind it.
            self.position_at(ev.at.0);
        }
        self.insert(ev);
        self.len += 1;
        if self.len > self.buckets.len() * 2 && self.buckets.len() < MAX_BUCKETS {
            self.resize();
        }
    }

    /// Remove and return the event with the smallest `(at, seq)`.
    pub fn pop(&mut self) -> Option<Scheduled<W>> {
        if self.len == 0 {
            return None;
        }
        if self.buckets.len() > MIN_BUCKETS && self.len * 8 < self.buckets.len() {
            self.resize();
        }
        for _ in 0..=self.mask {
            if let Some(ev) = self.buckets[self.cur].last() {
                if ev.at.0 < self.bucket_top {
                    self.len -= 1;
                    return self.buckets[self.cur].pop();
                }
            }
            self.cur = (self.cur + 1) & self.mask;
            self.bucket_top += self.width;
        }
        // Swept a whole year without a hit: the next event is more than a
        // year ahead of the cursor. Find it directly.
        self.pop_global_min()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// How many rebuilds the queue has performed (telemetry only).
    pub fn resizes(&self) -> u64 {
        self.resizes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// The reference queue: `std::collections::BinaryHeap`, `O(log n)`
    /// push/pop, obviously correct. It holds the `(at, seq)` keys only —
    /// pop order is all the oracle is asked about.
    #[derive(Default)]
    struct BinaryHeapScheduler {
        heap: BinaryHeap<Reverse<(u64, u64)>>,
    }

    impl BinaryHeapScheduler {
        fn push(&mut self, at_us: u64, seq: u64) {
            self.heap.push(Reverse((at_us, seq)));
        }

        fn pop(&mut self) -> Option<(u64, u64)> {
            self.heap.pop().map(|Reverse(key)| key)
        }
    }

    fn ev(at_us: u64, seq: u64) -> Scheduled<()> {
        Scheduled::new(SimTime(at_us), seq, |_, _| {})
    }

    fn drain(q: &mut CalendarQueue<()>) -> Vec<(u64, u64)> {
        std::iter::from_fn(|| q.pop().map(|e| (e.at.0, e.seq))).collect()
    }

    #[test]
    fn calendar_pops_in_time_then_seq_order() {
        let mut q = CalendarQueue::default();
        for (seq, at) in [(0, 50), (1, 10), (2, 50), (3, 0), (4, 10)] {
            q.push(ev(at, seq));
        }
        assert_eq!(q.len(), 5);
        assert_eq!(
            drain(&mut q),
            vec![(0, 3), (10, 1), (10, 4), (50, 0), (50, 2)]
        );
        assert!(q.is_empty());
    }

    #[test]
    fn calendar_survives_resize_cycles() {
        let mut q = CalendarQueue::default();
        // Enough events to force several grow-resizes, spread widely so
        // width re-derivation matters; then drain (forcing shrinks) and
        // check order.
        let mut expect = Vec::new();
        for seq in 0..500u64 {
            let at = (seq * 7919) % 100_000 * 1_000; // pseudo-scattered µs
            q.push(ev(at, seq));
            expect.push((at, seq));
        }
        expect.sort_unstable();
        assert_eq!(drain(&mut q), expect);
    }

    #[test]
    fn calendar_handles_sparse_far_future_events() {
        let mut q = CalendarQueue::default();
        // Events many "years" apart exercise the direct-scan fallback.
        q.push(ev(5, 0));
        q.push(ev(10_000_000_000, 1));
        q.push(ev(90_000_000_000_000, 2));
        assert_eq!(
            drain(&mut q),
            vec![(5, 0), (10_000_000_000, 1), (90_000_000_000_000, 2)]
        );
    }

    /// The calendar and the heap under the same pushes, compared at
    /// every pop. `now` is the last popped time: the engine never pushes
    /// below it, and neither does `push`.
    #[derive(Default)]
    struct Both {
        calendar: CalendarQueue<()>,
        heap: BinaryHeapScheduler,
        seq: u64,
        now: u64,
    }

    impl Both {
        fn push(&mut self, delay_us: u64) {
            let at = self.now + delay_us;
            self.calendar.push(ev(at, self.seq));
            self.heap.push(at, self.seq);
            self.seq += 1;
        }

        /// Pop both; `Ok(false)` once empty, `Err` names a disagreement.
        fn pop(&mut self) -> Result<bool, String> {
            let got = self.calendar.pop().map(|e| (e.at.0, e.seq));
            let want = self.heap.pop();
            if got != want {
                return Err(format!("calendar popped {got:?}, heap {want:?}"));
            }
            if let Some((at, _)) = got {
                self.now = at;
            }
            Ok(got.is_some())
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Differential test against the heap oracle: any interleaving of
        /// pushes and pops that respects the engine's contract — ties at
        /// `now`, bursts that force grow rebuilds, drains that force
        /// shrink rebuilds, events more than a calendar year ahead (the
        /// direct-scan fallback) — pops in the identical `(at, seq)` order.
        #[test]
        fn calendar_pops_like_a_binary_heap(ops in proptest::collection::vec(any::<u64>(), 1..300)) {
            let mut both = Both::default();
            let mut bursts = 0;
            for raw in ops {
                // Unpack one random word into an (op, argument) pair.
                let (op, arg) = (raw % 8, raw >> 3);
                match op {
                    // A tie with whatever else fires at `now`.
                    0 => both.push(0),
                    1 | 2 => both.push(arg % 1_000_000),
                    // Grow: the smallest calendar rebuilds above 32 events.
                    3 => {
                        bursts += 1;
                        let span = 1 + (arg >> 8) % 10_000_000;
                        for i in 0..40 + arg % 100 {
                            both.push(arg.wrapping_mul(i + 1) % span);
                        }
                    }
                    // Shrink: a grown calendar rebuilds once nearly empty.
                    4 => {
                        while both.calendar.len() > arg as usize % 8 {
                            both.pop()?;
                        }
                    }
                    // Hours ahead of a queue whose year is seconds at most.
                    5 => both.push(10_000_000_000 + arg % 90_000_000_000_000),
                    _ => {
                        both.pop()?;
                    }
                }
            }
            while both.pop()? {}
            prop_assert!(both.calendar.is_empty());
            // Every burst grew the calendar and the final drain shrank it.
            prop_assert!(bursts == 0 || both.calendar.resizes() >= 2);
        }
    }
}
