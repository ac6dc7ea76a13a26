//! Pluggable event schedulers for the [`Engine`].
//!
//! The engine's hot loop is "pop the earliest event, run its handler,
//! repeat". This module abstracts the priority-queue behind the
//! [`Scheduler`] trait so the queue discipline can be swapped without
//! touching any engine user:
//!
//! * [`BinaryHeapScheduler`] — the reference implementation: a plain
//!   `std::collections::BinaryHeap`, `O(log n)` push/pop. Obviously
//!   correct; kept as the differential-testing oracle.
//! * [`CalendarQueue`] — the default: a hierarchical calendar queue
//!   (Brown 1988), i.e. a bucketed timing wheel with amortised `O(1)`
//!   push/pop under the uniformly-spread event distributions a
//!   discrete-event network simulation produces.
//!
//! Both implementations pop events in exactly the same total order —
//! ascending `(time, seq)`, where `seq` is the engine's monotone
//! scheduling counter — so swapping schedulers cannot change any
//! simulation result, only its wall-clock cost. The differential
//! proptest `heap_vs_calendar_same_trajectory` (in the crate's test
//! suite) and the byte-identical `results/*.csv` gate both enforce this.
//!
//! ```
//! use simnet::{sched::{BinaryHeapScheduler, CalendarQueue, Scheduler}, SimTime};
//!
//! // Drive both schedulers with the same (time, seq) stream and observe
//! // the identical pop order. `W = ()` — the handler payload is unused here.
//! let mut heap: BinaryHeapScheduler<()> = BinaryHeapScheduler::default();
//! let mut cal: CalendarQueue<()> = CalendarQueue::default();
//! for (seq, t) in [5u64, 1, 5, 3].into_iter().enumerate() {
//!     heap.push(simnet::sched::Scheduled::new(SimTime::from_secs(t), seq as u64, |_, _| {}));
//!     cal.push(simnet::sched::Scheduled::new(SimTime::from_secs(t), seq as u64, |_, _| {}));
//! }
//! let order = |s: &mut dyn Scheduler<()>| {
//!     std::iter::from_fn(|| s.pop().map(|ev| (ev.at(), ev.seq()))).collect::<Vec<_>>()
//! };
//! assert_eq!(order(&mut heap), order(&mut cal)); // (1s,1) (3s,3) (5s,0) (5s,2)
//! ```

use crate::engine::Engine;
use crate::time::SimTime;
use std::cell::Cell;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
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
    /// Build an event; used by the engine and by scheduler tests/benches.
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

    /// Sort key: schedulers must pop in ascending `(at, seq)` order.
    fn key(&self) -> (u64, u64) {
        (self.at.0, self.seq)
    }
}

impl<W> PartialEq for Scheduled<W> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<W> Eq for Scheduled<W> {}
impl<W> PartialOrd for Scheduled<W> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<W> Ord for Scheduled<W> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse so a max-heap pops the earliest event; seq breaks ties
        // FIFO.
        other.key().cmp(&self.key())
    }
}

/// A pending-event queue ordered by `(time, seq)`.
///
/// Implementations must pop events in ascending `(at, seq)` order — a
/// *total* order, since `seq` is unique — so that every scheduler
/// produces bit-identical simulations. The engine guarantees pushes are
/// monotone in time relative to pops: an event is never pushed with a
/// firing time earlier than the last popped event's time (scheduling in
/// the past clamps to `now`).
pub trait Scheduler<W> {
    /// Enqueue an event.
    fn push(&mut self, ev: Scheduled<W>);
    /// Remove and return the event with the smallest `(at, seq)`.
    fn pop(&mut self) -> Option<Scheduled<W>>;
    /// Number of pending events.
    fn len(&self) -> usize;
    /// Whether no events are pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Human-readable implementation name (reported by the perf harness).
    fn name(&self) -> &'static str;
    /// How many internal restructurings (e.g. calendar-queue rebuilds)
    /// this scheduler has performed. Telemetry only; implementations
    /// without such a notion report 0.
    fn resizes(&self) -> u64 {
        0
    }
}

/// Reference scheduler: `std::collections::BinaryHeap`, `O(log n)`
/// push/pop. Kept as the obviously-correct oracle for differential tests
/// and as the perf-ablation baseline.
pub struct BinaryHeapScheduler<W> {
    heap: BinaryHeap<Scheduled<W>>,
}

impl<W> Default for BinaryHeapScheduler<W> {
    fn default() -> Self {
        BinaryHeapScheduler {
            heap: BinaryHeap::new(),
        }
    }
}

impl<W> Scheduler<W> for BinaryHeapScheduler<W> {
    fn push(&mut self, ev: Scheduled<W>) {
        self.heap.push(ev);
    }

    fn pop(&mut self) -> Option<Scheduled<W>> {
        self.heap.pop()
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    fn name(&self) -> &'static str {
        "binary-heap"
    }
}

/// Smallest bucket count the calendar keeps (power of two).
const MIN_BUCKETS: usize = 16;
/// Largest bucket count the calendar grows to (power of two).
const MAX_BUCKETS: usize = 1 << 16;

/// Calendar-queue scheduler (Brown 1988): the engine's default.
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
}

impl<W> Scheduler<W> for CalendarQueue<W> {
    fn push(&mut self, ev: Scheduled<W>) {
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

    fn pop(&mut self) -> Option<Scheduled<W>> {
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

    fn len(&self) -> usize {
        self.len
    }

    fn name(&self) -> &'static str {
        "calendar-queue"
    }

    fn resizes(&self) -> u64 {
        self.resizes
    }
}

/// Which [`Scheduler`] implementation an [`Engine`] uses.
///
/// [`Engine::new`](crate::Engine::new) uses the calendar queue; tests
/// and the perf harness pass an explicit kind to
/// [`Engine::with_kind`](crate::Engine::with_kind) to compare both.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedulerKind {
    /// [`CalendarQueue`] — amortised `O(1)`, the default.
    Calendar,
    /// [`BinaryHeapScheduler`] — `O(log n)` reference implementation.
    Heap,
}

impl SchedulerKind {
    /// Instantiate a scheduler of this kind.
    pub fn build<W: 'static>(self) -> Box<dyn Scheduler<W>> {
        match self {
            SchedulerKind::Calendar => Box::new(CalendarQueue::default()),
            SchedulerKind::Heap => Box::new(BinaryHeapScheduler::default()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at_us: u64, seq: u64) -> Scheduled<()> {
        Scheduled::new(SimTime(at_us), seq, |_, _| {})
    }

    fn drain(s: &mut dyn Scheduler<()>) -> Vec<(u64, u64)> {
        std::iter::from_fn(|| s.pop().map(|e| (e.at.0, e.seq))).collect()
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

    #[test]
    fn calendar_interleaves_push_pop_monotonically() {
        // Mimic the engine contract: each push's time >= last popped time.
        let mut q = CalendarQueue::default();
        let mut heap = BinaryHeapScheduler::default();
        let mut seq = 0u64;
        let mut now = 0u64;
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 33
        };
        for _ in 0..200 {
            for _ in 0..(next() % 4 + 1) {
                let at = now + next() % 1_000_000;
                q.push(ev(at, seq));
                heap.push(ev(at, seq));
                seq += 1;
            }
            for _ in 0..(next() % 3) {
                let a = q.pop().map(|e| (e.at.0, e.seq));
                let b = heap.pop().map(|e| (e.at.0, e.seq));
                assert_eq!(a, b);
                if let Some((at, _)) = a {
                    now = at;
                }
            }
        }
        assert_eq!(drain(&mut q), drain(&mut heap));
    }

    #[test]
    fn kind_builds_named_schedulers() {
        let c: Box<dyn Scheduler<()>> = SchedulerKind::Calendar.build();
        let h: Box<dyn Scheduler<()>> = SchedulerKind::Heap.build();
        assert_eq!(c.name(), "calendar-queue");
        assert_eq!(h.name(), "binary-heap");
    }
}
