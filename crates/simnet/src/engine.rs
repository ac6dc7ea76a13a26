//! The discrete-event loop.
//!
//! An [`Engine`] owns a priority queue of `(time, seq, handler)` events over
//! a caller-defined world type `W`. Handlers receive `&mut W` and
//! `&mut Engine<W>` so they can mutate state and schedule follow-up events;
//! ties break in scheduling order (FIFO at equal timestamps), which keeps
//! runs deterministic.
//!
//! The queue is the amortised-`O(1)` [`CalendarQueue`] (see
//! [`crate::sched`]) carrying boxed handlers, owned by value so the hot
//! loop dispatches statically.

use crate::instrument::EngineTelemetry;
use crate::sched::{CalendarQueue, Scheduled};
use crate::time::{SimDuration, SimTime};
use std::cell::Cell;
use std::rc::Rc;

/// Boxed event handler: consumes the world and the engine that fired it.
pub type Handler<W> = Box<dyn FnOnce(&mut W, &mut Engine<W>)>;

/// What an engine event carries: an optional cancellation flag and the
/// handler to run.
struct Pending<W> {
    cancelled: Option<Rc<Cell<bool>>>,
    handler: Handler<W>,
}

/// Handle for cancelling a scheduled event.
#[derive(Clone)]
pub struct EventHandle {
    cancelled: Rc<Cell<bool>>,
}

impl EventHandle {
    /// Cancel the event; a no-op if it already fired.
    pub fn cancel(&self) {
        self.cancelled.set(true);
    }

    /// Whether [`cancel`](Self::cancel) has been called.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.get()
    }
}

/// Discrete-event engine over a world `W`.
///
/// ```
/// use simnet::{Engine, SimTime, SimDuration};
/// let mut engine: Engine<Vec<u64>> = Engine::new();
/// let mut log = Vec::new();
/// engine.schedule_at(SimTime::from_secs(2), |w: &mut Vec<u64>, e| {
///     w.push(e.now().as_micros());
///     e.schedule_in(SimDuration::from_secs(1), |w, e| w.push(e.now().as_micros()));
/// });
/// engine.run(&mut log);
/// assert_eq!(log, vec![2_000_000, 3_000_000]);
/// ```
pub struct Engine<W> {
    now: SimTime,
    seq: u64,
    queue: CalendarQueue<Pending<W>>,
    processed: u64,
    cancelled: u64,
    max_pending: usize,
    /// Optional live instruments; `None` costs a never-taken branch.
    telemetry: Option<EngineTelemetry>,
    /// Counter values already published to telemetry. The hot paths do
    /// no atomic work at all: [`Engine::flush_telemetry`] publishes
    /// deltas of the engine's own (plain-integer) counters instead.
    published: PublishedCounters,
}

/// Telemetry already flushed, per counter (see [`Engine::flush_telemetry`]).
#[derive(Default)]
struct PublishedCounters {
    scheduled: u64,
    processed: u64,
    cancelled: u64,
    resizes: u64,
}

impl<W> Default for Engine<W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W> Engine<W> {
    /// Fresh engine at time zero.
    pub fn new() -> Self {
        Engine {
            now: SimTime::ZERO,
            seq: 0,
            queue: CalendarQueue::default(),
            processed: 0,
            cancelled: 0,
            max_pending: 0,
            telemetry: None,
            published: PublishedCounters::default(),
        }
    }

    /// Attach live telemetry instruments (see [`crate::instrument`]).
    ///
    /// Telemetry is write-only from the engine's perspective — it never
    /// influences scheduling — so the event trajectory is identical
    /// with or without it. The per-event hot paths carry no record
    /// sites at all: counters are published as deltas at flush points
    /// (see [`Engine::flush_telemetry`]).
    pub fn set_telemetry(&mut self, telemetry: EngineTelemetry) {
        self.telemetry = Some(telemetry);
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far.
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Number of events still pending.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Lifetime counters for this engine: how much work flowed through the
    /// event queue and how deep it got. Cheap to call at any point.
    pub fn counters(&self) -> crate::trace::EngineCounters {
        crate::trace::EngineCounters {
            scheduled: self.seq,
            processed: self.processed,
            cancelled: self.cancelled,
            max_pending: self.max_pending as u64,
        }
    }

    /// Schedule `handler` at absolute time `at`. Scheduling in the past
    /// (before `now`) fires the handler at `now` instead — the event queue
    /// never travels backwards.
    pub fn schedule_at(
        &mut self,
        at: SimTime,
        handler: impl FnOnce(&mut W, &mut Engine<W>) + 'static,
    ) {
        self.push(at, None, Box::new(handler));
    }

    /// Schedule `handler` after a relative delay.
    pub fn schedule_in(
        &mut self,
        delay: SimDuration,
        handler: impl FnOnce(&mut W, &mut Engine<W>) + 'static,
    ) {
        self.schedule_at(self.now + delay, handler);
    }

    /// Schedule with a cancellation handle.
    pub fn schedule_cancellable(
        &mut self,
        at: SimTime,
        handler: impl FnOnce(&mut W, &mut Engine<W>) + 'static,
    ) -> EventHandle {
        let flag = Rc::new(Cell::new(false));
        self.push(at, Some(flag.clone()), Box::new(handler));
        EventHandle { cancelled: flag }
    }

    /// Queue `handler` at `at` (clamped to `now`) under the next `seq`.
    fn push(&mut self, at: SimTime, cancelled: Option<Rc<Cell<bool>>>, handler: Handler<W>) {
        let seq = self.seq;
        self.seq += 1;
        let pending = Pending { cancelled, handler };
        self.queue
            .push(Scheduled::new(at.max(self.now), seq, pending));
        self.max_pending = self.max_pending.max(self.queue.len());
    }

    /// Run events until the queue empties.
    pub fn run(&mut self, world: &mut W) {
        while self.step(world) {}
        self.flush_telemetry();
    }

    /// Run events with timestamps `<= until`; events after the horizon stay
    /// queued and `now` advances to exactly `until`.
    pub fn run_until(&mut self, world: &mut W, until: SimTime) {
        loop {
            // The calendar finds its head by advancing its cursor, so
            // there is no peek: take the head and push it back if it lies
            // beyond the horizon (the `(at, seq)` order makes the
            // push-back lossless).
            let Some(ev) = self.queue.pop() else { break };
            if ev.at() > until {
                self.queue.push(ev);
                break;
            }
            self.dispatch(world, ev);
        }
        if self.now < until {
            self.now = until;
        }
        self.flush_telemetry();
    }

    /// Execute the next event, if any. Returns false when the queue is
    /// empty.
    pub fn step(&mut self, world: &mut W) -> bool {
        loop {
            let Some(ev) = self.queue.pop() else {
                return false;
            };
            if self.dispatch(world, ev) {
                return true;
            }
        }
    }

    /// Fire one popped event; returns false if it had been cancelled.
    fn dispatch(&mut self, world: &mut W, ev: Scheduled<Pending<W>>) -> bool {
        let at = ev.at();
        let Pending { cancelled, handler } = ev.into_item();
        if cancelled.is_some_and(|c| c.get()) {
            self.cancelled += 1;
            return false;
        }
        debug_assert!(at >= self.now, "event queue went backwards");
        self.now = at;
        self.processed += 1;
        handler(world, self);
        true
    }

    /// Publish the engine's counters to the attached instruments as
    /// deltas since the last flush, plus the queue high-water mark and
    /// the simulated clock. Called automatically when [`run`](Self::run)
    /// / [`run_until`](Self::run_until) return; callers driving the
    /// engine with [`step`](Self::step) can call it whenever they want
    /// an up-to-date exporter view. No-op without attached telemetry.
    ///
    /// Publishing at flush points rather than per event keeps the hot
    /// dispatch loop free of atomic traffic: instrumented and
    /// uninstrumented engines run the same per-event code.
    pub fn flush_telemetry(&mut self) {
        if let Some(t) = &self.telemetry {
            let resizes = self.queue.resizes();
            t.scheduled.add(self.seq - self.published.scheduled);
            t.processed.add(self.processed - self.published.processed);
            t.cancelled.add(self.cancelled - self.published.cancelled);
            t.resizes.add(resizes - self.published.resizes);
            t.queue_depth_max.set_max(self.max_pending as u64);
            t.clock.set_us(self.now.as_micros());
            self.published = PublishedCounters {
                scheduled: self.seq,
                processed: self.processed,
                cancelled: self.cancelled,
                resizes,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_event_at_the_end_of_time_fires_last() {
        let mut engine: Engine<Vec<u64>> = Engine::new();
        let mut world = Vec::new();
        engine.schedule_at(SimTime::from_secs(1), |w: &mut Vec<u64>, e| {
            w.push(e.now().as_micros());
            e.schedule_in(SimDuration(u64::MAX), |w: &mut Vec<u64>, e| {
                w.push(e.now().as_micros())
            });
            e.schedule_in(SimDuration(5), |w: &mut Vec<u64>, e| {
                w.push(e.now().as_micros())
            });
        });
        engine.run(&mut world);
        assert_eq!(world, vec![1_000_000, 1_000_005, u64::MAX]);
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut engine: Engine<Vec<u32>> = Engine::new();
        let mut world = Vec::new();
        engine.schedule_at(SimTime::from_secs(3), |w: &mut Vec<u32>, _| w.push(3));
        engine.schedule_at(SimTime::from_secs(1), |w: &mut Vec<u32>, _| w.push(1));
        engine.schedule_at(SimTime::from_secs(2), |w: &mut Vec<u32>, _| w.push(2));
        engine.run(&mut world);
        assert_eq!(world, vec![1, 2, 3]);
        assert_eq!(engine.now(), SimTime::from_secs(3));
        assert_eq!(engine.events_processed(), 3);
    }

    #[test]
    fn equal_timestamps_fire_fifo() {
        let mut engine: Engine<Vec<u32>> = Engine::new();
        let mut world = Vec::new();
        for i in 0..10 {
            engine.schedule_at(SimTime::from_secs(5), move |w: &mut Vec<u32>, _| w.push(i));
        }
        engine.run(&mut world);
        assert_eq!(world, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn handlers_can_schedule_followups() {
        let mut engine: Engine<Vec<u64>> = Engine::new();
        let mut world = Vec::new();
        fn tick(w: &mut Vec<u64>, e: &mut Engine<Vec<u64>>) {
            w.push(e.now().as_micros());
            if w.len() < 5 {
                e.schedule_in(SimDuration::from_secs(1), tick);
            }
        }
        engine.schedule_at(SimTime::ZERO, tick);
        engine.run(&mut world);
        assert_eq!(world, vec![0, 1_000_000, 2_000_000, 3_000_000, 4_000_000]);
    }

    #[test]
    fn run_until_respects_horizon() {
        let mut engine: Engine<Vec<u32>> = Engine::new();
        let mut world = Vec::new();
        engine.schedule_at(SimTime::from_secs(1), |w: &mut Vec<u32>, _| w.push(1));
        engine.schedule_at(SimTime::from_secs(10), |w: &mut Vec<u32>, _| w.push(10));
        engine.run_until(&mut world, SimTime::from_secs(5));
        assert_eq!(world, vec![1]);
        assert_eq!(engine.now(), SimTime::from_secs(5));
        assert_eq!(engine.pending(), 1);
        engine.run(&mut world);
        assert_eq!(world, vec![1, 10]);
    }

    #[test]
    fn cancellation() {
        let mut engine: Engine<Vec<u32>> = Engine::new();
        let mut world = Vec::new();
        let h = engine.schedule_cancellable(SimTime::from_secs(1), |w: &mut Vec<u32>, _| w.push(1));
        engine.schedule_at(SimTime::from_secs(2), |w: &mut Vec<u32>, _| w.push(2));
        h.cancel();
        assert!(h.is_cancelled());
        engine.run(&mut world);
        assert_eq!(world, vec![2]);
        assert_eq!(engine.events_processed(), 1);
    }

    #[test]
    fn counters_track_queue_activity() {
        let mut engine: Engine<Vec<u32>> = Engine::new();
        let mut world = Vec::new();
        for i in 0..4 {
            engine.schedule_at(SimTime::from_secs(i), |w: &mut Vec<u32>, _| w.push(0));
        }
        let h = engine.schedule_cancellable(SimTime::from_secs(9), |w: &mut Vec<u32>, _| w.push(1));
        h.cancel();
        engine.run(&mut world);
        let c = engine.counters();
        assert_eq!(c.scheduled, 5);
        assert_eq!(c.processed, 4);
        assert_eq!(c.cancelled, 1);
        assert_eq!(c.max_pending, 5);
    }

    #[test]
    fn past_scheduling_clamps_to_now() {
        let mut engine: Engine<Vec<u64>> = Engine::new();
        let mut world = Vec::new();
        engine.schedule_at(SimTime::from_secs(5), |_, e: &mut Engine<Vec<u64>>| {
            // "One second ago" must fire immediately, not corrupt the clock.
            e.schedule_at(SimTime::from_secs(4), |w: &mut Vec<u64>, e| {
                w.push(e.now().as_micros());
            });
        });
        engine.run(&mut world);
        assert_eq!(world, vec![5_000_000]);
    }

    type Log = Vec<(u64, u64)>;

    /// One engine run over a word-coded workload: plain events whose
    /// handlers sometimes spawn a child (a reentrant push mid-drain),
    /// cancellable timers that are kept, cancelled at once or cancelled
    /// by a later op, and partial `run_until` drains in between so events
    /// land both in an idle queue and in a mid-run one.
    fn drive(ops: &[u64], horizons: &[u64]) -> (Log, crate::trace::EngineCounters) {
        let mut engine: Engine<Log> = Engine::new();
        let mut log: Log = Vec::new();
        let mut held: Vec<EventHandle> = Vec::new();
        for (i, &raw) in ops.iter().enumerate() {
            let (op, delay) = ((raw % 4) as u8, (raw >> 2) % 500_000);
            let label = i as u64;
            match op {
                0 => engine.schedule_at(SimTime(delay), move |w: &mut Log, e| {
                    w.push((e.now().as_micros(), label));
                    if label.is_multiple_of(3) {
                        e.schedule_in(SimDuration(1 + label % 1000), move |w, e| {
                            w.push((e.now().as_micros(), label + 1_000_000));
                        });
                    }
                }),
                1 => held.push(
                    engine.schedule_cancellable(SimTime(delay), move |w: &mut Log, e| {
                        w.push((e.now().as_micros(), label))
                    }),
                ),
                2 => engine
                    .schedule_cancellable(SimTime(delay), move |w: &mut Log, e| {
                        w.push((e.now().as_micros(), label))
                    })
                    .cancel(),
                _ => {
                    if let Some(h) = held.pop() {
                        h.cancel();
                    }
                }
            }
            if i % 7 == 3 {
                engine.run_until(&mut log, SimTime(horizons[i % horizons.len()]));
            }
        }
        engine.run(&mut log);
        (log, engine.counters())
    }

    /// The `(time, label)` log and the counters of three fixed workloads,
    /// FNV-1a-hashed. The constants were recorded at the last commit whose
    /// engine dispatched through a boxed queue trait object picked at run
    /// time, on its calendar arm (its binary-heap arm gave the same
    /// three): they pin the by-value queue to the engine it replaced, at
    /// engine level, where the heap oracle no longer runs.
    #[test]
    fn trajectory_known_answers() {
        let recorded = [
            (1u64, 0xf2dc86e9bca6c804u64),
            (2, 0xe5012e1dbb03cc22),
            (3, 0x9d7b52bf481b45c1),
        ];
        for (seed, want) in recorded {
            // SplitMix64 stream of the seed: 600 ops, then 5 horizons.
            let mut state = seed;
            let mut next = || {
                state = state.wrapping_add(0x9e3779b97f4a7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
                z ^ (z >> 31)
            };
            let ops: Vec<u64> = (0..600).map(|_| next()).collect();
            let horizons: Vec<u64> = (0..5).map(|_| next() % 2_000_000).collect();
            let (log, c) = drive(&ops, &horizons);
            let words = log.iter().flat_map(|&(t, l)| [t, l]).chain([
                c.scheduled,
                c.processed,
                c.cancelled,
                c.max_pending,
            ]);
            let mut hash = 0xcbf29ce484222325u64;
            for byte in words.flat_map(u64::to_le_bytes) {
                hash = (hash ^ byte as u64).wrapping_mul(0x100000001b3);
            }
            assert_eq!(hash, want, "seed {seed}: {} events, {c:?}", log.len());
        }
    }
}
