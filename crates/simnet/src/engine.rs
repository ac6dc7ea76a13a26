//! The discrete-event loop.
//!
//! An [`Engine`] owns a priority queue of `(time, seq, handler)` events over
//! a caller-defined world type `W`. Handlers receive `&mut W` and
//! `&mut Engine<W>` so they can mutate state and schedule follow-up events;
//! ties break in scheduling order (FIFO at equal timestamps), which keeps
//! runs deterministic.
//!
//! The queue discipline lives behind the [`Scheduler`] trait (see
//! [`crate::sched`]): the default is the amortised-`O(1)`
//! [`CalendarQueue`](crate::sched::CalendarQueue), with the original
//! `BinaryHeap` kept as a reference implementation. Both pop in the same
//! total order, so the choice affects wall-clock speed only.

use crate::instrument::EngineTelemetry;
use crate::sched::{Scheduled, Scheduler, SchedulerKind};
use crate::time::{SimDuration, SimTime};
use std::cell::Cell;
use std::rc::Rc;

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
    queue: Box<dyn Scheduler<W>>,
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

impl<W: 'static> Default for Engine<W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W> Engine<W> {
    /// Fresh engine at time zero, on the calendar queue.
    pub fn new() -> Self
    where
        W: 'static,
    {
        Self::with_kind(SchedulerKind::Calendar)
    }

    /// Fresh engine using an explicit scheduler kind (tests and the perf
    /// harness compare kinds within one run this way).
    pub fn with_kind(kind: SchedulerKind) -> Self
    where
        W: 'static,
    {
        Self::with_scheduler(kind.build())
    }

    /// Fresh engine over a caller-built scheduler implementation.
    pub fn with_scheduler(queue: Box<dyn Scheduler<W>>) -> Self {
        Engine {
            now: SimTime::ZERO,
            seq: 0,
            queue,
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

    /// Name of the scheduler implementation in use.
    pub fn scheduler_name(&self) -> &'static str {
        self.queue.name()
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
        let at = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Scheduled::new(at, seq, handler));
        self.max_pending = self.max_pending.max(self.queue.len());
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
        let at = at.max(self.now);
        let flag = Rc::new(Cell::new(false));
        let seq = self.seq;
        self.seq += 1;
        let mut ev = Scheduled::new(at, seq, handler);
        ev.cancelled = Some(flag.clone());
        self.queue.push(ev);
        self.max_pending = self.max_pending.max(self.queue.len());
        EventHandle { cancelled: flag }
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
            // Schedulers expose pop, not peek: take the head and push it
            // back if it lies beyond the horizon (the `(at, seq)` order
            // makes the push-back lossless).
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
    fn dispatch(&mut self, world: &mut W, ev: Scheduled<W>) -> bool {
        if ev.cancelled.as_ref().is_some_and(|c| c.get()) {
            self.cancelled += 1;
            return false;
        }
        debug_assert!(ev.at >= self.now, "event queue went backwards");
        self.now = ev.at;
        self.processed += 1;
        (ev.handler)(world, self);
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
    use crate::sched::SchedulerKind;

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
        for kind in [SchedulerKind::Calendar, SchedulerKind::Heap] {
            let mut engine: Engine<Vec<u32>> = Engine::with_kind(kind);
            let mut world = Vec::new();
            for i in 0..10 {
                engine.schedule_at(SimTime::from_secs(5), move |w: &mut Vec<u32>, _| w.push(i));
            }
            engine.run(&mut world);
            assert_eq!(world, (0..10).collect::<Vec<_>>());
        }
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
        for kind in [SchedulerKind::Calendar, SchedulerKind::Heap] {
            let mut engine: Engine<Vec<u32>> = Engine::with_kind(kind);
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

    #[test]
    fn default_scheduler_is_calendar_queue() {
        let engine: Engine<()> = Engine::new();
        assert_eq!(engine.scheduler_name(), "calendar-queue");
        let heap: Engine<()> = Engine::with_kind(SchedulerKind::Heap);
        assert_eq!(heap.scheduler_name(), "binary-heap");
    }
}
