//! Benchmark-baseline harness: wall-clock measurements of the simulator
//! hot paths, written to `BENCH_simulator.json`.
//!
//! Three phases:
//!
//! 1. **`scheduler_ablation`** — the Table-1 construction timeline (same
//!    event count, inter-arrival statistics and per-hop fan-out as the
//!    tab1 sweep) replayed through the discrete-event engine once per
//!    [`SchedulerKind`]. The tab1 sweep itself is trajectory-level — it
//!    iterates its timeline directly and never touches the engine — so
//!    this replay is the apples-to-apples events/sec comparison of the
//!    binary-heap and calendar-queue disciplines on that workload.
//! 2. **`tab1_sweep`** — the real Table-1 setup-rate sweep under
//!    wall-clock timing, with its per-run timeline counters.
//! 3. **`recovery_sweep`** — the engine-driven recovery sweep (the one
//!    workload where the scheduler runs in production position), with
//!    aggregated [`EngineCounters`].
//!
//! Flags: `--quick` (CI smoke scale), `--threads N`, `--out PATH`
//! (default `BENCH_simulator.json`). Peak RSS
//! is read from `/proc/self/status` `VmHWM` and reported as 0 when the
//! platform does not expose it.

use super::{peak_rss_bytes, Args, ExitCode};
use experiments::experiments::{recovery_data, tab1_data};
use experiments::TraceSet;
use simnet::trace::EngineCounters;
use simnet::{Engine, EventHandle, SchedulerKind, SimDuration, SimTime};
use std::fmt::Write as _;
use std::time::Instant;

/// Paper workload shape behind the ablation profile: mean construction
/// inter-arrival across the network (paper: 116 s per node, 1024 nodes).
const MEAN_INTERARRIVAL_US: u64 = 116_000_000 / 1024;
/// Links per construction (L = 3 relays + responder), each replayed as
/// one chained hop event.
const HOPS: u64 = 4;

/// World for the ablation replay: a deterministic LCG (so both scheduler
/// runs see the identical event sequence) plus live ack-style timers.
struct Ablation {
    lcg: u64,
    timers: Vec<EventHandle>,
}

impl Ablation {
    fn next(&mut self) -> u64 {
        // Numerical Recipes LCG; plenty for spacing synthetic events.
        self.lcg = self
            .lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.lcg >> 11
    }
}

/// One hop of a replayed construction: chain the next hop after a
/// link-latency delay, occasionally arming/cancelling an ack-style timer
/// (the cancellation traffic the recovery layer generates).
fn hop(w: &mut Ablation, e: &mut Engine<Ablation>, remaining: u64) {
    if remaining == 0 {
        return;
    }
    let owd_us = 10_000 + w.next() % 140_000; // 10–150 ms one-way delays
    e.schedule_in(SimDuration(owd_us), move |w, e| hop(w, e, remaining - 1));
    if w.next().is_multiple_of(8) {
        let h = e.schedule_cancellable(e.now() + SimDuration::from_secs(2), |_, _| {});
        if w.next().is_multiple_of(2) {
            h.cancel(); // ack arrived first
        } else {
            w.timers.push(h); // deadline will fire
        }
    }
}

/// Replay `constructions` Table-1 construction events through one engine
/// and return `(wall seconds, counters)`.
fn replay(kind: SchedulerKind, constructions: u64) -> (f64, EngineCounters) {
    let mut engine: Engine<Ablation> = Engine::with_kind(kind);
    let mut world = Ablation {
        lcg: 0x9E3779B97F4A7C15,
        timers: Vec::new(),
    };
    // The sweep's whole timeline is known up front (Poisson-ish arrivals
    // over the horizon); schedule it all, as the trajectory runner does.
    let mut t = 0u64;
    for _ in 0..constructions {
        t += 1 + world.next() % (2 * MEAN_INTERARRIVAL_US);
        engine.schedule_at(SimTime(t), move |w, e| hop(w, e, HOPS));
    }
    let start = Instant::now();
    engine.run(&mut world);
    (start.elapsed().as_secs_f64(), engine.counters())
}

/// Best-of-`reps` replay (min wall time) to damp scheduler-external noise.
fn replay_best(kind: SchedulerKind, constructions: u64, reps: u32) -> (f64, EngineCounters) {
    let mut best: Option<(f64, EngineCounters)> = None;
    for _ in 0..reps {
        let (secs, counters) = replay(kind, constructions);
        if best.as_ref().is_none_or(|(b, _)| secs < *b) {
            best = Some((secs, counters));
        }
    }
    best.expect("reps >= 1")
}

/// Engine counters summed over the runs of a sweep (peak backlog: max).
fn total_counters(set: &TraceSet) -> EngineCounters {
    set.traces
        .iter()
        .fold(EngineCounters::default(), |mut acc, t| {
            acc.scheduled += t.stats.engine.scheduled;
            acc.processed += t.stats.engine.processed;
            acc.cancelled += t.stats.engine.cancelled;
            acc.max_pending = acc.max_pending.max(t.stats.engine.max_pending);
            acc
        })
}

fn json_counters(c: &EngineCounters) -> String {
    format!(
        "{{\"scheduled\": {}, \"processed\": {}, \"cancelled\": {}, \"max_pending\": {}}}",
        c.scheduled, c.processed, c.cancelled, c.max_pending
    )
}

fn json_timing(label: &str, wall_s: f64, processed: u64, counters: &EngineCounters) -> String {
    let eps = processed as f64 / wall_s.max(1e-12);
    format!(
        "{{\"scheduler\": \"{label}\", \"wall_s\": {wall_s:.6}, \"events_processed\": {processed}, \
         \"events_per_sec\": {eps:.1}, \"ns_per_event\": {:.1}, \"counters\": {}}}",
        1e9 * wall_s / processed.max(1) as f64,
        json_counters(counters),
    )
}

pub fn run(args: &Args) -> ExitCode {
    let quick = args.quick;
    let out_path = args.out.as_deref().unwrap_or("BENCH_simulator.json");
    let scale = args.scale();
    let threads = args.threads;
    println!("perf harness ({scale:?} scale, {threads} threads) -> {out_path}");

    // Phase 1: scheduler ablation on the tab1 construction profile.
    let (constructions, reps) = if quick { (20_000, 3) } else { (200_000, 5) };
    println!(
        "[1/3] scheduler ablation: {constructions} constructions x {HOPS} hops, best of {reps}"
    );
    let (heap_s, heap_c) = replay_best(SchedulerKind::Heap, constructions, reps);
    let (cal_s, cal_c) = replay_best(SchedulerKind::Calendar, constructions, reps);
    assert_eq!(
        (heap_c.scheduled, heap_c.processed, heap_c.cancelled),
        (cal_c.scheduled, cal_c.processed, cal_c.cancelled),
        "both schedulers must execute the identical event sequence"
    );
    let heap_eps = heap_c.processed as f64 / heap_s;
    let cal_eps = cal_c.processed as f64 / cal_s;
    let speedup = cal_eps / heap_eps;
    println!(
        "      binary-heap    : {heap_eps:>12.0} events/s  ({:.1} ns/event)",
        1e9 * heap_s / heap_c.processed as f64
    );
    println!(
        "      calendar-queue : {cal_eps:>12.0} events/s  ({:.1} ns/event)  -> {speedup:.2}x",
        1e9 * cal_s / cal_c.processed as f64
    );

    // Phase 2: the real Table-1 sweep under wall-clock timing.
    println!("[2/3] tab1 sweep");
    let t0 = Instant::now();
    let tab1 = tab1_data(scale, threads);
    let tab1_s = t0.elapsed().as_secs_f64();
    let tab1_counters = total_counters(&tab1.traces);
    println!(
        "      {:.2} s wall, {} timeline events ({:.0} events/s)",
        tab1_s,
        tab1_counters.processed,
        tab1_counters.processed as f64 / tab1_s
    );

    // Phase 3: the engine-driven recovery sweep.
    println!("[3/3] recovery sweep");
    let t0 = Instant::now();
    let recovery = recovery_data(scale, threads, false);
    let recovery_s = t0.elapsed().as_secs_f64();
    let recovery_counters = total_counters(&recovery.traces);
    println!(
        "      {:.2} s wall, {} engine events ({:.0} events/s)",
        recovery_s,
        recovery_counters.processed,
        recovery_counters.processed as f64 / recovery_s
    );

    let mut json = String::new();
    let _ = write!(
        json,
        "{{\n  \"mode\": \"{}\",\n  \"threads\": {threads},\n  \"default_scheduler\": \"{}\",\n  \
         \"peak_rss_bytes\": {},\n  \"phases\": {{\n",
        if quick { "quick" } else { "full" },
        Engine::<()>::new().scheduler_name(),
        peak_rss_bytes(),
    );
    let _ = write!(
        json,
        "    \"scheduler_ablation\": {{\n      \"profile\": \"tab1 construction timeline: {constructions} \
         constructions x {HOPS} hop events, paper inter-arrival, 10-150 ms links, 1-in-8 ack timers\",\n      \
         \"best_of\": {reps},\n      \"heap\": {},\n      \"calendar\": {},\n      \
         \"speedup_events_per_sec\": {speedup:.3}\n    }},\n",
        json_timing("binary-heap", heap_s, heap_c.processed, &heap_c),
        json_timing("calendar-queue", cal_s, cal_c.processed, &cal_c),
    );
    let _ = write!(
        json,
        "    \"tab1_sweep\": {{\n      \"wall_s\": {tab1_s:.3}, \"runs\": {}, \"timeline_events\": {}, \
         \"events_per_sec\": {:.1}, \"counters\": {}\n    }},\n",
        tab1.traces.traces.len(),
        tab1_counters.processed,
        tab1_counters.processed as f64 / tab1_s,
        json_counters(&tab1_counters),
    );
    let _ = write!(
        json,
        "    \"recovery_sweep\": {{\n      \"wall_s\": {recovery_s:.3}, \"runs\": {}, \"engine_events\": {}, \
         \"events_per_sec\": {:.1}, \"counters\": {}\n    }}\n  }}\n}}\n",
        recovery.traces.traces.len(),
        recovery_counters.processed,
        recovery_counters.processed as f64 / recovery_s,
        json_counters(&recovery_counters),
    );
    std::fs::write(out_path, json).expect("write benchmark baseline");
    println!("wrote {out_path}");
    ExitCode::SUCCESS
}
