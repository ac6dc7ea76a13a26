//! `sim_recovery`: the paper's section 6 setting through the
//! repository's own runner — King latencies, flat gossip, Pareto churn
//! with a one-hour median, one hour of gossip warm-up, then 50
//! simulated 1024-byte messages from a pinned initiator to a pinned
//! responder over the message-level driver, for each point of a
//! protocol x fault-level grid.
//!
//! The world has 256 nodes, not the paper's 1024. At 1024 one call
//! keeps ~94 MB of gossip caches hot and its host time follows whatever
//! the box's other tenants do to the memory system (1.25 s to 3.6 s
//! for the same seed within one hour on the box this was written on);
//! at 256 the caches fit in the processor's own and a run makes some
//! forty calls, several passes over the grid. `RecoverySize::paper()` is the
//! 1024-node size, for a one-off ledger (see README.md).
//!
//! One operation is one simulated message carried to its outcome. A
//! message the simulated network fails to deliver is a result of the
//! modelled protocol (reported as `delivered_ratio`), not a failed
//! operation of the simulator, so `failed` counts only runs whose
//! outputs are wrong. Host time throughout, except where a name says
//! simulated.

use crate::replay::{engine_dispatch_ns, world_lookup_ns, world_parts};
use crate::report::{peak_rss_mb, quantile, splitmix, steady_high, steady_low, Report};
use anon_core::mix::MixStrategy;
use anon_core::protocols::runner::{
    run_recovery_experiment_traced, RecoveryConfig, RecoveryParams, RecoveryResult, RunStats,
};
use anon_core::protocols::ProtocolKind;
use anon_core::sim::{World, WorldConfig};
use experiments::experiments::recovery_fault_levels;
use simnet::{SimDuration, SimTime};
use std::time::Instant;

/// World and message count of one runner call.
#[derive(Clone)]
pub struct RecoverySize {
    pub world: fn(u64) -> WorldConfig,
    pub warmup: SimTime,
    pub messages: usize,
}

impl RecoverySize {
    pub fn full() -> Self {
        RecoverySize {
            world: |seed| WorldConfig {
                n: 256,
                ..WorldConfig::paper_default(seed)
            },
            ..Self::paper()
        }
    }

    /// The paper's 1024 nodes: too sensitive to the box's other
    /// tenants for a bounded metric, right for a one-off ledger.
    pub fn paper() -> Self {
        RecoverySize {
            world: WorldConfig::paper_default,
            warmup: SimTime::from_secs(3600),
            messages: 50,
        }
    }

    /// A 128-node world and six messages: milliseconds per call.
    pub fn tiny() -> Self {
        RecoverySize {
            world: WorldConfig::small,
            warmup: SimTime::from_secs(300),
            messages: 6,
        }
    }
}

const MSG_INTERVAL: SimDuration = SimDuration::from_secs(20);

/// The grid: three protocols at the same 2x overhead, under heavy
/// faults and under none. One pass over it is one slice.
fn grid(size: &RecoverySize, seed: u64) -> Vec<(String, RecoveryConfig)> {
    let protocols = [
        ProtocolKind::CurMix,
        ProtocolKind::SimEra { k: 4, r: 2 },
        ProtocolKind::SimRep { k: 2 },
    ];
    let levels = recovery_fault_levels();
    let mut points = Vec::new();
    for level in ["heavy", "clean"] {
        let faults = levels
            .iter()
            .find(|(name, _)| *name == level)
            .expect("experiments defines this fault level")
            .1;
        for protocol in protocols {
            points.push((
                format!("{}/{level}", protocol.label()),
                RecoveryConfig {
                    world: (size.world)(seed),
                    protocol,
                    strategy: MixStrategy::Biased,
                    faults,
                    recovery: RecoveryParams {
                        retry_budget: 2,
                        ..RecoveryParams::default()
                    },
                    warmup: size.warmup,
                    msg_interval: MSG_INTERVAL,
                    msg_bytes: 1024,
                    messages: size.messages,
                },
            ));
        }
    }
    points
}

/// One runner call and what it cost.
struct Call {
    label: String,
    host_s: f64,
    result: RecoveryResult,
    stats: RunStats,
}

/// The benchmark's own replica of what every runner call does before
/// its first message: build the world, then gossip through the warm-up.
struct Setup {
    world: World,
    new_s: f64,
    warmup_s: f64,
}

fn replica_setup(size: &RecoverySize, seed: u64) -> Setup {
    let t = Instant::now();
    let mut world = World::new((size.world)(seed));
    let new_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    world.advance_gossip(size.warmup);
    Setup {
        world,
        new_s,
        warmup_s: t.elapsed().as_secs_f64(),
    }
}

/// The world seed of pass `i`. What a call costs depends on its world:
/// the SimEra call under heavy faults took 425 to 577 ms over eight
/// seeds, and 2 % apart on one. So the untraced run gives every pass
/// its own world, as the other workloads' slices have their own keys,
/// and its best pass is the lightest of several worlds, which moves
/// less from seed to seed than one world does.
fn pass_seed(seed: u64, i: usize) -> u64 {
    if i == 0 {
        seed
    } else {
        splitmix(seed.wrapping_add(i as u64))
    }
}

/// Passes over the grid until `seconds` have passed — each pass is a
/// slice of fixed work — and the process's peak resident set after the
/// first. With `fresh_worlds` pass `i` runs in the world of
/// [`pass_seed`]; without, every pass runs in the world of `seed`,
/// which is what the traced run's replay takes apart.
fn run_passes(
    size: &RecoverySize,
    seed: u64,
    seconds: f64,
    fresh_worlds: bool,
) -> (Vec<Vec<Call>>, f64) {
    let t0 = Instant::now();
    let (mut passes, mut rss_mb) = (Vec::new(), 0.0);
    while passes.is_empty() || t0.elapsed().as_secs_f64() < seconds {
        let world_seed = if fresh_worlds {
            pass_seed(seed, passes.len())
        } else {
            seed
        };
        let pass = grid(size, world_seed)
            .iter()
            .map(|(label, cfg)| {
                let t = Instant::now();
                let (result, stats) = run_recovery_experiment_traced(cfg);
                Call {
                    label: label.clone(),
                    host_s: t.elapsed().as_secs_f64(),
                    result,
                    stats,
                }
            })
            .collect();
        passes.push(pass);
        if passes.len() == 1 {
            rss_mb = peak_rss_mb(std::process::id());
        }
    }
    (passes, rss_mb)
}

/// Output checks over every call, and the deterministic simulated
/// outputs of the first pass.
fn check_passes(report: &mut Report, size: &RecoverySize, passes: &[Vec<Call>]) {
    let calls = || passes.iter().flatten();
    report.attempted = calls().map(|c| c.result.metrics.messages_sent).sum();
    let wrong = calls()
        .filter(|c| {
            let m = &c.result.metrics;
            m.messages_sent != size.messages as u64
                || m.messages_delivered != c.result.delivered
                || c.result.delivered + c.result.partial > m.messages_sent
        })
        .count() as u64;
    report.failed = wrong * size.messages as u64;
    report.check("every_call_accounts_for_its_messages", wrong == 0);
    let first = &passes[0];
    let (cur, era) = (&first[0], &first[1]);
    // The paper's ordering under heavy faults, with the slack the
    // repository's own `recovery` binary allows at 50 messages.
    report.check(
        "simera_delivers_at_least_curmix_under_heavy",
        era.result.delivery_rate() >= cur.result.delivery_rate() - 0.02,
    );
    for c in first {
        let (r, e) = (&c.result, &c.stats.engine);
        let mut count = |what: &str, v: u64| report.count(format!("{}.{what}", c.label), v);
        count("delivered", r.delivered);
        count("partial", r.partial);
        count(
            "sim_latency_us_mean",
            (r.metrics.latency_ms.mean() * 1e3) as u64,
        );
        count(
            "wire_bytes_mean",
            (r.metrics.bandwidth_kb.mean() * 1024.0) as u64,
        );
        count("segments_sent", r.segments_sent);
        count("retransmits", r.retransmits);
        count("paths_rebuilt", r.paths_rebuilt);
        count("engine_scheduled", e.scheduled);
        count("engine_processed", e.processed);
        count("engine_cancelled", e.cancelled);
    }
}

/// The untraced run.
pub fn run(size: &RecoverySize, seed: u64, seconds: f64) -> Report {
    let (passes, rss_mb) = run_passes(size, seed, seconds, true);
    // Set-up samples come after the passes, so that the resident set
    // above is the runner's own. One world each, as the passes.
    let setups: Vec<f64> = (0..5)
        .map(|i| {
            let setup = replica_setup(size, pass_seed(seed, i));
            setup.new_s + setup.warmup_s
        })
        .collect();
    let mut report = Report::default();
    check_passes(&mut report, size, &passes);
    let rates: Vec<f64> = passes
        .iter()
        .map(|p| (p.len() * size.messages) as f64 / p.iter().map(|c| c.host_s).sum::<f64>())
        .collect();
    // Per-message host time is only visible per call from outside:
    // every message of a call gets the call's mean.
    let per_msg_us = |pass: &[Call], q: f64| {
        let mut us: Vec<f64> = pass
            .iter()
            .map(|c| c.host_s * 1e6 / size.messages as f64)
            .collect();
        quantile(&mut us, q)
    };
    let p50: Vec<f64> = passes.iter().map(|p| per_msg_us(p, 0.5)).collect();
    let p90: Vec<f64> = passes.iter().map(|p| per_msg_us(p, 0.9)).collect();
    report.set("setup_s", steady_low(&setups));
    report.set("ops_per_s", steady_high(&rates));
    report.set("p50_us", steady_low(&p50));
    report.set("p90_us", steady_low(&p90));
    report.set("peak_rss_mb", rss_mb);
    report
}

/// The traced run: the same passes, plus the replica set-up taken
/// apart constructor by constructor (the replay), so that a call's
/// host time splits into churn generation, latency build, membership,
/// and what is left for the runner and driver.
pub fn run_traced(size: &RecoverySize, seed: u64, seconds: f64) -> Report {
    // Three replicas of a call's set-up, each followed by a replay of
    // the gossip the call runs between its messages; every part keeps
    // its best sample, as the passes below do.
    let end = size.warmup + SimDuration(MSG_INTERVAL.0 * size.messages as u64);
    let (mut new_s, mut warmup_s, mut gossip_tail_s) =
        (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    let (mut generate_s, mut latency_build_s, mut membership_new_s) =
        (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    let mut parts = world_parts(&(size.world)(seed));
    for _ in 0..3 {
        let mut setup = replica_setup(size, seed);
        let t = Instant::now();
        setup.world.advance_gossip(end);
        gossip_tail_s = gossip_tail_s.min(t.elapsed().as_secs_f64());
        new_s = new_s.min(setup.new_s);
        warmup_s = warmup_s.min(setup.warmup_s);
        parts = world_parts(&(size.world)(seed));
        generate_s = generate_s.min(parts.generate_s);
        latency_build_s = latency_build_s.min(parts.latency_build_s);
        membership_new_s = membership_new_s.min(parts.membership_new_s);
    }

    let (passes, _) = run_passes(size, seed, seconds * 0.6, false);
    let mut report = Report::default();
    check_passes(&mut report, size, &passes);

    // A call's host time, taken over the best pass like every other
    // time here.
    let run_s = steady_low(
        &passes
            .iter()
            .map(|p| p.iter().map(|c| c.host_s).sum::<f64>() / p.len() as f64)
            .collect::<Vec<_>>(),
    );
    let membership_s = membership_new_s + warmup_s + gossip_tail_s;
    let protocol_s = run_s - new_s - warmup_s - gossip_tail_s;
    report.set("core.runner.run_s", run_s);
    report.set("core.runner.protocol_s", protocol_s);
    report.set("membership.new_s", membership_new_s);
    report.set("membership.advance_s", warmup_s + gossip_tail_s);
    report.set("simnet.churn.generate_s", generate_s);
    report.set("simnet.latency.build_s", latency_build_s);
    report.set("membership.share", membership_s / run_s);
    report.set("simnet.churn.share", generate_s / run_s);
    report.set("simnet.latency.share", latency_build_s / run_s);
    report.set("core.runner.share", protocol_s / run_s);
    report.set(
        "trace.unattributed_share",
        (new_s - generate_s - latency_build_s - membership_new_s) / run_s,
    );
    // Nothing is wrapped on this workload, so tracing costs nothing.
    report.set("trace.overhead_ratio", 1.0);

    let (is_up_ns, owd_ns) = world_lookup_ns(seed, &parts.schedule, &parts.latency);
    report.set("simnet.churn.is_up_ns", is_up_ns);
    report.set("simnet.latency.owd_ns", owd_ns);
    report.set(
        "simnet.churn.sessions",
        parts.schedule.total_sessions() as f64,
    );
    report.set("simnet.engine.dispatch_ns", engine_dispatch_ns());

    // Counts and simulated outputs: the first pass.
    let first = &passes[0];
    let sum = |f: &dyn Fn(&Call) -> u64| first.iter().map(f).sum::<u64>() as f64;
    let sent = sum(&|c| c.result.metrics.messages_sent);
    report.set("delivered_ratio", sum(&|c| c.result.delivered) / sent);
    report.set("fail_ratio", report.failed as f64 / report.attempted as f64);
    report.set(
        "wire_bytes_per_op",
        first
            .iter()
            .map(|c| c.result.metrics.bandwidth_kb.mean() * 1024.0)
            .sum::<f64>()
            / first.len() as f64,
    );
    report.set(
        "core.runner.segments_sent",
        sum(&|c| c.result.segments_sent),
    );
    report.set("core.runner.retransmits", sum(&|c| c.result.retransmits));
    report.set(
        "core.runner.paths_rebuilt",
        sum(&|c| c.result.paths_rebuilt),
    );
    report.set(
        "core.runner.construction_rounds",
        sum(&|c| c.result.construction_rounds),
    );
    report.set("core.sim.links", sum(&|c| c.stats.links));
    report.set("core.sim.probes", sum(&|c| c.stats.probes));
    report.set(
        "simnet.engine.events_processed",
        sum(&|c| c.stats.engine.processed),
    );
    report.set(
        "simnet.engine.events_cancelled",
        sum(&|c| c.stats.engine.cancelled),
    );
    report.set(
        "simnet.engine.max_pending",
        first
            .iter()
            .map(|c| c.stats.engine.max_pending)
            .max()
            .unwrap_or(0) as f64,
    );
    report
}
