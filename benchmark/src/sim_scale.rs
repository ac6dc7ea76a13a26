//! `sim_scale`: biased-mix flows over a 100 000-node world — the
//! benchmark's own copy of the `scale --single` flow loop, written
//! against `World`'s public methods. Procedural latency, sampled
//! membership, pooled churn sessions; no crypto, no event engine, no
//! erasure coding, so an optimisation of the data path must leave every
//! number here where it was.
//!
//! 100 000 nodes, not the million the `scale` binary goes up to: at a
//! million the 35 MB world misses the processor's caches on every view
//! it materialises, and the rate followed the box's other tenants
//! (12 700 to 17 100 flows/s over six interleaved runs, against 22 100
//! to 24 900 at 100 000).
//!
//! One operation is one flow: pick two live nodes, materialise the
//! initiator's view, pick a biased-mix path, walk its construction. A
//! slice is a fresh world (one `setup_s` sample) and a fixed number of
//! flows spread over the simulated measurement window.

use crate::replay::{world_lookup_ns, world_parts};
use crate::report::{peak_rss_mb, quantile, splitmix, steady_high, steady_low, Report};
use anon_core::mix::MixStrategy;
use anon_core::sim::{World, WorldConfig};
use membership::MembershipConfig;
use simnet::{SimTime, TopologyKind};
use std::time::{Duration, Instant};

#[derive(Clone, Copy)]
pub struct ScaleSize {
    pub n: usize,
    pub slice_flows: usize,
}

impl ScaleSize {
    pub fn full() -> Self {
        ScaleSize {
            n: 100_000,
            slice_flows: 8_000,
        }
    }

    pub fn tiny() -> Self {
        ScaleSize {
            n: 2_000,
            slice_flows: 40,
        }
    }
}

fn world_config(size: &ScaleSize, seed: u64) -> WorldConfig {
    WorldConfig {
        n: size.n,
        topology: TopologyKind::Procedural,
        membership: MembershipConfig::sampled_default(),
        ..WorldConfig::paper_default(seed)
    }
}

/// Host time spent in each public call the flow loop makes.
#[derive(Default)]
struct CallTimes {
    advance: Duration,
    random_live: Duration,
    track: Duration,
    pick_path: Duration,
    construct_path: Duration,
}

#[derive(Default)]
struct Slice {
    setup_s: f64,
    elapsed_s: f64,
    attempted: u64,
    /// Flows whose path was picked and whose construction was walked
    /// to an outcome.
    completed: u64,
    /// Flows that found no live pair or no path.
    failed: u64,
    /// Simulated outcomes: constructions that reached the responder.
    sim_successes: u64,
    sim_latency_us: u64,
    links: u64,
    sessions: u64,
    flow_us: Vec<f64>,
    calls: CallTimes,
}

fn timed<R>(slot: &mut Duration, on: bool, f: impl FnOnce() -> R) -> R {
    if !on {
        return f();
    }
    let t = Instant::now();
    let r = f();
    *slot += t.elapsed();
    r
}

/// One slice. With `trace`, each public call is timed on its own.
fn run_slice(size: &ScaleSize, seed: u64, trace: bool) -> Slice {
    let t = Instant::now();
    let mut world = World::new(world_config(size, seed));
    let mut s = Slice {
        setup_s: t.elapsed().as_secs_f64(),
        sessions: world.schedule.total_sessions() as u64,
        ..Slice::default()
    };
    // Flow starts spread across [600 s, 7000 s] of simulated time,
    // after the schedule's initial transient.
    let (window_start, window) = (600u64, 6_400u64);
    let flows = size.slice_flows as u64;
    let t0 = Instant::now();
    for i in 0..flows {
        let start = Instant::now();
        let t = SimTime::from_secs(window_start + i * window / flows);
        s.attempted += 1;
        timed(&mut s.calls.advance, trace, || world.advance_gossip(t));
        let pair = timed(&mut s.calls.random_live, trace, || {
            let initiator = world.random_live_node(&[], t)?;
            Some((initiator, world.random_live_node(&[initiator], t)?))
        });
        let Some((initiator, responder)) = pair else {
            s.failed += 1;
            continue;
        };
        timed(&mut s.calls.track, trace, || world.track_node(initiator, t));
        let path = timed(&mut s.calls.pick_path, trace, || {
            world.pick_replacement_path(initiator, responder, &[], MixStrategy::Biased, t)
        });
        match path {
            Ok(path) => {
                let out = timed(&mut s.calls.construct_path, trace, || {
                    world.construct_path(initiator, &path, responder, t)
                });
                s.completed += 1;
                if out.success {
                    s.sim_successes += 1;
                    s.sim_latency_us += (out.completed_at - t).as_micros();
                }
            }
            Err(_) => s.failed += 1,
        }
        timed(&mut s.calls.track, trace, || world.untrack_node(initiator));
        s.flow_us.push(start.elapsed().as_nanos() as f64 / 1e3);
    }
    s.elapsed_s = t0.elapsed().as_secs_f64();
    s.links = world.stats.links();
    s
}

/// Returns the slices and the process's peak resident set after the
/// first of them: what one world and its flows need, whatever the
/// allocator keeps of it afterwards.
fn run_slices(size: &ScaleSize, seed: u64, seconds: f64, trace: bool) -> (Vec<Slice>, f64) {
    let t0 = Instant::now();
    let (mut slices, mut rss_mb) = (Vec::new(), 0.0);
    while slices.len() < 4 || t0.elapsed().as_secs_f64() < seconds {
        let slice_seed = splitmix(seed.wrapping_add(slices.len() as u64));
        slices.push(run_slice(size, slice_seed, trace));
        if slices.len() == 1 {
            rss_mb = peak_rss_mb(std::process::id());
        }
    }
    (slices, rss_mb)
}

fn check_slices(report: &mut Report, slices: &[Slice]) {
    report.attempted = slices.iter().map(|s| s.attempted).sum();
    report.failed = slices.iter().map(|s| s.failed).sum();
    report.check(
        "attempted_is_completed_plus_failed",
        slices.iter().all(|s| s.attempted == s.completed + s.failed),
    );
    // Each walked construction crosses at most L + 1 links.
    report.check(
        "links_within_path_length",
        slices
            .iter()
            .all(|s| s.links <= s.completed * 4 && s.links >= s.sim_successes * 4),
    );
    let first = &slices[0];
    report.count("first_slice.attempted", first.attempted);
    report.count("first_slice.completed", first.completed);
    report.count("first_slice.sim_successes", first.sim_successes);
    report.count("first_slice.sim_latency_us", first.sim_latency_us);
    report.count("first_slice.links", first.links);
    report.count("first_slice.sessions", first.sessions);
}

/// The untraced run.
pub fn run(size: &ScaleSize, seed: u64, seconds: f64) -> Report {
    let (mut slices, rss_mb) = run_slices(size, seed, seconds, false);
    let mut report = Report::default();
    check_slices(&mut report, &slices);
    let setups: Vec<f64> = slices.iter().map(|s| s.setup_s).collect();
    let rates: Vec<f64> = slices
        .iter()
        .map(|s| s.completed as f64 / s.elapsed_s)
        .collect();
    let p50: Vec<f64> = slices
        .iter_mut()
        .map(|s| quantile(&mut s.flow_us, 0.5))
        .collect();
    let p90: Vec<f64> = slices
        .iter_mut()
        .map(|s| quantile(&mut s.flow_us, 0.9))
        .collect();
    report.set("setup_s", steady_low(&setups));
    report.set("ops_per_s", steady_high(&rates));
    report.set("p50_us", steady_low(&p50));
    report.set("p90_us", steady_low(&p90));
    report.set("peak_rss_mb", rss_mb);
    report
}

/// The traced run: a few untraced slices for the overhead ratio, then
/// slices with every public call timed, then the constructor and
/// lookup replays.
pub fn run_traced(size: &ScaleSize, seed: u64, seconds: f64) -> Report {
    let (untraced, _) = run_slices(size, seed, seconds * 0.3, false);
    let (slices, _) = run_slices(size, seed, seconds * 0.5, true);
    let mut report = Report::default();
    check_slices(&mut report, &slices);
    let rate = |ss: &[Slice]| {
        steady_high(
            &ss.iter()
                .map(|s| s.completed as f64 / s.elapsed_s)
                .collect::<Vec<_>>(),
        )
    };
    report.set("trace.overhead_ratio", rate(&untraced) / rate(&slices));

    // Times and shares: the best traced slice, like every other time.
    let best = slices
        .iter()
        .min_by(|a, b| a.elapsed_s.total_cmp(&b.elapsed_s))
        .expect("at least one traced slice");
    let wall_s = best.elapsed_s;
    let c = &best.calls;
    let (advance, random_live, track, pick, construct) = (
        c.advance.as_secs_f64(),
        c.random_live.as_secs_f64(),
        c.track.as_secs_f64(),
        c.pick_path.as_secs_f64(),
        c.construct_path.as_secs_f64(),
    );
    let parts = world_parts(&world_config(size, seed));
    let (is_up_ns, owd_ns) = world_lookup_ns(seed, &parts.schedule, &parts.latency);
    let links = best.links;
    // Every link walked is one procedural delay lookup, inside
    // `construct_path`.
    let owd_s = links as f64 * owd_ns / 1e9;
    report.set("membership.advance_s", advance);
    report.set("membership.track_s", track);
    report.set("simnet.churn.random_live_s", random_live);
    report.set("core.sim.pick_path_s", pick);
    report.set("core.sim.construct_path_s", construct);
    report.set("membership.share", (advance + track) / wall_s);
    report.set("simnet.churn.share", random_live / wall_s);
    report.set("simnet.latency.share", owd_s / wall_s);
    report.set("core.sim.share", (pick + construct - owd_s) / wall_s);
    report.set(
        "trace.unattributed_share",
        (wall_s - advance - track - random_live - pick - construct) / wall_s,
    );
    report.set("simnet.churn.is_up_ns", is_up_ns);
    report.set("simnet.latency.owd_ns", owd_ns);
    report.set("simnet.churn.generate_s", parts.generate_s);
    report.set("simnet.latency.build_s", parts.latency_build_s);
    report.set("membership.new_s", parts.membership_new_s);

    let first = &slices[0];
    report.set("simnet.churn.sessions", first.sessions as f64);
    report.set("core.sim.links", first.links as f64);
    report.set(
        "delivered_ratio",
        first.sim_successes as f64 / first.attempted as f64,
    );
    report.set("fail_ratio", report.failed as f64 / report.attempted as f64);
    report
}
