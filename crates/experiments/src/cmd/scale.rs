//! Large-N scaling sweep: how far does the trajectory-level world go?
//!
//! Sweeps N ∈ {1k, 10k, 100k, 500k, 1M} worlds on the O(1)-memory
//! procedural latency backend and the sampled membership layer, driving a
//! fixed budget of biased-mix flows through each and reporting per-N
//! delivery success rate, mean path latency, links walked per second, and
//! peak RSS. The dense King matrix alone would need ~4 TB at N = 1M; the
//! whole point of this command is demonstrating the world now builds in
//! O(N + tracked·sample) memory.
//!
//! Each grid point runs in a **child process** (`scale --single N`) so
//! its peak RSS (`VmHWM`, monotonic within a process) is attributable to
//! that N alone; the parent re-execs itself, collects the per-point JSON
//! lines, and writes the curve to `--out` (default `BENCH_scale.json`).
//!
//! Flags:
//! * `--quick` — CI grid {1k, 10k, 50k}.
//! * `--n 1000,50000` — explicit comma-separated grid, overrides both.
//! * `--flows K` — flows per grid point (default 2000; quick 500).
//! * `--seed S` — master seed (default 42).
//! * `--single N` — run one grid point in-process and print its JSON line
//!   (the child mode; also what CI's `scale-smoke` invokes directly).
//! * `--max-rss-mb M` — exit nonzero if peak RSS exceeds the budget
//!   (enforced per child, so the parent's bookkeeping is excluded).
//! * `--out PATH` — where the parent writes the sweep JSON.

use super::{peak_rss_bytes, Args, ExitCode};
use anon_core::mix::MixStrategy;
use anon_core::sim::{World, WorldConfig};
use membership::MembershipConfig;
use simnet::{SimTime, TopologyKind};
use std::fmt::Write as _;
use std::process::Command;
use std::time::Instant;

/// Default sweep grid (full mode).
const FULL_GRID: &[usize] = &[1_000, 10_000, 100_000, 500_000, 1_000_000];
/// CI smoke grid.
const QUICK_GRID: &[usize] = &[1_000, 10_000, 50_000];

/// One grid point, in-process: build the world, push `flows` flows through
/// it, and return the JSON line describing the run.
fn run_single(n: usize, flows: usize, seed: u64) -> String {
    let build_start = Instant::now();
    let mut world = World::new(WorldConfig {
        n,
        topology: TopologyKind::Procedural,
        membership: MembershipConfig::sampled_default(),
        ..WorldConfig::paper_default(seed)
    });
    let built_s = build_start.elapsed().as_secs_f64();
    let sessions = world.schedule.total_sessions();

    // Flow starts spread across the measurement window [600 s, 7000 s],
    // after the schedule's initial transient.
    let window_start = 600u64;
    let window = 6_400u64;
    let run_start = Instant::now();
    let mut attempted = 0u64;
    let mut delivered = 0u64;
    let mut latency_ms_sum = 0.0f64;
    for i in 0..flows {
        let t = SimTime::from_secs(window_start + i as u64 * window / flows.max(1) as u64);
        world.advance_gossip(t);
        let Some(initiator) = world.random_live_node(&[], t) else {
            continue;
        };
        let Some(responder) = world.random_live_node(&[initiator], t) else {
            continue;
        };
        world.track_node(initiator, t);
        if let Ok(path) =
            world.pick_replacement_path(initiator, responder, &[], MixStrategy::Biased, t)
        {
            attempted += 1;
            let out = world.construct_path(initiator, &path, responder, t);
            if out.success {
                delivered += 1;
                latency_ms_sum += (out.completed_at - t).as_millis_f64();
            }
        }
        world.untrack_node(initiator);
    }
    let run_s = run_start.elapsed().as_secs_f64();
    let links = world.stats.links();
    let success_rate = delivered as f64 / attempted.max(1) as f64;
    let mean_latency_ms = latency_ms_sum / delivered.max(1) as f64;
    format!(
        "{{\"n\": {n}, \"flows\": {flows}, \"attempted\": {attempted}, \"built_s\": {built_s:.3}, \
         \"run_s\": {run_s:.3}, \"success_rate\": {success_rate:.4}, \
         \"mean_latency_ms\": {mean_latency_ms:.2}, \"links\": {links}, \
         \"events_per_sec\": {:.1}, \"sessions\": {sessions}, \"peak_rss_bytes\": {}}}",
        links as f64 / run_s.max(1e-12),
        peak_rss_bytes(),
    )
}

/// The argument list the sweep re-executes itself with for one grid
/// point (after the program name).
pub fn single_argv(n: usize, flows: usize, seed: u64, max_rss_mb: Option<u64>) -> Vec<String> {
    let mut argv = vec![
        "scale".to_string(),
        format!("--single={n}"),
        format!("--flows={flows}"),
        format!("--seed={seed}"),
    ];
    if let Some(budget) = max_rss_mb {
        argv.push(format!("--max-rss-mb={budget}"));
    }
    argv
}

pub fn run(args: &Args) -> ExitCode {
    let quick = args.quick;
    let seed = args.seed.unwrap_or(42);
    let flows = args.flows.unwrap_or(if quick { 500 } else { 2000 });
    let max_rss_mb = args.max_rss_mb;

    // Child mode: one grid point, JSON on the last stdout line.
    if let Some(n) = args.single {
        let line = run_single(n, flows, seed);
        println!("{line}");
        if let Some(budget) = max_rss_mb {
            let rss = peak_rss_bytes();
            if rss > budget * 1024 * 1024 {
                eprintln!(
                    "peak RSS {} MiB exceeds budget {budget} MiB",
                    rss / (1024 * 1024)
                );
                return ExitCode::from(2);
            }
        }
        return ExitCode::SUCCESS;
    }

    let grid: Vec<usize> = match &args.n {
        Some(grid) => grid.clone(),
        None => (if quick { QUICK_GRID } else { FULL_GRID }).to_vec(),
    };
    let out_path = args.out.as_deref().unwrap_or("BENCH_scale.json");
    let exe = std::env::current_exe().expect("own path");
    println!(
        "scale sweep ({} mode, {} flows/point, seed {seed}) -> {out_path}",
        if quick { "quick" } else { "full" },
        flows
    );
    println!(
        "{:>9}  {:>8}  {:>8}  {:>8}  {:>12}  {:>10}  {:>9}",
        "n", "built_s", "run_s", "success", "latency_ms", "events/s", "rss_mb"
    );

    let mut points: Vec<String> = Vec::new();
    for &n in &grid {
        let out = Command::new(&exe)
            .args(single_argv(n, flows, seed, max_rss_mb))
            .output()
            .expect("spawn grid-point child");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let line = stdout
            .lines()
            .rev()
            .find(|l| l.trim_start().starts_with('{'))
            .unwrap_or_else(|| {
                panic!(
                    "n={n}: child produced no JSON (stderr: {})",
                    String::from_utf8_lossy(&out.stderr)
                )
            })
            .trim()
            .to_string();
        if !out.status.success() {
            eprintln!(
                "n={n}: child failed: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            let code = out.status.code().and_then(|c| u8::try_from(c).ok());
            return ExitCode::from(code.unwrap_or(1));
        }
        // Pull the table columns back out of the child's JSON line.
        let field = |k: &str| -> f64 {
            line.split(&format!("\"{k}\": "))
                .nth(1)
                .and_then(|rest| rest.split([',', '}']).next()?.trim().parse().ok())
                .unwrap_or(f64::NAN)
        };
        println!(
            "{:>9}  {:>8.2}  {:>8.2}  {:>8.3}  {:>12.1}  {:>10.0}  {:>9.1}",
            n,
            field("built_s"),
            field("run_s"),
            field("success_rate"),
            field("mean_latency_ms"),
            field("events_per_sec"),
            field("peak_rss_bytes") / (1024.0 * 1024.0),
        );
        points.push(line);
    }

    let mut json = String::new();
    let _ = write!(
        json,
        "{{\n  \"mode\": \"{}\",\n  \"seed\": {seed},\n  \"flows_per_point\": {flows},\n  \
         \"topology\": \"procedural\",\n  \"membership\": \"sampled\",\n  \"points\": [\n",
        if quick { "quick" } else { "full" },
    );
    for (i, p) in points.iter().enumerate() {
        let sep = if i + 1 < points.len() { "," } else { "" };
        let _ = writeln!(json, "    {p}{sep}");
    }
    json.push_str("  ]\n}\n");
    std::fs::write(out_path, json).expect("write scale sweep");
    println!("wrote {out_path}");
    ExitCode::SUCCESS
}
