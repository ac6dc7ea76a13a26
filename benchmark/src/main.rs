//! `p2p-anon-benchmark --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload in this process and prints, as the last line of
//! standard output, the result object `BENCHMARK.json` describes.
//! Exits non-zero if any output check failed. `benchmark/run.py`
//! builds this binary (and `p2p-anon-node`) and calls it.

use p2p_anon_benchmark::{run_workload, spec};
use std::process::ExitCode;

/// Variables that change what the crates under test do; a run removes
/// them from its environment and records what they held.
const SCRUBBED: &[&str] = &["P2P_ANON_SCHED", "P2P_ANON_TELEMETRY", "EXPERIMENT_QUICK"];

fn usage() -> ExitCode {
    eprintln!(
        "usage: p2p-anon-benchmark --workload NAME --seed N --seconds S --trace 0|1\n\
         \x20      p2p-anon-benchmark --print-spec\n\
         workloads: {}",
        spec::WORKLOADS
            .iter()
            .map(|w| w.name)
            .collect::<Vec<_>>()
            .join(" ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["--print-spec"] {
        print!("{}", spec::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
    };
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (
        value("--workload"),
        value("--seed").and_then(|s| s.parse::<u64>().ok()),
        value("--seconds").and_then(|s| s.parse::<f64>().ok()),
        value("--trace").and_then(|s| s.parse::<u8>().ok()),
    ) else {
        return usage();
    };
    if !spec::WORKLOADS.iter().any(|w| w.name == workload)
        || seconds.is_nan()
        || seconds <= 0.0
        || trace > 1
    {
        return usage();
    }

    let mut scrubbed = Vec::new();
    for name in SCRUBBED {
        if let Ok(held) = std::env::var(name) {
            scrubbed.push((name.to_string(), held));
            // No other thread exists yet.
            std::env::remove_var(name);
        }
    }

    let report = match run_workload(workload, seed, seconds, trace == 1) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("p2p-anon-benchmark: {workload}: {e}");
            return ExitCode::FAILURE;
        }
    };
    for (what, ok) in &report.checks {
        eprintln!("check {what}: {}", if *ok { "ok" } else { "FAILED" });
    }
    println!("{}", report.info_line(workload, seed, &scrubbed));
    println!("{}", report.result_line());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
