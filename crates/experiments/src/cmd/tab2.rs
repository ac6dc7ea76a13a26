//! Table 2: performance comparison among CurMix, SimRep(r=2) and
//! SimEra(k=4, r=4) — durability, construction attempts, latency,
//! bandwidth, each as `[random, biased]`.

use super::{report_perf_table, reproduced, Args, ExitCode, PaperRow};
use experiments::experiments::tab2_data;

/// Paper-reported Table 2 values: (durability s, attempts, latency ms,
/// bandwidth KB), each `[random, biased]`.
const PAPER: [PaperRow; 3] = [
    (
        "CurMix",
        (700.0, 1153.0),
        (8.4, 1.0),
        (374.0, 266.0),
        (4.0, 4.0),
    ),
    (
        "SimRep(r=2)",
        (1140.0, 1167.0),
        (2.8, 1.0),
        (270.0, 257.0),
        (6.2, 6.8),
    ),
    (
        "SimEra(k=4,r=4)",
        (1377.0, 2472.0),
        (2.4, 1.0),
        (406.0, 231.0),
        (8.8, 10.4),
    ),
];

pub fn run(args: &Args) -> ExitCode {
    let scale = args.scale();
    let threads = args.threads;
    println!(
        "Table 2 — performance comparison ({scale:?} scale, seeds = {:?}, {threads} threads)\n",
        scale.seeds()
    );

    let rows = report_perf_table(
        2,
        "performance comparison",
        "protocol",
        tab2_data(scale, threads),
        &PAPER,
    );

    println!("\nshape checks:");
    let dur = |i: usize| rows[i].durability_secs;
    println!(
        "  (1) redundancy improves durability (SimEra > SimRep > CurMix, random): {}",
        reproduced(dur(2).0 > dur(0).0 && dur(1).0 > dur(0).0)
    );
    println!(
        "  (2) biased beats random durability everywhere: {}",
        reproduced(
            rows.iter()
                .all(|r| r.durability_secs.1 >= r.durability_secs.0)
        )
    );
    println!(
        "  (3) biased slashes construction attempts: {}",
        reproduced(
            rows.iter()
                .all(|r| r.attempts.1 <= r.attempts.0 && r.attempts.1 < 2.0)
        )
    );
    println!(
        "  (4) bandwidth grows with redundancy (CurMix < SimRep < SimEra): {}",
        reproduced(
            rows[0].bandwidth_kb.0 < rows[1].bandwidth_kb.0
                && rows[1].bandwidth_kb.0 < rows[2].bandwidth_kb.0
        )
    );
    ExitCode::SUCCESS
}
