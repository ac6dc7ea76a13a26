//! Table 3: SimEra(k=4, r=4) under varying churn (median node lifetime
//! 20 / 30 / 60 / 80 / 120 minutes).

use super::{report_perf_table, reproduced, Args, ExitCode, PaperRow};
use experiments::experiments::tab3_data;

/// Paper-reported Table 3: per median lifetime, (durability s, attempts,
/// latency ms, bandwidth KB), each `[random, biased]`.
const PAPER: [PaperRow; 5] = [
    (
        "20 min",
        (987.0, 1263.0),
        (27.4, 1.0),
        (270.0, 262.0),
        (7.4, 11.0),
    ),
    (
        "30 min",
        (1101.0, 1889.0),
        (10.0, 1.0),
        (371.0, 182.0),
        (8.2, 12.0),
    ),
    (
        "60 min",
        (1377.0, 2472.0),
        (2.4, 1.0),
        (406.0, 231.0),
        (8.8, 12.4),
    ),
    (
        "80 min",
        (2448.0, 3014.0),
        (1.4, 1.0),
        (365.0, 274.0),
        (9.2, 12.6),
    ),
    (
        "120 min",
        (2549.0, 3304.0),
        (1.0, 1.0),
        (288.0, 225.0),
        (10.4, 12.8),
    ),
];

pub fn run(args: &Args) -> ExitCode {
    let scale = args.scale();
    let threads = args.threads;
    println!(
        "Table 3 — SimEra(k=4, r=4) vs median node lifetime ({scale:?} scale, {threads} threads)\n"
    );

    let rows = report_perf_table(
        3,
        "effect of churn",
        "lifetime",
        tab3_data(scale, threads),
        &PAPER,
    );

    println!("\nshape checks:");
    // Random durability should track the churn rate; biased durability is
    // dominated by the heavy tail (old nodes live long at ANY median), so
    // only the end-to-end trend is required of it.
    let random_monotone = rows
        .windows(2)
        .all(|w| w[1].durability_secs.0 >= w[0].durability_secs.0 * 0.85);
    let biased_trend =
        rows.last().unwrap().durability_secs.1 >= rows.first().unwrap().durability_secs.1 * 0.9;
    println!(
        "  (1) lower churn -> higher durability (random monotone, biased end-to-end): {}",
        reproduced(random_monotone && biased_trend)
    );
    let attempts_fall = rows.first().unwrap().attempts.0 > rows.last().unwrap().attempts.0;
    println!(
        "  (2) lower churn -> fewer random-construction attempts: {}",
        reproduced(attempts_fall)
    );
    let biased_one = rows.iter().all(|r| r.attempts.1 < 2.0);
    println!(
        "  (4) biased construction ~1 attempt at every churn level: {}",
        reproduced(biased_one)
    );
    let biased_bandwidth_higher = rows.iter().all(|r| r.bandwidth_kb.1 >= r.bandwidth_kb.0);
    println!(
        "  (3) biased delivers over more paths (higher bandwidth): {}",
        reproduced(biased_bandwidth_higher)
    );
    ExitCode::SUCCESS
}
