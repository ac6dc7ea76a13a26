//! Table 4 (printed as the second "Table 3" in the paper): SimEra(k=4, r=4)
//! under Pareto, uniform and exponential node-lifetime distributions.

use super::{report_perf_table, reproduced, Args, ExitCode, PaperRow};
use experiments::experiments::tab4_data;

/// Paper-reported values: per distribution, (durability s, attempts,
/// latency ms, bandwidth KB), each `[random, biased]`.
const PAPER: [PaperRow; 3] = [
    (
        "Pareto",
        (1377.0, 2472.0),
        (2.4, 1.0),
        (406.0, 231.0),
        (8.8, 12.4),
    ),
    (
        "Uniform",
        (284.0, 1467.0),
        (2.2, 1.0),
        (370.0, 219.0),
        (8.4, 11.6),
    ),
    (
        "Exponential",
        (1271.0, 2256.0),
        (3.4, 1.0),
        (415.0, 256.0),
        (7.8, 11.0),
    ),
];

pub fn run(args: &Args) -> ExitCode {
    let scale = args.scale();
    let threads = args.threads;
    println!(
        "Table 4 — SimEra(k=4, r=4) vs lifetime distribution ({scale:?} scale, {threads} threads)\n"
    );

    let rows = report_perf_table(
        4,
        "impact of node lifetime distribution",
        "distribution",
        tab4_data(scale, threads),
        &PAPER,
    );

    println!("\nshape checks:");
    let by = |label: &str| rows.iter().find(|r| r.label == label).unwrap();
    let (pareto, uniform, exponential) = (by("Pareto"), by("Uniform"), by("Exponential"));
    println!(
        "  (1) Pareto durability beats uniform and exponential: {}",
        reproduced(
            pareto.durability_secs.1 > uniform.durability_secs.1
                && pareto.durability_secs.1 >= exponential.durability_secs.1 * 0.9
        )
    );
    println!(
        "  (2) biased still beats random under uniform lifetimes (old nodes die sooner): {}",
        reproduced(uniform.durability_secs.1 > uniform.durability_secs.0)
    );
    println!(
        "  (3) biased still beats random under exponential (memoryless) lifetimes: {}",
        reproduced(exponential.durability_secs.1 > exponential.durability_secs.0)
    );
    ExitCode::SUCCESS
}
