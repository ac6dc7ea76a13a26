//! Table 1: path-setup success rates for CurMix, SimRep(r=2) and
//! SimEra(k=2, r=2) under random and biased mix choice.

use super::{reproduced, Args, ExitCode};
use experiments::experiments::tab1_data;
use experiments::Table;

/// Paper-reported Table 1 values (percent), `[random, biased]` per protocol.
const PAPER: [(&str, f64, f64); 3] = [
    ("CurMix", 2.64, 80.62),
    ("SimRep(r=2)", 4.98, 96.26),
    ("SimEra(k=2,r=2)", 4.98, 96.24),
];

pub fn run(args: &Args) -> ExitCode {
    let scale = args.scale();
    let threads = args.threads;
    println!("Table 1 — path setup success rates ({scale:?} scale, {threads} threads)\n");

    let out = tab1_data(scale, threads);
    let rows = out.data;
    let mut table = Table::new(
        "Table 1: path setup success rates (%)",
        &[
            "protocol",
            "random",
            "biased",
            "paper random",
            "paper biased",
            "events",
        ],
    );
    for (row, paper) in rows.iter().zip(PAPER) {
        table.row(&[
            row.protocol.clone(),
            format!("{:.2}", row.random_pct),
            format!("{:.2}", row.biased_pct),
            format!("{:.2}", paper.1),
            format!("{:.2}", paper.2),
            row.events.to_string(),
        ]);
    }
    table.print();
    table.save_csv("tab1").expect("write results/tab1.csv");
    out.traces.print_summary();
    out.traces.save().expect("write results/traces");

    let redundancy_gain = rows[1].random_pct / rows[0].random_pct.max(1e-9);
    let bias_gain = rows[0].biased_pct / rows[0].random_pct.max(1e-9);
    println!("\nshape checks:");
    println!(
        "  redundancy improves random setup by {redundancy_gain:.2}x (paper: ~1.9x) -> {}",
        reproduced(redundancy_gain > 1.3)
    );
    println!(
        "  biased mix choice improves CurMix by {bias_gain:.1}x (paper: ~30x) -> {}",
        reproduced(bias_gain > 2.0)
    );
    println!(
        "  SimRep ~= SimEra(k=2,r=2) (paper: 4.98 vs 4.98) -> {}",
        reproduced((rows[1].random_pct - rows[2].random_pct).abs() < 5.0)
    );
    ExitCode::SUCCESS
}
