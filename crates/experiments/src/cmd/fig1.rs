//! Figure 1: cumulative distribution of (synthesized) measured Gnutella
//! node lifetimes vs the Pareto(α = 0.83, β = 1560 s) fit.

use super::{Args, ExitCode};
use experiments::experiments::{fig1_data, Scale};
use experiments::Table;

pub fn run(args: &Args) -> ExitCode {
    let scale = args.scale();
    let samples = match scale {
        Scale::Full => 200_000,
        Scale::Quick => 20_000,
    };
    println!("Figure 1 — node lifetime CDF: measured (synthesized) vs Pareto fit");
    println!("  samples = {samples}, alpha = 0.83, beta = 1560 s\n");

    let points = fig1_data(samples, 1);
    let mut table = Table::new(
        "Figure 1: CDF of node lifetimes",
        &[
            "lifetime (x10^4 s)",
            "measured CDF",
            "Pareto CDF",
            "abs diff",
        ],
    );
    for p in &points {
        table.row(&[
            format!("{:.1}", p.t_secs / 10_000.0),
            format!("{:.4}", p.measured_cdf),
            format!("{:.4}", p.pareto_cdf),
            format!("{:.4}", (p.measured_cdf - p.pareto_cdf).abs()),
        ]);
    }
    table.print();
    table.save_csv("fig1").expect("write results/fig1.csv");

    let max_diff = points
        .iter()
        .map(|p| (p.measured_cdf - p.pareto_cdf).abs())
        .fold(0.0f64, f64::max);
    println!("\nmax |measured - Pareto| = {max_diff:.4}");
    println!("paper's claim: the measured CDF closely matches the Pareto distribution");
    println!("reproduced: {}", if max_diff < 0.05 { "YES" } else { "NO" });
    ExitCode::SUCCESS
}
