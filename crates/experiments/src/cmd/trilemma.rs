//! Anonymity-trilemma sweep: cover-traffic rate × mix strategy ×
//! protocol × adversary strength, scored by the `adversary` crate over
//! the driver observation tap.
//!
//! One simulation job per (protocol, strategy, seed) on the sharded
//! `run_all` pool; the (cover, f) grid is applied *post-hoc* to each
//! run's observations, so the adversary axes cost no extra simulation
//! and provably cannot perturb it. Writes `results/trilemma.csv` plus
//! the standard trace set, and prints the acceptance shape checks:
//! entropy anonymity degrades monotonically with the colluding fraction
//! (matching Equation 4 at the uniform-choice point) and timing
//! linkability decays as cover traffic grows.
//!
//! `--out` writes a JSON blob including `points_per_sec` (grid rows
//! produced per wall-clock second).

use super::{reproduced, Args, ExitCode};
use experiments::experiments::trilemma_data;
use experiments::Table;

pub fn run(args: &Args) -> ExitCode {
    let scale = args.scale();
    let threads = args.threads;
    println!("Trilemma — adversarial anonymity sweep ({scale:?} scale, {threads} threads)\n");

    let started = std::time::Instant::now();
    let out = trilemma_data(scale, threads);
    let elapsed = started.elapsed().as_secs_f64();
    let rows = out.data;

    let mut table = Table::new(
        "Trilemma: anonymity vs bandwidth vs latency under adversaries",
        &[
            "protocol",
            "strategy",
            "cover_per_min",
            "f",
            "shannon_bits",
            "anonymity_set",
            "p_identified",
            "eq4_analytic",
            "linkability_auc",
            "delivery",
            "latency_ms",
            "bandwidth_overhead",
        ],
    );
    let cell = |v: f64, decimals: usize| {
        if v.is_finite() {
            format!("{v:.decimals$}")
        } else {
            "nan".to_string()
        }
    };
    for row in &rows {
        table.row(&[
            row.protocol.clone(),
            row.strategy.to_string(),
            cell(row.cover_per_min, 1),
            cell(row.f, 2),
            cell(row.shannon_bits, 4),
            cell(row.anonymity_set, 2),
            cell(row.p_identified, 4),
            cell(row.eq4_analytic, 4),
            cell(row.linkability_auc, 4),
            cell(row.delivery, 3),
            cell(row.latency_ms, 1),
            cell(row.bandwidth_overhead, 3),
        ]);
    }
    table.print();
    table
        .save_csv("trilemma")
        .expect("write results/trilemma.csv");
    out.traces.print_summary();
    out.traces.save().expect("write results/traces");

    // Shape checks (the suite's acceptance criteria in sweep form).
    let mut entropy_monotone = true;
    let mut auc_decays = true;
    let mut eq4_gap: f64 = 0.0;
    for r in &rows {
        // (a) entropy anonymity degrades monotonically with f at every
        // fixed (protocol, strategy, cover) point.
        if let Some(weaker) = rows.iter().find(|w| {
            w.protocol == r.protocol
                && w.strategy == r.strategy
                && w.cover_per_min == r.cover_per_min
                && w.f < r.f
        }) {
            if r.shannon_bits > weaker.shannon_bits + 1e-9
                || r.p_identified < weaker.p_identified - 1e-9
            {
                entropy_monotone = false;
            }
        }
        // (a) continued: Equation-4 agreement at the uniform-choice
        // (random mix) point.
        if r.strategy == "random" {
            eq4_gap = eq4_gap.max((r.p_identified - r.eq4_analytic).abs());
        }
        // (b) linkability decays as the cover rate grows, per
        // (protocol, strategy, f) series.
        if let Some(quieter) = rows.iter().find(|w| {
            w.protocol == r.protocol
                && w.strategy == r.strategy
                && w.f == r.f
                && w.cover_per_min < r.cover_per_min
        }) {
            if r.linkability_auc > quieter.linkability_auc + 0.02 {
                auc_decays = false;
            }
        }
    }
    println!("\nshape checks:");
    println!(
        "  entropy/identification monotone in colluding fraction f -> {}",
        reproduced(entropy_monotone)
    );
    println!(
        "  Eq4 agreement at the uniform-choice point (max gap {:.3}) -> {}",
        eq4_gap,
        reproduced(eq4_gap < 0.1)
    );
    println!(
        "  timing linkability decays with cover traffic -> {}",
        reproduced(auc_decays)
    );

    if let Some(path) = &args.out {
        let json = format!(
            "{{\"rows\": {}, \"elapsed_sec\": {:.3}, \"points_per_sec\": {:.3}}}",
            rows.len(),
            elapsed,
            rows.len() as f64 / elapsed.max(1e-9)
        );
        std::fs::write(path, json + "\n").expect("write --out");
        println!("\nwrote {path}");
    }

    // The shape checks are the exit code, so CI fails loudly when the
    // sweep stops reproducing.
    if entropy_monotone && eq4_gap < 0.1 && auc_decays {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
