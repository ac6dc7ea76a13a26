//! Fidelity validation: the trajectory-level evaluator (used for the
//! 16 000-construction experiments) against the event-driven message
//! level (real onions over the event engine) on *identical* ground truth.
//!
//! For every trial the two layers see the same churn schedule, the same
//! latency matrix, the same paths and the same timings. The trajectory
//! layer must predict, exactly:
//! * which path constructions succeed and when they complete,
//! * which segments arrive and their arrival instants —
//!
//! for every path whose construction succeeded. (Paths that never finished
//! constructing have no relay state at the message level; the trajectory
//! shortcut doesn't model state, so those sends are compared separately.)
//! The comparison is [`experiments::experiments::validate_data`], which the
//! workspace tests run too.

use super::{Args, ExitCode};
use experiments::experiments::{validate_data, VALIDATION_NODES};
use experiments::Table;

pub fn run(args: &Args) -> ExitCode {
    let trials = if args.quick { 10 } else { 60 };
    println!(
        "fidelity validation — trajectory vs message level, {trials} trials, n = {VALIDATION_NODES}\n"
    );
    let v = validate_data(trials);

    let mut table = Table::new("validation summary", &["check", "compared", "mismatches"]);
    table.row(&[
        "construction outcome".into(),
        v.constructions.to_string(),
        v.construction_mismatches.to_string(),
    ]);
    table.row(&[
        "delivery outcome (formed paths)".into(),
        v.deliveries.to_string(),
        v.delivery_mismatches.to_string(),
    ]);
    table.row(&[
        "exact timing (µs)".into(),
        (v.constructions + v.deliveries).to_string(),
        v.timing_mismatches.to_string(),
    ]);
    table.print();
    table
        .save_csv("validate")
        .expect("write results/validate.csv");

    println!(
        "\nunformed-path sends: {} (trajectory agrees on {}; \
         disagreements are the documented state-model gap)",
        v.unformed, v.unformed_agree
    );
    let e = v.engine;
    println!(
        "engine totals: {} scheduled, {} processed, {} cancelled, peak queue {}",
        e.scheduled, e.processed, e.cancelled, e.max_pending
    );
    if let Some(first) = &v.first_mismatch {
        eprintln!(
            "NOT VALIDATED: {} mismatches, the first at {first}",
            v.mismatches()
        );
        return ExitCode::FAILURE;
    }
    println!("\nVALIDATED: trajectory level reproduces the message level exactly on formed paths");
    ExitCode::SUCCESS
}
