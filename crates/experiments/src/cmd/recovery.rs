//! Recovery experiment: end-to-end delivery under injected faults for the
//! fixed 2× overhead comparison set — CurMix vs SimRep(r=2) vs
//! SimEra(k=4,r=2) — across fault intensity (clean/moderate/heavy) and
//! retry budget (0 = fire-and-forget, 2 = ack/timeout/retransmit with
//! §4.5 localization and path repair).
//!
//! `--telemetry` gives every run a registry of its own; the snapshots
//! land in `results/traces/recovery.json` only, the CSVs do not move.

use super::{reproduced, Args, ExitCode};
use experiments::experiments::recovery_data;
use experiments::Table;

pub fn run(args: &Args) -> ExitCode {
    let scale = args.scale();
    let threads = args.threads;
    println!("Recovery — delivery under injected faults ({scale:?} scale, {threads} threads)\n");

    let out = recovery_data(scale, threads, args.telemetry);
    let rows = out.data;
    let mut table = Table::new(
        "Recovery: delivery under injected faults",
        &[
            "protocol/faults/budget",
            "delivery",
            "partial",
            "latency ms",
            "retx overhead",
            "paths rebuilt",
            "fault drops",
        ],
    );
    for row in &rows {
        table.row(&[
            row.label.clone(),
            format!("{:.3}", row.delivery),
            format!("{:.3}", row.partial),
            if row.latency_ms.is_finite() {
                format!("{:.1}", row.latency_ms)
            } else {
                "-".to_string()
            },
            format!("{:.3}", row.retransmit_overhead),
            format!("{:.1}", row.paths_rebuilt),
            format!("{:.0}", row.fault_drops),
        ]);
    }
    table.print();
    table
        .save_csv("recovery")
        .expect("write results/recovery.csv");
    out.traces.print_summary();
    out.traces.save().expect("write results/traces");

    // Shape checks. Row order: fault level (clean, moderate, heavy) ×
    // protocol (CurMix, SimRep, SimEra) × budget (0, 2).
    let find = |needle: &str| {
        rows.iter()
            .find(|r| r.label.contains(needle))
            .unwrap_or_else(|| panic!("row {needle} missing"))
    };
    let cur = find("CurMix/moderate/b2");
    let rep = find("SimRep(r=2)/moderate/b2");
    let era = find("SimEra(k=4,r=2)/moderate/b2");
    let cur0 = find("CurMix/moderate/b0");
    let clean = find("SimEra(k=4,r=2)/clean/b2");

    println!("\nshape checks:");
    println!(
        "  SimEra {:.3} >= SimRep {:.3} >= CurMix {:.3} at moderate faults -> {}",
        era.delivery,
        rep.delivery,
        cur.delivery,
        reproduced(era.delivery >= rep.delivery - 0.02 && rep.delivery >= cur.delivery - 0.02)
    );
    println!(
        "  retries help CurMix: b2 {:.3} vs b0 {:.3} -> {}",
        cur.delivery,
        cur0.delivery,
        reproduced(cur.delivery >= cur0.delivery)
    );
    println!(
        "  clean network delivers ~everything ({:.3}) with ~zero overhead ({:.3}) -> {}",
        clean.delivery,
        clean.retransmit_overhead,
        reproduced(clean.delivery > 0.9 && clean.retransmit_overhead < 0.2)
    );
    ExitCode::SUCCESS
}
