//! The command table: one row per table, figure or harness.
//!
//! A row's `usage` is both the `--help` text and the list of flags the
//! parser accepts for that command (see [`crate::cli`]).

use crate::cli::Args;
use experiments::experiments::PerfRow;
use experiments::report::pair;
use experiments::{Table, Traced};
use std::process::ExitCode;

mod all;
mod attack;
mod chaos_soak;
mod eq4;
mod extensions;
mod fig1;
mod fig2;
mod fig3;
mod fig4;
mod fig5;
mod membership_ablation;
mod recovery;
pub mod scale;
mod scenario;
mod tab1;
mod tab2;
mod tab3;
mod tab4;
mod trilemma;
mod validate;

/// One subcommand of the `experiments` binary.
#[derive(Debug)]
pub struct Command {
    /// Name on the command line.
    pub name: &'static str,
    /// Entry point.
    pub run: fn(&Args) -> ExitCode,
    /// The flags (and positionals) this command accepts.
    pub usage: &'static str,
}

impl Command {
    /// Whether `token` (a flag such as `--seed`) is spelled in `usage`.
    pub fn accepts(&self, token: &str) -> bool {
        self.usage
            .split(|c: char| c.is_whitespace() || c == '[' || c == ']')
            .any(|t| t == token)
    }
}

/// Every command. The first [`SUITE`] rows are what `all` walks, in the
/// order it walks them; `--help` lists them in this order too.
#[rustfmt::skip]
pub const COMMANDS: &[Command] = &[
    Command { name: "fig1", run: fig1::run, usage: "[--quick]" },
    Command { name: "fig2", run: fig2::run, usage: "[--quick]" },
    Command { name: "fig3", run: fig3::run, usage: "[--quick]" },
    Command { name: "fig4", run: fig4::run, usage: "[--quick]" },
    Command { name: "tab1", run: tab1::run, usage: "[--quick] [--threads N]" },
    Command { name: "fig5", run: fig5::run, usage: "[--quick] [--threads N]" },
    Command { name: "tab2", run: tab2::run, usage: "[--quick] [--threads N]" },
    Command { name: "tab3", run: tab3::run, usage: "[--quick] [--threads N]" },
    Command { name: "tab4", run: tab4::run, usage: "[--quick] [--threads N]" },
    Command { name: "eq4", run: eq4::run, usage: "[--quick] [--seed S] [--trials N]" },
    Command { name: "validate", run: validate::run, usage: "[--quick]" },
    Command { name: "recovery", run: recovery::run, usage: "[--quick] [--threads N] [--telemetry]" },
    Command { name: "extensions", run: extensions::run, usage: "[--quick] [--threads N]" },
    Command { name: "membership_ablation", run: membership_ablation::run, usage: "[--quick] [--threads N]" },
    Command { name: "attack", run: attack::run, usage: "[--quick] [--threads N] [--seed S] [--trials N]" },
    Command { name: "trilemma", run: trilemma::run, usage: "[--quick] [--threads N] [--out FILE]" },
    Command { name: "scenario", run: scenario::run, usage: "[--bless] [--threads N] <file|dir>..." },
    Command { name: "chaos_soak", run: chaos_soak::run, usage: "[--quick] [--rounds N] [--seed S] [--out FILE]" },
    Command { name: "scale", run: scale::run, usage: "[--quick] [--n A,B,...] [--flows K] [--seed S] [--single N] [--max-rss-mb M] [--out FILE]" },
    Command { name: "all", run: all::run, usage: "[--quick] [--threads N] [--telemetry]" },
];

/// How many leading rows of [`COMMANDS`] make up the suite `all` runs.
pub const SUITE: usize = 15;

/// The verdict a shape check prints.
fn reproduced(ok: bool) -> &'static str {
    if ok {
        "REPRODUCED"
    } else {
        "NOT REPRODUCED"
    }
}

/// Peak resident set size in bytes (`VmHWM`), 0 if unavailable.
fn peak_rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                let rest = l.strip_prefix("VmHWM:")?;
                rest.trim().strip_suffix("kB")?.trim().parse::<u64>().ok()
            })
        })
        .map_or(0, |kb| kb * 1024)
}

/// One paper-reported row of Tables 2–4: label, then (durability s,
/// attempts, latency ms, bandwidth KB), each `[random, biased]`.
type PaperRow = (&'static str, (f64, f64), (f64, f64), (f64, f64), (f64, f64));

/// Tables 2–4 share one shape: print and save the measured table
/// `tab<number>` with its run traces, print the paper's values beside it,
/// and hand the measured rows back for the shape checks.
fn report_perf_table(
    number: u8,
    what: &str,
    first_column: &str,
    out: Traced<Vec<PerfRow>>,
    paper: &[PaperRow],
) -> Vec<PerfRow> {
    let headers = [
        first_column,
        "durability (s)",
        "attempts",
        "latency (ms)",
        "bandwidth (KB)",
        "delivery",
    ];
    let mut table = Table::new(format!("Table {number}: {what} [random, biased]"), &headers);
    for row in &out.data {
        table.row(&[
            row.label.clone(),
            pair(row.durability_secs.0, row.durability_secs.1, 0),
            pair(row.attempts.0, row.attempts.1, 1),
            pair(row.latency_ms.0, row.latency_ms.1, 0),
            pair(row.bandwidth_kb.0, row.bandwidth_kb.1, 1),
            pair(row.delivery.0, row.delivery.1, 2),
        ]);
    }
    table.print();
    table
        .save_csv(&format!("tab{number}"))
        .expect("write results csv");
    out.traces.print_summary();
    out.traces.save().expect("write results/traces");

    // The paper reports no delivery column.
    let mut paper_table = Table::new(
        format!("Table {number} (paper-reported values)"),
        &headers[..5],
    );
    for (label, d, a, l, b) in paper {
        paper_table.row(&[
            label.to_string(),
            pair(d.0, d.1, 0),
            pair(a.0, a.1, 1),
            pair(l.0, l.1, 0),
            pair(b.0, b.1, 1),
        ]);
    }
    paper_table.print();
    out.data
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `all` must not reach itself or the harnesses that write BENCH files.
    #[test]
    fn the_suite_stops_before_the_harnesses() {
        let rest: Vec<&str> = COMMANDS[SUITE..].iter().map(|c| c.name).collect();
        assert_eq!(rest, ["trilemma", "scenario", "chaos_soak", "scale", "all"]);
    }
}
