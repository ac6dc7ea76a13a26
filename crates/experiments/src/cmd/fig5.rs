//! Figure 5: SimEra path-setup success rate vs `k` for r = 2, 3, 4 —
//! (a) random mix choice, (b) biased mix choice.

use super::{reproduced, Args, ExitCode};
use anon_core::mix::MixStrategy;
use experiments::experiments::fig5_data;
use experiments::Table;

pub fn run(args: &Args) -> ExitCode {
    let scale = args.scale();
    let threads = args.threads;
    println!("Figure 5 — SimEra setup success vs k ({scale:?} scale, {threads} threads)\n");

    for (panel, strategy) in [
        ("(a) random", MixStrategy::Random),
        ("(b) biased", MixStrategy::Biased),
    ] {
        let out = fig5_data(strategy, scale, threads);
        let points = out.data;
        let mut table = Table::new(
            format!("Figure 5{panel}: setup success rate (%)"),
            &["r", "k", "success %"],
        );
        for p in &points {
            table.row(&[
                p.r.to_string(),
                p.k.to_string(),
                format!("{:.2}", p.success_pct),
            ]);
        }
        table.print();
        table
            .save_csv(&format!(
                "fig5{}",
                if strategy == MixStrategy::Random {
                    "a"
                } else {
                    "b"
                }
            ))
            .expect("write results csv");
        out.traces.save().expect("write results/traces");

        // Shape checks per panel.
        let series = |r: usize| -> Vec<f64> {
            points
                .iter()
                .filter(|p| p.r == r)
                .map(|p| p.success_pct)
                .collect()
        };
        match strategy {
            MixStrategy::Random => {
                let s2 = series(2);
                println!(
                    "\n  paper: random success decreases with k -> {}",
                    reproduced(s2.first() > s2.last())
                );
            }
            _ => {
                let s2 = series(2);
                let spread = s2.iter().cloned().fold(f64::MIN, f64::max)
                    - s2.iter().cloned().fold(f64::MAX, f64::min);
                println!(
                    "\n  paper: biased success stays high, k has little impact (spread {spread:.1} pts) -> {}",
                    reproduced(spread < 25.0 && s2.iter().all(|&v| v > 50.0))
                );
            }
        }
        println!();
    }
    ExitCode::SUCCESS
}
