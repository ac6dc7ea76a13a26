//! Figure 3: `P(k)` vs `k` for replication factors r = 2, 3, 4 at node
//! availability 0.70, `L = 3`.

use super::{reproduced, Args, ExitCode};
use experiments::experiments::fig3_data;
use experiments::Table;

pub fn run(args: &Args) -> ExitCode {
    let scale = args.scale();
    let trials = scale.trials();
    println!("Figure 3 — P(k) vs k, pa = 0.70, L = 3, trials = {trials}\n");

    let data = fig3_data(trials, 3);
    let mut table = Table::new(
        "Figure 3: P(k) for varying replication factor",
        &["r", "k", "simulated", "analytic"],
    );
    for (r, series) in &data {
        for p in series {
            table.row(&[
                r.to_string(),
                p.k.to_string(),
                format!("{:.4}", p.simulated),
                format!("{:.4}", p.analytic),
            ]);
        }
    }
    table.print();
    table.save_csv("fig3").expect("write results/fig3.csv");

    // The paper's claim: a bigger r dramatically increases P(k).
    let at = |r: usize, k: usize| {
        data.iter()
            .find(|(rr, _)| *rr == r)
            .and_then(|(_, s)| s.iter().find(|p| p.k == k))
            .map(|p| p.simulated)
            .unwrap_or(f64::NAN)
    };
    println!(
        "\nP(k=12): r=2 -> {:.3}, r=3 -> {:.3}, r=4 -> {:.3}",
        at(2, 12),
        at(3, 12),
        at(4, 12)
    );
    println!(
        "paper's claim (bigger r dramatically increases success): {}",
        reproduced(at(2, 12) < at(3, 12) && at(3, 12) < at(4, 12))
    );
    ExitCode::SUCCESS
}
