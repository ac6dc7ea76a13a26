//! Figure 4: total bandwidth cost of delivering a 1 KB message over `k`
//! paths for r = 2, 3, 4 (pa = 0.70, L = 3), counting partial traversal of
//! failed paths.

use super::{Args, ExitCode};
use experiments::experiments::{fig4_data, Scale};
use experiments::Table;

pub fn run(args: &Args) -> ExitCode {
    let scale = args.scale();
    let trials = match scale {
        Scale::Full => 50_000,
        Scale::Quick => 5_000,
    };
    println!("Figure 4 — bandwidth (KB) vs k, |M| = 1 KB, pa = 0.70, L = 3, trials = {trials}\n");

    let data = fig4_data(trials, 4);
    let mut table = Table::new(
        "Figure 4: bandwidth cost (KB)",
        &["r", "k", "simulated KB", "analytic KB"],
    );
    for (r, series) in &data {
        for p in series {
            table.row(&[
                r.to_string(),
                p.k.to_string(),
                format!("{:.2}", p.simulated_kb),
                format!("{:.2}", p.analytic_kb),
            ]);
        }
    }
    table.print();
    table.save_csv("fig4").expect("write results/fig4.csv");

    let level: Vec<f64> = data.iter().map(|(_, s)| s[0].analytic_kb).collect();
    println!(
        "\nbandwidth levels: r=2 -> {:.1} KB, r=3 -> {:.1} KB, r=4 -> {:.1} KB",
        level[0], level[1], level[2]
    );
    println!("paper's figure shows costs growing with r (axis 0-12 KB), roughly flat in k;");
    println!(
        "reproduced: {}",
        if level[0] < level[1] && level[1] < level[2] && level[2] < 12.0 {
            "YES"
        } else {
            "NO"
        }
    );
    ExitCode::SUCCESS
}
