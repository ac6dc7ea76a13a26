//! §5 anonymity analysis: `P(x = I)` (Equation 4) for N = 1024, L = 3,
//! across the colluding fraction `f`, with a Monte-Carlo attack simulation.
//!
//! `--seed` moves the Monte-Carlo seed (default 5); `--trials` overrides
//! the trial count per point (default 400 000, or 40 000 under `--quick`).

use super::{Args, ExitCode};
use experiments::experiments::{eq4_data, Scale};
use experiments::Table;

pub fn run(args: &Args) -> ExitCode {
    let scale = args.scale();
    let default_trials = match scale {
        Scale::Full => 400_000,
        Scale::Quick => 40_000,
    };
    let seed: u64 = args.seed.unwrap_or(5);
    let trials: usize = args.trials.unwrap_or(default_trials);
    println!(
        "Eq. 4 — initiator identification probability, N = 1024, L = 3, trials = {trials}, seed {seed}\n"
    );

    let rows = eq4_data(1024, 3, trials, seed);
    let mut table = Table::new(
        "Equation 4: P(x = I) vs f",
        &[
            "f",
            "Eq.4 as printed",
            "Eq.4 exact",
            "Monte-Carlo",
            "anonymity set",
        ],
    );
    for r in &rows {
        table.row(&[
            format!("{:.1}", r.f),
            format!("{:.4}", r.printed),
            format!("{:.4}", r.exact),
            format!("{:.4}", r.simulated),
            format!("{:.1}", r.set_size),
        ]);
    }
    table.print();
    table.save_csv("eq4").expect("write results/eq4.csv");

    println!("\nnotes:");
    println!("  'as printed' uses the paper's sum without binomial coefficients;");
    println!("  'exact' restores C(L,i), collapsing Case 1 to f — which the attack");
    println!("  simulation confirms (see EXPERIMENTS.md for the discrepancy note).");
    let ok = rows.iter().all(|r| (r.exact - r.simulated).abs() < 0.01);
    println!(
        "  Monte-Carlo matches the exact closed form: {}",
        if ok { "YES" } else { "NO" }
    );
    ExitCode::SUCCESS
}
