//! Extensions beyond the paper (clearly marked as such in DESIGN.md):
//!
//! 1. **Weighted allocation** — the paper's §7 future work: give stable
//!    paths more coded segments. Compared here against SimEra's even
//!    allocation by exact delivery probability over heterogeneous paths.
//! 2. **Horizon-biased mix choice** — rank relays by survival over a
//!    fixed lookahead (`q_H`), removing gossip-recency noise from the
//!    paper's plain `q` ranking. Compared on the Table-2 workload.

use super::{Args, ExitCode};
use anon_core::allocation::weighted::{allocate_best, allocate_even, delivery_probability};
use anon_core::mix::MixStrategy;
use anon_core::protocols::runner::{run_performance_experiment_traced, PerfConfig};
use anon_core::protocols::ProtocolKind;
use experiments::experiments::Scale;
use experiments::{run_all, RunSpec, Table};

fn weighted_allocation_study() {
    println!("extension 1 — weighted segment allocation (paper §7 future work)\n");
    let mut table = Table::new(
        "even vs weighted allocation, n = 8 segments, m = 4 needed",
        &[
            "path survival probs",
            "even P",
            "weighted P",
            "weighted alloc",
        ],
    );
    let scenarios: [&[f64]; 4] = [
        &[0.9, 0.9, 0.9, 0.9],
        &[0.99, 0.99, 0.5, 0.5],
        &[0.95, 0.8, 0.6, 0.3],
        &[0.99, 0.4, 0.4, 0.4],
    ];
    for probs in scenarios {
        let even = delivery_probability(&allocate_even(8, probs.len()), probs, 4);
        let (alloc, best) = allocate_best(8, 4, probs);
        table.row(&[
            format!("{probs:?}"),
            format!("{even:.4}"),
            format!("{best:.4}"),
            format!("{alloc:?}"),
        ]);
    }
    table.print();
    table
        .save_csv("ext_weighted")
        .expect("write results/ext_weighted.csv");
    println!("\nwith homogeneous paths even allocation stays optimal; with");
    println!("heterogeneous paths (what biased mix choice's predictor exposes),");
    println!("weighting onto stable paths cuts the failure probability.\n");
}

fn horizon_bias_study(scale: Scale, threads: usize) {
    println!("extension 2 — horizon-biased mix choice (q_H ranking)\n");
    let seeds = scale.seeds();
    let strategies = [
        MixStrategy::Random,
        MixStrategy::Biased,
        MixStrategy::BiasedHorizon { horizon_secs: 600 },
    ];

    let jobs: Vec<RunSpec<MixStrategy>> = strategies
        .iter()
        .flat_map(|&strategy| {
            seeds.iter().map(move |&seed| RunSpec {
                label: strategy.label().to_string(),
                seed,
                payload: strategy,
            })
        })
        .collect();
    let (results, traces) = run_all("ext_horizon", jobs, threads, |spec| {
        let cfg = PerfConfig {
            world: scale.world(spec.seed),
            protocol: ProtocolKind::SimEra { k: 4, r: 4 },
            strategy: spec.payload,
            warmup: scale.warmup(),
            msg_interval: simnet::SimDuration::from_secs(10),
            msg_bytes: 1024,
            durability_cap: simnet::SimDuration::from_secs(3600),
            retry_interval: simnet::SimDuration::from_secs(1),
            predict_threshold: None,
        };
        let (res, stats) = run_performance_experiment_traced(&cfg);
        let attempts = res.attempts_per_episode();
        let values = vec![
            ("durability_s".into(), res.metrics.durability_secs.mean()),
            ("attempts_per_episode".into(), attempts),
            ("delivery_rate".into(), res.metrics.delivery_rate()),
        ];
        ((attempts, res.metrics), stats, values)
    });

    let mut table = Table::new(
        "SimEra(k=4, r=4) durability by strategy",
        &["strategy", "durability (s)", "attempts", "delivery"],
    );
    for (si, strategy) in strategies.iter().enumerate() {
        let mut merged = anon_core::metrics::ProtocolMetrics::new();
        let mut attempts = 0.0;
        for (a, metrics) in &results[si * seeds.len()..(si + 1) * seeds.len()] {
            attempts += a;
            merged.merge(metrics);
        }
        table.row(&[
            strategy.label().to_string(),
            format!("{:.0}", merged.durability_secs.mean()),
            format!("{:.1}", attempts / seeds.len() as f64),
            format!("{:.2}", merged.delivery_rate()),
        ]);
    }
    table.print();
    table
        .save_csv("ext_horizon")
        .expect("write results/ext_horizon.csv");
    traces.print_summary();
    traces.save().expect("write results/traces");
    println!("\nthe horizon ranking suppresses 'recently heard, barely alive'");
    println!("candidates that plain q lets into the top picks.");
}

pub fn run(args: &Args) -> ExitCode {
    let scale = args.scale();
    let threads = args.threads;
    weighted_allocation_study();
    horizon_bias_study(scale, threads);
    ExitCode::SUCCESS
}
