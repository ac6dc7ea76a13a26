//! Membership-substrate ablation: the Table-1 workload on flat gossip vs
//! hierarchical OneHop dissemination, across gossip-staleness settings.
//!
//! This experiment quantifies the deviation analysis of EXPERIMENTS.md:
//! absolute setup-success rates are a function of membership freshness
//! (which the paper under-specifies), while the comparative claims —
//! biased ≫ random, redundancy ≈ 2× on random — hold on every substrate.

use super::{Args, ExitCode};
use anon_core::mix::MixStrategy;
use anon_core::protocols::runner::{run_setup_experiment_traced, SetupConfig};
use anon_core::protocols::ProtocolKind;
use experiments::{run_all, RunSpec, Table};
use membership::{GossipConfig, MembershipConfig, OneHopConfig};
use simnet::SimDuration;

pub fn run(args: &Args) -> ExitCode {
    let scale = args.scale();
    let threads = args.threads;
    println!(
        "membership ablation — Table-1 workload per substrate ({scale:?} scale, {threads} threads)\n"
    );

    let substrates: Vec<(String, MembershipConfig)> = vec![
        (
            "gossip 30s/f2/d64".into(),
            MembershipConfig::Gossip(GossipConfig::default()),
        ),
        (
            "gossip 120s/f1/d16 (stale)".into(),
            MembershipConfig::Gossip(GossipConfig {
                interval: SimDuration::from_secs(120),
                fanout: 1,
                digest_size: 16,
                stale_timeout: None,
            }),
        ),
        (
            "gossip 10s/f3/d128 (fresh)".into(),
            MembershipConfig::Gossip(GossipConfig {
                interval: SimDuration::from_secs(10),
                fanout: 3,
                digest_size: 128,
                stale_timeout: None,
            }),
        ),
        (
            "onehop (default)".into(),
            MembershipConfig::onehop_default(),
        ),
        (
            "onehop slow (60s/90s)".into(),
            MembershipConfig::OneHop(OneHopConfig {
                slice_interval: SimDuration::from_secs(60),
                unit_interval: SimDuration::from_secs(90),
                ..OneHopConfig::default()
            }),
        ),
    ];

    let jobs: Vec<RunSpec<(usize, MixStrategy)>> = (0..substrates.len())
        .flat_map(|i| [(i, MixStrategy::Random), (i, MixStrategy::Biased)])
        .map(|(i, strategy)| RunSpec {
            label: format!("{}/{}", substrates[i].0, strategy.label()),
            seed: 77,
            payload: (i, strategy),
        })
        .collect();
    let substrates_ref = &substrates;
    let (results, traces) = run_all("membership_ablation", jobs, threads, |spec| {
        let (i, strategy) = spec.payload;
        let mut world = scale.world(spec.seed);
        world.membership = substrates_ref[i].1;
        let cfg = SetupConfig {
            world,
            protocol: ProtocolKind::CurMix,
            strategy,
            warmup: scale.warmup(),
            mean_interarrival: SimDuration::from_secs(116),
        };
        let (metrics, stats) = run_setup_experiment_traced(&cfg);
        let pct = metrics.setup_success_rate() * 100.0;
        (pct, stats, vec![("setup_success_pct".into(), pct)])
    });

    let mut table = Table::new(
        "CurMix setup success (%) by membership substrate",
        &["substrate", "random", "biased", "biased/random"],
    );
    for (i, (label, _)) in substrates.iter().enumerate() {
        let random = results[i * 2];
        let biased = results[i * 2 + 1];
        table.row(&[
            label.clone(),
            format!("{random:.2}"),
            format!("{biased:.2}"),
            format!("{:.1}x", biased / random.max(1e-9)),
        ]);
    }
    table.print();
    table.save_csv("membership_ablation").expect("write csv");
    traces.print_summary();
    traces.save().expect("write results/traces");

    println!("\nreading: fresher membership raises BOTH columns; the biased/random");
    println!("ratio — the paper's actual claim — survives on every substrate.");
    let all_biased_win = (0..substrates.len()).all(|i| results[i * 2 + 1] > results[i * 2]);
    println!(
        "biased beats random on all {} substrates: {}",
        substrates.len(),
        if all_biased_win { "YES" } else { "NO" }
    );
    ExitCode::SUCCESS
}
