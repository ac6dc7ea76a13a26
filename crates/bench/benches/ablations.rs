//! Ablations of the design choices called out in DESIGN.md:
//!
//! * GF(256) multiplication: log/exp tables vs carry-less shift-add.
//! * Reed–Solomon decode: systematic fast path vs full matrix inversion.
//! * Biased vs random mix choice: selection cost and the quality the
//!   protocol pays it for (live-pick rate under churn).
//! * Gossip digest size: membership freshness cost curve.
//! * Failure *prediction* (§4.5) on vs off in the performance experiment.

use anon_core::mix::MixStrategy;
use anon_core::protocols::runner::{run_performance_experiment_traced, PerfConfig};
use anon_core::protocols::ProtocolKind;
use anon_core::sim::WorldConfig;
use bench::{bench_rng, payload};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use erasure::rs::ReedSolomon;
use membership::{GossipConfig, GossipSim};
use simnet::{ChurnSchedule, LifetimeDistribution, SimDuration, SimTime};
use std::hint::black_box;

fn ablate_gf256_mul(c: &mut Criterion) {
    // Covered in detail by substrates::gf256; here the head-to-head on the
    // actual RS inner loop shape (slice accumulate with each scheme).
    let mut g = c.benchmark_group("ablation_gf256");
    let src = payload(4096);
    g.bench_function("slice_via_tables", |b| {
        let mut dst = vec![0u8; 4096];
        b.iter(|| {
            erasure::gf256::mul_acc_slice(&mut dst, &src, 0xa7);
            black_box(dst[4095])
        })
    });
    g.bench_function("slice_via_shift_add", |b| {
        let mut dst = vec![0u8; 4096];
        b.iter(|| {
            for (d, &s) in dst.iter_mut().zip(&src) {
                *d ^= erasure::gf256::mul_slow(s, 0xa7);
            }
            black_box(dst[4095])
        })
    });
    g.finish();
}

fn ablate_rs_decode_paths(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_rs_decode");
    let rs = ReedSolomon::new(4, 8).unwrap();
    let data: Vec<Vec<u8>> = (0..4).map(|_| payload(256)).collect();
    let coded = rs.encode(&data).unwrap();
    for lost_data_shards in 0..=4usize {
        // Replace `lost` data shards with parity shards.
        let survivors: Vec<(usize, &[u8])> = (lost_data_shards..4)
            .map(|i| (i, coded[i].as_slice()))
            .chain((4..4 + lost_data_shards).map(|i| (i, coded[i].as_slice())))
            .collect();
        g.bench_with_input(
            BenchmarkId::new("decode_with_lost_data_shards", lost_data_shards),
            &survivors,
            |b, s| b.iter(|| black_box(rs.reconstruct(s).unwrap())),
        );
    }
    g.finish();
}

fn ablate_mix_quality(c: &mut Criterion) {
    // Not a speed ablation: measures the *quality* difference the paper's
    // biased choice buys, as live-pick rate after gossip under churn.
    // Criterion times the probe; the printed rates land in stderr once.
    let mut g = c.benchmark_group("ablation_mix_quality");
    g.sample_size(10);
    let n = 256;
    let horizon = SimTime::from_secs(3600);
    let mut rng = bench_rng();
    let dist = LifetimeDistribution::PAPER_DEFAULT;
    let sched = ChurnSchedule::generate(n, &dist, &dist, horizon, &mut rng);
    let mut gossip = GossipSim::new(n, GossipConfig::default(), &mut rng);
    let probe = SimTime::from_secs(3000);
    gossip.advance(&sched, probe, &mut rng);

    for strategy in [MixStrategy::Random, MixStrategy::Biased] {
        g.bench_function(format!("live_pick_rate_{}", strategy.label()), |b| {
            let mut rng = bench_rng();
            b.iter(|| {
                let mut live = 0usize;
                let mut total = 0usize;
                for i in 0..16usize {
                    let me = simnet::NodeId::from(i);
                    let cache = gossip.cache(me);
                    let picks = match strategy {
                        MixStrategy::Random => cache.select_random(12, &[me], &mut rng),
                        MixStrategy::Biased => cache.select_biased(12, &[me], probe),
                        MixStrategy::BiasedHorizon { horizon_secs } => cache
                            .select_biased_with_horizon(
                                12,
                                &[me],
                                probe,
                                simnet::SimDuration::from_secs(horizon_secs as u64),
                            ),
                    };
                    for p in picks {
                        total += 1;
                        live += usize::from(sched.is_up(p, probe));
                    }
                }
                black_box((live, total))
            })
        });
    }
    g.finish();
}

fn ablate_gossip_digest(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_gossip_digest");
    g.sample_size(10);
    for digest in [8usize, 32, 64, 128] {
        g.bench_with_input(
            BenchmarkId::new("advance_10min_n256", digest),
            &digest,
            |b, &d| {
                b.iter(|| {
                    let mut rng = bench_rng();
                    let horizon = SimTime::from_secs(600);
                    let dist = LifetimeDistribution::PAPER_DEFAULT;
                    let sched = ChurnSchedule::generate(256, &dist, &dist, horizon, &mut rng);
                    let cfg = GossipConfig {
                        digest_size: d,
                        ..GossipConfig::default()
                    };
                    let mut gossip = GossipSim::new(256, cfg, &mut rng);
                    gossip.advance(&sched, horizon, &mut rng);
                    black_box(gossip.messages_sent())
                })
            },
        );
    }
    g.finish();
}

fn ablate_failure_prediction(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_failure_prediction");
    g.sample_size(10);
    let base = PerfConfig {
        world: WorldConfig {
            n: 192,
            horizon: SimTime::from_secs(3600),
            ..WorldConfig::paper_default(3)
        },
        protocol: ProtocolKind::SimEra { k: 4, r: 4 },
        strategy: MixStrategy::Biased,
        warmup: SimTime::from_secs(1800),
        msg_interval: SimDuration::from_secs(10),
        msg_bytes: 1024,
        durability_cap: SimDuration::from_secs(3600),
        retry_interval: SimDuration::from_secs(1),
        predict_threshold: None,
    };
    g.bench_function("without_prediction", |b| {
        b.iter(|| black_box(run_performance_experiment_traced(&base).0))
    });
    let with = PerfConfig {
        predict_threshold: Some(0.3),
        ..base.clone()
    };
    g.bench_function("with_prediction_q0.3", |b| {
        b.iter(|| black_box(run_performance_experiment_traced(&with).0))
    });
    g.finish();
}

criterion_group!(
    benches,
    ablate_gf256_mul,
    ablate_rs_decode_paths,
    ablate_mix_quality,
    ablate_gossip_digest,
    ablate_failure_prediction
);
criterion_main!(benches);
