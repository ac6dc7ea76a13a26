//! Simulator benchmarks: event-engine throughput, churn-schedule
//! generation, latency-matrix synthesis, and gossip-round processing —
//! what bounds how fast the paper's 1024-node, 2-hour evaluation runs.

use bench::bench_rng;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use membership::{GossipConfig, GossipSim};
use simnet::{
    ChurnSchedule, Engine, EngineTelemetry, LatencyMatrix, LifetimeDistribution, SimDuration,
    SimTime,
};
use std::hint::black_box;

fn bench_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_engine");
    for events in [1_000usize, 10_000, 100_000] {
        g.throughput(Throughput::Elements(events as u64));
        g.bench_with_input(
            BenchmarkId::new("schedule_and_run", events),
            &events,
            |b, &n| {
                b.iter(|| {
                    let mut engine: Engine<u64> = Engine::new();
                    let mut world = 0u64;
                    for i in 0..n {
                        engine.schedule_at(SimTime((i as u64 * 7919) % 1_000_000), |w, _| *w += 1);
                    }
                    engine.run(&mut world);
                    black_box(world)
                })
            },
        );
    }
    g.finish();
}

/// Telemetry overhead: the identical 100k-event engine workload with and
/// without instruments attached. The engine publishes counter deltas at
/// flush points rather than per event, so the two cases must be within
/// noise of each other — the target is <3% even on this pure-dispatch
/// worst case (tracked in PERFORMANCE.md). A third case prices the
/// histogram record path the driver pays per instrumented send.
fn bench_telemetry(c: &mut Criterion) {
    let mut g = c.benchmark_group("telemetry");
    const EVENTS: usize = 100_000;

    fn workload(engine: &mut Engine<u64>) -> u64 {
        let mut world = 0u64;
        for i in 0..EVENTS {
            engine.schedule_at(SimTime((i as u64 * 7919) % 1_000_000), |w, _| *w += 1);
        }
        engine.run(&mut world);
        world
    }

    g.throughput(Throughput::Elements(EVENTS as u64));
    g.bench_function("engine_uninstrumented_100k", |b| {
        b.iter(|| {
            let mut engine: Engine<u64> = Engine::new();
            black_box(workload(&mut engine))
        })
    });
    g.bench_function("engine_instrumented_100k", |b| {
        let registry = telemetry::Registry::new();
        let instruments = EngineTelemetry::register(&registry);
        b.iter(|| {
            let mut engine: Engine<u64> = Engine::new();
            engine.set_telemetry(instruments.clone());
            black_box(workload(&mut engine))
        })
    });

    g.throughput(Throughput::Elements(1));
    g.bench_function("histogram_record", |b| {
        let registry = telemetry::Registry::new();
        let h = registry.histogram("bench_latency_us", &[], 7);
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(1);
            h.record(black_box((i * 2654435761) % 60_000_000));
        })
    });
    g.finish();
}

fn bench_churn(c: &mut Criterion) {
    let mut g = c.benchmark_group("churn");
    let horizon = SimTime::from_secs(7200 + 3600);
    for n in [256usize, 1024] {
        g.bench_with_input(BenchmarkId::new("generate_schedule", n), &n, |b, &n| {
            b.iter(|| {
                let mut rng = bench_rng();
                black_box(ChurnSchedule::generate(
                    n,
                    &LifetimeDistribution::PAPER_DEFAULT,
                    &LifetimeDistribution::PAPER_DEFAULT,
                    horizon,
                    &mut rng,
                ))
            })
        });
    }
    let mut rng = bench_rng();
    let sched = ChurnSchedule::generate(
        1024,
        &LifetimeDistribution::PAPER_DEFAULT,
        &LifetimeDistribution::PAPER_DEFAULT,
        horizon,
        &mut rng,
    );
    g.bench_function("is_up_query", |b| {
        let mut i = 0u32;
        b.iter(|| {
            i = i.wrapping_add(1);
            black_box(sched.is_up(
                simnet::NodeId(i % 1024),
                SimTime::from_secs((i as u64 * 13) % 7200),
            ))
        })
    });
    g.finish();
}

fn bench_latency(c: &mut Criterion) {
    c.bench_function("latency_matrix_synthetic_1024", |b| {
        b.iter(|| {
            let mut rng = bench_rng();
            black_box(LatencyMatrix::synthetic(1024, 152.0, &mut rng))
        })
    });
}

fn bench_gossip(c: &mut Criterion) {
    let mut g = c.benchmark_group("gossip");
    g.sample_size(10);
    for n in [256usize, 1024] {
        g.bench_with_input(BenchmarkId::new("advance_10min", n), &n, |b, &n| {
            b.iter(|| {
                let mut rng = bench_rng();
                let horizon = SimTime::from_secs(600);
                let sched = ChurnSchedule::generate(
                    n,
                    &LifetimeDistribution::PAPER_DEFAULT,
                    &LifetimeDistribution::PAPER_DEFAULT,
                    horizon,
                    &mut rng,
                );
                let mut gossip = GossipSim::new(n, GossipConfig::default(), &mut rng);
                gossip.advance(&sched, horizon, &mut rng);
                black_box(gossip.messages_sent())
            })
        });
    }
    g.finish();
}

fn bench_mix_choice(c: &mut Criterion) {
    use anon_core::mix::{choose_disjoint_paths, MixStrategy};
    use membership::NodeCache;
    use simnet::NodeId;

    let mut g = c.benchmark_group("mix_choice");
    let now = SimTime::from_secs(1000);
    let mut cache = NodeCache::new();
    for i in 0..1024u32 {
        cache.hear_indirect(
            NodeId(i),
            membership::LivenessInfo::alive(
                SimDuration::from_secs(1 + (i as u64 * 37) % 7200),
                SimDuration::from_secs((i as u64 * 13) % 600),
            ),
            now,
        );
    }
    for strategy in [MixStrategy::Random, MixStrategy::Biased] {
        g.bench_function(format!("k4_l3_{}_1024cache", strategy.label()), |b| {
            let mut rng = bench_rng();
            b.iter(|| {
                black_box(
                    choose_disjoint_paths(&cache, 4, 3, &[NodeId(0)], strategy, now, &mut rng)
                        .unwrap(),
                )
            })
        });
    }
    g.finish();
}

fn bench_runner(c: &mut Criterion) {
    use anon_core::protocols::runner::{run_setup_experiment_traced, SetupConfig};
    use anon_core::protocols::ProtocolKind;
    use experiments::experiments::Scale;
    use experiments::{run_all, RunSpec};

    // Shard a small multi-seed setup sweep across the pool: the same job
    // list at 1 thread vs all cores measures the runner's speedup (and its
    // sequential-path overhead, which should be nil).
    let scale = Scale::Quick;
    let make_jobs = || -> Vec<RunSpec<()>> {
        (0..8u64)
            .map(|seed| RunSpec {
                label: format!("seed{seed}"),
                seed,
                payload: (),
            })
            .collect()
    };
    let run = |spec: &RunSpec<()>| {
        let cfg = SetupConfig {
            world: scale.world(spec.seed),
            protocol: ProtocolKind::CurMix,
            strategy: anon_core::mix::MixStrategy::Biased,
            warmup: scale.warmup(),
            mean_interarrival: SimDuration::from_secs(116),
        };
        let (metrics, stats) = run_setup_experiment_traced(&cfg);
        let pct = metrics.setup_success_rate() * 100.0;
        (pct, stats, vec![("setup_success_pct".to_string(), pct)])
    };

    let mut g = c.benchmark_group("runner");
    g.sample_size(10);
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    for threads in [1usize, cores] {
        g.bench_with_input(
            BenchmarkId::new("setup_sweep_8seeds", threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    let (results, traces) = run_all("bench", make_jobs(), threads, run);
                    black_box((results, traces.traces.len()))
                })
            },
        );
    }
    g.finish();
}

fn bench_recovery(c: &mut Criterion) {
    use anon_core::protocols::runner::{
        run_recovery_experiment_traced, RecoveryConfig, RecoveryParams,
    };
    use anon_core::protocols::ProtocolKind;
    use experiments::experiments::Scale;
    use simnet::{FaultConfig, FaultPlan, NodeId};

    let mut g = c.benchmark_group("recovery");

    // The ack-timer hot path: arm a deadline per in-flight segment, then
    // cancel most of them (the common case — acks beat timeouts).
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("arm_and_cancel_10k_timers", |b| {
        b.iter(|| {
            let mut engine: Engine<u64> = Engine::new();
            let mut world = 0u64;
            let handles: Vec<_> = (0..10_000u64)
                .map(|i| engine.schedule_cancellable(SimTime(i * 131), |w, _| *w += 1))
                .collect();
            for (i, h) in handles.into_iter().enumerate() {
                if i % 8 != 0 {
                    h.cancel();
                }
            }
            engine.run(&mut world);
            black_box(world)
        })
    });

    // Per-packet fault-plan lookup: one hash-derived drop decision plus
    // one latency scaling per link traversal.
    let plan = FaultPlan::new(
        1024,
        FaultConfig {
            link_drop: 0.05,
            spike_prob: 0.05,
            spike_factor: 4.0,
            crashes_per_hour: 1.0,
            view_staleness: SimDuration::from_secs(60),
            ..FaultConfig::NONE
        },
        SimTime::from_secs(7200),
        42,
    );
    g.throughput(Throughput::Elements(1));
    g.bench_function("fault_plan_per_link_decision", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(1);
            let from = NodeId((i % 1024) as u32);
            let to = NodeId(((i * 7) % 1024) as u32);
            let at = SimTime((i * 977) % 7_200_000_000);
            black_box((
                plan.drops(from, to, at),
                plan.scale_owd(SimDuration::from_millis(38), from, to, at),
            ))
        })
    });

    // End-to-end: a short recovery run with retransmissions — the full
    // ack/timeout/localize/rebuild/resend loop over the event engine.
    g.sample_size(10);
    g.bench_function("recovery_run_12_messages", |b| {
        let cfg = RecoveryConfig {
            world: Scale::Quick.world(7),
            protocol: ProtocolKind::SimEra { k: 4, r: 2 },
            strategy: anon_core::mix::MixStrategy::Biased,
            faults: FaultConfig {
                link_drop: 0.08,
                spike_prob: 0.05,
                spike_factor: 4.0,
                crashes_per_hour: 1.0,
                view_staleness: SimDuration::from_secs(60),
                ..FaultConfig::NONE
            },
            recovery: RecoveryParams::default(),
            warmup: Scale::Quick.warmup(),
            msg_interval: SimDuration::from_secs(20),
            msg_bytes: 1024,
            messages: 12,
        };
        b.iter(|| black_box(run_recovery_experiment_traced(&cfg).0.delivered))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_engine,
    bench_telemetry,
    bench_churn,
    bench_latency,
    bench_gossip,
    bench_mix_choice,
    bench_runner,
    bench_recovery
);
criterion_main!(benches);
