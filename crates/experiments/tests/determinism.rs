//! Determinism guarantees of the parallel experiment runner:
//!
//! * the same seed produces bit-identical metrics across repeated runs,
//! * `run_all` at `--threads 1` and `--threads 4` produces identical
//!   results, trace values and engine counters (only wall-clock differs),
//! * the thread count never leaks into any per-run RNG stream.
//!
//! Worlds here are deliberately small (64 nodes, short horizon) so the
//! suite stays fast; determinism is scale-independent because every seed
//! owns its own `World` and RNG.

use anon_core::mix::MixStrategy;
use anon_core::protocols::runner::{
    run_performance_experiment_traced, run_recovery_experiment_observed,
    run_setup_experiment_traced, PerfConfig, RecoveryConfig, RecoveryParams, SetupConfig,
};
use anon_core::protocols::ProtocolKind;
use anon_core::sim::WorldConfig;
use experiments::{run_all, RunSpec, TraceSet};
use simnet::{FaultConfig, SimDuration, SimTime};

fn tiny_world(seed: u64) -> WorldConfig {
    WorldConfig {
        n: 64,
        horizon: SimTime::from_secs(1800),
        ..WorldConfig::paper_default(seed)
    }
}

fn setup_cfg(seed: u64, strategy: MixStrategy) -> SetupConfig {
    SetupConfig {
        world: tiny_world(seed),
        protocol: ProtocolKind::SimEra { k: 2, r: 2 },
        strategy,
        warmup: SimTime::from_secs(600),
        mean_interarrival: SimDuration::from_secs(116),
    }
}

fn perf_cfg(seed: u64) -> PerfConfig {
    PerfConfig {
        world: tiny_world(seed),
        protocol: ProtocolKind::SimEra { k: 4, r: 4 },
        strategy: MixStrategy::Biased,
        warmup: SimTime::from_secs(600),
        msg_interval: SimDuration::from_secs(10),
        msg_bytes: 1024,
        durability_cap: SimDuration::from_secs(1200),
        retry_interval: SimDuration::from_secs(1),
        predict_threshold: None,
    }
}

#[test]
fn same_seed_same_metrics_twice() {
    for strategy in [MixStrategy::Random, MixStrategy::Biased] {
        let (m1, s1) = run_setup_experiment_traced(&setup_cfg(42, strategy));
        let (m2, s2) = run_setup_experiment_traced(&setup_cfg(42, strategy));
        assert_eq!(m1.construction_attempts, m2.construction_attempts);
        assert_eq!(m1.construction_successes, m2.construction_successes);
        assert_eq!(
            m1.setup_success_rate(),
            m2.setup_success_rate(),
            "{strategy:?}"
        );
        assert_eq!(s1, s2, "engine counters must repeat exactly ({strategy:?})");
    }

    let (r1, s1) = run_performance_experiment_traced(&perf_cfg(7));
    let (r2, s2) = run_performance_experiment_traced(&perf_cfg(7));
    assert_eq!(r1.attempts_per_episode(), r2.attempts_per_episode());
    assert_eq!(
        r1.metrics.durability_secs.mean(),
        r2.metrics.durability_secs.mean()
    );
    assert_eq!(r1.metrics.delivery_rate(), r2.metrics.delivery_rate());
    assert_eq!(s1, s2);
}

#[test]
fn different_seeds_actually_differ() {
    // Guard against the trap where "deterministic" really means "constant".
    let (m1, _) = run_setup_experiment_traced(&setup_cfg(1, MixStrategy::Random));
    let (m2, _) = run_setup_experiment_traced(&setup_cfg(2, MixStrategy::Random));
    assert_ne!(
        (m1.construction_successes, m1.construction_attempts),
        (m2.construction_successes, m2.construction_attempts),
        "distinct seeds should explore distinct trajectories"
    );
}

fn sweep(threads: usize) -> (Vec<f64>, TraceSet) {
    let jobs: Vec<RunSpec<MixStrategy>> = [MixStrategy::Random, MixStrategy::Biased]
        .into_iter()
        .flat_map(|strategy| {
            [11u64, 12, 13].into_iter().map(move |seed| RunSpec {
                label: format!("SimEra/{}", strategy.label()),
                seed,
                payload: strategy,
            })
        })
        .collect();
    run_all("determinism_test", jobs, threads, |spec| {
        let (metrics, stats) = run_setup_experiment_traced(&setup_cfg(spec.seed, spec.payload));
        let pct = metrics.setup_success_rate() * 100.0;
        (pct, stats, vec![("setup_success_pct".into(), pct)])
    })
}

#[test]
fn threads_1_and_4_produce_identical_output() {
    let (seq, seq_traces) = sweep(1);
    let (par, par_traces) = sweep(4);

    // Results arrive in job order regardless of which worker ran them.
    assert_eq!(seq, par, "metric values must not depend on thread count");

    assert_eq!(seq_traces.threads, 1);
    assert_eq!(par_traces.threads, 4);
    assert_eq!(seq_traces.traces.len(), par_traces.traces.len());
    for (a, b) in seq_traces.traces.iter().zip(&par_traces.traces) {
        assert_eq!(a.label, b.label);
        assert_eq!(a.seed, b.seed);
        assert_eq!(
            a.stats, b.stats,
            "engine counters for {}#{}",
            a.label, a.seed
        );
        assert_eq!(
            a.values, b.values,
            "trace values for {}#{}",
            a.label, a.seed
        );
        // wall_ms is the one field allowed to differ.
    }

    // Aggregates (mean ± std over seeds) must match bit-for-bit too.
    let agg_a = seq_traces.aggregate();
    let agg_b = par_traces.aggregate();
    assert_eq!(agg_a.len(), agg_b.len());
    for (a, b) in agg_a.iter().zip(&agg_b) {
        assert_eq!(a.label, b.label);
        assert_eq!(a.metric, b.metric);
        assert_eq!(a.summary.mean(), b.summary.mean());
        assert_eq!(a.summary.std_dev(), b.summary.std_dev());
    }
}

fn recovery_cfg(seed: u64) -> RecoveryConfig {
    RecoveryConfig {
        world: tiny_world(seed),
        protocol: ProtocolKind::SimEra { k: 4, r: 2 },
        strategy: MixStrategy::Biased,
        faults: FaultConfig {
            link_drop: 0.05,
            spike_prob: 0.05,
            spike_factor: 4.0,
            crashes_per_hour: 0.5,
            view_staleness: SimDuration::from_secs(60),
            ..FaultConfig::NONE
        },
        recovery: RecoveryParams::default(),
        warmup: SimTime::from_secs(600),
        msg_interval: SimDuration::from_secs(20),
        msg_bytes: 1024,
        messages: 8,
    }
}

/// Telemetry is strictly write-only: attaching a registry must not perturb
/// the trajectory by a single event. Bit-identical engine counters and
/// result metrics with telemetry on vs off pin that invariant.
#[test]
fn telemetry_on_and_off_produce_identical_runs() {
    for seed in [3u64, 17] {
        let registry = telemetry::Registry::new();
        let (on, stats_on, _) =
            run_recovery_experiment_observed(&recovery_cfg(seed), Some(&registry), false);
        let (off, stats_off, _) =
            run_recovery_experiment_observed(&recovery_cfg(seed), None, false);

        assert_eq!(
            stats_on, stats_off,
            "engine/loss/recovery counters must be bit-identical (seed {seed})"
        );
        assert_eq!(on.delivered, off.delivered, "seed {seed}");
        assert_eq!(on.partial, off.partial, "seed {seed}");
        assert_eq!(on.paths_rebuilt, off.paths_rebuilt, "seed {seed}");
        assert_eq!(on.metrics.messages_sent, off.metrics.messages_sent);
        assert_eq!(
            on.metrics.messages_delivered,
            off.metrics.messages_delivered
        );
        assert_eq!(on.metrics.latency_ms.mean(), off.metrics.latency_ms.mean());
        assert_eq!(on.retransmit_overhead(), off.retransmit_overhead());

        // And the instrumented run actually observed the trajectory: its
        // processed-event counter mirrors the engine's own bookkeeping.
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter_value("sim_events_processed_total", &[]),
            stats_on.engine.processed,
            "telemetry must mirror engine counters (seed {seed})"
        );
        assert!(
            snap.counter_value("core_frames_total", &[("wire", "payload")]) > 0,
            "payload frames must have been recorded (seed {seed})"
        );
    }
}

#[test]
fn oversubscribed_pool_matches_sequential() {
    // More threads than jobs: the pool is clamped to the job count and the
    // merge is still by job index.
    let (seq, _) = sweep(1);
    let (par, _) = sweep(64);
    assert_eq!(seq, par);
}
