//! Data-producing functions for every table and figure.
//!
//! Each function returns plain data; the commands format it. All
//! functions take explicit seeds/trial counts so runs are reproducible;
//! "quick" variants shrink the workload for smoke tests.

use crate::runner::{run_all, run_all_instrumented, RunSpec, Traced};
use anon_core::allocation::{self, BandwidthModel};
use anon_core::anonymity;
use anon_core::metrics::ProtocolMetrics;
use anon_core::mix::MixStrategy;
use anon_core::protocols::runner::{
    run_performance_experiment_traced, run_recovery_experiment_observed,
    run_setup_experiment_traced, PerfConfig, RecoveryConfig, RecoveryParams, SetupConfig,
};
use anon_core::protocols::ProtocolKind;
use anon_core::sim::WorldConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simnet::trace::Samples;
use simnet::{FaultConfig, LifetimeDistribution, SimDuration, SimTime};

/// Scale of an experiment run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Paper-faithful: 1024 nodes, 2-hour horizon, 10 seeds.
    Full,
    /// Smoke-test scale: 192 nodes, 1-hour horizon, 2 seeds.
    Quick,
}

impl Scale {
    /// World config at this scale.
    pub fn world(self, seed: u64) -> WorldConfig {
        match self {
            Scale::Full => WorldConfig::paper_default(seed),
            Scale::Quick => WorldConfig {
                n: 192,
                horizon: SimTime::from_secs(3600),
                ..WorldConfig::paper_default(seed)
            },
        }
    }

    /// Warm-up before measurement (paper: first hour).
    pub fn warmup(self) -> SimTime {
        match self {
            Scale::Full => SimTime::from_secs(3600),
            Scale::Quick => SimTime::from_secs(1800),
        }
    }

    /// Seeds for multi-seed experiments (paper: 10 runs).
    pub fn seeds(self) -> Vec<u64> {
        match self {
            Scale::Full => (1..=10).collect(),
            Scale::Quick => vec![1, 2],
        }
    }

    /// Monte-Carlo trial count for the analytic validations.
    pub fn trials(self) -> usize {
        match self {
            Scale::Full => 200_000,
            Scale::Quick => 20_000,
        }
    }
}

// ---------------------------------------------------------------- Figure 1

/// One point of the Figure-1 CDF comparison.
#[derive(Clone, Copy, Debug)]
pub struct Fig1Point {
    /// Lifetime (seconds).
    pub t_secs: f64,
    /// Empirical CDF of the synthesized "measured" trace.
    pub measured_cdf: f64,
    /// Analytic Pareto(α = 0.83, β = 1560 s) CDF.
    pub pareto_cdf: f64,
}

/// Figure 1: measured Gnutella lifetime CDF vs the Pareto fit.
///
/// The original Saroiu et al. trace is not redistributable; we synthesize
/// the "measured" curve by sampling the Pareto fit with ±10% multiplicative
/// noise per sample (see DESIGN.md substitutions) and compare its empirical
/// CDF with the analytic distribution over the paper's 0–70 000 s range.
pub fn fig1_data(samples: usize, seed: u64) -> Vec<Fig1Point> {
    let dist = LifetimeDistribution::GNUTELLA_FIT;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut trace = Samples::new();
    for _ in 0..samples {
        let noise = 0.9 + 0.2 * rng.gen::<f64>();
        trace.record(dist.sample(&mut rng).as_secs_f64() * noise);
    }
    (1..=14)
        .map(|i| {
            let t = i as f64 * 5_000.0;
            Fig1Point {
                t_secs: t,
                measured_cdf: trace.cdf(t),
                pareto_cdf: dist.cdf(t),
            }
        })
        .collect()
}

// ------------------------------------------------------------ Figures 2–3

/// One `P(k)` point: closed form and Monte-Carlo estimate.
#[derive(Clone, Copy, Debug)]
pub struct PkPoint {
    /// Number of paths.
    pub k: usize,
    /// Closed-form `P(k)`.
    pub analytic: f64,
    /// Monte-Carlo estimate.
    pub simulated: f64,
}

fn pk_series(pa: f64, r: usize, l: usize, trials: usize, rng: &mut StdRng) -> Vec<PkPoint> {
    let p = allocation::path_success_probability(pa, l);
    (1..=20 / r)
        .map(|mult| {
            let k = mult * r;
            PkPoint {
                k,
                analytic: allocation::p_of_k(k, r, p),
                simulated: allocation::simulate_p_of_k(k, r, pa, l, trials, rng),
            }
        })
        .collect()
}

/// Figure 2: validation of the three observations. `r = 2`, `L = 3`,
/// node availabilities 0.70 / 0.86 / 0.95 (Observations 3 / 2 / 1).
pub fn fig2_data(trials: usize, seed: u64) -> Vec<(f64, Vec<PkPoint>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    [0.70, 0.86, 0.95]
        .into_iter()
        .map(|pa| (pa, pk_series(pa, 2, 3, trials, &mut rng)))
        .collect()
}

/// Figure 3: `P(k)` for replication factors 2/3/4 at `pa = 0.70`, `L = 3`.
pub fn fig3_data(trials: usize, seed: u64) -> Vec<(usize, Vec<PkPoint>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    [2usize, 3, 4]
        .into_iter()
        .map(|r| (r, pk_series(0.70, r, 3, trials, &mut rng)))
        .collect()
}

// ---------------------------------------------------------------- Figure 4

/// One bandwidth point: expected vs simulated total cost in KB.
#[derive(Clone, Copy, Debug)]
pub struct BandwidthPoint {
    /// Number of paths.
    pub k: usize,
    /// Analytic expectation (KB).
    pub analytic_kb: f64,
    /// Monte-Carlo measurement (KB).
    pub simulated_kb: f64,
}

/// Figure 4: total bandwidth for a 1 KB message over `k` paths with
/// `r ∈ {2, 3, 4}`, `pa = 0.70`, `L = 3`, counting partial traversal of
/// failed paths.
pub fn fig4_data(trials: usize, seed: u64) -> Vec<(usize, Vec<BandwidthPoint>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let model = BandwidthModel {
        msg_bytes: 1024,
        l: 3,
        pa: 0.70,
    };
    [2usize, 3, 4]
        .into_iter()
        .map(|r| {
            let series = (1..=20 / r)
                .map(|mult| {
                    let k = mult * r;
                    let per_path = model.per_path_bytes(k, r);
                    // Monte Carlo: sum links traversed across k paths.
                    let mut total = 0f64;
                    for _ in 0..trials {
                        for _ in 0..k {
                            let mut links = 1usize; // first link always paid
                            for _ in 0..model.l {
                                if rng.gen::<f64>() < model.pa {
                                    links += 1;
                                } else {
                                    break;
                                }
                            }
                            total += links as f64 * per_path;
                        }
                    }
                    BandwidthPoint {
                        k,
                        analytic_kb: model.simera_expected_bytes(k, r) / 1024.0,
                        simulated_kb: total / trials as f64 / 1024.0,
                    }
                })
                .collect();
            (r, series)
        })
        .collect()
}

// ------------------------------------------------------------------ Table 1

/// One Table-1 row: setup success rates (percent) per mix choice.
#[derive(Clone, Debug)]
pub struct SetupRow {
    /// Protocol label.
    pub protocol: String,
    /// Success rate with random mix choice (%).
    pub random_pct: f64,
    /// Success rate with biased mix choice (%).
    pub biased_pct: f64,
    /// Construction events measured (random run).
    pub events: u64,
}

/// Table 1: path-setup success for CurMix, SimRep(r=2), SimEra(k=2, r=2)
/// under random and biased mix choice.
pub fn tab1_data(scale: Scale, threads: usize) -> Traced<Vec<SetupRow>> {
    let protocols = [
        ProtocolKind::CurMix,
        ProtocolKind::SimRep { k: 2 },
        ProtocolKind::SimEra { k: 2, r: 2 },
    ];
    let jobs: Vec<RunSpec<SetupConfig>> = protocols
        .iter()
        .flat_map(|&p| [(p, MixStrategy::Random), (p, MixStrategy::Biased)])
        .map(|(protocol, strategy)| RunSpec {
            label: format!("{}/{}", protocol.label(), strategy.label()),
            seed: 42,
            payload: SetupConfig {
                world: scale.world(42),
                protocol,
                strategy,
                warmup: scale.warmup(),
                mean_interarrival: simnet::SimDuration::from_secs(116),
            },
        })
        .collect();
    let (results, traces) = run_all("tab1", jobs, threads, |spec| {
        let (metrics, stats) = run_setup_experiment_traced(&spec.payload);
        let values = vec![
            (
                "setup_success_pct".to_string(),
                metrics.setup_success_rate() * 100.0,
            ),
            (
                "construction_events".to_string(),
                metrics.construction_attempts as f64,
            ),
        ];
        (metrics, stats, values)
    });
    let data = protocols
        .iter()
        .enumerate()
        .map(|(i, &p)| {
            let random = &results[i * 2];
            let biased = &results[i * 2 + 1];
            SetupRow {
                protocol: p.label(),
                random_pct: random.setup_success_rate() * 100.0,
                biased_pct: biased.setup_success_rate() * 100.0,
                events: random.construction_attempts,
            }
        })
        .collect();
    Traced { data, traces }
}

// ----------------------------------------------------------------- Figure 5

/// One Figure-5 point.
#[derive(Clone, Copy, Debug)]
pub struct Fig5Point {
    /// Number of paths.
    pub k: usize,
    /// Replication factor.
    pub r: usize,
    /// Setup success rate (%).
    pub success_pct: f64,
}

/// Figure 5: SimEra setup success vs `k` for `r ∈ {2, 3, 4}`, one series
/// per mix strategy.
pub fn fig5_data(strategy: MixStrategy, scale: Scale, threads: usize) -> Traced<Vec<Fig5Point>> {
    let mut grid = Vec::new();
    for r in [2usize, 3, 4] {
        for mult in 1..=(20 / r) {
            grid.push((mult * r, r));
        }
    }
    let jobs: Vec<RunSpec<SetupConfig>> = grid
        .iter()
        .map(|&(k, r)| RunSpec {
            label: format!("SimEra(k={k},r={r})/{}", strategy.label()),
            seed: 7,
            payload: SetupConfig {
                world: scale.world(7),
                protocol: ProtocolKind::SimEra { k, r },
                strategy,
                warmup: scale.warmup(),
                mean_interarrival: simnet::SimDuration::from_secs(116),
            },
        })
        .collect();
    let experiment = if strategy == MixStrategy::Random {
        "fig5a"
    } else {
        "fig5b"
    };
    let (results, traces) = run_all(experiment, jobs, threads, |spec| {
        let (metrics, stats) = run_setup_experiment_traced(&spec.payload);
        let pct = metrics.setup_success_rate() * 100.0;
        (pct, stats, vec![("setup_success_pct".to_string(), pct)])
    });
    let data = grid
        .into_iter()
        .zip(results)
        .map(|((k, r), success_pct)| Fig5Point { k, r, success_pct })
        .collect();
    Traced { data, traces }
}

// ------------------------------------------------------------- Tables 2–4

/// Aggregated performance numbers in the paper's `[random, biased]` shape.
#[derive(Clone, Debug)]
pub struct PerfRow {
    /// Row label (protocol, lifetime, or distribution).
    pub label: String,
    /// Mean path durability in seconds, `[random, biased]`.
    pub durability_secs: (f64, f64),
    /// Mean construction attempts per episode, `[random, biased]`.
    pub attempts: (f64, f64),
    /// Mean delivery latency in ms, `[random, biased]`.
    pub latency_ms: (f64, f64),
    /// Mean bandwidth per message in KB, `[random, biased]`.
    pub bandwidth_kb: (f64, f64),
    /// Message delivery rate, `[random, biased]`.
    pub delivery: (f64, f64),
}

/// Run a whole performance table as ONE sharded batch: every
/// `(row, strategy, seed)` combination is an independent job, so the pool
/// drains the full table instead of synchronizing per row.
fn perf_table(
    experiment: &str,
    rows: Vec<(String, ProtocolKind, PerfConfig)>,
    seeds: &[u64],
    threads: usize,
) -> Traced<Vec<PerfRow>> {
    let strategies = [MixStrategy::Random, MixStrategy::Biased];
    let jobs: Vec<RunSpec<PerfConfig>> = rows
        .iter()
        .flat_map(|(label, protocol, base)| {
            strategies.iter().flat_map(move |&strategy| {
                seeds.iter().map(move |&seed| RunSpec {
                    label: format!("{label}/{}", strategy.label()),
                    seed,
                    payload: PerfConfig {
                        world: WorldConfig {
                            seed,
                            ..base.world.clone()
                        },
                        protocol: *protocol,
                        strategy,
                        ..base.clone()
                    },
                })
            })
        })
        .collect();
    let (results, traces) = run_all(experiment, jobs, threads, |spec| {
        let (res, stats) = run_performance_experiment_traced(&spec.payload);
        let values = vec![
            (
                "durability_s".to_string(),
                res.metrics.durability_secs.mean(),
            ),
            (
                "attempts_per_episode".to_string(),
                res.attempts_per_episode(),
            ),
            ("latency_ms".to_string(), res.metrics.latency_ms.mean()),
            ("bandwidth_kb".to_string(), res.metrics.bandwidth_kb.mean()),
            ("delivery_rate".to_string(), res.metrics.delivery_rate()),
        ];
        ((res.attempts_per_episode(), res.metrics), stats, values)
    });

    // Slice the flat results back into (row, strategy) groups of one seed
    // each and aggregate exactly as before: metrics merge across seeds,
    // attempts average over runs that completed an episode.
    let s = seeds.len();
    let aggregate = |row: usize, strategy: usize| -> (ProtocolMetrics, f64) {
        let start = row * 2 * s + strategy * s;
        let mut merged = ProtocolMetrics::new();
        let mut attempts = 0.0;
        let mut counted = 0usize;
        for (a, m) in &results[start..start + s] {
            merged.merge(m);
            if *a > 0.0 {
                attempts += a;
                counted += 1;
            }
        }
        (
            merged,
            if counted == 0 {
                0.0
            } else {
                attempts / counted as f64
            },
        )
    };
    let data = rows
        .iter()
        .enumerate()
        .map(|(i, (label, _, _))| {
            let (random, rand_attempts) = aggregate(i, 0);
            let (biased, bias_attempts) = aggregate(i, 1);
            PerfRow {
                label: label.clone(),
                durability_secs: (random.durability_secs.mean(), biased.durability_secs.mean()),
                attempts: (rand_attempts, bias_attempts),
                latency_ms: (random.latency_ms.mean(), biased.latency_ms.mean()),
                bandwidth_kb: (random.bandwidth_kb.mean(), biased.bandwidth_kb.mean()),
                delivery: (random.delivery_rate(), biased.delivery_rate()),
            }
        })
        .collect();
    Traced { data, traces }
}

fn base_perf(scale: Scale) -> PerfConfig {
    PerfConfig {
        world: scale.world(0),
        protocol: ProtocolKind::CurMix, // overridden per job
        strategy: MixStrategy::Random,  // overridden per job
        warmup: scale.warmup(),
        msg_interval: simnet::SimDuration::from_secs(10),
        msg_bytes: 1024,
        durability_cap: simnet::SimDuration::from_secs(3600),
        retry_interval: simnet::SimDuration::from_secs(1),
        predict_threshold: None,
    }
}

/// Table 2: CurMix vs SimRep(r=2) vs SimEra(k=4, r=4), `[random, biased]`.
pub fn tab2_data(scale: Scale, threads: usize) -> Traced<Vec<PerfRow>> {
    let base = base_perf(scale);
    let rows = [
        ProtocolKind::CurMix,
        ProtocolKind::SimRep { k: 2 },
        ProtocolKind::SimEra { k: 4, r: 4 },
    ]
    .into_iter()
    .map(|p| (p.label(), p, base.clone()))
    .collect();
    perf_table("tab2", rows, &scale.seeds(), threads)
}

/// Table 3: SimEra(k=4, r=4) with median node lifetime 20/30/60/80/120 min.
pub fn tab3_data(scale: Scale, threads: usize) -> Traced<Vec<PerfRow>> {
    let rows = [20u64, 30, 60, 80, 120]
        .into_iter()
        .map(|minutes| {
            let median_secs = minutes as f64 * 60.0;
            let mut base = base_perf(scale);
            base.world.lifetime = LifetimeDistribution::pareto_with_median(median_secs);
            base.world.downtime = LifetimeDistribution::pareto_with_median(median_secs);
            (
                format!("{minutes} min"),
                ProtocolKind::SimEra { k: 4, r: 4 },
                base,
            )
        })
        .collect();
    perf_table("tab3", rows, &scale.seeds(), threads)
}

/// Table 4: SimEra(k=4, r=4) under Pareto / Uniform / Exponential node
/// lifetimes (all with the same 1-hour central tendency).
pub fn tab4_data(scale: Scale, threads: usize) -> Traced<Vec<PerfRow>> {
    let rows = [
        ("Pareto", LifetimeDistribution::PAPER_DEFAULT),
        ("Uniform", LifetimeDistribution::paper_uniform()),
        ("Exponential", LifetimeDistribution::paper_exponential()),
    ]
    .into_iter()
    .map(|(label, dist)| {
        let mut base = base_perf(scale);
        base.world.lifetime = dist;
        base.world.downtime = dist;
        (label.to_string(), ProtocolKind::SimEra { k: 4, r: 4 }, base)
    })
    .collect();
    perf_table("tab4", rows, &scale.seeds(), threads)
}

// -------------------------------------------------------------------- Eq. 4

/// One row of the §5 anonymity analysis.
#[derive(Clone, Copy, Debug)]
pub struct Eq4Row {
    /// Fraction of colluding nodes.
    pub f: f64,
    /// Eq. 4 exactly as printed (no binomial coefficients).
    pub printed: f64,
    /// Exact value (Case 1 = `f`).
    pub exact: f64,
    /// Monte-Carlo attack simulation.
    pub simulated: f64,
    /// Effective anonymity-set size (`1 / exact`).
    pub set_size: f64,
}

// ----------------------------------------------------------- Recovery sweep

/// One aggregated row of the recovery experiment: a
/// `(protocol, fault level, retry budget)` point, averaged across seeds.
#[derive(Clone, Debug)]
pub struct RecoveryRow {
    /// `protocol/fault/budget` label.
    pub label: String,
    /// Fraction of messages the responder reconstructed.
    pub delivery: f64,
    /// Fraction that ended with some but fewer than `m` segments.
    pub partial: f64,
    /// Mean delivery latency (ms) over delivered messages.
    pub latency_ms: f64,
    /// Retransmitted segments per first-transmission segment.
    pub retransmit_overhead: f64,
    /// Mean paths torn down and rebuilt per run.
    pub paths_rebuilt: f64,
    /// Mean injected link drops per run (fault-intensity sanity check).
    pub fault_drops: f64,
}

/// The named fault levels the recovery sweep visits.
pub fn recovery_fault_levels() -> Vec<(&'static str, FaultConfig)> {
    vec![
        ("clean", FaultConfig::NONE),
        (
            "moderate",
            FaultConfig {
                link_drop: 0.05,
                spike_prob: 0.05,
                spike_factor: 4.0,
                crashes_per_hour: 0.5,
                view_staleness: SimDuration::from_secs(60),
                ..FaultConfig::NONE
            },
        ),
        (
            "heavy",
            FaultConfig {
                link_drop: 0.12,
                spike_prob: 0.10,
                spike_factor: 6.0,
                crashes_per_hour: 2.0,
                view_staleness: SimDuration::from_secs(300),
                ..FaultConfig::NONE
            },
        ),
    ]
}

/// Recovery experiment: fault intensity × protocol (fixed 2× overhead
/// comparison set) × retry budget, every `(point, seed)` one sharded job.
/// With `telemetry`, every run records into a registry of its own and the
/// snapshot rides on its trace.
pub fn recovery_data(scale: Scale, threads: usize, telemetry: bool) -> Traced<Vec<RecoveryRow>> {
    let protocols = [
        ProtocolKind::CurMix,
        ProtocolKind::SimRep { k: 2 },
        ProtocolKind::SimEra { k: 4, r: 2 },
    ];
    let budgets = [0u32, 2];
    let messages = match scale {
        Scale::Full => 50,
        Scale::Quick => 12,
    };
    let seeds = scale.seeds();

    let mut points: Vec<(String, RecoveryConfig)> = Vec::new();
    for (fault_name, faults) in recovery_fault_levels() {
        for protocol in protocols {
            for budget in budgets {
                let label = format!("{}/{}/b{}", protocol.label(), fault_name, budget);
                let cfg = RecoveryConfig {
                    world: scale.world(0),
                    protocol,
                    strategy: MixStrategy::Biased,
                    faults,
                    recovery: RecoveryParams {
                        retry_budget: budget,
                        ..RecoveryParams::default()
                    },
                    warmup: scale.warmup(),
                    msg_interval: SimDuration::from_secs(20),
                    msg_bytes: 1024,
                    messages,
                };
                points.push((label, cfg));
            }
        }
    }

    // Flat per-run tuple collected back from the pool:
    // (delivery, partial, latency_ms, retx_overhead, paths_rebuilt, fault_drops).
    type RecoveryRun = (f64, f64, f64, f64, f64, f64);

    let jobs: Vec<RunSpec<RecoveryConfig>> = points
        .iter()
        .flat_map(|(label, base)| {
            seeds.iter().map(move |&seed| RunSpec {
                label: label.clone(),
                seed,
                payload: RecoveryConfig {
                    world: WorldConfig {
                        seed,
                        ..base.world.clone()
                    },
                    ..base.clone()
                },
            })
        })
        .collect();

    let (results, traces) = run_all_instrumented("recovery", jobs, threads, |spec| {
        // Per-run registry (when enabled) so snapshots stay attributable to
        // one seed; the runner stores each on its RunTrace and TraceSet can
        // merge them. Telemetry is write-only, so results are unchanged.
        let registry = telemetry.then(telemetry::Registry::new);
        let (res, stats, _) =
            run_recovery_experiment_observed(&spec.payload, registry.as_ref(), false);
        let partial_rate = if res.metrics.messages_sent == 0 {
            0.0
        } else {
            res.partial as f64 / res.metrics.messages_sent as f64
        };
        let values = vec![
            ("delivery_rate".to_string(), res.delivery_rate()),
            ("partial_rate".to_string(), partial_rate),
            ("latency_ms".to_string(), res.metrics.latency_ms.mean()),
            ("retransmit_overhead".to_string(), res.retransmit_overhead()),
            ("paths_rebuilt".to_string(), res.paths_rebuilt as f64),
            ("fault_drops".to_string(), stats.fault_drops as f64),
        ];
        (
            (
                res.delivery_rate(),
                partial_rate,
                res.metrics.latency_ms.mean(),
                res.retransmit_overhead(),
                res.paths_rebuilt as f64,
                stats.fault_drops as f64,
            ),
            stats,
            values,
            registry.map(|r| r.snapshot()),
        )
    });

    let s = seeds.len();
    let data = points
        .iter()
        .enumerate()
        .map(|(i, (label, _))| {
            let runs: &[RecoveryRun] = &results[i * s..(i + 1) * s];
            let mean = |f: fn(&RecoveryRun) -> f64| runs.iter().map(f).sum::<f64>() / s as f64;
            RecoveryRow {
                label: label.clone(),
                delivery: mean(|r| r.0),
                partial: mean(|r| r.1),
                // Latency means can be NaN for runs that delivered nothing;
                // average only the finite ones.
                latency_ms: {
                    let finite: Vec<f64> =
                        runs.iter().map(|r| r.2).filter(|v| v.is_finite()).collect();
                    if finite.is_empty() {
                        f64::NAN
                    } else {
                        finite.iter().sum::<f64>() / finite.len() as f64
                    }
                },
                retransmit_overhead: mean(|r| r.3),
                paths_rebuilt: mean(|r| r.4),
                fault_drops: mean(|r| r.5),
            }
        })
        .collect();
    Traced { data, traces }
}

/// §5: `P(x = I)` for `N = 1024`, `L = 3` over a sweep of `f`.
pub fn eq4_data(n: usize, l: usize, trials: usize, seed: u64) -> Vec<Eq4Row> {
    let mut rng = StdRng::seed_from_u64(seed);
    (1..=9)
        .map(|i| {
            let f = i as f64 / 10.0;
            Eq4Row {
                f,
                printed: anonymity::p_initiator_identified_as_printed(n, f, l),
                exact: anonymity::p_initiator_identified(n, f, l),
                simulated: anonymity::simulate_identification(n, f, l, trials, &mut rng),
                set_size: anonymity::anonymity_set_size(n, f, l),
            }
        })
        .collect()
}

// ---------------------------------------------------------- Trilemma sweep

/// One row of the anonymity-trilemma sweep: a simulated
/// (protocol × mix strategy) run assessed under one
/// (cover rate × adversary strength) grid cell.
///
/// The simulation itself never sees the cover rate or the adversary —
/// both are assessment-side parameters consumed from the observation
/// tap, which is why one run can be scored under the whole grid (and why
/// attaching the adversary is provably inert).
#[derive(Clone, Debug)]
pub struct TrilemmaRow {
    /// Protocol label (`CurMix`, `SimRep(r=2)`, `SimEra(k=4,r=2)`).
    pub protocol: String,
    /// Mix-choice strategy (`random` or `biased`).
    pub strategy: &'static str,
    /// Defender cover-traffic rate in emissions per minute per stream.
    pub cover_per_min: f64,
    /// Adversary strength: colluding fraction and timing-tap fraction.
    pub f: f64,
    /// Mean Shannon entropy (bits) of the colluding adversary's
    /// per-construction posterior over initiators.
    pub shannon_bits: f64,
    /// Effective anonymity-set size `2^H`.
    pub anonymity_set: f64,
    /// Mean posterior mass on the true initiator.
    pub p_identified: f64,
    /// Equation 4's analytic `p_initiator_identified(n, f, L)` for this
    /// scale — the value `p_identified` converges to at the
    /// uniform-choice (random mix) point.
    pub eq4_analytic: f64,
    /// Timing-correlation linkability AUC (0.5 = chance).
    pub linkability_auc: f64,
    /// End-to-end delivery rate of the underlying run.
    pub delivery: f64,
    /// Mean end-to-end message latency (ms) of the underlying run.
    pub latency_ms: f64,
    /// Bandwidth overhead: retransmitted segments per first-transmission
    /// segment plus modeled cover emissions per data message.
    pub bandwidth_overhead: f64,
}

/// Cover-traffic rates (emissions per minute) the sweep visits.
pub fn trilemma_cover_rates() -> Vec<f64> {
    vec![0.0, 6.0, 30.0, 120.0]
}

/// Adversary strengths (colluding/tap fraction) the sweep visits.
pub fn trilemma_fractions() -> Vec<f64> {
    vec![0.1, 0.2, 0.4]
}

/// Timing-correlation pairing window (seconds) used by the sweep.
pub const TRILEMMA_WINDOW_SECS: f64 = 2.0;

/// Anonymity-trilemma sweep: cover rate × mix strategy × protocol ×
/// adversary strength. One sharded simulation job per
/// (protocol, strategy, seed); every job is assessed post-hoc under the
/// full (cover, f) grid by the `adversary` crate, so the grid multiplies
/// rows without multiplying simulations.
pub fn trilemma_data(scale: Scale, threads: usize) -> Traced<Vec<TrilemmaRow>> {
    use adversary::colluding::ColludingRelays;
    use adversary::timing::TimingEavesdropper;
    use adversary::Adversary;

    let protocols = [
        ProtocolKind::CurMix,
        ProtocolKind::SimRep { k: 2 },
        ProtocolKind::SimEra { k: 4, r: 2 },
    ];
    let strategies = [
        ("random", MixStrategy::Random),
        ("biased", MixStrategy::Biased),
    ];
    let covers = trilemma_cover_rates();
    let fracs = trilemma_fractions();
    let messages = match scale {
        Scale::Full => 50,
        Scale::Quick => 12,
    };
    let seeds = scale.seeds();
    let world = scale.world(0);
    let (world_n, world_l) = (world.n, world.l);
    let msg_interval = SimDuration::from_secs(20);

    let mut points: Vec<(String, &'static str, RecoveryConfig)> = Vec::new();
    for protocol in protocols {
        for (sname, strategy) in strategies {
            let label = format!("{}/{}", protocol.label(), sname);
            let cfg = RecoveryConfig {
                world: world.clone(),
                protocol,
                strategy,
                faults: FaultConfig::NONE,
                recovery: RecoveryParams::default(),
                warmup: scale.warmup(),
                msg_interval,
                msg_bytes: 1024,
                messages,
            };
            points.push((label, sname, cfg));
        }
    }

    // Per-run grid cell: (shannon_bits, anonymity_set, p_identified, auc),
    // indexed `fi * covers.len() + ci`; plus the run's own
    // (delivery, latency_ms, retransmit_overhead).
    type Cell = (f64, f64, f64, f64);
    type TriRun = (Vec<Cell>, f64, f64, f64);

    let jobs: Vec<RunSpec<RecoveryConfig>> = points
        .iter()
        .flat_map(|(label, _, base)| {
            seeds.iter().map(move |&seed| RunSpec {
                label: label.clone(),
                seed,
                payload: RecoveryConfig {
                    world: WorldConfig {
                        seed,
                        ..base.world.clone()
                    },
                    ..base.clone()
                },
            })
        })
        .collect();

    // Equation 4 is an expectation over adversary placements; one
    // infiltration draw against a handful of constructions is pure
    // noise, so each run's colluding assessment is averaged over many
    // independent draws (the Monte-Carlo runs in adversary space — the
    // simulation is never re-run).
    const INFILTRATION_DRAWS: u64 = 32;

    let (results, traces) = run_all("trilemma", jobs, threads, |spec| {
        let (res, stats, obs) = run_recovery_experiment_observed(&spec.payload, None, true);
        let run = obs.expect("observation requested");
        let mut cells: Vec<Cell> = Vec::with_capacity(fracs.len() * covers.len());
        for &f in &fracs {
            let mut acc = (0.0, 0.0, 0.0);
            for draw in 0..INFILTRATION_DRAWS {
                let a = ColludingRelays {
                    fraction: f,
                    adversary_stays: false,
                    seed: (spec.seed ^ 0xC011).wrapping_add(draw.wrapping_mul(0x9E37_79B9)),
                }
                .assess(&run);
                acc.0 += a.shannon_entropy_bits;
                acc.1 += a.anonymity_set;
                acc.2 += a.p_identified;
            }
            let d = INFILTRATION_DRAWS as f64;
            let coll = adversary::Assessment {
                shannon_entropy_bits: acc.0 / d,
                min_entropy_bits: f64::NAN,
                anonymity_set: acc.1 / d,
                p_identified: acc.2 / d,
                linkability_auc: f64::NAN,
            };
            for &cover in &covers {
                let tim = TimingEavesdropper {
                    relay_fraction: f,
                    window_secs: TRILEMMA_WINDOW_SECS,
                    cover_per_min: cover,
                    seed: spec.seed ^ 0x71AE,
                }
                .assess(&run);
                cells.push((
                    coll.shannon_entropy_bits,
                    coll.anonymity_set,
                    coll.p_identified,
                    tim.linkability_auc,
                ));
            }
        }
        let values = vec![
            ("delivery_rate".to_string(), res.delivery_rate()),
            ("latency_ms".to_string(), res.metrics.latency_ms.mean()),
            ("entropy_f0_c0".to_string(), cells[0].0),
            ("auc_f0_c0".to_string(), cells[0].3),
        ];
        (
            (
                cells,
                res.delivery_rate(),
                res.metrics.latency_ms.mean(),
                res.retransmit_overhead(),
            ),
            stats,
            values,
        )
    });

    // NaN-tolerant mean: latency is NaN for runs that delivered nothing
    // and the AUC is NaN below two flows; average only the finite ones.
    let mean_finite = |vals: Vec<f64>| {
        let finite: Vec<f64> = vals.into_iter().filter(|v| v.is_finite()).collect();
        if finite.is_empty() {
            f64::NAN
        } else {
            finite.iter().sum::<f64>() / finite.len() as f64
        }
    };

    let s = seeds.len();
    let mut rows = Vec::with_capacity(points.len() * fracs.len() * covers.len());
    for (i, (_, sname, cfg)) in points.iter().enumerate() {
        let runs: &[TriRun] = &results[i * s..(i + 1) * s];
        for (fi, &f) in fracs.iter().enumerate() {
            for (ci, &cover) in covers.iter().enumerate() {
                let cell = fi * covers.len() + ci;
                // Cover emissions per data message: rate × the cadence.
                let cover_per_msg = cover * msg_interval.as_secs_f64() / 60.0;
                rows.push(TrilemmaRow {
                    protocol: cfg.protocol.label(),
                    strategy: sname,
                    cover_per_min: cover,
                    f,
                    shannon_bits: mean_finite(runs.iter().map(|r| r.0[cell].0).collect()),
                    anonymity_set: mean_finite(runs.iter().map(|r| r.0[cell].1).collect()),
                    p_identified: mean_finite(runs.iter().map(|r| r.0[cell].2).collect()),
                    eq4_analytic: anonymity::p_initiator_identified(world_n, f, world_l),
                    linkability_auc: mean_finite(runs.iter().map(|r| r.0[cell].3).collect()),
                    delivery: mean_finite(runs.iter().map(|r| r.1).collect()),
                    latency_ms: mean_finite(runs.iter().map(|r| r.2).collect()),
                    bandwidth_overhead: mean_finite(runs.iter().map(|r| r.3).collect())
                        + cover_per_msg,
                });
            }
        }
    }
    Traced { data: rows, traces }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_measured_tracks_pareto() {
        let points = fig1_data(50_000, 1);
        assert_eq!(points.len(), 14);
        for p in &points {
            assert!(
                (p.measured_cdf - p.pareto_cdf).abs() < 0.03,
                "t={}: measured {} vs pareto {}",
                p.t_secs,
                p.measured_cdf,
                p.pareto_cdf
            );
        }
        // CDF is monotone.
        for w in points.windows(2) {
            assert!(w[1].measured_cdf >= w[0].measured_cdf);
        }
    }

    #[test]
    fn fig2_observations_hold_in_simulation() {
        let data = fig2_data(30_000, 2);
        assert_eq!(data.len(), 3);
        // Observation 3 at pa = 0.70: P decreases in k.
        let obs3 = &data[0].1;
        assert!(obs3.first().unwrap().simulated > obs3.last().unwrap().simulated);
        // Observation 1 at pa = 0.95: P increases in k.
        let obs1 = &data[2].1;
        assert!(obs1.last().unwrap().simulated > obs1.first().unwrap().simulated);
        // MC close to analytic everywhere.
        for (_, series) in &data {
            for p in series {
                assert!((p.analytic - p.simulated).abs() < 0.02);
            }
        }
    }

    #[test]
    fn fig3_higher_r_wins() {
        let data = fig3_data(20_000, 3);
        let at_k12: Vec<f64> = data
            .iter()
            .map(|(r, series)| {
                series
                    .iter()
                    .find(|p| p.k == 12)
                    .unwrap_or_else(|| panic!("k=12 missing for r={r}"))
                    .analytic
            })
            .collect();
        assert!(at_k12[0] < at_k12[1] && at_k12[1] < at_k12[2]);
    }

    #[test]
    fn fig4_bandwidth_scales_with_r_not_k() {
        let data = fig4_data(5_000, 4);
        for (r, series) in &data {
            let first = series.first().unwrap();
            let last = series.last().unwrap();
            assert!(
                (first.simulated_kb - last.simulated_kb).abs() < 0.4,
                "r={r}: flat in k expected ({} vs {})",
                first.simulated_kb,
                last.simulated_kb
            );
            assert!((first.analytic_kb - first.simulated_kb).abs() < 0.3);
        }
        // Proportional to r.
        let r2 = data[0].1[0].analytic_kb;
        let r4 = data[2].1[0].analytic_kb;
        assert!((r4 / r2 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn eq4_rows_consistent() {
        let rows = eq4_data(1024, 3, 50_000, 5);
        for r in &rows {
            assert!(r.printed <= r.exact + 1e-12);
            assert!((r.exact - r.simulated).abs() < 0.02);
            assert!(r.set_size >= 1.0);
        }
    }

    #[test]
    fn quick_tab1_has_paper_shape() {
        let out = tab1_data(Scale::Quick, 1);
        let rows = out.data;
        assert_eq!(
            out.traces.traces.len(),
            6,
            "one trace per protocol x strategy"
        );
        assert!(out
            .traces
            .traces
            .iter()
            .all(|t| t.stats.engine.processed > 0));
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert!(
                row.biased_pct > row.random_pct,
                "{}: biased {:.1}% must beat random {:.1}%",
                row.protocol,
                row.biased_pct,
                row.random_pct
            );
            assert!(row.events > 50, "{} events measured", row.events);
        }
        // Redundancy helps the random rate.
        assert!(rows[1].random_pct > rows[0].random_pct);
    }
}
