//! Generic scenario runner: resolves a declarative [`Scenario`] into the
//! seed-sharded [`run_all`] pool driving the message-level recovery
//! machinery, and checks (or blesses) the scenario's golden snapshot.
//!
//! Every `(label, seed)` pair is one job, exactly like the hand-coded
//! experiment commands, so matrix runs inherit the `--threads`
//! sharding guarantee: results are byte-identical at any thread count.

use crate::runner::{run_all, RunSpec, TraceSet};
use adversary::colluding::{ColludingRelays, Fused};
use adversary::timing::TimingEavesdropper;
use adversary::{Adversary, Assessment};
use anon_core::observe::ObservedRun;
use anon_core::protocols::runner::{
    run_recovery_experiment_observed, run_recovery_experiment_traced,
};
use scenario::{
    check_snapshot, render_snapshot, AdversaryKind, AdversaryReading, AdversarySpec, JobResult,
    Scenario, ScenarioJob, SnapshotOutcome,
};
use std::path::{Path, PathBuf};

/// Score one observed run under the scenario's declared adversary.
///
/// Assessment is post-hoc: the adversary consumes the tap's record and
/// never feeds back into the simulation, so the delivery/latency columns
/// are identical with and without this call.
fn assess(adv: &AdversarySpec, seed: u64, run: &ObservedRun) -> Assessment {
    match adv.kind {
        AdversaryKind::Timing => TimingEavesdropper {
            relay_fraction: adv.fraction,
            window_secs: adv.window_secs,
            cover_per_min: adv.cover_per_min,
            seed: seed ^ 0x7111,
        }
        .assess(run),
        AdversaryKind::Colluding => Fused {
            colluding: ColludingRelays {
                fraction: adv.fraction,
                adversary_stays: adv.adversary_stays,
                seed: seed ^ 0xC011,
            },
            window_secs: adv.window_secs,
            cover_per_min: adv.cover_per_min,
        }
        .assess(run),
    }
}

/// Run every job of a scenario through the shared pool. Returns the
/// per-job results (job-grid order, independent of `threads`) plus the
/// usual trace set for CSV/JSON export.
pub fn run_scenario(sc: &Scenario, threads: usize) -> (Vec<JobResult>, TraceSet) {
    let jobs: Vec<RunSpec<ScenarioJob>> = sc
        .jobs()
        .into_iter()
        .map(|job| RunSpec {
            label: job.label.clone(),
            seed: job.seed,
            payload: job,
        })
        .collect();
    let experiment = format!("scenario-{}", sc.name);
    run_all(&experiment, jobs, threads, |spec| {
        let job = &spec.payload;
        // Only record observations when an adversary will consume them;
        // the tap is byte-inert either way (observe.rs inertness tests),
        // so both paths produce identical metrics.
        let (res, stats, assessment) = match &sc.adversary {
            None => {
                let (res, stats) = run_recovery_experiment_traced(&job.cfg);
                (res, stats, None)
            }
            Some(adv) => {
                let (res, stats, observed) = run_recovery_experiment_observed(&job.cfg, None, true);
                let run = observed.expect("observation requested");
                let a = assess(adv, job.seed, &run);
                let reading = AdversaryReading {
                    shannon_bits: a.shannon_entropy_bits,
                    p_identified: a.p_identified,
                    linkability_auc: a.linkability_auc,
                };
                (res, stats, Some(reading))
            }
        };
        let result = JobResult {
            label: job.label.clone(),
            seed: job.seed,
            messages: res.metrics.messages_sent,
            delivered: res.delivered,
            partial: res.partial,
            latency_ms: res.metrics.latency_ms.mean(),
            retransmit_overhead: res.retransmit_overhead(),
            paths_rebuilt: res.paths_rebuilt,
            fault_drops: stats.fault_drops,
            cover_overhead: sc.cover_overhead(job.cover_rate_per_min, res.segments_sent),
            assessment,
        };
        let values = vec![
            ("delivery_rate".to_string(), res.delivery_rate()),
            ("latency_ms".to_string(), result.latency_ms),
            (
                "retransmit_overhead".to_string(),
                result.retransmit_overhead,
            ),
            ("paths_rebuilt".to_string(), result.paths_rebuilt as f64),
            ("fault_drops".to_string(), result.fault_drops as f64),
            ("cover_overhead".to_string(), result.cover_overhead),
        ];
        (result, stats, values)
    })
}

/// Where a scenario file's golden snapshot lives:
/// `<scenario dir>/golden/<scenario name>.snap`.
pub fn golden_path(scenario_file: &Path, sc: &Scenario) -> PathBuf {
    scenario_file
        .parent()
        .unwrap_or_else(|| Path::new("."))
        .join("golden")
        .join(format!("{}.snap", sc.name))
}

/// Outcome of running one scenario file end to end.
pub struct ScenarioRun {
    /// The parsed scenario.
    pub scenario: Scenario,
    /// Per-job results in grid order.
    pub results: Vec<JobResult>,
    /// The rendered snapshot text.
    pub snapshot: String,
    /// Golden comparison outcome.
    pub outcome: SnapshotOutcome,
    /// Trace set for optional CSV/JSON export.
    pub traces: TraceSet,
}

/// Load, run, render and golden-check one scenario file.
pub fn run_scenario_file(
    path: &Path,
    threads: usize,
    bless: bool,
) -> Result<ScenarioRun, Box<dyn std::error::Error>> {
    let sc = Scenario::load(path)?;
    let (results, traces) = run_scenario(&sc, threads);
    let snapshot = render_snapshot(&sc, &results);
    let outcome = check_snapshot(&golden_path(path, &sc), &snapshot, bless)?;
    Ok(ScenarioRun {
        scenario: sc,
        results,
        snapshot,
        outcome,
        traces,
    })
}
