//! Seed-sharded parallel experiment runner with deterministic run traces.
//!
//! Every table/figure reproduction decomposes into independent runs — one
//! `(protocol, strategy, seed, config)` combination each, with its own
//! [`World`](anon_core::sim::World). The runner shards those runs across a
//! scoped worker pool: workers claim jobs from a shared index, send results
//! back over a channel, and the collector slots them by job index. Output
//! order therefore depends only on the job list, never on thread count or
//! scheduling — `--threads 1` and `--threads 8` produce bit-identical
//! tables. With one thread the runner executes inline on the caller's
//! thread (no pool, no channel): the exact sequential path.
//!
//! The order jobs are *claimed* in is a separate choice:
//! [`run_all_ordered`] takes it explicitly, and [`checkpoint_order`] is the
//! one recovery sweeps use, so that a worker's consecutive runs start from
//! one warmed world.
//!
//! Each run additionally yields a [`RunTrace`]: wall-clock time, the
//! engine/timeline counters from
//! [`RunStats`], and named metric
//! values. A [`TraceSet`] bundles the traces of one experiment, aggregates
//! them (mean ± std across seeds) and persists JSON + CSV under
//! `results/traces/`.

use anon_core::protocols::runner::{RecoveryConfig, RunStats};
use simnet::trace::Summary;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Instant;

/// One schedulable experiment run.
#[derive(Clone, Debug)]
pub struct RunSpec<T> {
    /// Job identity (e.g. `"SimEra(k=4,r=4)/biased"`); trace aggregation
    /// groups runs by this label across seeds.
    pub label: String,
    /// The run's RNG seed.
    pub seed: u64,
    /// Experiment-specific configuration.
    pub payload: T,
}

/// Structured record of one completed run.
#[derive(Clone, Debug)]
pub struct RunTrace {
    /// Job label (shared across the seeds of one parameter point).
    pub label: String,
    /// RNG seed of this run.
    pub seed: u64,
    /// Host wall-clock time the run took, in milliseconds.
    pub wall_ms: f64,
    /// Engine/timeline counters and traversal totals.
    pub stats: RunStats,
    /// Named metric values produced by the run.
    pub values: Vec<(String, f64)>,
    /// Per-run telemetry snapshot, when the run was instrumented
    /// (`--telemetry` on the command line). Serialized into the
    /// JSON trace only — CSV output is byte-identical with or without
    /// telemetry.
    pub telemetry: Option<telemetry::Snapshot>,
}

/// One aggregate line: a metric summarized across the seeds of one label.
#[derive(Clone, Debug)]
pub struct AggregateRow {
    /// Job label.
    pub label: String,
    /// Metric name.
    pub metric: String,
    /// Mean/std/min/max across seeds.
    pub summary: Summary,
}

/// All traces from one experiment invocation.
#[derive(Clone, Debug)]
pub struct TraceSet {
    /// Experiment name (also the output file stem).
    pub experiment: String,
    /// Worker threads the batch ran on.
    pub threads: usize,
    /// Per-run traces, in job order.
    pub traces: Vec<RunTrace>,
}

/// Result-plus-traces bundle returned by the data functions.
#[derive(Clone, Debug)]
pub struct Traced<T> {
    /// The experiment's data (rows / points).
    pub data: T,
    /// Per-run traces and aggregates.
    pub traces: TraceSet,
}

/// Execute `jobs`, sharded across `threads` workers.
///
/// `f` maps a job to `(result, stats, values)`; results and traces come
/// back in job order regardless of thread count. Panics in a worker
/// propagate to the caller.
pub fn run_all<T, R, F>(
    experiment: &str,
    jobs: Vec<RunSpec<T>>,
    threads: usize,
    f: F,
) -> (Vec<R>, TraceSet)
where
    T: Send + Sync,
    R: Send,
    F: Fn(&RunSpec<T>) -> (R, RunStats, Vec<(String, f64)>) + Sync,
{
    let claim = (0..jobs.len()).collect();
    run_all_ordered(experiment, jobs, claim, threads, |spec| {
        let (r, stats, values) = f(spec);
        (r, stats, values, None)
    })
}

/// The claim order of a recovery sweep: runs over the same world (seed
/// and all) together, in first-appearance order of the worlds, and each
/// world's runs by ascending warm instant ([`RecoveryConfig::warm_at`]),
/// ties in job order.
///
/// The recovery runner keeps the last world a thread warmed and serves a
/// run over the same world at a later instant from it, so claimed in this
/// order a worker builds each world once, not once per run.
pub fn checkpoint_order<T>(jobs: &[RunSpec<T>], cfg: impl Fn(&T) -> &RecoveryConfig) -> Vec<usize> {
    let world = |i: usize| &cfg(&jobs[i].payload).world;
    let first_of_world: Vec<usize> = (0..jobs.len())
        .map(|i| (0..i).find(|&j| world(j) == world(i)).unwrap_or(i))
        .collect();
    let mut claim: Vec<usize> = (0..jobs.len()).collect();
    claim.sort_by_key(|&i| (first_of_world[i], cfg(&jobs[i].payload).warm_at()));
    claim
}

/// [`run_all`], with workers claiming jobs in the order of `claim` (a
/// permutation of the job indices), and with `f` additionally returning
/// an optional per-run [`telemetry::Snapshot`] (typically of a registry
/// created inside the run), attached to the run's [`RunTrace`]. Results
/// and traces still come back in job order: the claim order moves
/// wall-clock time only, and snapshots ride along, they never steer.
pub fn run_all_ordered<T, R, F>(
    experiment: &str,
    jobs: Vec<RunSpec<T>>,
    claim: Vec<usize>,
    threads: usize,
    f: F,
) -> (Vec<R>, TraceSet)
where
    T: Send + Sync,
    R: Send,
    F: Fn(&RunSpec<T>) -> (R, RunStats, Vec<(String, f64)>, Option<telemetry::Snapshot>) + Sync,
{
    debug_assert!(
        {
            let mut sorted = claim.clone();
            sorted.sort_unstable();
            sorted.into_iter().eq(0..jobs.len())
        },
        "the claim order is a permutation of the jobs"
    );
    let threads = threads.max(1).min(jobs.len().max(1));
    let run_one = |spec: &RunSpec<T>| -> (R, RunTrace) {
        let start = Instant::now();
        let (result, stats, values, telemetry) = f(spec);
        let trace = RunTrace {
            label: spec.label.clone(),
            seed: spec.seed,
            wall_ms: start.elapsed().as_secs_f64() * 1e3,
            stats,
            values,
            telemetry,
        };
        (result, trace)
    };

    let n = jobs.len();
    let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let mut traces: Vec<Option<RunTrace>> = (0..n).map(|_| None).collect();

    if threads == 1 {
        // Exact sequential path: inline, in claim order, no pool.
        for &i in &claim {
            let (r, t) = run_one(&jobs[i]);
            results[i] = Some(r);
            traces[i] = Some(t);
        }
    } else {
        let next = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, R, RunTrace)>();
        crossbeam::scope(|s| {
            for _ in 0..threads {
                let tx = tx.clone();
                s.spawn(|| {
                    // Move this worker's sender in; claim jobs until drained.
                    let tx = tx;
                    while let Some(&idx) = claim.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let (r, t) = run_one(&jobs[idx]);
                        tx.send((idx, r, t)).expect("collector alive");
                    }
                });
            }
            drop(tx);
            // Collect while workers run; slotting by index restores job
            // order no matter which worker finished first.
            for (idx, r, t) in rx {
                results[idx] = Some(r);
                traces[idx] = Some(t);
            }
        })
        .expect("experiment worker panicked");
    }

    let results = results
        .into_iter()
        .map(|r| r.expect("every job ran"))
        .collect();
    let traces = traces
        .into_iter()
        .map(|t| t.expect("every job traced"))
        .collect();
    (
        results,
        TraceSet {
            experiment: experiment.to_string(),
            threads,
            traces,
        },
    )
}

impl TraceSet {
    /// Total wall-clock milliseconds spent inside runs (sum over runs;
    /// with a pool this exceeds the elapsed time — that gap is the
    /// parallel speedup).
    pub fn total_run_ms(&self) -> f64 {
        self.traces.iter().map(|t| t.wall_ms).sum()
    }

    /// Aggregate every metric across the seeds of each label
    /// (first-appearance order, so output is deterministic).
    pub fn aggregate(&self) -> Vec<AggregateRow> {
        let mut order: Vec<(String, String)> = Vec::new();
        let mut rows: Vec<AggregateRow> = Vec::new();
        for trace in &self.traces {
            for (metric, value) in &trace.values {
                let key = (trace.label.clone(), metric.clone());
                let idx = match order.iter().position(|k| *k == key) {
                    Some(i) => i,
                    None => {
                        order.push(key);
                        rows.push(AggregateRow {
                            label: trace.label.clone(),
                            metric: metric.clone(),
                            summary: Summary::new(),
                        });
                        rows.len() - 1
                    }
                };
                rows[idx].summary.record(*value);
            }
        }
        rows
    }

    /// JSON document: per-run traces plus aggregates. Hand-rolled writer
    /// (the workspace carries no serde) with a stable field order.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"experiment\": {},", json_str(&self.experiment));
        let _ = writeln!(out, "  \"threads\": {},", self.threads);
        let _ = writeln!(out, "  \"total_run_ms\": {:.3},", self.total_run_ms());
        let _ = writeln!(out, "  \"runs\": [");
        for (i, t) in self.traces.iter().enumerate() {
            let e = &t.stats.engine;
            let values: Vec<String> = t
                .values
                .iter()
                .map(|(k, v)| format!("{}: {}", json_str(k), json_f64(*v)))
                .collect();
            let _ = write!(
                out,
                "    {{\"label\": {}, \"seed\": {}, \"wall_ms\": {:.3}, \
                 \"engine\": {{\"scheduled\": {}, \"processed\": {}, \"cancelled\": {}, \
                 \"max_pending\": {}}}, \"traversals\": {}, \"links\": {}, \
                 \"loss\": {{\"lost\": {}, \"stateless_drops\": {}, \"fault_drops\": {}, \
                 \"crash_wipes\": {}}}, \
                 \"recovery\": {{\"segments_sent\": {}, \"retransmits\": {}, \"acks\": {}, \
                 \"ack_timeouts\": {}, \"probes\": {}, \"paths_rebuilt\": {}}}, \
                 \"values\": {{{}}}",
                json_str(&t.label),
                t.seed,
                t.wall_ms,
                e.scheduled,
                e.processed,
                e.cancelled,
                e.max_pending,
                t.stats.traversals,
                t.stats.links,
                t.stats.lost,
                t.stats.stateless_drops,
                t.stats.fault_drops,
                t.stats.crash_wipes,
                t.stats.segments_sent,
                t.stats.retransmits,
                t.stats.acks,
                t.stats.ack_timeouts,
                t.stats.probes,
                t.stats.paths_rebuilt,
                values.join(", "),
            );
            if let Some(snap) = &t.telemetry {
                // jsonl() emits one JSON object per line; joined with
                // commas they form a JSON array of instrument records.
                let rendered = telemetry::export::jsonl(snap);
                let joined: Vec<&str> = rendered.lines().collect();
                let _ = write!(out, ", \"telemetry\": [{}]", joined.join(", "));
            }
            let _ = writeln!(
                out,
                "}}{}",
                if i + 1 < self.traces.len() { "," } else { "" }
            );
        }
        let _ = writeln!(out, "  ],");
        let _ = writeln!(out, "  \"aggregates\": [");
        let aggregates = self.aggregate();
        for (i, row) in aggregates.iter().enumerate() {
            let s = &row.summary;
            let _ = write!(
                out,
                "    {{\"label\": {}, \"metric\": {}, \"count\": {}, \"mean\": {}, \
                 \"std_dev\": {}, \"min\": {}, \"max\": {}}}",
                json_str(&row.label),
                json_str(&row.metric),
                s.count(),
                json_f64(s.mean()),
                json_f64(s.std_dev()),
                json_f64(s.min().unwrap_or(0.0)),
                json_f64(s.max().unwrap_or(0.0)),
            );
            let _ = writeln!(out, "{}", if i + 1 < aggregates.len() { "," } else { "" });
        }
        let _ = writeln!(out, "  ]");
        let _ = writeln!(out, "}}");
        out
    }

    /// Long-format CSV: one row per `(run, metric)` pair, engine counters
    /// and loss/recovery accounting repeated per row.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "experiment,label,seed,wall_ms,scheduled,processed,cancelled,max_pending,\
             traversals,links,lost,stateless_drops,fault_drops,crash_wipes,\
             segments_sent,retransmits,acks,ack_timeouts,probes,paths_rebuilt,\
             metric,value\n",
        );
        for t in &self.traces {
            let e = &t.stats.engine;
            for (metric, value) in &t.values {
                let _ = writeln!(
                    out,
                    "{},{},{},{:.3},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
                    self.experiment,
                    csv_field(&t.label),
                    t.seed,
                    t.wall_ms,
                    e.scheduled,
                    e.processed,
                    e.cancelled,
                    e.max_pending,
                    t.stats.traversals,
                    t.stats.links,
                    t.stats.lost,
                    t.stats.stateless_drops,
                    t.stats.fault_drops,
                    t.stats.crash_wipes,
                    t.stats.segments_sent,
                    t.stats.retransmits,
                    t.stats.acks,
                    t.stats.ack_timeouts,
                    t.stats.probes,
                    t.stats.paths_rebuilt,
                    metric,
                    value,
                );
            }
        }
        out
    }

    /// Aggregate CSV: one row per `(label, metric)` with mean ± std.
    pub fn aggregate_csv(&self) -> String {
        let mut out = String::from("label,metric,count,mean,std_dev,min,max\n");
        for row in self.aggregate() {
            let s = &row.summary;
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{}",
                csv_field(&row.label),
                row.metric,
                s.count(),
                s.mean(),
                s.std_dev(),
                s.min().unwrap_or(0.0),
                s.max().unwrap_or(0.0),
            );
        }
        out
    }

    /// Write `<experiment>.json`, `<experiment>.csv` and
    /// `<experiment>_agg.csv` under `results/traces/`; returns the
    /// directory written to.
    pub fn save(&self) -> std::io::Result<PathBuf> {
        self.save_under(Path::new("results"))
    }

    /// [`save`](Self::save) with an explicit parent directory (tests).
    pub fn save_under(&self, results_dir: &Path) -> std::io::Result<PathBuf> {
        let dir = results_dir.join("traces");
        std::fs::create_dir_all(&dir)?;
        std::fs::write(
            dir.join(format!("{}.json", self.experiment)),
            self.to_json(),
        )?;
        std::fs::write(dir.join(format!("{}.csv", self.experiment)), self.to_csv())?;
        std::fs::write(
            dir.join(format!("{}_agg.csv", self.experiment)),
            self.aggregate_csv(),
        )?;
        Ok(dir)
    }

    /// Print the aggregate report (mean ± std across seeds per label).
    pub fn print_summary(&self) {
        println!(
            "\ntrace summary — {} ({} runs on {} threads, {:.1} s total run time)",
            self.experiment,
            self.traces.len(),
            self.threads,
            self.total_run_ms() / 1e3,
        );
        for row in self.aggregate() {
            let s = &row.summary;
            println!(
                "  {:<36} {:<22} {:>12.3} ± {:.3}  (n={})",
                row.label,
                row.metric,
                s.mean(),
                s.std_dev(),
                s.count(),
            );
        }
    }
}

/// RFC-4180 quoting for label fields: protocol labels such as
/// `SimEra(k=4,r=2)` contain commas and would otherwise shift columns.
fn csv_field(s: &str) -> String {
    if s.contains(',') || s.contains('"') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        // JSON has no Infinity/NaN; encode as null.
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(spec: &RunSpec<u64>) -> (u64, RunStats, Vec<(String, f64)>) {
        // Deterministic busy-work whose result depends only on the spec.
        let mut acc = spec.seed.wrapping_mul(spec.payload | 1);
        for _ in 0..2_000 {
            acc = acc.rotate_left(7) ^ 0x9E37_79B9;
        }
        (
            acc,
            RunStats::default(),
            vec![("acc_low".into(), (acc % 1000) as f64)],
        )
    }

    fn jobs(n: u64) -> Vec<RunSpec<u64>> {
        (0..n)
            .map(|i| RunSpec {
                label: format!("job{}", i % 3),
                seed: i,
                payload: i * 17,
            })
            .collect()
    }

    #[test]
    fn parallel_matches_sequential_in_order() {
        let (seq, _) = run_all("t", jobs(32), 1, spin);
        let (par, _) = run_all("t", jobs(32), 4, spin);
        assert_eq!(seq, par, "thread count must not change results or order");
    }

    #[test]
    fn claim_order_moves_no_result() {
        let reversed: Vec<usize> = (0..32).rev().collect();
        let with_none = |spec: &RunSpec<u64>| {
            let (r, stats, values) = spin(spec);
            (r, stats, values, None)
        };
        let (seq, _) = run_all("t", jobs(32), 1, spin);
        for threads in [1, 4] {
            let (got, set) = run_all_ordered("t", jobs(32), reversed.clone(), threads, with_none);
            assert_eq!(got, seq, "threads {threads}");
            assert!(set.traces.iter().map(|t| t.seed).eq(0..32));
        }
    }

    #[test]
    fn checkpoint_order_is_world_major_then_by_warm_instant() {
        use anon_core::mix::MixStrategy;
        use anon_core::protocols::runner::RecoveryParams;
        use anon_core::protocols::ProtocolKind;
        use anon_core::sim::WorldConfig;
        use simnet::{FaultConfig, SimDuration, SimTime};

        let stale = |secs| FaultConfig {
            view_staleness: SimDuration::from_secs(secs),
            ..FaultConfig::NONE
        };
        // Point-major, as the sweeps list them: (clean, moderate, heavy)
        // × seeds (1, 2).
        let mut jobs = Vec::new();
        for faults in [stale(0), stale(60), stale(300)] {
            for seed in [1, 2] {
                let payload = RecoveryConfig {
                    world: WorldConfig::small(seed),
                    protocol: ProtocolKind::CurMix,
                    strategy: MixStrategy::Biased,
                    faults,
                    recovery: RecoveryParams::default(),
                    warmup: SimTime::from_secs(600),
                    msg_interval: SimDuration::from_secs(20),
                    msg_bytes: 1024,
                    messages: 1,
                };
                let label = format!("{}", faults.view_staleness.as_micros());
                jobs.push(RunSpec {
                    label,
                    seed,
                    payload,
                });
            }
        }
        let claim = checkpoint_order(&jobs, |cfg| cfg);
        // Seed 1's heavy, moderate, clean; then seed 2's.
        assert_eq!(claim, [4, 2, 0, 5, 3, 1]);
    }

    #[test]
    fn traces_cover_every_run_in_job_order() {
        let (_, set) = run_all("t", jobs(10), 3, spin);
        assert_eq!(set.traces.len(), 10);
        for (i, t) in set.traces.iter().enumerate() {
            assert_eq!(t.seed, i as u64);
            assert_eq!(t.values.len(), 1);
            assert!(t.wall_ms >= 0.0);
        }
    }

    #[test]
    fn aggregate_groups_by_label() {
        let (_, set) = run_all("t", jobs(9), 2, spin);
        let agg = set.aggregate();
        // Three labels × one metric.
        assert_eq!(agg.len(), 3);
        assert!(agg.iter().all(|row| row.summary.count() == 3));
        assert_eq!(agg[0].label, "job0");
        assert_eq!(agg[1].label, "job1");
    }

    #[test]
    fn json_and_csv_are_well_formed() {
        let (_, set) = run_all("exp", jobs(4), 2, spin);
        let json = set.to_json();
        assert!(json.starts_with("{"));
        assert!(json.contains("\"experiment\": \"exp\""));
        assert!(json.contains("\"aggregates\""));
        assert_eq!(json.matches("\"label\"").count(), 4 + 3);
        let csv = set.to_csv();
        assert_eq!(
            csv.lines().count(),
            1 + 4,
            "header plus one line per run-metric"
        );
        let header = csv.lines().next().unwrap();
        for col in [
            "lost",
            "fault_drops",
            "retransmits",
            "ack_timeouts",
            "probes",
        ] {
            assert!(header.contains(col), "loss accounting column {col} missing");
        }
        assert_eq!(
            header.split(',').count(),
            csv.lines().nth(1).unwrap().split(',').count(),
            "every row must carry every column"
        );
        assert!(json.contains("\"loss\""));
        assert!(json.contains("\"recovery\""));
        let agg_csv = set.aggregate_csv();
        assert_eq!(agg_csv.lines().count(), 1 + 3);
    }

    #[test]
    fn save_writes_three_files() {
        let dir = std::env::temp_dir().join(format!("traceset-{}", std::process::id()));
        let (_, set) = run_all("unit", jobs(2), 1, spin);
        let out = set.save_under(&dir).expect("write traces");
        for name in ["unit.json", "unit.csv", "unit_agg.csv"] {
            assert!(out.join(name).exists(), "{name} missing");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_job_list_is_fine() {
        let (results, set) = run_all("t", Vec::new(), 8, spin);
        assert!(results.is_empty());
        assert!(set.traces.is_empty());
        assert!(set.aggregate().is_empty());
    }

    #[test]
    fn csv_label_quoting() {
        assert_eq!(csv_field("CurMix/biased"), "CurMix/biased");
        assert_eq!(csv_field("SimEra(k=4,r=2)/b0"), "\"SimEra(k=4,r=2)/b0\"");
        assert_eq!(csv_field("a\"b"), "\"a\"\"b\"");
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(1.5), "1.5");
    }
}
