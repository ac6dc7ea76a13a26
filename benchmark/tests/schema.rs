//! Schema self-test: `BENCHMARK.json` is the spec, byte for byte; its
//! names, units and bounds are well formed; and each workload, at a
//! size that finishes in milliseconds, emits exactly the metric names
//! it lists — every end-to-end metric untraced (none of them 0), every
//! per-layer metric traced.

use p2p_anon_benchmark::chain::{self, ChainSize, Kind};
use p2p_anon_benchmark::live_tcp::{self, LiveSize};
use p2p_anon_benchmark::report::Report;
use p2p_anon_benchmark::sim_recovery::{self, RecoverySize};
use p2p_anon_benchmark::sim_scale::{self, ScaleSize};
use p2p_anon_benchmark::spec::{self, END_TO_END, PER_LAYER, WORKLOADS};
use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

const SEED: u64 = 7;
/// Long enough for the minimum number of slices, no longer.
const SECONDS: f64 = 0.05;

fn well_formed_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn well_formed_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn benchmark_json_is_the_spec() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let on_disk = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        on_disk,
        spec::benchmark_json(),
        "regenerate with `p2p-anon-benchmark --print-spec > BENCHMARK.json`"
    );
    assert!(on_disk.len() <= 64 * 1024);
}

#[test]
fn names_units_and_bounds_are_well_formed() {
    let mut seen = BTreeSet::new();
    assert!((2..=8).contains(&WORKLOADS.len()));
    for w in WORKLOADS {
        assert!(well_formed_name(w.name), "{}", w.name);
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        assert!(seen.insert(w.name), "{} used twice", w.name);
    }
    assert!((1..=16).contains(&END_TO_END.len()));
    for m in END_TO_END {
        assert!(
            well_formed_name(m.name) && well_formed_unit(m.unit),
            "{}",
            m.name
        );
        assert!(matches!(m.better, "lower" | "higher"), "{}", m.name);
        assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        assert!(seen.insert(m.name), "{} used twice", m.name);
    }
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is required");
    assert_eq!((setup.unit, setup.better), ("s", "lower"));
    assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    assert!((1..=128).contains(&PER_LAYER.len()));
    for m in PER_LAYER {
        assert!(
            well_formed_name(m.name) && well_formed_unit(m.unit),
            "{}",
            m.name
        );
        assert!(matches!(m.better, "lower" | "higher"), "{}", m.name);
        assert!(seen.insert(m.name), "{} used twice", m.name);
    }
    assert!((1..=60).contains(&spec::RUN_SECONDS));
}

fn assert_end_to_end(workload: &str, report: &Report) {
    assert!(report.correct(), "{workload}: {:?}", report.checks);
    assert!(report.attempted >= 1 && report.failed == 0, "{workload}");
    let got: BTreeSet<_> = report.metrics.keys().copied().collect();
    let want: BTreeSet<_> = END_TO_END.iter().map(|m| m.name).collect();
    assert_eq!(got, want, "{workload}");
    for (name, value) in &report.metrics {
        assert!(*value > 0.0, "{workload}: {name} = {value}");
    }
    assert!(report
        .result_line()
        .starts_with("{\"correct\": true, \"attempted\": "));
}

fn assert_per_layer(workload: &str, mut report: Report) {
    assert!(report.correct(), "{workload}: {:?}", report.checks);
    // `set` refuses names outside the spec, so after filling in the
    // layers that do not run here the names are exactly the spec's.
    report.fill_per_layer();
    let got: BTreeSet<_> = report.metrics.keys().copied().collect();
    let want: BTreeSet<_> = PER_LAYER.iter().map(|m| m.name).collect();
    assert_eq!(got, want, "{workload}");
}

#[test]
fn chain_workloads_emit_the_listed_metrics() {
    for (name, kind) in [
        ("chain_small", Kind::Small),
        ("chain_coded", Kind::Coded),
        ("chain_construct", Kind::Construct),
    ] {
        assert!(WORKLOADS.iter().any(|w| w.name == name));
        let size = ChainSize::tiny(kind);
        assert_end_to_end(name, &chain::run(&size, SEED, SECONDS));
        let (report, spans) = chain::run_traced(&size, SEED, SECONDS);
        assert!(spans.lines().count() > 0, "{name}: sampled spans");
        let shares: f64 = report
            .metrics
            .iter()
            .filter(|(n, _)| n.ends_with("share"))
            .map(|(_, v)| v)
            .sum();
        assert!(
            (shares - 1.0).abs() < 0.02,
            "{name}: shares sum to {shares}"
        );
        assert_per_layer(name, report);
    }
}

#[test]
fn chain_counts_repeat_for_a_seed() {
    let size = ChainSize::tiny(Kind::Coded);
    let (a, b) = (
        chain::run(&size, SEED, SECONDS),
        chain::run(&size, SEED, SECONDS),
    );
    assert_eq!(a.counts, b.counts);
    assert_eq!(a.result_digest(), b.result_digest());
    assert_ne!(
        a.result_digest(),
        chain::run(&size, SEED + 1, SECONDS).result_digest()
    );
}

#[test]
fn sim_workloads_emit_the_listed_metrics() {
    let size = RecoverySize::tiny();
    assert_end_to_end("sim_recovery", &sim_recovery::run(&size, SEED, SECONDS));
    assert_per_layer(
        "sim_recovery",
        sim_recovery::run_traced(&size, SEED, SECONDS),
    );
    let size = ScaleSize::tiny();
    assert_end_to_end("sim_scale", &sim_scale::run(&size, SEED, SECONDS));
    assert_per_layer("sim_scale", sim_scale::run_traced(&size, SEED, SECONDS));
}

/// `live_tcp` spawns `p2p-anon-node`; build it into this test's own
/// target directory and profile first, as `run.py` does for a run.
#[test]
fn live_tcp_emits_the_listed_metrics() {
    let exe = std::env::current_exe().expect("test executable");
    let profile_dir = exe
        .ancestors()
        .nth(2)
        .expect("target/<profile>/deps/<test>");
    let mut build = Command::new(env!("CARGO"));
    build
        .args(["build", "--offline", "--quiet", "-p", "transport"])
        .args(["--bin", "p2p-anon-node", "--manifest-path"])
        .arg(Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml"))
        .env(
            "CARGO_TARGET_DIR",
            profile_dir.parent().expect("target directory"),
        );
    if profile_dir.ends_with("release") {
        build.arg("--release");
    }
    assert!(build.status().expect("run cargo").success());

    let size = LiveSize::tiny();
    let report = live_tcp::run(&size, SEED, 0.4).expect("live_tcp runs");
    assert_end_to_end("live_tcp", &report);
    let report = live_tcp::run_traced(&size, SEED, 0.6).expect("traced live_tcp runs");
    assert_per_layer("live_tcp", report);
}

/// Not a test: the one-off ledger of `sim_recovery` at the paper's 1024
/// nodes that README.md quotes.
/// `cargo test --release --offline -- --ignored --nocapture paper_scale`
#[test]
#[ignore = "prints a ledger; takes about 20 s"]
fn paper_scale_ledger() {
    let report = sim_recovery::run_traced(&RecoverySize::paper(), 1, 10.0);
    for (name, value) in &report.metrics {
        println!("{name:<40} {value:>14.6}");
    }
}
