//! Golden-snapshot integration matrix for the scenario engine.
//!
//! Runs representative scenarios from `scenarios/` end to end and pins
//! the three guarantees the engine advertises:
//!
//! 1. **Reproducibility** — the same scenario run twice (fresh worlds
//!    each time) renders byte-identical snapshots;
//! 2. **Thread invariance** — one worker thread and many produce the
//!    same bytes (runs are seed-sharded, never order-dependent);
//! 3. **Fidelity** — the rendered snapshots match the committed goldens,
//!    and on faulted scenarios the paper's resilience ordering
//!    (SimEra >= SimRep >= CurMix on delivery rate) holds.

use experiments::scenario_runner::{golden_path, run_scenario};
use scenario::{render_snapshot, Scenario};
use std::path::{Path, PathBuf};

fn scenario_file(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("scenarios")
        .join(format!("{name}.toml"))
}

fn load(name: &str) -> Scenario {
    Scenario::load(&scenario_file(name)).expect("scenario loads")
}

fn snapshot_of(sc: &Scenario, threads: usize) -> String {
    let (results, _traces) = run_scenario(sc, threads);
    render_snapshot(sc, &results)
}

#[test]
fn scenarios_are_reproducible_run_to_run() {
    // Two fresh end-to-end runs (new worlds, new RNG streams from the
    // same seeds) must render identical bytes.
    for name in ["baseline_king_clean", "faults_heavy"] {
        let sc = load(name);
        let first = snapshot_of(&sc, 1);
        let second = snapshot_of(&sc, 1);
        assert_eq!(first, second, "{name}: run-to-run drift");
    }
}

#[test]
fn thread_count_does_not_change_snapshots() {
    // The seed-sharded runner guarantees --threads 1 and --threads N
    // are byte-identical; pin that for the scenario path too.
    let sc = load("baseline_king_clean");
    let sequential = snapshot_of(&sc, 1);
    let parallel = snapshot_of(&sc, 8);
    assert_eq!(sequential, parallel, "thread count leaked into results");
}

#[test]
fn snapshots_match_committed_goldens() {
    for name in ["baseline_king_clean", "faults_heavy"] {
        let file = scenario_file(name);
        let sc = Scenario::load(&file).expect("scenario loads");
        let actual = snapshot_of(&sc, 1);
        let golden = std::fs::read_to_string(golden_path(&file, &sc))
            .expect("golden exists (run `cargo run --release -p experiments -- scenario --bless scenarios/`)");
        assert_eq!(
            golden, actual,
            "{name}: drifted from its golden; re-bless if intentional"
        );
    }
}

#[test]
fn resilience_ordering_holds_under_faults() {
    // The paper's core claim, pinned on the hostile-network scenario:
    // erasure-coded multipath >= replicated multipath >= single-path.
    let sc = load("faults_heavy");
    let (results, _traces) = run_scenario(&sc, 1);
    let delivery = |prefix: &str| -> f64 {
        let rows: Vec<_> = results
            .iter()
            .filter(|r| r.label.starts_with(prefix))
            .collect();
        assert!(!rows.is_empty(), "no rows for {prefix}");
        rows.iter().map(|r| r.delivered as f64).sum::<f64>()
            / rows.iter().map(|r| r.messages as f64).sum::<f64>()
    };
    let curmix = delivery("CurMix");
    let simrep = delivery("SimRep");
    let simera = delivery("SimEra");
    assert!(
        simera >= simrep && simrep >= curmix,
        "resilience ordering violated: SimEra {simera:.3} SimRep {simrep:.3} CurMix {curmix:.3}"
    );
    assert!(
        simera > 0.9,
        "SimEra should deliver despite faults, got {simera:.3}"
    );
}
