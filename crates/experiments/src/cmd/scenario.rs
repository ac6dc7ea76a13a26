//! Generic scenario runner: `experiments scenario [--bless] [--threads N] <file|dir>...`
//!
//! Loads each `*.toml` scenario (directories are scanned, sorted by file
//! name), runs its protocol × workload × seed grid through the shared
//! seed-sharded pool, writes the usual trace CSV/JSON under `results/`,
//! and compares the rendered snapshot against the committed golden at
//! `<scenario dir>/golden/<name>.snap`.
//!
//! Exit status is nonzero if any scenario fails to parse, has no golden
//! (run with `--bless` to create it), or mismatches its golden. `--bless`
//! rewrites goldens in place so drift is always a reviewed diff.

use super::{Args, ExitCode};
use experiments::scenario_runner::run_scenario_file;
use scenario::SnapshotOutcome;
use std::path::PathBuf;

fn collect_files(args: &[String]) -> Result<Vec<PathBuf>, String> {
    let mut files = Vec::new();
    for arg in args {
        let path = PathBuf::from(arg);
        if path.is_dir() {
            let mut batch: Vec<PathBuf> = std::fs::read_dir(&path)
                .map_err(|e| format!("{}: {e}", path.display()))?
                .filter_map(|entry| entry.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|ext| ext == "toml"))
                .collect();
            batch.sort();
            if batch.is_empty() {
                return Err(format!("{}: no *.toml scenarios found", path.display()));
            }
            files.extend(batch);
        } else if path.is_file() {
            files.push(path);
        } else {
            return Err(format!("{}: no such file or directory", path.display()));
        }
    }
    Ok(files)
}

pub fn run(args: &Args) -> ExitCode {
    let (bless, threads) = (args.bless, args.threads);

    let files = match collect_files(&args.paths) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("scenario: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut failures = 0usize;
    let mut blessed = 0usize;
    for file in &files {
        let run = match run_scenario_file(file, threads, bless) {
            Ok(run) => run,
            Err(e) => {
                eprintln!("FAIL  {}: {e}", file.display());
                failures += 1;
                continue;
            }
        };
        let sc = &run.scenario;
        match &run.outcome {
            SnapshotOutcome::Match => {
                println!("ok    {} [{}]", sc.name, sc.axes_summary());
            }
            SnapshotOutcome::Blessed => {
                println!("BLESS {} [{}] (golden updated)", sc.name, sc.axes_summary());
                blessed += 1;
            }
            SnapshotOutcome::Missing => {
                eprintln!(
                    "FAIL  {}: no golden snapshot (run with --bless to create it)",
                    sc.name
                );
                failures += 1;
            }
            SnapshotOutcome::Mismatch(diff) => {
                eprintln!("FAIL  {}: snapshot mismatch (-golden +actual):", sc.name);
                eprint!("{diff}");
                failures += 1;
            }
        }
        if let Err(e) = run.traces.save() {
            eprintln!("warn: could not save traces for {}: {e}", sc.name);
        }
    }

    println!(
        "\n{} scenario(s): {} failed, {} blessed",
        files.len(),
        failures,
        blessed
    );
    if failures > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
