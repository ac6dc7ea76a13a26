//! The repository's benchmark: six workloads, five end-to-end metrics
//! and a per-layer ledger. `BENCHMARK.json` at the repository root is
//! the contract; `README.md` beside this crate explains every number.
//!
//! Layers are measured from outside, by timing calls into their public
//! functions; nothing under `crates/` is instrumented for it.

pub mod chain;
pub mod live_tcp;
pub mod replay;
pub mod report;
pub mod sim_recovery;
pub mod sim_scale;
pub mod spec;
pub mod trace;

use chain::{ChainSize, Kind};
use live_tcp::LiveSize;
use report::Report;
use sim_recovery::RecoverySize;
use sim_scale::ScaleSize;
use std::path::PathBuf;

/// Where a run may write: `benchmark/` under the cargo target
/// directory this binary was built into, which git ignores.
pub fn out_dir() -> std::io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let target = exe
        .parent()
        .and_then(|profile| profile.parent())
        .ok_or_else(|| std::io::Error::other("executable is not under a target directory"))?;
    let dir = target.join("benchmark");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Run workload `name` at its full size: the end-to-end metrics, or
/// with `trace` every per-layer metric plus the sampled spans in
/// `trace-<name>.jsonl` under [`out_dir`].
pub fn run_workload(name: &str, seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    let chain = |kind| {
        let size = ChainSize::of(kind);
        if trace {
            let (report, spans) = chain::run_traced(&size, seed, seconds);
            (report, Some(spans))
        } else {
            (chain::run(&size, seed, seconds), None)
        }
    };
    let (mut report, spans) = match (name, trace) {
        ("chain_small", _) => chain(Kind::Small),
        ("chain_coded", _) => chain(Kind::Coded),
        ("chain_construct", _) => chain(Kind::Construct),
        ("sim_recovery", false) => (
            sim_recovery::run(&RecoverySize::full(), seed, seconds),
            None,
        ),
        ("sim_recovery", true) => (
            sim_recovery::run_traced(&RecoverySize::full(), seed, seconds),
            None,
        ),
        ("sim_scale", false) => (sim_scale::run(&ScaleSize::full(), seed, seconds), None),
        ("sim_scale", true) => (
            sim_scale::run_traced(&ScaleSize::full(), seed, seconds),
            None,
        ),
        ("live_tcp", false) => (live_tcp::run(&LiveSize::full(), seed, seconds)?, None),
        ("live_tcp", true) => (
            live_tcp::run_traced(&LiveSize::full(), seed, seconds)?,
            None,
        ),
        _ => return Err(format!("unknown workload {name}")),
    };
    if trace {
        report.fill_per_layer();
    }
    if let Some(spans) = spans {
        let path = out_dir()
            .map_err(|e| e.to_string())?
            .join(format!("trace-{name}.jsonl"));
        std::fs::write(&path, spans).map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    Ok(report)
}
