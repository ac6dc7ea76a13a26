//! What one run reports, and the small statistics it is built from.

use crate::spec::{END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The outcome of one workload run.
///
/// `metrics` holds the end-to-end metrics of an untraced run or the
/// per-layer metrics of a traced one; `checks` are the output checks
/// that gate the exit code; `counts` are the deterministic simulated
/// outputs `result_digest` is taken over.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    pub checks: Vec<(String, bool)>,
    pub counts: Vec<(String, u64)>,
}

impl Report {
    /// Record a metric. The name must be one `BENCHMARK.json` lists, so
    /// a typo fails the schema self-test instead of adding a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().any(|m| m.name == name) || PER_LAYER.iter().any(|m| m.name == name),
            "metric {name} is not in the spec"
        );
        self.metrics.insert(name, value);
    }

    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.checks.push((what.into(), ok));
    }

    /// A deterministic simulated output: identical for identical seeds.
    pub fn count(&mut self, what: impl Into<String>, value: u64) {
        self.counts.push((what.into(), value));
    }

    /// Every check passed and every metric is a finite number.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok) && self.metrics.values().all(|v| v.is_finite())
    }

    /// FNV-1a over the deterministic counts, as 16 hex digits. Reported,
    /// not pinned: a protocol change moves it without failing anything.
    pub fn result_digest(&self) -> String {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for (name, value) in &self.counts {
            for b in name.bytes().chain(value.to_le_bytes()) {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        format!("{h:016x}")
    }

    /// The per-layer metrics of a traced run: every name of the spec,
    /// 0 where the layer does not run on this workload.
    pub fn fill_per_layer(&mut self) {
        for m in PER_LAYER {
            self.metrics.entry(m.name).or_insert(0.0);
        }
    }

    /// The result line of the contract: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let unit_of = |name: &str| {
            END_TO_END
                .iter()
                .map(|m| (m.name, m.unit))
                .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
                .find(|(n, _)| *n == name)
                .map(|(_, u)| u)
                .expect("set() checked the name")
        };
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                s,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                unit_of(name)
            );
        }
        s.push_str("}}");
        s
    }

    /// The line before the result line: checks, deterministic counts
    /// and their digest, for people and for `run.py --sets`.
    pub fn info_line(&self, workload: &str, seed: u64, scrubbed: &[(String, String)]) -> String {
        let mut s = format!(
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"result_digest\": \"{}\", \"checks\": {{",
            self.result_digest()
        );
        let join = |s: &mut String, items: Vec<String>| s.push_str(&items.join(", "));
        join(
            &mut s,
            self.checks
                .iter()
                .map(|(k, ok)| format!("\"{k}\": {ok}"))
                .collect(),
        );
        s.push_str("}, \"counts\": {");
        join(
            &mut s,
            self.counts
                .iter()
                .map(|(k, v)| format!("\"{k}\": {v}"))
                .collect(),
        );
        s.push_str("}, \"scrubbed_env\": {");
        join(
            &mut s,
            scrubbed
                .iter()
                .map(|(k, v)| format!("\"{k}\": \"{}\"", v.replace(['"', '\\'], "?")))
                .collect(),
        );
        s.push_str("}}");
        s
    }
}

/// The steady value of a per-slice time: the best slice's. Other
/// tenants of the box only ever slow a slice down, in bursts that
/// outlast a slice but not a run, so the fastest slice moves less from
/// run to run than the median slice does (on the box this was written
/// on, over the same ten `sim_scale` runs: 3 % against 8 %).
pub fn steady_low(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The steady value of a per-slice rate: the best slice's (see
/// [`steady_low`]).
pub fn steady_high(values: &[f64]) -> f64 {
    values.iter().copied().fold(0.0, f64::max)
}

/// The `q`-quantile (nearest rank) of `values`, which it sorts.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((values.len() as f64 * q).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

fn proc_field(path: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines().find_map(|l| {
        let rest = l.strip_prefix(key)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// Peak resident set (`VmHWM`) of process `pid` in MiB; 0 if unreadable.
pub fn peak_rss_mb(pid: u32) -> f64 {
    proc_field(&format!("/proc/{pid}/status"), "VmHWM").map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// What `/proc` says a process has used so far.
#[derive(Clone, Copy, Default)]
pub struct ProcUsage {
    /// User + system CPU time, microseconds.
    pub cpu_us: f64,
    pub ctx_switches: u64,
}

impl ProcUsage {
    pub fn of(pid: u32) -> ProcUsage {
        // Fields 14 and 15 of /proc/pid/stat are utime and stime in
        // clock ticks (100 per second on Linux); the command name in
        // field 2 may hold spaces, so count from the closing paren.
        let cpu_us = std::fs::read_to_string(format!("/proc/{pid}/stat"))
            .ok()
            .and_then(|s| {
                let after = s.rsplit_once(')')?.1;
                let f: Vec<&str> = after.split_whitespace().collect();
                let ticks = f.get(11)?.parse::<u64>().ok()? + f.get(12)?.parse::<u64>().ok()?;
                Some(ticks as f64 * 10_000.0)
            })
            .unwrap_or(0.0);
        let status = format!("/proc/{pid}/status");
        ProcUsage {
            cpu_us,
            ctx_switches: proc_field(&status, "voluntary_ctxt_switches").unwrap_or(0)
                + proc_field(&status, "nonvoluntary_ctxt_switches").unwrap_or(0),
        }
    }

    pub fn since(self, earlier: ProcUsage) -> ProcUsage {
        ProcUsage {
            cpu_us: self.cpu_us - earlier.cpu_us,
            ctx_switches: self.ctx_switches - earlier.ctx_switches,
        }
    }
}

/// splitmix64: the benchmark's own input generator, so payload bytes
/// and sub-seeds depend on `--seed` and on nothing else.
pub fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The payload of message `mid` under `seed`: `len` generated bytes.
pub fn payload(seed: u64, mid: u64, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len + 8);
    let mut state = splitmix(seed ^ mid.wrapping_mul(0xA24B_AED4_963E_E407));
    while out.len() < len {
        state = splitmix(state);
        out.extend_from_slice(&state.to_le_bytes());
    }
    out.truncate(len);
    out
}
