//! Unified runtime observability for the simulator and the live stack.
//!
//! Every layer of the workspace runs the same protocol logic in two
//! worlds — the deterministic `simnet` engine and the live TCP
//! transport — and this crate gives both one measurement vocabulary:
//!
//! * [`Counter`] / [`Gauge`] — lock-free atomic scalars ([`counter`]).
//! * [`Histogram`] — log-linear (HDR-style) value distribution with a
//!   configurable, *bounded* relative error; recording is lock-free and
//!   snapshots merge exactly ([`histogram`]).
//! * [`Registry`] — labeled instrument directory: the same
//!   `(name, labels)` pair always resolves to the same instrument, and
//!   exporters walk the registry without knowing who records into it
//!   ([`registry`]).
//! * [`Snapshot`] — a point-in-time copy of every instrument, with
//!   `merge` (combine shards/runs) and `diff` (interval between two
//!   scrapes) ([`registry`]).
//! * [`export`] — Prometheus text exposition and JSON-lines rendering
//!   of snapshots.
//! * [`Clock`] — the only notion of time in the crate: instruments
//!   never read a clock themselves, so the identical instrument records
//!   simulated microseconds inside the engine ([`ManualClock`], driven
//!   from `SimTime`) and monotonic wall-clock microseconds inside the
//!   TCP transport ([`WallClock`]).
//!
//! # Distinction from `core::metrics`
//!
//! `anon-core`'s `metrics` module is the *paper evaluation framework*
//! (§6.1): latency/bandwidth/durability summaries feeding the table and
//! figure reproductions. This crate is *runtime instrumentation*: what
//! the system is doing right now — events per second, queue depths,
//! retransmits, per-hop latency distributions — exportable live from a
//! running node. Evaluation metrics answer "how good is the protocol";
//! telemetry answers "what is the process doing". Do not grow a third
//! layer: evaluation numbers belong in `core::metrics`, operational
//! numbers here.
//!
//! # Determinism
//!
//! Instruments are strictly write-only from the instrumented code's
//! perspective: nothing in the simulator or protocol ever *reads* a
//! telemetry value to make a decision, so attaching or detaching
//! telemetry cannot perturb an event trajectory. The experiments suite
//! pins this (telemetry on vs off produces bit-identical run output).
//!
//! # Cost
//!
//! Recording is one relaxed atomic RMW per observation. Every wiring
//! point in the workspace holds its instruments behind an `Option`, so
//! a run without telemetry executes a never-taken branch and touches no
//! atomics at all — the bench suite's `telemetry` group measures both
//! sides.
//!
//! ```
//! use telemetry::{Registry, export};
//!
//! let reg = Registry::new();
//! let sent = reg.counter("frames_sent", &[("peer", "3")]);
//! let lat = reg.histogram("hop_latency_us", &[], 7);
//! sent.inc();
//! lat.record(38_000);
//! let page = export::prometheus(&reg.snapshot());
//! assert!(page.contains("frames_sent{peer=\"3\"} 1"));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod clock;
pub mod counter;
pub mod export;
pub mod histogram;
pub mod registry;

pub use clock::{Clock, ManualClock, WallClock};
pub use counter::{Counter, Gauge};
pub use histogram::{Histogram, HistogramSnapshot};
pub use registry::{Instrument, Registry, Snapshot, SnapshotValue};
