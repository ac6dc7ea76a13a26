//! Discrete-event peer-to-peer network simulator.
//!
//! This crate replaces the role p2psim plays in the paper's evaluation: it
//! provides simulated time, an event queue, a pairwise-latency model
//! standing in for the King measurements, and a churn generator producing
//! node session/downtime alternation from Pareto, exponential, or uniform
//! lifetime distributions.
//!
//! The simulator is deliberately minimal and deterministic: all randomness
//! flows through caller-provided seeded RNGs, so every experiment in the
//! reproduction is replayable bit-for-bit.
//!
//! * [`time`] — microsecond-resolution simulated clock types.
//! * [`engine`] — the event loop: schedule closures at absolute/relative
//!   times, with cancellation handles.
//! * [`sched`] — the engine's event queue: a calendar queue popping in
//!   total `(time, seq)` order.
//! * [`latency`] — pluggable pairwise one-way-delay models behind the
//!   [`LatencyModel`] trait, calibrated to a target average RTT (the
//!   paper's network averages 152 ms RTT): the dense synthetic matrix
//!   (≤ ~10k nodes, byte-identical to every committed result) and the
//!   O(1)-memory procedural backend that scales to 1M nodes.
//! * [`churn`] — lifetime distributions, per-node session schedules, and
//!   scripted churn events (flash crowds, mass failures).
//! * [`topology`] — overlay-topology generators (King, Barabási–Albert,
//!   star/ring, partitioned) resolving to latency matrices.
//! * [`fault`] — deterministic seed-derived fault injection (link drops,
//!   latency spikes, relay crash-restarts, stale membership views).
//! * [`node`] — node identifiers.
//! * [`trace`] — statistics accumulators used by the evaluation framework.
//! * [`instrument`] — optional live telemetry wiring for the engine
//!   (events/s, queue depth, scheduler resizes) on the shared
//!   `telemetry` registry; write-only, so trajectories are unchanged.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod churn;
pub mod engine;
pub mod fault;
pub mod instrument;
pub mod latency;
pub mod node;
pub mod sched;
pub mod time;
pub mod topology;
pub mod trace;

pub use churn::{ChurnEvent, ChurnSchedule, LifetimeDistribution, Session};
pub use engine::{Engine, EventHandle};
pub use fault::{FaultConfig, FaultPlan};
pub use instrument::EngineTelemetry;
pub use latency::{Latency, LatencyMatrix, LatencyModel, LatencyRow, ProceduralLatency};
pub use node::NodeId;
pub use sched::CalendarQueue;
pub use time::{SimDuration, SimTime};
pub use topology::{TopologyGraph, TopologyKind};
