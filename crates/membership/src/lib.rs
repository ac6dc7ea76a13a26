//! Epidemic membership management with node-liveness piggybacking.
//!
//! This crate stands in for the paper's augmented OneHop layer: each node
//! keeps a *node cache* of peers it has heard about, gossip messages carry
//! `(Δt_alive, Δt_since)` liveness information, and the cache computes the
//! node-liveness predictor
//!
//! ```text
//! q = Δt_alive / (Δt_alive + Δt_since + (t_now − t_last))        (Eq. 3)
//! ```
//!
//! from which the conditional survival probability under a Pareto lifetime
//! distribution is `p = q^α` (Eq. 1–2). Biased mix choice ranks cache
//! entries by `q`; random mix choice ignores it.
//!
//! Modules:
//! * [`liveness`] — the predictor math (Eqs. 1–3) in isolation.
//! * [`cache`] — the per-node cache with the paper's direct/indirect update
//!   rules.
//! * [`gossip`] — a round-based epidemic protocol driving caches across a
//!   churning network.
//! * [`onehop`] — hierarchical OneHop dissemination.
//! * [`sampled`] — seed-deterministic sampled views with bounded-staleness
//!   ground-truth observations; O(sample) state for 100k–1M-node worlds.
//! * [`layer`] — the [`MembershipLayer`] facade the experiments swap
//!   substrates through.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cache;
pub mod gossip;
pub mod layer;
pub mod liveness;
pub mod onehop;
pub mod sampled;

pub use cache::{CacheEntry, Digest, NodeCache};
pub use gossip::{GossipConfig, GossipSim};
pub use layer::{MembershipConfig, MembershipLayer};
pub use liveness::{predictor, survival_probability, LivenessInfo};
pub use onehop::{OneHopConfig, OneHopSim};
pub use sampled::{SampledConfig, SampledView};
