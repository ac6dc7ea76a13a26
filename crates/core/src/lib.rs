//! Resilient peer-to-peer anonymous routing.
//!
//! This crate implements the contribution of *Making Peer-to-Peer Anonymous
//! Routing Resilient to Failures* (Zhu & Hu, IPPS 2007): mix-based (onion)
//! anonymous routing over a churning P2P network, made failure-resilient by
//!
//! 1. **message redundancy** — erasure-coding a message into `n` segments
//!    spread over `k` node-disjoint paths so any `m = n/r` segments
//!    reconstruct it (tolerating `k(1 − 1/r)` path failures), and
//! 2. **biased mix choice** — ranking candidate relays by the node-liveness
//!    predictor `q` and building paths from nodes likely to stay up.
//!
//! # Layers
//!
//! The crate has three levels of fidelity, used together:
//!
//! * **Message level** ([`onion`], [`relay`], [`endpoint`], [`cluster`]) —
//!   real layered encryption via `sim-crypto`: construction onions sealed
//!   to each relay's public key, payload onions under per-hop symmetric
//!   keys, relay path caches with TTLs, stream-id based forwarding,
//!   reverse paths and path reuse. Integration tests and examples run
//!   complete messages through it.
//! * **Event-driven level** ([`driver`]) — the message level scheduled on
//!   the discrete-event engine with real link latencies and churn: the
//!   highest-fidelity execution, used to validate the layer below.
//! * **Trajectory level** ([`sim`], [`protocols`]) — the evaluation
//!   framework of the paper: path construction and message delivery
//!   outcomes computed against the ground-truth churn schedule and latency
//!   matrix, scalable to the ~16 000-construction experiments. The
//!   `validate` experiment proves it agrees with the event-driven level
//!   exactly (to the microsecond) on formed paths.
//!
//! # Module map
//!
//! * [`ids`] — stream/message identifiers.
//! * [`onion`] — construction & payload onion encoding (the §4.1–4.2
//!   formats).
//! * [`relay`] — relay-side processing: unseal, cache, forward, combined
//!   construction+payload, path reuse (§4.1–4.5).
//! * [`endpoint`] — initiator/responder state machines, reassembly,
//!   reverse paths (§4.2, §4.4).
//! * [`cluster`] — in-memory message-level network for end-to-end runs.
//! * [`driver`] — event-driven protocol execution over `simnet`.
//! * [`events`] — the one protocol event record the driver and the live
//!   node both write; [`instrument`] holds its instruments.
//! * [`mix`] — random vs biased mix choice and disjoint path selection
//!   (§4.9), plus the horizon-biased extension.
//! * [`allocation`] — SimEra segment allocation analytics: `P(k)`, the
//!   three observations, bandwidth models (§4.7); weighted allocation
//!   (§7 future work) in [`allocation::weighted`].
//! * [`cover`] — cover traffic generation (§4.6).
//! * [`anonymity`] — the §5 anonymity analysis (Eq. 4, both as printed
//!   and corrected).
//! * [`attack`] — adversary simulation: empirical compromise rates and
//!   the §7 staying-adversary analysis.
//! * [`observe`] — the read-only observation tap (packet timings +
//!   construction metadata) consumed by the `adversary` crate; proven
//!   inert when detached.
//! * [`rendezvous`] — §3 mutual anonymity via a rendezvous point.
//! * [`metrics`] — the four-metric evaluation framework (§6.1).
//! * [`pool`] — reusable byte-buffer pool backing the driver hot path.
//! * [`wire`] — the versioned, length-prefixed frame encoding every
//!   link-crossing message uses (shared with the live transports).
//! * [`sim`] — trajectory-level world: churn + latency + membership.
//! * [`protocols`] — CurMix, SimRep, SimEra end-to-end drivers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allocation;
pub mod anonymity;
pub mod attack;
pub mod cluster;
pub mod cover;
pub mod driver;
pub mod endpoint;
pub mod events;
pub mod ids;
pub mod instrument;
pub mod metrics;
pub mod mix;
pub mod observe;
pub mod onion;
pub mod pool;
pub mod protocols;
pub mod relay;
pub mod rendezvous;
pub mod sim;
pub mod wire;

mod error;

pub use error::AnonError;
pub use ids::{MessageId, StreamId};
pub use mix::MixStrategy;
