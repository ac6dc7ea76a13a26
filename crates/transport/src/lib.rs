//! Live transport subsystem: the protocol stack behind a pluggable
//! transport boundary.
//!
//! The event-driven [`anon_core::driver`] runs the whole network inside
//! one discrete-event simulation. This crate factors the *per-node*
//! protocol logic out of it into a sans-io state machine
//! ([`ProtocolNode`]) that consumes inputs (arriving frames, firing
//! timers) and emits outputs (frames to send, timers to arm/cancel) —
//! and defines the [`Transport`] trait that carries those outputs to the
//! world and brings the world's events back.
//!
//! Two backends implement the trait, one simulated and one live:
//!
//! * [`SimTransport`] — an adapter over [`simnet::Engine`]: frames travel
//!   with the latency matrix's one-way delays, die at churned-down
//!   nodes, and timers are simulation events. Running the stack over it
//!   reproduces the driver's behavior event for event (the
//!   `sim_equivalence` integration test pins this).
//! * [`EventedTransport`] — the live backend: non-blocking
//!   [`std::net::TcpStream`]s multiplexed on one epoll loop (Linux),
//!   length-prefixed [`anon_core::wire`] framing, bounded per-peer
//!   outbound queues with reconnect-on-drop, and a monotonic-clock
//!   deadline heap. The `p2p-anon-node` binary runs one node of the
//!   protocol over it on a real network.
//!
//! [`Runtime`] is the small pump that connects any transport to a set of
//! protocol nodes (all of them in simulation, exactly one in a live
//! process).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod chaos;
pub mod config;
pub mod evented;
pub mod instrument;
pub mod node;
pub mod policy;
pub mod runtime;
pub mod sim;
pub mod stats;

pub use chaos::{ChaosConfig, ChaosPlan, ChaosStats, ChaosTransport, Partition};
pub use config::Roster;
pub use evented::EventedTransport;
pub use instrument::{NodeTelemetry, TcpTelemetry, WriterTelemetry};
pub use node::{Input, NodeEvents, Output, ProtocolNode};
pub use policy::{BackoffPolicy, BreakerState, CircuitBreaker, PolicyConfig, Priority};
pub use runtime::Runtime;
pub use sim::SimTransport;
pub use stats::StatsServer;

use anon_core::wire::{Frame, WireError};
use simnet::NodeId;
use std::fmt;

/// An event a transport surfaces to the protocol layer.
#[derive(Debug)]
pub enum TransportEvent {
    /// A frame arrived at node `to` from peer `from`.
    Frame {
        /// Local node the frame is addressed to.
        to: NodeId,
        /// Peer that sent it.
        from: NodeId,
        /// The decoded frame.
        frame: Frame,
    },
    /// A timer armed by `owner` fired.
    Timer {
        /// Node that armed the timer.
        owner: NodeId,
        /// The owner's token identifying which timer.
        token: u64,
    },
}

/// Why a transport could not accept a frame for sending.
///
/// Send failures are *not* fatal to the protocol: an undeliverable frame
/// is a lost message, and loss is exactly what the ack-deadline and
/// erasure-coding machinery recover from.
#[derive(Debug)]
pub enum TransportError {
    /// The destination is not in this transport's roster.
    UnknownPeer(NodeId),
    /// The frame could not be encoded or decoded.
    Codec(WireError),
    /// An I/O error from a live backend.
    Io(std::io::Error),
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::UnknownPeer(n) => write!(f, "unknown peer {n}"),
            TransportError::Codec(e) => write!(f, "frame codec error: {e}"),
            TransportError::Io(e) => write!(f, "transport i/o error: {e}"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<WireError> for TransportError {
    fn from(e: WireError) -> Self {
        TransportError::Codec(e)
    }
}

impl From<std::io::Error> for TransportError {
    fn from(e: std::io::Error) -> Self {
        TransportError::Io(e)
    }
}

/// The pluggable boundary between the protocol stack and the world.
///
/// A transport moves [`Frame`]s between nodes and runs wall-clock (or
/// simulated-clock) timers. The protocol layer never blocks inside it:
/// it hands outputs to `send`/`set_timer`/`cancel_timer` and pulls the
/// world's events back out of `poll`.
pub trait Transport {
    /// The transport's clock, in microseconds since its epoch.
    ///
    /// Simulated backends return simulation time; live backends a
    /// monotonic clock. The protocol layer only ever compares and
    /// subtracts these values.
    fn now_us(&self) -> u64;

    /// Queue `frame` for delivery from `from` to `to`.
    ///
    /// Delivery is best-effort: the frame may be lost (down peer,
    /// dropped connection, queue overflow) without an error — exactly
    /// the loss model the protocol's redundancy machinery expects. An
    /// `Err` means the frame could not even be queued.
    fn send(&mut self, from: NodeId, to: NodeId, frame: Frame) -> Result<(), TransportError>;

    /// [`Transport::send`] with an explicit shed class.
    ///
    /// Backends with bounded outbound queues ([`EventedTransport`]) shed
    /// lower classes first under overload; the default implementation
    /// ignores the class. This is also the only way to mark cover
    /// traffic: [`policy::Priority::of`] never infers it.
    fn send_prioritized(
        &mut self,
        from: NodeId,
        to: NodeId,
        frame: Frame,
        prio: policy::Priority,
    ) -> Result<(), TransportError> {
        let _ = prio;
        self.send(from, to, frame)
    }

    /// Arm a timer for `owner`: a [`TransportEvent::Timer`] with `token`
    /// fires from `poll` once `after_us` elapses. Re-arming an
    /// already-armed `(owner, token)` pair replaces the deadline.
    fn set_timer(&mut self, owner: NodeId, token: u64, after_us: u64);

    /// Cancel a previously armed timer; a no-op if it already fired.
    fn cancel_timer(&mut self, owner: NodeId, token: u64);

    /// Pull the next event, waiting up to `wait_us` for one to appear.
    ///
    /// Live backends block the calling thread for at most `wait_us`.
    /// Simulated backends ignore the bound and instead advance simulated
    /// time to the next event, returning `None` only when the
    /// simulation is idle.
    fn poll(&mut self, wait_us: u64) -> Option<TransportEvent>;
}
