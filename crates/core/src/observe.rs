//! Read-only observation tap for adversary models: per-relay packet
//! timing events plus path-construction metadata, recorded during a
//! driver run and handed to `crates/adversary` afterwards. The log is
//! written by [`Events::record`](crate::events::Events::record) alone,
//! from the driver's `sent`, `arrived` and `path_registered` events.
//!
//! The tap follows the same inertness discipline as
//! [`simnet::FaultPlan::none`] and telemetry-off: it is *record-only*.
//! Recording draws no randomness, schedules no events, and never
//! branches on message content, so a run with the tap attached is
//! event-for-event identical to one without — the driver test
//! `observation_tap_changes_nothing` pins this, and CI proves the
//! committed results stay byte-identical with no adversary attached.
//!
//! What the log contains is exactly what the literature's passive
//! adversaries consume: Ghaderi & Srikant's timing eavesdropper needs
//! ingress/egress timestamps at relays; the colluding-relay adversary
//! (the paper's §5/§7 model, Shirazi et al.) needs to know which relay
//! slots each constructed path used.

use crate::ids::{MessageId, StreamId};
use simnet::{NodeId, SimTime};

/// One link-level packet event as seen by a wiretap at a node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PacketObservation {
    /// The node at which the event was observed.
    pub node: NodeId,
    /// The link peer: the sender for ingress events, the receiver for
    /// egress events.
    pub peer: NodeId,
    /// The observation instant (departure for egress, arrival for
    /// ingress — real one-way delays separate the two).
    pub at: SimTime,
    /// `true` when the packet is arriving at `node`, `false` when it is
    /// leaving it.
    pub ingress: bool,
    /// Wire-type tag (index into [`crate::instrument::WIRE_LABELS`]).
    /// A real eavesdropper cannot read this through the onion layers;
    /// adversary models that honour the threat model must ignore it.
    pub tag: usize,
    /// Encoded frame size on the wire.
    pub bytes: u64,
    /// Link stream id (visible to the on-path relay, not to a pure
    /// wiretap; colluding-relay models may use it, timing models must
    /// not).
    pub sid: StreamId,
}

/// Construction metadata: which relay slots a formed path used. This is
/// ground truth the *simulation* knows; adversary models only get the
/// slots at relays they actually compromise.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConstructionObservation {
    /// The path's initiator.
    pub initiator: NodeId,
    /// The path's responder (terminal hop).
    pub responder: NodeId,
    /// Relay nodes in path order (excluding the responder).
    pub relays: Vec<NodeId>,
    /// Initiator-side stream id identifying the path.
    pub sid: StreamId,
    /// When the initiator registered the path.
    pub at: SimTime,
}

/// The full record of one observed run: every link crossing plus every
/// registered path. Grows append-only; the driver never reads it back.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ObservationLog {
    /// Link-level packet events in schedule order.
    pub packets: Vec<PacketObservation>,
    /// Registered path constructions in registration order.
    pub constructions: Vec<ConstructionObservation>,
}

impl ObservationLog {
    /// Fresh empty log.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Ground truth for one end-to-end message ("flow"): what the
/// *simulation* knows about it. Adversary scoring uses this to grade
/// guesses (e.g. AUC over true vs false source–destination pairings);
/// the models themselves only get the parts their compromised relays
/// would genuinely see.
#[derive(Clone, Debug)]
pub struct FlowTruth {
    /// The message this flow carried.
    pub mid: MessageId,
    /// Departure times of every segment launched for this message
    /// (first transmissions and retransmissions).
    pub sent_at: Vec<SimTime>,
    /// Arrival times of segments at the responder (duplicates included).
    pub delivered_at: Vec<SimTime>,
    /// First-hop relay of each launched segment, aligned with `sent_at`.
    pub first_relays: Vec<NodeId>,
    /// Last relay before the responder for each launched segment,
    /// aligned with `sent_at`.
    pub last_relays: Vec<NodeId>,
}

/// Everything an adversary assessment consumes about one observed run:
/// the raw tap log, the world size, the true endpoints, and per-flow
/// ground truth for scoring.
#[derive(Clone, Debug)]
pub struct ObservedRun {
    /// The raw observation log (packets + constructions).
    pub log: ObservationLog,
    /// Number of nodes in the world (the candidate initiator set).
    pub n: usize,
    /// The run's true initiator.
    pub initiator: NodeId,
    /// The run's true responder.
    pub responder: NodeId,
    /// Per-message ground truth, in send order.
    pub flows: Vec<FlowTruth>,
}
