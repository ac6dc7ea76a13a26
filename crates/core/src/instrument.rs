//! Runtime telemetry wiring for the protocol's event record.
//!
//! [`ProtocolTelemetry`] bundles the instruments
//! [`Events::record`](crate::events::Events::record) counts into, so the
//! simulator's [`Driver`](crate::driver::Driver) (attached with
//! [`Driver::attach_telemetry`](crate::driver::Driver::attach_telemetry))
//! and a live `transport::ProtocolNode` publish the same names for the
//! same events. Instruments resolve from a shared [`telemetry::Registry`]
//! once, so recording touches only pre-resolved `Arc`s; with no telemetry
//! attached, recording touches none.
//!
//! Like the engine's instruments ([`simnet::instrument`]), everything
//! here is write-only: no protocol decision ever reads a telemetry
//! value, so attaching telemetry cannot change what a run does —
//! only what it reports. Evaluation numbers (delivery rates, §6.1
//! latency summaries) stay in [`crate::metrics`]; this module is the
//! operational view.

use crate::events::KINDS;
use simnet::NodeId;
use std::sync::Arc;
use telemetry::{Counter, Histogram, Registry};

/// Exporter-facing labels for the four wire-message kinds, indexed by
/// [`wire_tag`].
pub const WIRE_LABELS: [&str; 4] = ["construct", "payload", "reverse", "release"];

/// Index of a [`Wire`](crate::wire::Wire) variant into per-tag
/// instrument arrays (and [`WIRE_LABELS`]).
pub fn wire_tag(wire: &crate::wire::Wire) -> usize {
    match wire {
        crate::wire::Wire::Construct { .. } => 0,
        crate::wire::Wire::Payload { .. } => 1,
        crate::wire::Wire::Reverse { .. } => 2,
        crate::wire::Wire::Release => 3,
    }
}

/// Grouping power of the latency histograms: relative quantile error
/// ≤ 2⁻⁷ ≈ 0.8%.
pub const LATENCY_GROUPING_POWER: u32 = 7;

/// Pre-resolved protocol instruments: one family, registered alike by
/// the simulator and by each live node.
///
/// | name | kind | meaning |
/// |---|---|---|
/// | `protocol_events_total{kind=…}` | counter | events recorded, by [`KINDS`] label |
/// | `protocol_frame_bytes_total{wire=…}` | counter | encoded bytes of `sent` frames, by wire tag |
/// | `protocol_hop_latency_us` | histogram | one-way delay of each `sent` frame, µs |
/// | `protocol_ack_rtt_us` | histogram | round trip of each timed `acked` segment, µs |
///
/// A live node's instruments also carry its `node=…` label.
#[derive(Clone, Debug)]
pub struct ProtocolTelemetry {
    pub(crate) events: [Arc<Counter>; KINDS.len()],
    pub(crate) frame_bytes: [Arc<Counter>; WIRE_LABELS.len()],
    pub(crate) hop_latency_us: Arc<Histogram>,
    pub(crate) ack_rtt_us: Arc<Histogram>,
}

impl ProtocolTelemetry {
    /// Resolve the instruments from `registry` (creating them on first
    /// use; see the type docs for names), labelled with `node` if given.
    pub fn register(registry: &Registry, node: Option<NodeId>) -> Self {
        let id = node.map(|n| n.0.to_string());
        let node: Vec<(&str, &str)> = id.iter().map(|id| ("node", id.as_str())).collect();
        let counter = |name: &str, key: &str, value: &str| {
            registry.counter(name, &[&node[..], &[(key, value)]].concat())
        };
        let histogram = |name: &str| registry.histogram(name, &node, LATENCY_GROUPING_POWER);
        ProtocolTelemetry {
            events: KINDS.map(|kind| counter("protocol_events_total", "kind", kind)),
            frame_bytes: WIRE_LABELS
                .map(|wire| counter("protocol_frame_bytes_total", "wire", wire)),
            hop_latency_us: histogram("protocol_hop_latency_us"),
            ack_rtt_us: histogram("protocol_ack_rtt_us"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_node_registers_under_its_label_and_the_simulator_without() {
        let reg = Registry::new();
        ProtocolTelemetry::register(&reg, None).events[4].inc();
        ProtocolTelemetry::register(&reg, Some(NodeId(7))).events[4].add(2);
        let s = reg.snapshot();
        assert_eq!(
            s.counter_value("protocol_events_total", &[("kind", "acked")]),
            1
        );
        assert_eq!(
            s.counter_value("protocol_events_total", &[("kind", "acked"), ("node", "7")]),
            2
        );
        let families = 2 * (KINDS.len() + WIRE_LABELS.len() + 2);
        assert_eq!(s.len(), families, "every instrument, once per label set");
    }

    #[test]
    fn wire_tags_cover_every_variant() {
        use crate::ids::StreamId;
        let variants = [
            crate::wire::Wire::Construct {
                initiator_sid: StreamId(1),
                onion: Vec::new(),
            },
            crate::wire::Wire::Payload { blob: Vec::new() },
            crate::wire::Wire::Reverse { blob: Vec::new() },
            crate::wire::Wire::Release,
        ];
        let tags: Vec<usize> = variants.iter().map(wire_tag).collect();
        assert_eq!(tags, vec![0, 1, 2, 3]);
        assert_eq!(WIRE_LABELS.len(), variants.len());
    }
}
