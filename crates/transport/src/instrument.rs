//! Telemetry wiring for the live transport stack.
//!
//! Same pattern as `anon_core::instrument`: this module owns the
//! instrument names and registration; the transport and node code holds
//! pre-resolved [`Arc`] handles inside `Option`s and records lock-free.
//! `None` everywhere means zero cost — no atomics touched.
//!
//! Instrumentation here is strictly write-only: nothing in the protocol
//! or transport reads these values back to make a decision, so attaching
//! telemetry cannot change behavior (the determinism suite pins the
//! equivalent invariant for the simulated stack).

use crate::policy::Priority;
use simnet::NodeId;
use std::sync::Arc;
use telemetry::{Counter, Gauge, Histogram, Registry};

/// Log-linear grouping power for RTT histograms (~0.8 % relative error,
/// matching `core_hop_latency_us`).
const RTT_GROUPING_POWER: u32 = 7;

/// Transport-wide instruments for one [`crate::EventedTransport`].
#[derive(Clone)]
pub struct TcpTelemetry {
    registry: Arc<Registry>,
    /// `transport_timer_fires_total` — armed deadlines that actually
    /// fired (cancelled timers never count).
    pub timer_fires: Arc<Counter>,
    /// `transport_frames_enqueued_total` — frames accepted by `send`
    /// into a peer's outbound queue.
    pub frames_enqueued: Arc<Counter>,
    /// `transport_accept_errors_total` — fatal listener accept errors
    /// (not `WouldBlock`, not a doomed in-flight connection): the
    /// listener itself is in trouble.
    pub accept_errors: Arc<Counter>,
}

impl TcpTelemetry {
    /// Resolve the transport-wide instruments against `registry`. The
    /// registry is retained so per-peer instruments can be created
    /// lazily as peers are first sent to.
    pub fn register(registry: Arc<Registry>) -> Self {
        let timer_fires = registry.counter("transport_timer_fires_total", &[]);
        let frames_enqueued = registry.counter("transport_frames_enqueued_total", &[]);
        let accept_errors = registry.counter("transport_accept_errors_total", &[]);
        TcpTelemetry {
            registry,
            timer_fires,
            frames_enqueued,
            accept_errors,
        }
    }

    /// Per-peer outbound instruments, labeled `peer="<id>"`.
    pub fn writer(&self, peer: NodeId) -> WriterTelemetry {
        let p = peer.0.to_string();
        let labels: [(&str, &str); 1] = [("peer", &p)];
        let shed = |class: &str| {
            self.registry.counter(
                "transport_frames_shed_total",
                &[("peer", &p), ("class", class)],
            )
        };
        WriterTelemetry {
            connects: self.registry.counter("transport_connects_total", &labels),
            connect_failures: self
                .registry
                .counter("transport_connect_failures_total", &labels),
            frames_dropped: self
                .registry
                .counter("transport_frames_dropped_total", &labels),
            frames_dropped_reconnect: self
                .registry
                .counter("transport_frames_dropped_reconnect_total", &labels),
            breaker_trips: self
                .registry
                .counter("transport_breaker_trips_total", &labels),
            breaker_recoveries: self
                .registry
                .counter("transport_breaker_recoveries_total", &labels),
            shed_cover: shed("cover"),
            shed_data: shed("data"),
            shed_control: shed("control"),
            queue_depth: self.registry.gauge("transport_writer_queue_depth", &labels),
        }
    }
}

/// Instruments of one outbound peer (its queue and connection).
///
/// The gauge is a live level: `send` increments it as a frame is
/// enqueued and the flush decrements it once the frame's last byte is
/// handed to the kernel (or the frame is abandoned), so a scrape sees
/// the backlog toward that peer at that instant (snapshot merges keep
/// the high-water mark).
#[derive(Clone)]
pub struct WriterTelemetry {
    /// `transport_connects_total{peer}` — successful (re)connects,
    /// the first connection included.
    pub connects: Arc<Counter>,
    /// `transport_connect_failures_total{peer}` — connect attempts
    /// (and connections lost mid-write) that fell into backoff.
    pub connect_failures: Arc<Counter>,
    /// `transport_frames_dropped_total{peer}` — every frame abandoned,
    /// whatever the reason (deadline, breaker, shed).
    pub frames_dropped: Arc<Counter>,
    /// `transport_frames_dropped_reconnect_total{peer}` — frames lost
    /// across a reconnect: the in-flight frame a dying connection took
    /// with it, counted (and requeued when its deadline allows) instead
    /// of vanishing silently.
    pub frames_dropped_reconnect: Arc<Counter>,
    /// `transport_breaker_trips_total{peer}` — circuit-breaker trips
    /// (consecutive-failure threshold reached; sends fail fast).
    pub breaker_trips: Arc<Counter>,
    /// `transport_breaker_recoveries_total{peer}` — open breakers closed
    /// again by a successful probe.
    pub breaker_recoveries: Arc<Counter>,
    /// `transport_frames_shed_total{peer,class="cover"}` — cover frames
    /// shed by the bounded queue (always the first victims).
    pub shed_cover: Arc<Counter>,
    /// `transport_frames_shed_total{peer,class="data"}` — data frames
    /// shed once no cover remained.
    pub shed_data: Arc<Counter>,
    /// `transport_frames_shed_total{peer,class="control"}` — control
    /// frames shed as the last resort.
    pub shed_control: Arc<Counter>,
    /// `transport_writer_queue_depth{peer}` — frames queued but not yet
    /// written to the socket.
    pub queue_depth: Arc<Gauge>,
}

impl WriterTelemetry {
    /// The shed counter for `class`.
    pub fn shed(&self, class: Priority) -> &Arc<Counter> {
        match class {
            Priority::Cover => &self.shed_cover,
            Priority::Data => &self.shed_data,
            Priority::Control => &self.shed_control,
        }
    }
}

/// Protocol-event instruments for one [`crate::ProtocolNode`], mirroring
/// its [`crate::NodeEvents`] record sites one for one.
#[derive(Clone)]
pub struct NodeTelemetry {
    /// `node_paths_established_total{node}` — construction acks back at
    /// this initiator.
    pub established: Arc<Counter>,
    /// `node_constructions_total{node}` — terminal construction
    /// completions at this responder.
    pub constructions: Arc<Counter>,
    /// `node_deliveries_total{node}` — segments delivered here.
    pub deliveries: Arc<Counter>,
    /// `node_acks_total{node}` — end-to-end segment acks back here.
    pub acks: Arc<Counter>,
    /// `node_ack_timeouts_total{node}` — ack deadlines that fired
    /// unanswered.
    pub ack_timeouts: Arc<Counter>,
    /// `node_retransmits_total{node}` — segments retransmitted after a
    /// timeout.
    pub retransmits: Arc<Counter>,
    /// `node_stateless_drops_total{node}` — frames dropped for missing
    /// relay/initiator state.
    pub stateless_drops: Arc<Counter>,
    /// `node_ack_rtt_us{node}` — end-to-end segment ack round-trip
    /// times.
    pub ack_rtt_us: Arc<Histogram>,
}

impl NodeTelemetry {
    /// Resolve this node's instruments, labeled `node="<id>"`.
    pub fn register(registry: &Registry, node: NodeId) -> Self {
        let n = node.0.to_string();
        let labels: [(&str, &str); 1] = [("node", &n)];
        NodeTelemetry {
            established: registry.counter("node_paths_established_total", &labels),
            constructions: registry.counter("node_constructions_total", &labels),
            deliveries: registry.counter("node_deliveries_total", &labels),
            acks: registry.counter("node_acks_total", &labels),
            ack_timeouts: registry.counter("node_ack_timeouts_total", &labels),
            retransmits: registry.counter("node_retransmits_total", &labels),
            stateless_drops: registry.counter("node_stateless_drops_total", &labels),
            ack_rtt_us: registry.histogram("node_ack_rtt_us", &labels, RTT_GROUPING_POWER),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_instruments_are_per_peer() {
        let registry = Arc::new(Registry::new());
        let t = TcpTelemetry::register(registry.clone());
        t.writer(NodeId(1)).frames_dropped.inc();
        t.writer(NodeId(2)).frames_dropped.add(3);
        // Same peer resolves to the same instrument.
        t.writer(NodeId(1)).frames_dropped.inc();
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter_value("transport_frames_dropped_total", &[("peer", "1")]),
            2
        );
        assert_eq!(
            snap.counter_value("transport_frames_dropped_total", &[("peer", "2")]),
            3
        );
    }

    #[test]
    fn node_instruments_register_under_the_node_label() {
        let registry = Registry::new();
        let t = NodeTelemetry::register(&registry, NodeId(7));
        t.acks.inc();
        t.retransmits.add(2);
        let snap = registry.snapshot();
        assert_eq!(snap.counter_value("node_acks_total", &[("node", "7")]), 1);
        assert_eq!(
            snap.counter_value("node_retransmits_total", &[("node", "7")]),
            2
        );
    }
}
