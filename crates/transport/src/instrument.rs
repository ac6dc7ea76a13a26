//! Telemetry wiring for the live transport stack.
//!
//! Same pattern as `anon_core::instrument`: this module owns the
//! instrument names and registration; the transport code holds
//! pre-resolved [`Arc`] handles inside `Option`s and records lock-free.
//! `None` everywhere means zero cost — no atomics touched. The protocol
//! node's instruments are not here: it records into
//! `anon_core::events::Events`, which counts into
//! `anon_core::instrument::ProtocolTelemetry`.
//!
//! Instrumentation here is strictly write-only: nothing in the protocol
//! or transport reads these values back to make a decision, so attaching
//! telemetry cannot change behavior (the determinism suite pins the
//! equivalent invariant for the simulated stack).

use crate::policy::Priority;
use simnet::NodeId;
use std::sync::Arc;
use telemetry::{Counter, Gauge, Registry};

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
        let counter = |name: &str| self.registry.counter(name, &labels);
        let shed = |class: &str| {
            self.registry.counter(
                "transport_frames_shed_total",
                &[("peer", &p), ("class", class)],
            )
        };
        WriterTelemetry {
            connects: counter("transport_connects_total"),
            connect_failures: counter("transport_connect_failures_total"),
            frames_dropped: counter("transport_frames_dropped_total"),
            frames_dropped_reconnect: counter("transport_frames_dropped_reconnect_total"),
            breaker_trips: counter("transport_breaker_trips_total"),
            breaker_recoveries: counter("transport_breaker_recoveries_total"),
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
}
