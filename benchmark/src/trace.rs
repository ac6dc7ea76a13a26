//! Tracing from outside: spans around the calls the benchmark makes
//! into each layer.
//!
//! Three wrappers, all owned by the benchmark: [`TracedTransport`] over
//! any [`Transport`], [`TracedCodec`] over any [`Codec`] (handed to
//! `ProtocolNode::with_codec`), and [`TracedPump`], which calls
//! `ProtocolNode::handle` where `Runtime::poll_once` would, so each
//! handle call is a span of its own. Every span feeds per-name totals
//! (calls, inclusive time, self time = inclusive minus children); full
//! spans are kept only while [`Tracer::sample`] is on, and written out
//! when the run ends.

use crate::chain::Pump;
use anon_core::wire::{encoded_len, Frame, Wire};
use erasure::{Codec, ErasureError, Segment};
use simnet::NodeId;
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;
use transport::{Input, Output, Priority, ProtocolNode, Transport, TransportError, TransportEvent};

/// One recorded span.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one, if any.
    pub parent: Option<usize>,
    /// The operation (message id) the span belongs to.
    pub request: u64,
}

/// Per-name totals over every span of a run.
#[derive(Clone, Copy, Default)]
pub struct Totals {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

struct Open {
    name: &'static str,
    start: Instant,
    child_ns: u64,
    index: Option<usize>,
}

/// Everything a traced stretch added up: per-name span totals and the
/// counts taken at the same boundaries. Cloned to set a stretch (the
/// set-up, the first slice) apart from the rest.
#[derive(Clone, Default)]
pub struct Ledger {
    totals: BTreeMap<&'static str, Totals>,
    pub counts: Counts,
}

/// The span store shared by the wrappers of one run.
pub struct Tracer {
    epoch: Instant,
    open: Vec<Open>,
    pub ledger: Ledger,
    spans: Vec<Span>,
    /// `Some(request)` while full spans are being kept.
    sampling: Option<u64>,
    /// When `Some`, the transport-clock instant of every payload frame
    /// sent: how late an open-loop generator launched.
    pub payload_sends_us: Option<Vec<u64>>,
}

/// What crossed the traced boundaries, for the replay attribution.
#[derive(Clone, Copy, Default)]
pub struct Counts {
    pub wire_bytes: u64,
    pub timer_fires: u64,
    /// Symmetric onion layers applied or removed, and the bytes under them.
    pub sym_layers: u64,
    pub sym_bytes: u64,
    pub payload_builds: u64,
    pub payload_peels: u64,
    /// One-layer acks the responder built.
    pub acks_built: u64,
    pub reverse_wraps: u64,
    pub reverse_peels: u64,
    pub reverse_bytes: u64,
    pub construct_builds: u64,
    pub construct_peels: u64,
    pub encode_bytes: u64,
    pub decode_reconstructs: u64,
    pub decode_fails: u64,
}

pub type SharedTracer = Rc<RefCell<Tracer>>;

impl Tracer {
    pub fn shared() -> SharedTracer {
        Rc::new(RefCell::new(Tracer {
            epoch: Instant::now(),
            open: Vec::new(),
            ledger: Ledger::default(),
            spans: Vec::new(),
            sampling: None,
            payload_sends_us: None,
        }))
    }

    /// Keep full spans for operation `request` until [`Tracer::stop_sample`].
    pub fn sample(&mut self, request: u64) {
        self.sampling = Some(request);
    }

    pub fn stop_sample(&mut self) {
        self.sampling = None;
    }

    fn enter(&mut self, name: &'static str) {
        let start = Instant::now();
        let index = self.sampling.map(|request| {
            let parent = self.open.iter().rev().find_map(|o| o.index);
            self.spans.push(Span {
                name,
                start_ns: (start - self.epoch).as_nanos() as u64,
                end_ns: 0,
                parent,
                request,
            });
            self.spans.len() - 1
        });
        self.open.push(Open {
            name,
            start,
            child_ns: 0,
            index,
        });
    }

    fn exit(&mut self) {
        let end = Instant::now();
        let open = self.open.pop().expect("exit matches an enter");
        let ns = (end - open.start).as_nanos() as u64;
        let t = self.ledger.totals.entry(open.name).or_default();
        t.calls += 1;
        t.total_ns += ns;
        t.self_ns += ns.saturating_sub(open.child_ns);
        if let Some(parent) = self.open.last_mut() {
            parent.child_ns += ns;
        }
        if let Some(i) = open.index {
            self.spans[i].end_ns = (end - self.epoch).as_nanos() as u64;
        }
    }

    /// The sampled spans, one JSON object per line.
    pub fn spans_jsonl(&self) -> String {
        let mut s = String::new();
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                s,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {}}}",
                sp.name, sp.start_ns, sp.end_ns, sp.request
            );
        }
        s
    }
}

impl Ledger {
    pub fn totals(&self, name: &str) -> Totals {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Inclusive seconds of every span whose name starts with `prefix`.
    pub fn seconds(&self, prefix: &str) -> f64 {
        self.sum(prefix, |t| t.total_ns)
    }

    /// Self seconds of every span whose name starts with `prefix`.
    pub fn self_seconds(&self, prefix: &str) -> f64 {
        self.sum(prefix, |t| t.self_ns)
    }

    pub fn calls(&self, prefix: &str) -> u64 {
        self.matching(prefix).map(|t| t.calls).sum()
    }

    fn matching<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = &'a Totals> {
        self.totals
            .iter()
            .filter(move |(n, _)| n.starts_with(prefix))
            .map(|(_, t)| t)
    }

    fn sum(&self, prefix: &str, f: impl Fn(&Totals) -> u64) -> f64 {
        self.matching(prefix).map(f).sum::<u64>() as f64 / 1e9
    }
}

/// Time `f` as a span called `name`.
pub fn span<R>(tracer: &SharedTracer, name: &'static str, f: impl FnOnce() -> R) -> R {
    tracer.borrow_mut().enter(name);
    let r = f();
    tracer.borrow_mut().exit();
    r
}

/// A [`Transport`] whose every call is a span.
pub struct TracedTransport<T: Transport> {
    pub inner: T,
    tracer: SharedTracer,
}

impl<T: Transport> TracedTransport<T> {
    pub fn new(inner: T, tracer: SharedTracer) -> Self {
        TracedTransport { inner, tracer }
    }

    fn note_send(&mut self, frame: &Frame) {
        let mut t = self.tracer.borrow_mut();
        t.ledger.counts.wire_bytes += encoded_len(frame) as u64;
        if let (
            Some(sends),
            Frame::Stream {
                wire: Wire::Payload { .. },
                ..
            },
        ) = (t.payload_sends_us.as_mut(), frame)
        {
            sends.push(self.inner.now_us());
        }
    }
}

impl<T: Transport> Transport for TracedTransport<T> {
    fn now_us(&self) -> u64 {
        self.inner.now_us()
    }

    fn send(&mut self, from: NodeId, to: NodeId, frame: Frame) -> Result<(), TransportError> {
        self.note_send(&frame);
        let inner = &mut self.inner;
        span(&self.tracer, "transport.send", || {
            inner.send(from, to, frame)
        })
    }

    fn send_prioritized(
        &mut self,
        from: NodeId,
        to: NodeId,
        frame: Frame,
        prio: Priority,
    ) -> Result<(), TransportError> {
        self.note_send(&frame);
        let inner = &mut self.inner;
        span(&self.tracer, "transport.send", || {
            inner.send_prioritized(from, to, frame, prio)
        })
    }

    fn set_timer(&mut self, owner: NodeId, token: u64, after_us: u64) {
        let inner = &mut self.inner;
        span(&self.tracer, "transport.timer_set", || {
            inner.set_timer(owner, token, after_us)
        })
    }

    fn cancel_timer(&mut self, owner: NodeId, token: u64) {
        let inner = &mut self.inner;
        span(&self.tracer, "transport.timer_cancel", || {
            inner.cancel_timer(owner, token)
        })
    }

    fn poll(&mut self, wait_us: u64) -> Option<TransportEvent> {
        let inner = &mut self.inner;
        let ev = span(&self.tracer, "transport.poll", || inner.poll(wait_us));
        if matches!(ev, Some(TransportEvent::Timer { .. })) {
            self.tracer.borrow_mut().ledger.counts.timer_fires += 1;
        }
        ev
    }
}

/// A [`Codec`] whose encode and decode calls are spans.
pub struct TracedCodec<C: Codec> {
    inner: C,
    tracer: SharedTracer,
}

impl<C: Codec> TracedCodec<C> {
    pub fn new(inner: C, tracer: SharedTracer) -> Self {
        TracedCodec { inner, tracer }
    }
}

impl<C: Codec> Codec for TracedCodec<C> {
    fn required(&self) -> usize {
        self.inner.required()
    }

    fn total(&self) -> usize {
        self.inner.total()
    }

    fn encode(&self, message: &[u8]) -> Vec<Segment> {
        self.tracer.borrow_mut().ledger.counts.encode_bytes += message.len() as u64;
        span(&self.tracer, "erasure.encode", || {
            self.inner.encode(message)
        })
    }

    fn decode(&self, segments: &[Segment]) -> Result<Vec<u8>, ErasureError> {
        // A data shard is missing whenever a parity index is among the
        // segments used: that decode runs the matrix reconstruction.
        if segments.iter().any(|s| s.index >= self.inner.required()) {
            self.tracer.borrow_mut().ledger.counts.decode_reconstructs += 1;
        }
        let r = span(&self.tracer, "erasure.decode", || {
            self.inner.decode(segments)
        });
        if r.is_err() {
            self.tracer.borrow_mut().ledger.counts.decode_fails += 1;
        }
        r
    }

    fn segment_len(&self, msg_len: usize) -> usize {
        self.inner.segment_len(msg_len)
    }
}

/// The part a node plays, which names its handle spans.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Role {
    Initiator,
    Relay,
    Responder,
}

impl Role {
    fn handle_span(self) -> &'static str {
        match self {
            Role::Initiator => "node.handle.initiator",
            Role::Relay => "node.handle.relay",
            Role::Responder => "node.handle.responder",
        }
    }
}

/// The benchmark's stand-in for `Runtime`: the same pump, with
/// `ProtocolNode::handle` called (and timed) by the benchmark.
pub struct TracedPump<T: Transport> {
    pub transport: TracedTransport<T>,
    nodes: HashMap<NodeId, (ProtocolNode, Role)>,
    tracer: SharedTracer,
    /// Relays per path, for counting the onion layers an initiator
    /// builds or peels in one call.
    relays_per_path: u64,
}

impl<T: Transport> TracedPump<T> {
    pub fn new(inner: T, tracer: SharedTracer, relays_per_path: usize) -> Self {
        TracedPump {
            transport: TracedTransport::new(inner, tracer.clone()),
            nodes: HashMap::new(),
            tracer,
            relays_per_path: relays_per_path as u64,
        }
    }

    pub fn add_node(&mut self, node: ProtocolNode, role: Role) {
        self.nodes.insert(node.id(), (node, role));
    }

    /// Count the onion work behind the frames a node emitted: only the
    /// initiator originates onions (all `L + 1` layers at once); the
    /// responder's acks and every relay's forwards are counted on
    /// arrival in [`TracedPump::note_arrival`].
    fn apply(&mut self, owner: NodeId, role: Role, out: Vec<Output>) {
        for o in out {
            match o {
                Output::Send { to, frame } => {
                    if role == Role::Initiator {
                        let layers = self.relays_per_path + 1;
                        let c = &mut self.tracer.borrow_mut().ledger.counts;
                        match &frame {
                            Frame::Stream {
                                wire: Wire::Payload { blob },
                                ..
                            } => {
                                c.payload_builds += 1;
                                c.sym_layers += layers;
                                c.sym_bytes += layers * blob.len() as u64;
                            }
                            Frame::Stream {
                                wire: Wire::Construct { .. },
                                ..
                            } => {
                                c.construct_builds += 1;
                            }
                            _ => {}
                        }
                    }
                    // A failed send is a lost frame, as in `Runtime`.
                    let _ = self.transport.send(owner, to, frame);
                }
                Output::SetTimer { token, after_us } => {
                    self.transport.set_timer(owner, token, after_us)
                }
                Output::CancelTimer { token } => self.transport.cancel_timer(owner, token),
            }
        }
    }

    fn note_arrival(&mut self, role: Role, frame: &Frame) {
        let layers = self.relays_per_path + 1;
        let c = &mut self.tracer.borrow_mut().ledger.counts;
        let Frame::Stream { wire, .. } = frame else {
            return;
        };
        // The responder also builds its one-layer ack on each arrival.
        let ack = u64::from(role == Role::Responder);
        c.acks_built += ack;
        match (wire, role) {
            (Wire::Payload { blob }, Role::Relay | Role::Responder) => {
                c.payload_peels += 1;
                c.sym_layers += 1 + ack;
                c.sym_bytes += blob.len() as u64;
            }
            (Wire::Reverse { blob }, Role::Relay) => {
                c.reverse_wraps += 1;
                c.reverse_bytes += blob.len() as u64;
                c.sym_layers += 1;
                c.sym_bytes += blob.len() as u64;
            }
            (Wire::Reverse { blob }, Role::Initiator) => {
                c.reverse_peels += 1;
                c.sym_layers += layers;
                c.sym_bytes += layers * blob.len() as u64;
            }
            (Wire::Construct { .. }, Role::Relay | Role::Responder) => {
                c.construct_peels += 1;
                c.sym_layers += ack;
            }
            _ => {}
        }
    }
}

impl<T: Transport> Pump for TracedPump<T> {
    type T = T;

    fn transport(&self) -> &T {
        &self.transport.inner
    }

    fn transport_mut(&mut self) -> &mut T {
        &mut self.transport.inner
    }

    fn node_mut(&mut self, id: NodeId) -> &mut ProtocolNode {
        &mut self.nodes.get_mut(&id).expect("known node").0
    }

    fn drive<R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut ProtocolNode, &mut Vec<Output>) -> R,
    ) -> R {
        let mut out = Vec::new();
        let now = self.transport.now_us();
        let (node, role) = self.nodes.get_mut(&id).expect("known node");
        let role = *role;
        node.set_now(now);
        let r = span(&self.tracer, "node.drive", || f(node, &mut out));
        self.apply(id, role, out);
        r
    }

    fn poll_once(&mut self) -> bool {
        let Some(ev) = self.transport.poll(0) else {
            return false;
        };
        let (owner, input) = match ev {
            TransportEvent::Frame { to, from, frame } => (to, Input::Frame { from, frame }),
            TransportEvent::Timer { owner, token } => (owner, Input::Timer { token }),
        };
        let now = self.transport.now_us();
        let mut out = Vec::new();
        let Some(role) = self.nodes.get(&owner).map(|(_, role)| *role) else {
            return true;
        };
        if let Input::Frame { frame, .. } = &input {
            self.note_arrival(role, frame);
        }
        let (node, _) = self.nodes.get_mut(&owner).expect("just looked up");
        span(&self.tracer, role.handle_span(), || {
            node.handle(now, input, &mut out)
        });
        self.apply(owner, role, out);
        true
    }
}
