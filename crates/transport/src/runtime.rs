//! The event pump connecting protocol nodes to a transport.
//!
//! A [`Runtime`] owns one [`Transport`] and any number of
//! [`ProtocolNode`]s: all of the network's nodes when the transport is
//! simulated, exactly one in a live process. It pulls events out of the
//! transport, routes them to the owning node, and applies the node's
//! outputs back to the transport — the only loop in the system; the
//! nodes themselves stay sans-io.

use crate::node::{Input, Output, ProtocolNode};
use crate::{Transport, TransportEvent};
use simnet::NodeId;
use std::collections::HashMap;

/// A set of protocol nodes driven by one transport.
pub struct Runtime<T: Transport> {
    /// The transport carrying frames and timers.
    pub transport: T,
    nodes: HashMap<NodeId, ProtocolNode>,
    /// The outputs of the node being dispatched; drained into the
    /// transport after each dispatch, its capacity kept.
    out: Vec<Output>,
}

impl<T: Transport> Runtime<T> {
    /// An empty runtime over `transport`.
    pub fn new(transport: T) -> Self {
        Runtime {
            transport,
            nodes: HashMap::new(),
            out: Vec::new(),
        }
    }

    /// Register a node; events addressed to its id route to it.
    pub fn add_node(&mut self, node: ProtocolNode) {
        self.nodes.insert(node.id(), node);
    }

    /// Inspect a node.
    ///
    /// # Panics
    ///
    /// If no node with `id` was added: asking for a node the runtime does
    /// not drive is a bug in the caller.
    pub fn node(&self, id: NodeId) -> &ProtocolNode {
        &self.nodes[&id]
    }

    /// Mutable access to a node, e.g. to trim its event logs during a
    /// long-running process (the logs otherwise grow without bound).
    ///
    /// # Panics
    ///
    /// If no node with `id` was added, as [`node`](Self::node). The id
    /// comes from the program driving the runtime, never from the wire.
    pub fn node_mut(&mut self, id: NodeId) -> &mut ProtocolNode {
        self.nodes.get_mut(&id).expect("known node")
    }

    /// Drive a node directly (construct paths, send a message): `f`
    /// appends outputs which are applied to the transport as the node's
    /// own sends would be.
    ///
    /// # Panics
    ///
    /// If no node with `id` was added, as [`node_mut`](Self::node_mut).
    pub fn drive<R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut ProtocolNode, &mut Vec<Output>) -> R,
    ) -> R {
        let mut out = std::mem::take(&mut self.out);
        let now = self.transport.now_us();
        let node = self.node_mut(id);
        node.set_now(now);
        let r = f(node, &mut out);
        self.apply(id, out);
        r
    }

    /// Apply `out` to the transport, then keep it, emptied, for the next
    /// dispatch.
    fn apply(&mut self, owner: NodeId, mut out: Vec<Output>) {
        for o in out.drain(..) {
            match o {
                // A failed send is a lost frame: the protocol's
                // redundancy machinery, not the pump, recovers from it.
                Output::Send { to, frame } => {
                    let _ = self.transport.send(owner, to, frame);
                }
                Output::SetTimer { token, after_us } => {
                    self.transport.set_timer(owner, token, after_us)
                }
                Output::CancelTimer { token } => self.transport.cancel_timer(owner, token),
            }
        }
        self.out = out;
    }

    /// Pull and dispatch one event; `false` if none appeared within
    /// `wait_us` (or, in simulation, the engine went idle).
    pub fn poll_once(&mut self, wait_us: u64) -> bool {
        let Some(ev) = self.transport.poll(wait_us) else {
            return false;
        };
        let (owner, input) = match ev {
            TransportEvent::Frame { to, from, frame } => (to, Input::Frame { from, frame }),
            TransportEvent::Timer { owner, token } => (owner, Input::Timer { token }),
        };
        let now = self.transport.now_us();
        let mut out = std::mem::take(&mut self.out);
        if let Some(node) = self.nodes.get_mut(&owner) {
            node.handle(now, input, &mut out);
        }
        self.apply(owner, out);
        true
    }

    /// Dispatch events until the transport reports none: in simulation,
    /// runs the network to quiescence.
    pub fn run_until_idle(&mut self, wait_us: u64) {
        while self.poll_once(wait_us) {}
    }

    /// Dispatch events until the transport clock passes `deadline_us`
    /// or `stop` returns true. For live transports this is the node
    /// main loop.
    pub fn run_until(&mut self, deadline_us: u64, mut stop: impl FnMut(&Self) -> bool) {
        while self.transport.now_us() < deadline_us && !stop(self) {
            let remaining = deadline_us - self.transport.now_us();
            self.poll_once(remaining.min(50_000));
        }
    }
}
