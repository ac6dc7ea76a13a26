//! The live backend: the [`Transport`] trait over a single-threaded
//! epoll event loop ([`minipoll`]) — no threads, no locks, no channels.
//!
//! Every socket is multiplexed on one `epoll` instance owned by the
//! caller's thread, so a node's cost does not grow a thread per peer:
//!
//! * **accept** — the listener is registered level-triggered; readiness
//!   drains `accept` until `WouldBlock`. Inbound connections are
//!   read-only: the first frame must be a [`Frame::Hello`] identifying
//!   the peer, and a frame before it (or bytes that do not decode)
//!   drops the connection — the peer reconnects and re-identifies.
//! * **read** — inbound sockets are edge-triggered and drained to
//!   `WouldBlock` through one reusable scratch buffer into the
//!   incremental [`FrameReader`]; decoded frames queue in an inbox the
//!   caller pulls from [`Transport::poll`] one event at a time.
//! * **write** — each outbound peer owns a bounded priority-shedding
//!   queue of pre-encoded frames (buffers from a [`BufferPool`], so the
//!   steady state allocates nothing per frame — the `writer_alloc`
//!   test pins it). Dirty queues are flushed inside `poll` with batched
//!   [`Write::write_vectored`] (`writev`) calls; a partial write parks
//!   the connection until the next writability edge.
//! * **reconnect** — non-blocking `connect` with the outcome read from
//!   `SO_ERROR` on writability. Failures fall under the
//!   [`PolicyConfig`] retry discipline: jittered exponential backoff
//!   (deterministic per `(seed, peer)`), a per-peer circuit breaker
//!   that fails queued frames fast while open, and per-frame deadline
//!   budgets. A frame a dying connection took with it is resent while
//!   its deadline allows and *counted* (`frames_dropped_reconnect`)
//!   when it cannot be — an undeliverable frame is never silently lost
//!   and never blocks the loop. Loss is still the contract: it is what
//!   the protocol's ack-deadline and erasure machinery recover from.
//! * **timers** — protocol timers keep the transport-trait contract
//!   (re-arm replaces) in a [`minipoll::Timers`] deadline heap; the
//!   earliest deadline arms a `timerfd` registered in the same epoll
//!   set, so sub-millisecond deadlines wake the loop precisely instead
//!   of rounding to epoll's millisecond timeout.
//!
//! Under overload a full queue sheds by [`Priority`]: the first queued
//! frame of the lowest class ≤ the incoming frame's class goes (cover
//! first, then data, control last), or the newcomer is rejected when
//! nothing lesser is queued — graceful degradation drops the traffic
//! whose only job was to exist before the traffic that keeps paths
//! alive. Capacity `0` means unbounded: never sheds.

use crate::config::Roster;
use crate::instrument::{TcpTelemetry, WriterTelemetry};
use crate::policy::{PolicyConfig, Priority};
use crate::{Transport, TransportError, TransportEvent};
use anon_core::pool::BufferPool;
use anon_core::wire::{encode_frame, encode_frame_into, Frame, FrameReader};
use minipoll::{net, Events, Interest, Poll, TimerFd, Timers, Token};
use simnet::NodeId;
use std::collections::{HashMap, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// Token of the accept listener.
const TOKEN_LISTENER: u64 = 0;
/// Token of the deadline timerfd.
const TOKEN_TIMERFD: u64 = 1;
/// First token used for connection slots.
const TOKEN_CONN_BASE: u64 = 2;

/// Max frames batched into one `writev` call (kept well under
/// `IOV_MAX`).
const MAX_BATCH: usize = 64;

/// Readiness events drained per epoll wait.
const EVENTS_CAPACITY: usize = 256;

/// Reusable read scratch size.
const SCRATCH_LEN: usize = 64 * 1024;

/// One pre-encoded frame waiting in a peer's outbound queue.
struct OutEntry {
    prio: Priority,
    bytes: Vec<u8>,
    /// Absolute delivery deadline on the transport clock; the flusher
    /// stops retrying a frame whose deadline has passed.
    deadline_us: u64,
}

/// Connection-machine state of one outbound peer.
enum OutState {
    /// No connection and no backoff pending; the next flush attempt
    /// starts a connect.
    Idle,
    /// Non-blocking connect in flight; resolution arrives as a
    /// writability (or error) event.
    Connecting { stream: TcpStream, slot: usize },
    /// Live connection.
    Connected {
        stream: TcpStream,
        slot: usize,
        /// A write returned `WouldBlock`; don't retry until the next
        /// writability edge clears this.
        blocked: bool,
    },
    /// Waiting out the backoff/breaker delay (a reconnect timer is
    /// armed).
    Backoff,
}

/// One outbound peer: queue, connection state, retry-policy state.
struct OutboundPeer {
    addr: SocketAddr,
    state: OutState,
    queue: VecDeque<OutEntry>,
    /// Bytes of the queue head already written (partial `writev`).
    head_offset: usize,
    /// The identifying Hello still owed to the current connection.
    hello_pending: bool,
    /// Bytes of the Hello already written.
    hello_offset: usize,
    /// Reconnect attempt counter driving backoff growth; resets on a
    /// successful connect.
    attempt: u32,
    breaker: crate::policy::CircuitBreaker,
    /// A live connection died mid-frame: the head frame is resent on
    /// the next connection, and counts as a reconnect loss if it is
    /// abandoned instead.
    write_failed: bool,
    telemetry: Option<WriterTelemetry>,
}

/// What a connection slot routes to.
enum Slot {
    Inbound(InboundConn),
    Outbound(NodeId),
}

/// One inbound (read-only) connection.
struct InboundConn {
    stream: TcpStream,
    reader: FrameReader,
    /// Set by the connection's Hello; frames before it drop the
    /// connection (unattributable).
    peer: Option<NodeId>,
}

/// What an outbound readiness event should do, decided under the peer
/// borrow and executed after it ends.
enum OutboundAction {
    ResolveConnect,
    ResumeFlush,
    Nothing,
}

/// A live single-threaded evented transport bound to one roster node.
///
/// Everything — accept, read, write, reconnect, timers — happens inside
/// [`Transport::poll`] on the caller's thread.
pub struct EventedTransport {
    local: NodeId,
    roster: Roster,
    policy: PolicyConfig,
    epoch: Instant,
    poll: Poll,
    io_events: Option<Events>,
    timer_fd: Option<TimerFd>,
    listener: TcpListener,
    slots: Vec<Option<Slot>>,
    free_slots: Vec<usize>,
    /// Slots freed mid-batch; recycled only after the batch so a stale
    /// readiness event cannot misroute to a reused slot.
    deferred_free: Vec<usize>,
    peers: HashMap<NodeId, OutboundPeer>,
    /// Peers with queued bytes not yet handed to the kernel.
    dirty: Vec<NodeId>,
    inbox: VecDeque<(NodeId, Frame)>,
    protocol_timers: Timers<(u32, u64)>,
    reconnect_timers: Timers<u32>,
    pool: BufferPool,
    scratch: Vec<u8>,
    hello: Vec<u8>,
    telemetry: Option<TcpTelemetry>,
}

impl EventedTransport {
    /// Bind the roster address of `local` and start accepting peers.
    ///
    /// Fails with [`std::io::ErrorKind::Unsupported`] on non-Linux
    /// platforms (no epoll): the live node is Linux-only.
    pub fn bind(local: NodeId, roster: Roster) -> Result<Self, TransportError> {
        let addr = roster
            .addr(local)
            .ok_or(TransportError::UnknownPeer(local))?;
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let poll = Poll::new()?;
        poll.register(
            listener.as_raw_fd(),
            Token(TOKEN_LISTENER),
            Interest::READABLE,
        )?;
        let timer_fd = match TimerFd::new() {
            Ok(t) => {
                poll.register(t.as_raw_fd(), Token(TOKEN_TIMERFD), Interest::READABLE)?;
                Some(t)
            }
            // Without a timerfd the loop still works, at millisecond
            // deadline resolution from the epoll timeout alone.
            Err(_) => None,
        };
        let policy = roster.policy;
        let hello = encode_frame(&Frame::Hello { node: local });
        Ok(EventedTransport {
            local,
            roster,
            policy,
            epoch: Instant::now(),
            poll,
            io_events: Some(Events::with_capacity(EVENTS_CAPACITY)),
            timer_fd,
            listener,
            slots: Vec::new(),
            free_slots: Vec::new(),
            deferred_free: Vec::new(),
            peers: HashMap::new(),
            dirty: Vec::new(),
            inbox: VecDeque::new(),
            protocol_timers: Timers::new(),
            reconnect_timers: Timers::new(),
            pool: BufferPool::new(),
            scratch: vec![0; SCRATCH_LEN],
            hello,
            telemetry: None,
        })
    }

    /// Attach runtime telemetry. Call before the first `send`: per-peer
    /// instruments are resolved when a peer record is created.
    pub fn set_telemetry(&mut self, telemetry: TcpTelemetry) {
        self.telemetry = Some(telemetry);
    }

    /// Replace the retry/backoff/shed policy. Call before the first
    /// `send`: peers created earlier keep the policy they started with.
    pub fn set_policy(&mut self, policy: PolicyConfig) {
        self.policy = policy;
    }

    /// The policy new peers are created with.
    pub fn policy(&self) -> &PolicyConfig {
        &self.policy
    }

    /// The node this transport is bound as.
    pub fn local(&self) -> NodeId {
        self.local
    }

    /// The roster this transport routes with.
    pub fn roster(&self) -> &Roster {
        &self.roster
    }

    fn alloc_slot(&mut self, slot: Slot) -> usize {
        match self.free_slots.pop() {
            Some(i) => {
                self.slots[i] = Some(slot);
                i
            }
            None => {
                self.slots.push(Some(slot));
                self.slots.len() - 1
            }
        }
    }

    fn release_slot(&mut self, i: usize) {
        self.slots[i] = None;
        self.deferred_free.push(i);
    }

    /// The peer record for `to`, created (with its instruments and a
    /// fresh breaker) on first use.
    fn ensure_peer(&mut self, to: NodeId) -> Result<(), TransportError> {
        if self.peers.contains_key(&to) {
            return Ok(());
        }
        let addr_str = self
            .roster
            .addr(to)
            .ok_or(TransportError::UnknownPeer(to))?;
        let addr = addr_str
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "unresolvable address"))?;
        let telemetry = self.telemetry.as_ref().map(|t| t.writer(to));
        self.peers.insert(
            to,
            OutboundPeer {
                addr,
                state: OutState::Idle,
                queue: VecDeque::new(),
                head_offset: 0,
                hello_pending: false,
                hello_offset: 0,
                attempt: 0,
                breaker: self.policy.breaker(),
                write_failed: false,
                telemetry,
            },
        );
        Ok(())
    }

    fn mark_dirty(&mut self, to: NodeId) {
        if !self.dirty.contains(&to) {
            self.dirty.push(to);
        }
    }

    /// Drop expired queue-head frames (never a partially-written head:
    /// its bytes are already on the wire).
    fn expire_due(&mut self, id: NodeId, now: u64) {
        let Some(p) = self.peers.get_mut(&id) else {
            return;
        };
        while p.head_offset == 0 {
            let Some(entry) = pop_front_if(&mut p.queue, |head| head.deadline_us <= now) else {
                break;
            };
            self.pool.put(entry.bytes);
            if let Some(t) = &p.telemetry {
                t.queue_depth.sub(1);
                t.frames_dropped.inc();
                if p.write_failed {
                    t.frames_dropped_reconnect.inc();
                }
            }
            p.write_failed = false;
        }
    }

    /// Fail every queued frame fast (breaker open): the whole backlog
    /// is dropped and counted in one sweep rather than each frame
    /// burning its deadline behind a dead peer.
    fn fail_fast_all(&mut self, id: NodeId) {
        let Some(p) = self.peers.get_mut(&id) else {
            return;
        };
        let reconnect_head = p.head_offset > 0 || p.write_failed;
        p.head_offset = 0;
        p.write_failed = false;
        let mut first = true;
        while let Some(entry) = p.queue.pop_front() {
            self.pool.put(entry.bytes);
            if let Some(t) = &p.telemetry {
                t.queue_depth.sub(1);
                t.frames_dropped.inc();
                if first && reconnect_head {
                    t.frames_dropped_reconnect.inc();
                }
            }
            first = false;
        }
    }

    /// Start the connect machinery for `id` if it is idle.
    fn ensure_connecting(&mut self, id: NodeId, now: u64) {
        let (addr, breaker_ok) = {
            let Some(p) = self.peers.get_mut(&id) else {
                return;
            };
            if !matches!(p.state, OutState::Idle) {
                return;
            }
            (p.addr, p.breaker.check(now))
        };
        if !breaker_ok {
            // Fail fast while open, probe again after the cooldown.
            self.fail_fast_all(id);
            let cooldown = self.policy.breaker_cooldown_us.max(1);
            if let Some(p) = self.peers.get_mut(&id) {
                p.state = OutState::Backoff;
            }
            self.reconnect_timers
                .arm(id.0, now.saturating_add(cooldown));
            return;
        }
        match net::connect_nonblocking(addr) {
            Ok((stream, immediate)) => {
                let _ = stream.set_nodelay(true);
                let fd = stream.as_raw_fd();
                let slot = self.alloc_slot(Slot::Outbound(id));
                if self
                    .poll
                    .register(
                        fd,
                        Token(TOKEN_CONN_BASE + slot as u64),
                        Interest::WRITABLE.edge(),
                    )
                    .is_err()
                {
                    self.release_slot(slot);
                    self.connect_failure(id, now);
                    return;
                }
                if let Some(p) = self.peers.get_mut(&id) {
                    p.state = OutState::Connecting { stream, slot };
                }
                if immediate {
                    self.connect_complete(id, now);
                }
            }
            Err(_) => self.connect_failure(id, now),
        }
    }

    /// An in-flight connect resolved (writability on a `Connecting`
    /// socket): read `SO_ERROR` for the outcome.
    fn connect_complete(&mut self, id: NodeId, now: u64) {
        let Some(p) = self.peers.get_mut(&id) else {
            return;
        };
        let (stream, slot) = match std::mem::replace(&mut p.state, OutState::Idle) {
            OutState::Connecting { stream, slot } => (stream, slot),
            other => {
                p.state = other;
                return;
            }
        };
        if !matches!(net::take_socket_error(&stream), Ok(None)) {
            p.state = OutState::Connecting { stream, slot };
            self.teardown_conn(id);
            self.connect_failure(id, now);
            return;
        }
        p.state = OutState::Connected {
            stream,
            slot,
            blocked: false,
        };
        p.hello_pending = true;
        p.hello_offset = 0;
        p.attempt = 0;
        let recovered = p.breaker.record_success();
        if let Some(t) = &p.telemetry {
            t.connects.inc();
            if recovered {
                t.breaker_recoveries.inc();
            }
        }
        self.flush_peer(id, now);
    }

    /// Deregister and drop the peer's current socket (state → `Idle`).
    fn teardown_conn(&mut self, id: NodeId) {
        let freed = {
            let Some(p) = self.peers.get_mut(&id) else {
                return;
            };
            match std::mem::replace(&mut p.state, OutState::Idle) {
                OutState::Connecting { stream, slot }
                | OutState::Connected { stream, slot, .. } => {
                    let _ = self.poll.deregister(stream.as_raw_fd());
                    Some(slot)
                }
                other => {
                    p.state = other;
                    None
                }
            }
        };
        if let Some(slot) = freed {
            self.release_slot(slot);
        }
    }

    /// A connect attempt failed: record it, back off, arm the retry.
    fn connect_failure(&mut self, id: NodeId, now: u64) {
        let backoff = self.policy.reconnect();
        let Some(p) = self.peers.get_mut(&id) else {
            return;
        };
        p.attempt += 1;
        let tripped = p.breaker.record_failure(now);
        if let Some(t) = &p.telemetry {
            t.connect_failures.inc();
            if tripped {
                t.breaker_trips.inc();
            }
        }
        let delay = backoff.delay_us(p.attempt, id.0 as u64).max(1);
        p.state = OutState::Backoff;
        self.reconnect_timers.arm(id.0, now.saturating_add(delay));
    }

    /// A live connection died (write error): mark the in-flight frame
    /// for resend-or-count and fall into the reconnect path.
    fn write_failure(&mut self, id: NodeId, now: u64) {
        self.teardown_conn(id);
        if let Some(p) = self.peers.get_mut(&id) {
            // The whole head frame is resent on the next connection
            // while its deadline allows, and counted as a reconnect
            // loss when it does not (requeue-or-count).
            if p.head_offset > 0 {
                p.head_offset = 0;
                p.write_failed = true;
            }
        }
        self.connect_failure(id, now);
    }

    /// Fire due reconnect timers: expire what the backoff outlived,
    /// then retry the connect if anything is still worth sending.
    fn process_reconnects(&mut self, now: u64) {
        while let Some(peer_bits) = self.reconnect_timers.pop_due(now) {
            let id = NodeId(peer_bits);
            let Some(p) = self.peers.get_mut(&id) else {
                continue;
            };
            if matches!(p.state, OutState::Backoff) {
                p.state = OutState::Idle;
            }
            self.expire_due(id, now);
            if self.peers.get(&id).is_some_and(|p| !p.queue.is_empty()) {
                self.ensure_connecting(id, now);
            }
        }
    }

    /// Write as much of the peer's backlog as the kernel will take,
    /// batching up to [`MAX_BATCH`] frames per `writev`.
    fn flush_peer(&mut self, id: NodeId, now: u64) {
        self.expire_due(id, now);
        let need_connect = match self.peers.get(&id) {
            None => return,
            Some(p) => match &p.state {
                OutState::Idle => {
                    if p.queue.is_empty() {
                        return;
                    }
                    true
                }
                OutState::Connected { blocked, .. } => {
                    if *blocked {
                        return;
                    }
                    false
                }
                // Connecting / Backoff: the readiness event or the
                // reconnect timer resumes us.
                _ => return,
            },
        };
        if need_connect {
            self.ensure_connecting(id, now);
            return;
        }
        let failed = {
            let Self {
                peers, pool, hello, ..
            } = &mut *self;
            let Some(p) = peers.get_mut(&id) else { return };
            let OutState::Connected {
                stream, blocked, ..
            } = &mut p.state
            else {
                return;
            };
            let mut failed = false;
            loop {
                // A stack array, not a `Vec`: the flush path must not
                // touch the allocator.
                let mut slices = [IoSlice::new(&[]); MAX_BATCH + 1];
                let mut filled = 0;
                if p.hello_pending {
                    slices[0] = IoSlice::new(&hello[p.hello_offset..]);
                    filled = 1;
                }
                for (i, e) in p.queue.iter().take(MAX_BATCH).enumerate() {
                    let start = if i == 0 { p.head_offset } else { 0 };
                    slices[filled] = IoSlice::new(&e.bytes[start..]);
                    filled += 1;
                }
                if filled == 0 {
                    break;
                }
                match stream.write_vectored(&slices[..filled]) {
                    Ok(0) => {
                        failed = true;
                        break;
                    }
                    Ok(mut n) => {
                        if p.hello_pending {
                            let rest = hello.len() - p.hello_offset;
                            if n >= rest {
                                p.hello_pending = false;
                                p.hello_offset = 0;
                                n -= rest;
                            } else {
                                p.hello_offset += n;
                                continue;
                            }
                        }
                        while n > 0 {
                            let offset = p.head_offset;
                            let Some(e) =
                                pop_front_if(&mut p.queue, |e| n >= e.bytes.len() - offset)
                            else {
                                // The head is written only in part.
                                if !p.queue.is_empty() {
                                    p.head_offset += n;
                                }
                                break;
                            };
                            n -= e.bytes.len() - offset;
                            pool.put(e.bytes);
                            if let Some(t) = &p.telemetry {
                                t.queue_depth.sub(1);
                            }
                            p.head_offset = 0;
                            p.write_failed = false;
                        }
                        if p.queue.is_empty() && !p.hello_pending {
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        *blocked = true;
                        break;
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        failed = true;
                        break;
                    }
                }
            }
            failed
        };
        if failed {
            self.write_failure(id, now);
        }
    }

    /// Accept-ready: drain the listener.
    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let _ = stream.set_nonblocking(true);
                    let _ = stream.set_nodelay(true);
                    let fd = stream.as_raw_fd();
                    let slot = self.alloc_slot(Slot::Inbound(InboundConn {
                        stream,
                        reader: FrameReader::new(),
                        peer: None,
                    }));
                    if self
                        .poll
                        .register(
                            fd,
                            Token(TOKEN_CONN_BASE + slot as u64),
                            Interest::READABLE.edge(),
                        )
                        .is_err()
                    {
                        self.release_slot(slot);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if is_transient_accept_error(&e) => {}
                Err(_) => {
                    // A broken listener: count it; the level-triggered
                    // registration retries on the next poll rather than
                    // spinning here.
                    if let Some(t) = &self.telemetry {
                        t.accept_errors.inc();
                    }
                    return;
                }
            }
        }
    }

    /// Read-ready on an inbound connection: drain to `WouldBlock`,
    /// pushing decoded frames into the inbox.
    fn read_ready(&mut self, slot: usize) {
        let close = loop {
            let Some(Slot::Inbound(conn)) = self.slots.get_mut(slot).and_then(|s| s.as_mut())
            else {
                return;
            };
            match conn.stream.read(&mut self.scratch) {
                Ok(0) => break true, // peer closed
                Ok(n) => {
                    conn.reader.extend(&self.scratch[..n]);
                    loop {
                        match conn.reader.next_frame() {
                            Ok(Some(Frame::Hello { node })) => conn.peer = Some(node),
                            Ok(Some(frame)) => {
                                // Frames before the Hello are
                                // unattributable: drop the connection,
                                // the peer reconnects.
                                let Some(from) = conn.peer else {
                                    self.close_inbound(slot);
                                    return;
                                };
                                self.inbox.push_back((from, frame));
                            }
                            Ok(None) => break,
                            Err(_) => {
                                // Garbage on the wire.
                                self.close_inbound(slot);
                                return;
                            }
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break false,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => break true,
            }
        };
        if close {
            self.close_inbound(slot);
        }
    }

    fn close_inbound(&mut self, slot: usize) {
        if let Some(Some(Slot::Inbound(conn))) = self.slots.get(slot) {
            let _ = self.poll.deregister(conn.stream.as_raw_fd());
            self.release_slot(slot);
        }
    }

    /// One epoll sweep: wait up to `timeout`, then dispatch readiness.
    fn poll_io(&mut self, timeout: Duration) {
        // `io_events` is `None` only while this function runs (the
        // handlers below need `&mut self`); should that ever not hold, a
        // fresh buffer stands in rather than the loop dying.
        debug_assert!(self.io_events.is_some(), "poll_io is never re-entered");
        let mut events = self
            .io_events
            .take()
            .unwrap_or_else(|| Events::with_capacity(EVENTS_CAPACITY));
        if self.poll.poll(&mut events, Some(timeout)).is_ok() {
            let now = self.now_us();
            for ev in events.iter() {
                match ev.token().0 {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_TIMERFD => {
                        if let Some(t) = &self.timer_fd {
                            t.drain();
                        }
                    }
                    token => {
                        let slot = (token - TOKEN_CONN_BASE) as usize;
                        match self.slots.get(slot).and_then(|s| s.as_ref()) {
                            Some(Slot::Inbound(_)) => self.read_ready(slot),
                            Some(Slot::Outbound(id)) => {
                                let id = *id;
                                self.advance_outbound(id, now);
                            }
                            None => {} // stale event for a freed slot
                        }
                    }
                }
            }
        }
        self.io_events = Some(events);
        self.free_slots.append(&mut self.deferred_free);
    }

    /// Readiness on an outbound socket: resolve a pending connect or
    /// resume a blocked flush.
    fn advance_outbound(&mut self, id: NodeId, now: u64) {
        let action = match self.peers.get_mut(&id) {
            Some(p) => match &mut p.state {
                OutState::Connecting { .. } => OutboundAction::ResolveConnect,
                OutState::Connected { blocked, .. } => {
                    *blocked = false;
                    OutboundAction::ResumeFlush
                }
                _ => OutboundAction::Nothing,
            },
            None => OutboundAction::Nothing,
        };
        match action {
            OutboundAction::ResolveConnect => self.connect_complete(id, now),
            OutboundAction::ResumeFlush => self.flush_peer(id, now),
            OutboundAction::Nothing => {}
        }
    }

    fn fire_due_protocol_timer(&mut self, now: u64) -> Option<TransportEvent> {
        let (owner_bits, token) = self.protocol_timers.pop_due(now)?;
        if let Some(t) = &self.telemetry {
            t.timer_fires.inc();
        }
        Some(TransportEvent::Timer {
            owner: NodeId(owner_bits),
            token,
        })
    }
}

/// The queue's head, if it satisfies `pred`, taken off the queue.
fn pop_front_if<T>(queue: &mut VecDeque<T>, pred: impl FnOnce(&T) -> bool) -> Option<T> {
    if queue.front().is_some_and(pred) {
        queue.pop_front()
    } else {
        None
    }
}

/// Accept errors that name a doomed in-flight connection rather than a
/// broken listener; skipping that connection is the correct response.
fn is_transient_accept_error(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::ConnectionAborted
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::Interrupted
    )
}

impl Transport for EventedTransport {
    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    fn send(&mut self, from: NodeId, to: NodeId, frame: Frame) -> Result<(), TransportError> {
        let prio = Priority::of(&frame);
        self.send_prioritized(from, to, frame, prio)
    }

    fn send_prioritized(
        &mut self,
        _from: NodeId,
        to: NodeId,
        frame: Frame,
        prio: Priority,
    ) -> Result<(), TransportError> {
        let now = self.now_us();
        let deadline_us = now.saturating_add(self.policy.frame_deadline_us);
        self.ensure_peer(to)?;
        let mut bytes = self.pool.get();
        encode_frame_into(&frame, &mut bytes);
        let capacity = self.policy.queue_capacity;
        let Some(p) = self.peers.get_mut(&to) else {
            // `ensure_peer` just added it; a typed error all the same.
            self.pool.put(bytes);
            return Err(TransportError::UnknownPeer(to));
        };
        let entry = OutEntry {
            prio,
            bytes,
            deadline_us,
        };
        // Overflow sheds the first queued frame of the lowest class ≤
        // the incoming one, or rejects the newcomer when nothing lesser
        // is queued.
        enum Outcome {
            Queued,
            QueuedShed(Priority, Vec<u8>),
            Rejected(Priority, Vec<u8>),
        }
        let outcome = if capacity == 0 || p.queue.len() < capacity {
            p.queue.push_back(entry);
            Outcome::Queued
        } else {
            let protected = usize::from(p.head_offset > 0);
            let victim = (0..entry.prio as u8 + 1)
                .filter_map(|class| {
                    p.queue
                        .iter()
                        .enumerate()
                        // Never shed a partially-written head frame.
                        .skip(protected)
                        .find(|(_, e)| e.prio as u8 == class)
                        .map(|(i, _)| i)
                })
                .next();
            match victim.and_then(|pos| p.queue.remove(pos)) {
                Some(shed) => {
                    p.queue.push_back(entry);
                    Outcome::QueuedShed(shed.prio, shed.bytes)
                }
                None => Outcome::Rejected(entry.prio, entry.bytes),
            }
        };
        match outcome {
            Outcome::Queued => {
                if let Some(wt) = &p.telemetry {
                    wt.queue_depth.add(1);
                }
                if let Some(t) = &self.telemetry {
                    t.frames_enqueued.inc();
                }
            }
            Outcome::QueuedShed(class, buf) => {
                // One in, one out: depth unchanged, the shed victim is
                // loss the protocol recovers from.
                if let Some(wt) = &p.telemetry {
                    wt.shed(class).inc();
                    wt.frames_dropped.inc();
                }
                if let Some(t) = &self.telemetry {
                    t.frames_enqueued.inc();
                }
                self.pool.put(buf);
            }
            Outcome::Rejected(class, buf) => {
                if let Some(wt) = &p.telemetry {
                    wt.shed(class).inc();
                    wt.frames_dropped.inc();
                }
                self.pool.put(buf);
            }
        }
        self.mark_dirty(to);
        Ok(())
    }

    fn set_timer(&mut self, owner: NodeId, token: u64, after_us: u64) {
        let deadline = self.now_us().saturating_add(after_us);
        self.protocol_timers.arm((owner.0, token), deadline);
    }

    fn cancel_timer(&mut self, owner: NodeId, token: u64) {
        self.protocol_timers.cancel((owner.0, token));
    }

    fn poll(&mut self, wait_us: u64) -> Option<TransportEvent> {
        let end = self.now_us().saturating_add(wait_us);
        let mut exhausted_sweep_done = false;
        loop {
            let now = self.now_us();
            if let Some(ev) = self.fire_due_protocol_timer(now) {
                return Some(ev);
            }
            if let Some((from, frame)) = self.inbox.pop_front() {
                return Some(TransportEvent::Frame {
                    to: self.local,
                    from,
                    frame,
                });
            }
            self.process_reconnects(now);
            // Flushing never marks a peer dirty, so the drained buffer
            // goes back and the list keeps its capacity.
            let mut dirty = std::mem::take(&mut self.dirty);
            for id in dirty.drain(..) {
                self.flush_peer(id, now);
            }
            self.dirty = dirty;
            let now = self.now_us();
            let wake = end
                .min(self.protocol_timers.next_deadline().unwrap_or(u64::MAX))
                .min(self.reconnect_timers.next_deadline().unwrap_or(u64::MAX));
            let timeout = if wake <= now {
                // Budget exhausted: one non-blocking sweep, then report
                // whatever surfaced.
                if exhausted_sweep_done {
                    return None;
                }
                exhausted_sweep_done = true;
                Duration::ZERO
            } else {
                let until = wake - now;
                if let Some(t) = &self.timer_fd {
                    // The timerfd turns the µs deadline into a precise
                    // wakeup; the (ms-rounded) epoll timeout is just a
                    // backstop.
                    let _ = t.arm_in_us(until);
                }
                Duration::from_micros(until)
            };
            self.poll_io(timeout);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anon_core::wire::Wire;
    use anon_core::StreamId;

    /// Node 0 bound on loopback; node 1 at a port nobody listens on.
    fn bound_next_to_a_closed_port(policy: PolicyConfig) -> EventedTransport {
        let listeners: Vec<TcpListener> = (0..2)
            .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
            .collect();
        let mut roster = Roster::new(1);
        for (id, l) in listeners.iter().enumerate() {
            roster.insert(NodeId(id as u32), l.local_addr().unwrap().to_string());
        }
        drop(listeners);
        let mut t = EventedTransport::bind(NodeId(0), roster).unwrap();
        t.set_policy(policy);
        // Let the transport clock leave zero, so a sum with u64::MAX overflows.
        while t.now_us() == 0 {
            std::thread::sleep(Duration::from_micros(50));
        }
        t
    }

    /// Send to node 1 and poll until `done` holds of its peer record.
    fn send_until(t: &mut EventedTransport, done: impl Fn(&OutboundPeer) -> bool) {
        let frame = Frame::Stream {
            sid: StreamId(7),
            wire: Wire::Payload { blob: vec![1; 16] },
        };
        t.send(NodeId(0), NodeId(1), frame).unwrap();
        let give_up = t.now_us() + 5_000_000;
        while !t.peers.get(&NodeId(1)).is_some_and(&done) {
            assert!(t.now_us() < give_up, "the connect never failed");
            t.poll(1_000);
        }
    }

    #[test]
    fn a_huge_protocol_timer_saturates() {
        let mut t = bound_next_to_a_closed_port(PolicyConfig::default());
        t.set_timer(NodeId(0), 1, u64::MAX);
        assert_eq!(t.protocol_timers.next_deadline(), Some(u64::MAX));
        assert!(t.poll(1_000).is_none());
    }

    #[test]
    fn a_huge_reconnect_backoff_saturates() {
        let policy = PolicyConfig {
            reconnect_base_us: u64::MAX,
            reconnect_max_us: u64::MAX,
            reconnect_jitter: 0.0,
            breaker_threshold: 0,
            ..PolicyConfig::default()
        };
        let mut t = bound_next_to_a_closed_port(policy);
        send_until(&mut t, |p| p.attempt >= 1);
        assert_eq!(t.reconnect_timers.next_deadline(), Some(u64::MAX));
    }

    #[test]
    fn a_huge_breaker_cooldown_saturates() {
        // The first failure trips the breaker and retries 1 µs later;
        // the retry finds it open and waits out the cooldown.
        let policy = PolicyConfig {
            reconnect_base_us: 1,
            reconnect_max_us: 1,
            reconnect_jitter: 0.0,
            breaker_threshold: 1,
            breaker_cooldown_us: u64::MAX,
            ..PolicyConfig::default()
        };
        let mut t = bound_next_to_a_closed_port(policy);
        send_until(&mut t, |p| p.attempt >= 1 && p.queue.is_empty());
        let peer = &t.peers[&NodeId(1)];
        assert_eq!(peer.breaker.state(), crate::policy::BreakerState::Open);
        assert_eq!(t.reconnect_timers.next_deadline(), Some(u64::MAX));
    }
}
