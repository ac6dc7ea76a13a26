//! Allocation-count gate for the sans-io frame path: `ProtocolNode`s
//! over `Runtime<SimTransport>`, the stack every `chain_*` benchmark
//! workload and the live node run.
//!
//! A frame-hop there is allocation-free once warm: `Runtime` drains one
//! output buffer it keeps; `SimTransport` encodes each frame into a
//! pooled buffer, pools the sent frame's blob, and queues typed events
//! (no boxed closure, no `Rc` per timer); the initiator builds each
//! onion in a pooled buffer sized once for all of its layers and pools
//! every ack it opens; the responder decodes the segment that completes
//! a message where it lies and writes its ack into the same buffer.
//! What still allocates is per *message*, not per hop:
//!
//! * `Codec::encode`'s `Vec<Segment>` and one buffer per segment (the
//!   trait returns owned segments);
//! * `Initiator::send_message`'s `Vec<Outgoing>`, and the ledger
//!   record's segment list and the payload it retains for `resend`;
//! * at the responder, the decoded body `Event::Completed` hands out
//!   and, for `m > 1`, a copy of each of the first `m - 1` segments and
//!   the list holding them until the `m`-th arrives.
//!
//! That is 6 per `(1, 1)` message and 11 per `(2, 4)` message over four
//! paths. The `(2, 4)` shape adds about 0.2 allocations and 0.9
//! reallocations a message that are not per-message costs: the calendar
//! queue rebuilding its buckets as the pending count swings (a thousand
//! events — each message's four cancelled ack timers wait out their
//! second — on the 20 ms lattice the uniform links put them on), and
//! the initiator's pool, which keeps at most `BufferPool::MAX_IDLE`
//! buffers, dropping some when 128 acks land at one instant, so that
//! the next burst of onions takes fresh buffers. Amortised growth of
//! the maps that remember every message id (the ledger and the
//! responder's delivered set, swept only after the state TTL) adds a
//! few hundredths.
//!
//! The counts are taken after a 256-message warm-up, over the next
//! 1 024 messages of a 32-deep closed loop, clearing every node's event
//! logs (capacity kept) after each dispatched event as a long-running
//! embedder does. The counter is process-global, so the two cases run
//! one at a time, and the bounds leave room for a stray allocation of
//! the harness and nothing more.

use anon_core::MessageId;
use erasure::ErasureCodec;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sim_crypto::KeyPair;
use simnet::{ChurnSchedule, LatencyMatrix, NodeId, SimDuration, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use transport::{PolicyConfig, ProtocolNode, Runtime, SimTransport};

/// System allocator with allocation and reallocation counters.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static REALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// `(allocations, reallocations)` so far.
fn counts() -> (u64, u64) {
    (
        ALLOCATIONS.load(Ordering::Relaxed),
        REALLOCATIONS.load(Ordering::Relaxed),
    )
}

const INITIATOR: NodeId = NodeId(0);
const PAYLOAD_BYTES: usize = 64;
const IN_FLIGHT: usize = 32;
const WARM_UP: u64 = 256;
const MEASURED: u64 = 1_024;

/// A chain in `chain_small`'s shape: `paths` disjoint paths of
/// `relays` relays each to one auto-acking responder, every path
/// established. Returns the runtime and the responder's id.
fn chain(paths: usize, relays: usize, (m, n): (usize, usize)) -> (Runtime<SimTransport>, NodeId) {
    let count = 2 + paths * relays;
    let responder = NodeId((count - 1) as u32);
    let mut rt = Runtime::new(SimTransport::new(
        ChurnSchedule::always_up(count, SimTime::from_secs(1 << 22)),
        LatencyMatrix::uniform(count, SimDuration::from_millis(20)),
    ));
    let codec = || Box::new(ErasureCodec::new(m, n).expect("valid (m, n)"));
    let mut keyrng = StdRng::seed_from_u64(1);
    let mut keys = Vec::new();
    for i in 0..count {
        let id = NodeId(i as u32);
        let keypair = KeyPair::generate(&mut keyrng);
        keys.push(keypair.public);
        let mut node = ProtocolNode::new(id, keypair, i as u64)
            .with_state_ttl(SimDuration::from_secs(1 << 20));
        if id == INITIATOR {
            node = node
                .with_codec(codec())
                .with_policy(&PolicyConfig::default());
        } else if id == responder {
            node = node.with_auto_ack().with_codec(codec());
        }
        rt.add_node(node);
    }
    let hop_lists: Vec<Vec<_>> = (0..paths)
        .map(|p| {
            (0..relays)
                .map(|h| 1 + p * relays + h)
                .chain([count - 1])
                .map(|i| (NodeId(i as u32), keys[i]))
                .collect()
        })
        .collect();
    rt.drive(INITIATOR, |node, out| node.construct_paths(&hop_lists, out));
    rt.run_until_idle(0);
    assert_eq!(rt.node(INITIATOR).established_paths(), paths);
    (rt, responder)
}

/// Messages `first..first + count` through a closed loop `IN_FLIGHT`
/// deep; returns how many the responder reassembled.
fn run(rt: &mut Runtime<SimTransport>, nodes: usize, first: u64, count: u64) -> u64 {
    let mut in_flight: Vec<u64> = Vec::with_capacity(IN_FLIGHT);
    let mut body = [0u8; PAYLOAD_BYTES];
    let (mut launched, mut done, mut reassembled) = (0, 0, 0);
    while done < count {
        while in_flight.len() < IN_FLIGHT && launched < count {
            let mid = first + launched;
            body.fill(mid as u8);
            rt.drive(INITIATOR, |node, out| {
                node.send_message(MessageId(mid), &body, out)
            })
            .expect("paths are established");
            in_flight.push(mid);
            launched += 1;
        }
        assert!(rt.poll_once(0), "idle with messages in flight");
        let node = rt.node_mut(INITIATOR);
        for &(mid, _, _) in &node.events.acks {
            if node.message_complete(mid) {
                if let Some(at) = in_flight.iter().position(|&m| m == mid.0) {
                    in_flight.swap_remove(at);
                    done += 1;
                }
            }
        }
        for id in 0..nodes {
            let events = &mut rt.node_mut(NodeId(id as u32)).events;
            reassembled += events.completed.len() as u64;
            events.clear_logs();
        }
    }
    reassembled
}

/// Held while a case counts: the counters are process-global.
static COUNTING: Mutex<()> = Mutex::new(());

/// Per-message `(allocations, reallocations)` over `MEASURED` messages
/// after `WARM_UP`.
fn per_message(paths: usize, relays: usize, codec: (usize, usize)) -> (f64, f64) {
    let _serial = COUNTING
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let (mut rt, _) = chain(paths, relays, codec);
    let nodes = 2 + paths * relays;
    assert_eq!(run(&mut rt, nodes, 1, WARM_UP), WARM_UP);
    let before = counts();
    let reassembled = run(&mut rt, nodes, 1 + WARM_UP, MEASURED);
    let after = counts();
    assert_eq!(reassembled, MEASURED);
    assert_eq!(rt.transport.lost(), 0);
    let per = |a: u64, b: u64| (a - b) as f64 / MEASURED as f64;
    (per(after.0, before.0), per(after.1, before.1))
}

#[test]
fn a_warm_chain_small_message_allocates_per_message_not_per_hop() {
    let (allocs, reallocs) = per_message(1, 3, (1, 1));
    eprintln!("(1,1) x 1 path: {allocs:.2} allocations + {reallocs:.2} reallocations per message");
    assert!(allocs <= 6.1, "{allocs:.2} allocations per message");
    assert!(reallocs <= 0.1, "{reallocs:.2} reallocations per message");
}

#[test]
fn a_warm_coded_message_allocates_per_message_not_per_hop() {
    let (allocs, reallocs) = per_message(4, 3, (2, 4));
    eprintln!("(2,4) x 4 paths: {allocs:.2} allocations + {reallocs:.2} reallocations per message");
    assert!(allocs <= 11.5, "{allocs:.2} allocations per message");
    assert!(reallocs <= 1.0, "{reallocs:.2} reallocations per message");
}
