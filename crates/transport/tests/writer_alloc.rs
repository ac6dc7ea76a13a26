//! Allocation-count regression test for the live backend's send/flush
//! path, mirroring the onion pipeline's `alloc_regression` pin.
//!
//! [`EventedTransport::send`] encodes each frame into a pooled buffer
//! ([`anon_core::pool::BufferPool`] + `encode_frame_into`) and `poll`
//! flushes the queue with one `writev` over a stack array of slices, so
//! once the pool, the outbound queue and the dirty list are warm,
//! pushing pre-built frames through `send` and onto the wire must not
//! touch the allocator.
//!
//! The counter is process-global and the byte sink runs on its own
//! thread, so the test pre-builds every frame before the measured
//! windows and accepts the first clean window of three.

use anon_core::wire::{encode_frame, Frame, Wire};
use anon_core::StreamId;
use simnet::NodeId;
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Read;
use std::net::TcpListener;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};
use transport::{EventedTransport, Roster, Transport};

/// System allocator with a global allocation counter.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

fn payload(b: u8) -> Frame {
    Frame::Stream {
        sid: StreamId(3),
        wire: Wire::Payload { blob: vec![b; 512] },
    }
}

/// Drive the event loop (without allocating) until the receiver byte
/// count reaches `want` or `timeout` passes.
fn pump_until_received(
    transport: &mut EventedTransport,
    received: &AtomicU64,
    want: u64,
    timeout: Duration,
) {
    let deadline = Instant::now() + timeout;
    while received.load(Ordering::Relaxed) < want {
        assert!(
            Instant::now() < deadline,
            "receiver saw {} of {want} bytes",
            received.load(Ordering::Relaxed)
        );
        assert!(transport.poll(1_000).is_none(), "nothing sends to node 0");
    }
}

#[test]
fn send_and_flush_path_is_allocation_free() {
    // Raw byte-sink peer: accepts the transport's one connection and
    // counts bytes into a fixed stack buffer — no allocations after spawn.
    let sink = TcpListener::bind("127.0.0.1:0").expect("bind sink");
    let sink_addr = sink.local_addr().unwrap().to_string();
    let received = Arc::new(AtomicU64::new(0));
    let counter = received.clone();
    thread::spawn(move || {
        let (mut conn, _) = sink.accept().expect("accept transport");
        let mut buf = [0u8; 64 * 1024];
        loop {
            match conn.read(&mut buf) {
                Ok(0) | Err(_) => return,
                Ok(n) => {
                    counter.fetch_add(n as u64, Ordering::Relaxed);
                }
            }
        }
    });

    let local = TcpListener::bind("127.0.0.1:0").expect("reserve local port");
    let local_addr = local.local_addr().unwrap().to_string();
    drop(local);
    let mut roster = Roster::new(7);
    roster.insert(NodeId(0), local_addr);
    roster.insert(NodeId(1), sink_addr);
    let mut transport = EventedTransport::bind(NodeId(0), roster).expect("bind transport");

    let frame_len = encode_frame(&payload(0)).len() as u64;
    let hello_len = encode_frame(&Frame::Hello { node: NodeId(0) }).len() as u64;

    // Pre-build every frame up front: constructing a payload blob
    // allocates, and that cost belongs to the *caller*, not the transport.
    const WARMUP: u64 = 32;
    const WINDOWS: u64 = 3;
    const PER_WINDOW: u64 = 16;
    let mut frames: Vec<Frame> = (0..WARMUP + WINDOWS * PER_WINDOW)
        .map(|i| payload((i % 251) as u8))
        .collect();

    // Warm-up: first connect (+ Hello), queue growth, pool sizing.
    for _ in 0..WARMUP {
        transport
            .send(NodeId(0), NodeId(1), frames.pop().unwrap())
            .unwrap();
    }
    let mut expected = hello_len + WARMUP * frame_len;
    pump_until_received(&mut transport, &received, expected, Duration::from_secs(10));

    // Steady state: pooled encode → enqueue → writev must be silent.
    // The counter is process-global (the sink thread runs too), so a
    // window may be retried.
    let mut dirty_windows = Vec::new();
    for _ in 0..WINDOWS {
        let before = allocations();
        for _ in 0..PER_WINDOW {
            transport
                .send(NodeId(0), NodeId(1), frames.pop().unwrap())
                .unwrap();
        }
        expected += PER_WINDOW * frame_len;
        pump_until_received(&mut transport, &received, expected, Duration::from_secs(10));
        match allocations() - before {
            0 => return,
            n => dirty_windows.push(n),
        }
    }
    panic!("warmed-up send/flush path allocated in every window: {dirty_windows:?}");
}
