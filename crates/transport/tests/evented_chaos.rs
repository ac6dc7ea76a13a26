//! Chaos compatibility pin for the live backend.
//!
//! `ChaosTransport` is generic over [`transport::Transport`], so it
//! must wrap the event loop as it wraps the simulated transport: an
//! empty plan ([`ChaosPlan::none`]) is inert by construction — every
//! frame and timer passes through untouched and no fault statistic
//! moves. This mirrors the `empty_plan_delegates_without_counting` unit
//! pin, but over real sockets and the real event loop.

use anon_core::wire::{Frame, Wire};
use anon_core::StreamId;
use simnet::NodeId;
use std::net::TcpListener;
use transport::{
    ChaosPlan, ChaosStats, ChaosTransport, EventedTransport, Roster, Transport, TransportEvent,
};

fn payload(b: u8) -> Frame {
    Frame::Stream {
        sid: StreamId(7),
        wire: Wire::Payload { blob: vec![b; 64] },
    }
}

#[test]
fn chaos_wrapped_evented_transport_with_empty_plan_is_inert() {
    let listeners: Vec<TcpListener> = (0..2)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("reserve port"))
        .collect();
    let mut roster = Roster::new(42);
    for (id, l) in listeners.iter().enumerate() {
        roster.insert(NodeId(id as u32), l.local_addr().unwrap().to_string());
    }
    drop(listeners);

    let sender = EventedTransport::bind(NodeId(0), roster.clone()).expect("bind 0");
    let mut sender = ChaosTransport::new(sender, ChaosPlan::none());
    let mut receiver = EventedTransport::bind(NodeId(1), roster).expect("bind 1");

    const FRAMES: u8 = 20;
    for i in 0..FRAMES {
        sender.send(NodeId(0), NodeId(1), payload(i)).unwrap();
    }
    // A timer armed through the wrapper must come back out of it.
    sender.set_timer(NodeId(0), 99, 1_000);
    let deadline = sender.now_us() + 5_000_000;
    let mut timer_fired = false;
    while !timer_fired && sender.now_us() < deadline {
        match sender.poll(10_000) {
            Some(TransportEvent::Timer { owner, token }) => {
                assert_eq!((owner, token), (NodeId(0), 99));
                timer_fired = true;
            }
            Some(other) => panic!("unexpected event on sender: {other:?}"),
            None => {}
        }
    }
    assert!(
        timer_fired,
        "timer never surfaced through the chaos wrapper"
    );

    // Every frame arrives at the peer, in order, unmodified.
    let mut got = Vec::new();
    let deadline = receiver.now_us() + 5_000_000;
    while got.len() < FRAMES as usize && receiver.now_us() < deadline {
        if let Some(TransportEvent::Frame { to, from, frame }) = receiver.poll(10_000) {
            assert_eq!((to, from), (NodeId(1), NodeId(0)));
            got.push(frame);
        }
    }
    let want: Vec<Frame> = (0..FRAMES).map(payload).collect();
    assert_eq!(got, want, "frames lost or mutated by the inert plan");

    // The inert plan counted nothing and held nothing back.
    assert_eq!(sender.stats(), ChaosStats::default());
    assert_eq!(sender.held_frames(), 0);
}
