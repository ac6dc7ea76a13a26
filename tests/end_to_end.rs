//! Cross-crate integration tests: full protocol flows over the
//! message-level cluster with real cryptography, exercising every layer
//! (erasure ⊕ crypto ⊕ onion ⊕ relay ⊕ endpoint) together.

use p2p_anon::anon::cluster::{Cluster, RouteOutcome};
use p2p_anon::anon::endpoint::{Initiator, Responder};
use p2p_anon::anon::ids::MessageId;
use p2p_anon::coding::{Codec, ErasureCodec};
use p2p_anon::crypto::SymmetricKey;
use p2p_anon::{NodeId, SimDuration};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Session {
    net: Cluster,
    alice: Initiator,
    bob: Responder,
    alice_id: NodeId,
    bob_id: NodeId,
    terminal: Vec<(NodeId, p2p_anon::anon::ids::StreamId, SymmetricKey)>,
}

/// Build `k` disjoint L=3 paths from node 0 to the last node.
fn establish(n: usize, k: usize, seed: u64) -> Session {
    let mut net = Cluster::new(n, seed);
    let alice_id = NodeId(0);
    let bob_id = NodeId((n - 1) as u32);
    let mut alice = Initiator::new(alice_id);
    let bob = Responder::new(bob_id);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xabcd);

    let relay_sets: Vec<Vec<NodeId>> = (0..k)
        .map(|i| (0..3).map(|j| NodeId((1 + i * 3 + j) as u32)).collect())
        .collect();
    let hop_lists: Vec<_> = relay_sets.iter().map(|p| net.hops(p, bob_id)).collect();
    let cons = alice.construct_paths(&hop_lists, &mut rng);
    let mut terminal = Vec::new();
    for msg in &cons {
        match net.route_construction(alice_id, msg).unwrap() {
            RouteOutcome::ConstructionDone {
                from,
                sid,
                session_key,
                ..
            } => {
                alice.mark_established(msg.sid);
                terminal.push((from, sid, session_key));
            }
            other => panic!("construction failed: {other:?}"),
        }
    }
    Session {
        net,
        alice,
        bob,
        alice_id,
        bob_id,
        terminal,
    }
}

/// Push all outgoing segments; feed deliveries to the responder; return
/// the reconstructed message if any.
fn deliver(s: &mut Session, mid: MessageId, msg: &[u8], codec: &dyn Codec) -> Option<Vec<u8>> {
    let mut rng = StdRng::seed_from_u64(777);
    let out = s
        .alice
        .send_message(mid, msg, codec, None, &mut rng)
        .unwrap();
    let mut result = None;
    for m in &out {
        match s.net.route_payload(s.alice_id, m).unwrap() {
            RouteOutcome::Delivered {
                from,
                sid,
                mid,
                segment,
                ..
            } => {
                let key = s
                    .terminal
                    .iter()
                    .find(|(f, ss, _)| (*f, *ss) == (from, sid))
                    .map(|(_, _, k)| *k)
                    .unwrap();
                if let Some(got) = s
                    .bob
                    .accept_segment(from, sid, key, mid, segment, codec)
                    .unwrap()
                {
                    result = Some(got);
                }
            }
            RouteOutcome::Lost { .. } => {}
            other => panic!("unexpected outcome {other:?}"),
        }
    }
    result
}

#[test]
fn four_path_erasure_roundtrip() {
    let mut s = establish(20, 4, 1);
    // SimEra(k=4, r=2): m=2, n=4; any 2 segments reconstruct.
    let codec = ErasureCodec::new(2, 4).unwrap();
    let msg = vec![0x42u8; 1024];
    let got = deliver(&mut s, MessageId(1), &msg, &codec).expect("all paths up");
    assert_eq!(got, msg);
}

#[test]
fn tolerates_k_times_one_minus_one_over_r_failures() {
    // SimEra(k=4, r=4): m=1, tolerate 3 path failures.
    let mut s = establish(20, 4, 2);
    let codec = ErasureCodec::new(1, 4).unwrap();
    // Kill one relay on each of three different paths.
    s.net.set_down(NodeId(1), true); // path 0
    s.net.set_down(NodeId(5), true); // path 1
    s.net.set_down(NodeId(9), true); // path 2
    let msg = b"still gets through".to_vec();
    let got = deliver(&mut s, MessageId(2), &msg, &codec).expect("one path suffices");
    assert_eq!(got, msg);
}

#[test]
fn fails_beyond_tolerance() {
    // SimEra(k=4, r=2): m=2; killing 3 paths leaves only 1 < m segments.
    let mut s = establish(20, 4, 3);
    let codec = ErasureCodec::new(2, 4).unwrap();
    s.net.set_down(NodeId(1), true);
    s.net.set_down(NodeId(5), true);
    s.net.set_down(NodeId(9), true);
    let got = deliver(&mut s, MessageId(3), b"lost cause", &codec);
    assert!(got.is_none(), "2-of-4 code cannot survive 3 path failures");
}

#[test]
fn large_message_many_segments() {
    let mut s = establish(20, 4, 4);
    // 8 segments over 4 paths: 2 segments per path, round-robin.
    let codec = ErasureCodec::new(4, 8).unwrap();
    let msg: Vec<u8> = (0..u16::MAX as usize / 7)
        .map(|i| (i % 251) as u8)
        .collect();
    let got = deliver(&mut s, MessageId(4), &msg, &codec).expect("all up");
    assert_eq!(got, msg);
}

#[test]
fn reply_round_trip_over_all_paths() {
    let mut s = establish(20, 2, 5);
    let codec = ErasureCodec::new(1, 2).unwrap();
    let msg = b"ping".to_vec();
    deliver(&mut s, MessageId(6), &msg, &codec).expect("delivered");

    let mut rng = StdRng::seed_from_u64(6);
    let replies = s
        .bob
        .reply(MessageId(6), b"pong", &codec, &mut rng)
        .unwrap();
    let mut decoded = None;
    for r in &replies {
        match s
            .net
            .route_reverse(s.bob_id, r.to, r.sid, r.blob.clone(), s.alice_id)
            .unwrap()
        {
            RouteOutcome::ReachedInitiator { sid, blob } => {
                if let Some((_, reply)) = s.alice.handle_reply(sid, &blob, &codec).unwrap() {
                    decoded = Some(reply);
                }
            }
            other => panic!("unexpected: {other:?}"),
        }
    }
    assert_eq!(decoded.unwrap(), b"pong".to_vec());
}

#[test]
fn relay_state_expires_without_refresh() {
    let mut s = establish(8, 1, 7);
    let codec = ErasureCodec::new(1, 1).unwrap();
    assert!(deliver(&mut s, MessageId(7), b"before", &codec).is_some());

    // Exceed the default TTL with no traffic, then sweep relay 1.
    s.net.advance(SimDuration::from_secs(600));
    let now = s.net.now();
    let swept = s.net.relay_mut(NodeId(1)).sweep(now);
    assert_eq!(swept, 1, "the idle path entry must be reclaimed");

    // Sending now dies at the first relay with UnknownStream.
    let mut rng = StdRng::seed_from_u64(8);
    let out = s
        .alice
        .send_message(MessageId(8), b"after", &codec, None, &mut rng)
        .unwrap();
    let err = s.net.route_payload(s.alice_id, &out[0]).unwrap_err();
    assert_eq!(err, p2p_anon::anon::AnonError::UnknownStream);
}

#[test]
fn segments_are_unlinkable_sizes_and_ids() {
    // Segments of the same message over different paths share no stream
    // ids, and every onion at a given hop depth has identical length —
    // the traffic-analysis surface the §5 analysis assumes.
    let mut s = establish(20, 4, 9);
    let codec = ErasureCodec::new(2, 4).unwrap();
    let mut rng = StdRng::seed_from_u64(10);
    let out = s
        .alice
        .send_message(MessageId(11), &vec![0u8; 2048], &codec, None, &mut rng)
        .unwrap();
    let sids: std::collections::HashSet<_> = out.iter().map(|o| o.sid).collect();
    assert_eq!(sids.len(), 4, "each path has its own stream id");
    let lens: std::collections::HashSet<_> = out.iter().map(|o| o.blob.len()).collect();
    assert_eq!(lens.len(), 1, "equal-size onions across paths");
}

#[test]
fn deterministic_replay() {
    let run = |seed: u64| {
        let mut s = establish(20, 4, seed);
        let codec = ErasureCodec::new(2, 4).unwrap();
        deliver(&mut s, MessageId(12), b"replay me", &codec)
    };
    assert_eq!(run(42), run(42));
}
