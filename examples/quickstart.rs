//! Quickstart: send an erasure-coded anonymous message over two disjoint
//! onion paths through an in-memory network, survive the failure of one
//! entire path, and receive a reply.
//!
//! Run with: `cargo run --example quickstart`

use p2p_anon::anon::cluster::{Cluster, RouteOutcome};
use p2p_anon::anon::endpoint::{Initiator, Responder};
use p2p_anon::anon::ids::MessageId;
use p2p_anon::coding::ErasureCodec;
use p2p_anon::NodeId;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(2024);
    // A small network: node 0 initiates, node 15 responds, 1..=14 relay.
    let mut net = Cluster::new(16, 7);
    let initiator_id = NodeId(0);
    let responder_id = NodeId(15);
    let mut alice = Initiator::new(initiator_id);
    let mut bob = Responder::new(responder_id);

    // --- Path construction: k = 2 node-disjoint paths of L = 3 relays ---
    let relay_sets = [
        vec![NodeId(1), NodeId(2), NodeId(3)],
        vec![NodeId(4), NodeId(5), NodeId(6)],
    ];
    let hop_lists: Vec<_> = relay_sets
        .iter()
        .map(|p| net.hops(p, responder_id))
        .collect();
    let construction = alice.construct_paths(&hop_lists, &mut rng);
    println!("constructing {} disjoint paths:", construction.len());
    let mut reply_handles = Vec::new();
    for (i, msg) in construction.iter().enumerate() {
        match net
            .route_construction(initiator_id, msg)
            .expect("routing works")
        {
            RouteOutcome::ConstructionDone {
                at,
                from,
                sid,
                session_key,
            } => {
                println!("  path {i}: onion unwrapped hop-by-hop, terminated at {at}");
                alice.mark_established(msg.sid);
                reply_handles.push((from, sid, session_key));
            }
            other => panic!("construction failed: {other:?}"),
        }
    }

    // --- Send: erasure-code the message over both paths (m=1, n=2) ------
    // so either single path suffices for reconstruction.
    let codec = ErasureCodec::new(1, 2).unwrap();
    let mid = MessageId(1);
    let request = b"GET /secret-plans HTTP/1.0".to_vec();
    let outgoing = alice
        .send_message(mid, &request, &codec, None, &mut rng)
        .unwrap();

    // Fail path 1's middle relay before the segments fly.
    net.set_down(NodeId(5), true);
    println!("\nrelay n5 goes down — path 1 is broken");

    let mut got = None;
    for (i, msg) in outgoing.iter().enumerate() {
        match net.route_payload(initiator_id, msg).expect("routing works") {
            RouteOutcome::Delivered {
                from,
                sid,
                mid,
                segment,
                ..
            } => {
                let key = reply_handles
                    .iter()
                    .find(|(f, s, _)| (*f, *s) == (from, sid))
                    .map(|(_, _, k)| *k)
                    .expect("terminal link known");
                println!("  segment {} delivered over path {i}", segment.index);
                if let Some(message) = bob
                    .accept_segment(from, sid, key, mid, segment, &codec)
                    .unwrap()
                {
                    got = Some((mid, message));
                }
            }
            RouteOutcome::Lost { at } => println!("  segment lost at down relay {at}"),
            other => panic!("unexpected outcome {other:?}"),
        }
    }
    let (mid, message) = got.expect("one surviving path suffices (k(1-1/r) tolerance)");
    println!(
        "\nresponder reconstructed: {:?}",
        String::from_utf8_lossy(&message)
    );
    assert_eq!(message, request);

    // --- Reply over the surviving reverse path --------------------------
    // The responder codes the reply and sends segments back over the paths
    // that delivered the request (only the surviving one did).
    let response = b"HTTP/1.0 200 OK\n\nthe plans".to_vec();
    let replies = bob.reply(mid, &response, &codec, &mut rng).unwrap();
    let mut answered = false;
    for r in &replies {
        match net
            .route_reverse(responder_id, r.to, r.sid, r.blob.clone(), initiator_id)
            .expect("reverse routing works")
        {
            RouteOutcome::ReachedInitiator { sid, blob } => {
                if let Some((_, reply)) = alice.handle_reply(sid, &blob, &codec).unwrap() {
                    println!(
                        "initiator decoded reply: {:?}",
                        String::from_utf8_lossy(&reply)
                    );
                    assert_eq!(reply, response);
                    answered = true;
                    break;
                }
            }
            RouteOutcome::Lost { at } => println!("reply lost at {at}"),
            other => panic!("unexpected outcome {other:?}"),
        }
    }
    assert!(answered);
    println!("\nquickstart complete: 1 of 2 paths failed, the message still made it both ways");
}
