//! Anonymous mail: long-lived sessions, delayed replies, and *path reuse*
//! (§4.4) — one set of cached paths multiplexed to two different
//! recipients, with the second recipient reached via the redirect layer
//! and a sealed session key.
//!
//! Run with: `cargo run --example anonymous_mail`

use p2p_anon::anon::cluster::{Cluster, RouteOutcome};
use p2p_anon::anon::endpoint::{Initiator, Responder};
use p2p_anon::anon::ids::MessageId;
use p2p_anon::coding::{Codec, ErasureCodec};
use p2p_anon::{NodeId, SimDuration};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(99);
    let mut net = Cluster::new(20, 11);
    let alice_id = NodeId(0);
    let bob_id = NodeId(18); // the path's built-in recipient
    let carol_id = NodeId(19); // reached later by reusing the same path

    let mut alice = Initiator::new(alice_id);
    let mut bob = Responder::new(bob_id);

    // One 3-relay path to Bob.
    let relays = vec![NodeId(3), NodeId(7), NodeId(11)];
    let hops = vec![net.hops(&relays, bob_id)];
    let construction = alice.construct_paths(&hops, &mut rng);
    let RouteOutcome::ConstructionDone {
        from,
        sid,
        session_key,
        ..
    } = net.route_construction(alice_id, &construction[0]).unwrap()
    else {
        panic!("construction failed")
    };
    alice.mark_established(construction[0].sid);
    println!("path to mail drop established via {relays:?}");

    let codec = ErasureCodec::new(1, 1).unwrap();

    // ---- Mail 1: to Bob, replied to hours later -------------------------
    let mid1 = MessageId(100);
    let mail = b"Subject: meet\n\nThe usual place, midnight.".to_vec();
    let out = alice
        .send_message(mid1, &mail, &codec, None, &mut rng)
        .unwrap();
    let RouteOutcome::Delivered { mid, segment, .. } =
        net.route_payload(alice_id, &out[0]).unwrap()
    else {
        panic!("mail lost")
    };
    let delivered = bob
        .accept_segment(from, sid, session_key, mid, segment, &codec)
        .unwrap();
    println!(
        "bob received: {:?}",
        String::from_utf8_lossy(&delivered.unwrap())
    );

    // Time passes; payload traffic keeps the relay state alive (§4.3: the
    // payload doubles as the refresh message).
    for hour_tick in 0..3 {
        net.advance(SimDuration::from_secs(90));
        // A keep-alive message within the TTL window.
        let keepalive = alice
            .send_message(MessageId(200 + hour_tick), b"", &codec, None, &mut rng)
            .unwrap();
        assert!(matches!(
            net.route_payload(alice_id, &keepalive[0]).unwrap(),
            RouteOutcome::Delivered { .. }
        ));
    }
    println!(
        "path kept alive across {} of simulated time",
        SimDuration::from_secs(270)
    );

    // The delayed reply travels the reverse path.
    let reply = b"Subject: re: meet\n\nConfirmed.".to_vec();
    let replies = bob.reply(mid1, &reply, &codec, &mut rng).unwrap();
    let RouteOutcome::ReachedInitiator { sid: rsid, blob } = net
        .route_reverse(
            bob_id,
            replies[0].to,
            replies[0].sid,
            replies[0].blob.clone(),
            alice_id,
        )
        .unwrap()
    else {
        panic!("reply lost")
    };
    let (_, decoded) = alice.handle_reply(rsid, &blob, &codec).unwrap().unwrap();
    println!(
        "alice received reply: {:?}",
        String::from_utf8_lossy(&decoded)
    );
    assert_eq!(decoded, reply);

    // ---- Mail 2: to Carol, REUSING the same path (§4.4) -----------------
    // The last relay gets a redirect layer; Carol gets her session key
    // sealed to her public key inside the payload.
    let mid2 = MessageId(101);
    let mail2 = b"Subject: hello carol\n\nNew drop point attached.".to_vec();
    let carol_pub = net.public_key(carol_id);
    let out = alice
        .send_message(mid2, &mail2, &codec, Some((carol_id, carol_pub)), &mut rng)
        .unwrap();
    // Carol's relay unseals her session key from the payload (§4.4) and
    // hands up the segment it protects.
    let RouteOutcome::Delivered {
        at, mid, segment, ..
    } = net.route_payload(alice_id, &out[0]).unwrap()
    else {
        panic!("redirected mail lost")
    };
    assert_eq!(at, carol_id, "the redirect must land at Carol");
    assert_eq!(mid, mid2);
    let decoded = codec.decode(&[segment]).unwrap();
    assert_eq!(decoded, mail2);
    println!("carol received the redirected mail via her sealed session key");

    println!("\nanonymous mail demo complete: one path served two recipients across TTL refreshes");
}
