//! Hidden service: mutual anonymity via a rendezvous point (§3's
//! "additional level of redirection"). A hidden responder serves requests
//! without ever revealing its network identity to the initiator — and
//! vice versa.
//!
//! Run with: `cargo run --release --example hidden_service`

use p2p_anon::anon::cluster::{Cluster, RouteOutcome};
use p2p_anon::anon::endpoint::Initiator;
use p2p_anon::anon::ids::MessageId;
use p2p_anon::anon::rendezvous::{
    unwrap_at_rendezvous, wrap_for_hidden_responder, HiddenResponder, RendezvousPoint,
};
use p2p_anon::coding::{Codec, ReplicationCodec};
use p2p_anon::crypto::KeyPair;
use p2p_anon::{NodeId, Segment};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(77);
    let mut net = Cluster::new(20, 13);
    let alice_id = NodeId(0); // the (anonymous) client
    let service_id = NodeId(19); // the hidden service
    let rendezvous_id = NodeId(10); // a public meeting point

    // --- The hidden service sets up shop --------------------------------
    // It builds a normal onion path ending at the rendezvous node and
    // registers a cookie there; its advertisement reveals only (V, cookie,
    // public key) — never its address.
    let mut service_endpoint = Initiator::new(service_id);
    let service_relays = [NodeId(11), NodeId(12), NodeId(13)];
    let hops = vec![net.hops(&service_relays, rendezvous_id)];
    let cons = service_endpoint.construct_paths(&hops, &mut rng);
    let RouteOutcome::ConstructionDone {
        from,
        sid,
        session_key,
        ..
    } = net.route_construction(service_id, &cons[0]).unwrap()
    else {
        panic!("service path construction failed")
    };
    let service_keys = KeyPair::generate(&mut rng);
    let hidden = HiddenResponder::new(
        service_endpoint.paths()[0].plan.clone(),
        service_keys,
        &mut rng,
    );
    let mut rendezvous = RendezvousPoint::new();
    rendezvous.register(hidden.cookie(), from, sid, session_key);
    let ad = hidden.advertisement();
    println!(
        "hidden service registered at rendezvous {} (cookie {:016x})",
        ad.rendezvous, ad.cookie
    );
    println!("its own address never appears in the advertisement\n");

    // --- Alice connects anonymously --------------------------------------
    let mut alice = Initiator::new(alice_id);
    let alice_relays = [NodeId(1), NodeId(2), NodeId(3)];
    let hops = vec![net.hops(&alice_relays, rendezvous_id)];
    let cons = alice.construct_paths(&hops, &mut rng);
    assert!(matches!(
        net.route_construction(alice_id, &cons[0]).unwrap(),
        RouteOutcome::ConstructionDone { .. }
    ));
    println!("alice built her own 3-relay path to the rendezvous");

    // Seal the request end-to-end to the service's advertised key, tag it
    // with the cookie, and send it down Alice's onion path.
    let request = b"GET /hidden/index.html".to_vec();
    let wrapped = wrap_for_hidden_responder(&ad, &Segment::new(0, request.clone()), &mut rng);
    let codec = ReplicationCodec::new(1).unwrap();
    let mid = MessageId(4242);
    let out = alice
        .send_message(mid, &wrapped.data, &codec, None, &mut rng)
        .unwrap();
    let RouteOutcome::Delivered {
        at,
        mid: got_mid,
        segment,
        ..
    } = net.route_payload(alice_id, &out[0]).unwrap()
    else {
        panic!("request lost")
    };
    assert_eq!(at, rendezvous_id);
    println!("request delivered to the rendezvous through alice's onion path");

    // --- The rendezvous pivots it backward down the service's path -------
    let inner = codec.decode(&[segment]).unwrap();
    let (cookie, sealed_seg) = unwrap_at_rendezvous(&Segment::new(0, inner)).unwrap();
    let (back_to, back_sid, blob) = rendezvous
        .forward_inbound(cookie, got_mid, &sealed_seg, &mut rng)
        .unwrap();
    let RouteOutcome::ReachedInitiator { blob, .. } = net
        .route_reverse(rendezvous_id, back_to, back_sid, blob, service_id)
        .unwrap()
    else {
        panic!("pivot lost")
    };
    println!("rendezvous pivoted the sealed payload down the service's reverse path");

    // --- The hidden service reads the request ----------------------------
    let (final_mid, plaintext) = hidden.receive(&blob).unwrap();
    assert_eq!(final_mid, mid);
    assert_eq!(plaintext.data, request);
    println!(
        "\nhidden service decrypted: {:?}",
        String::from_utf8_lossy(&plaintext.data)
    );
    println!("\nwho learned what:");
    println!("  alice's relays: that alice talks to the rendezvous — not to whom");
    println!("  service relays: that the service talks to the rendezvous — not to whom");
    println!("  rendezvous:     a cookie and two neighbouring relays — neither endpoint");
    println!("  payload:        sealed end-to-end to the service's advertised key");
}
