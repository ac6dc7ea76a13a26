//! Mutual anonymity via a rendezvous point — the §3 extension ("responder
//! anonymity and mutual anonymity can be easily achieved by extending our
//! design, i.e., using an additional level of redirection").
//!
//! A hidden responder `D` builds an ordinary onion path whose *terminal*
//! is a public rendezvous node `V`, registers a cookie there, and
//! advertises `(V, cookie, D's public key)` out of band. An initiator `I`
//! builds its own path to `V` and sends segments addressed to the cookie,
//! each sealed to `D`'s advertised key. `V` pivots every inbound segment
//! onto the *reverse* direction of `D`'s path: each of `D`'s relays adds a
//! layer with its cached session key (§4.2 reverse flow) and `D` — the
//! owner of the path plan — strips them all and unseals the payload.
//!
//! Nobody learns both endpoints: `I`'s relays see only `V`; `D`'s relays
//! see only `V`; `V` sees neither identity (it knows a cookie and the
//! first hop of each path); and the payload is end-to-end sealed to `D`.

use crate::ids::{MessageId, StreamId};
use crate::onion::{build_reverse_payload, peel_reverse_payload_in_place, PathPlan};
use crate::AnonError;
use erasure::Segment;
use rand::{CryptoRng, Rng};
use sim_crypto::{seal, unseal, KeyPair, PublicKey, SymmetricKey};
use simnet::NodeId;
use std::collections::HashMap;

/// What a hidden responder publishes (e.g. in a directory or DHT).
#[derive(Clone, Debug)]
pub struct Advertisement {
    /// The public rendezvous node.
    pub rendezvous: NodeId,
    /// Registration cookie at the rendezvous.
    pub cookie: u64,
    /// The responder's long-term public key (payloads are sealed to it;
    /// it does not reveal the responder's network identity).
    pub responder_pub: PublicKey,
}

/// Rendezvous-point state: cookie registrations mapping to the terminal
/// link of each hidden responder's path. Lives at the node that is the
/// *terminal hop* of those paths.
#[derive(Default)]
pub struct RendezvousPoint {
    registrations: HashMap<u64, Registration>,
}

struct Registration {
    /// Upstream hop of the terminal link (the last relay of D's path).
    prev: NodeId,
    /// Stream id on that link.
    sid: StreamId,
    /// The terminal session key planted by D's construction onion.
    key: SymmetricKey,
}

impl RendezvousPoint {
    /// Empty rendezvous state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live registrations.
    pub fn registrations(&self) -> usize {
        self.registrations.len()
    }

    /// Register a hidden responder's path: called with the terminal-link
    /// triple the construction produced at this node.
    pub fn register(&mut self, cookie: u64, prev: NodeId, sid: StreamId, key: SymmetricKey) {
        self.registrations
            .insert(cookie, Registration { prev, sid, key });
    }

    /// Drop a registration (responder went away or rotated cookies).
    pub fn unregister(&mut self, cookie: u64) -> bool {
        self.registrations.remove(&cookie).is_some()
    }

    /// Pivot an inbound segment onto the registered path's reverse
    /// direction. Returns the first backward hop and the blob to hand it.
    pub fn forward_inbound<R: Rng + CryptoRng>(
        &self,
        cookie: u64,
        mid: MessageId,
        segment: &Segment,
        rng: &mut R,
    ) -> Result<(NodeId, StreamId, Vec<u8>), AnonError> {
        let reg = self
            .registrations
            .get(&cookie)
            .ok_or(AnonError::UnknownStream)?;
        let blob = build_reverse_payload(&reg.key, mid, segment, rng);
        Ok((reg.prev, reg.sid, blob))
    }
}

/// The hidden responder's endpoint state: its path plan to the rendezvous
/// and its long-term key pair.
pub struct HiddenResponder {
    plan: PathPlan,
    keypair: KeyPair,
    cookie: u64,
}

impl HiddenResponder {
    /// Wrap a constructed path (terminal = the rendezvous node) into a
    /// hidden-service endpoint with a fresh cookie.
    pub fn new<R: Rng + CryptoRng>(plan: PathPlan, keypair: KeyPair, rng: &mut R) -> Self {
        HiddenResponder {
            plan,
            keypair,
            cookie: rng.gen(),
        }
    }

    /// The advertisement to publish.
    pub fn advertisement(&self) -> Advertisement {
        Advertisement {
            rendezvous: self.plan.responder(),
            cookie: self.cookie,
            responder_pub: self.keypair.public,
        }
    }

    /// This responder's registration cookie.
    pub fn cookie(&self) -> u64 {
        self.cookie
    }

    /// Process a reverse blob that walked back down the path: strip all
    /// relay layers plus the rendezvous layer, then unseal the end-to-end
    /// envelope. Returns `(mid, plaintext segment)`.
    pub fn receive(&self, blob: &[u8]) -> Result<(MessageId, Segment), AnonError> {
        let mut sealed = blob.to_vec();
        let (mid, index) = peel_reverse_payload_in_place(&self.plan, &mut sealed, None)?;
        let plaintext = unseal(&self.keypair.secret, &sealed)?;
        Ok((mid, Segment::new(index, plaintext)))
    }
}

/// Initiator-side helper: wrap a coded segment for a hidden responder —
/// seal end-to-end to the advertised key, then prefix the cookie so the
/// rendezvous can pivot it. The result is what the initiator puts into its
/// own payload onion addressed to the rendezvous node.
pub fn wrap_for_hidden_responder<R: Rng + CryptoRng>(
    ad: &Advertisement,
    segment: &Segment,
    rng: &mut R,
) -> Segment {
    let sealed = seal(&ad.responder_pub, &segment.data, rng);
    let mut data = Vec::with_capacity(8 + sealed.len());
    data.extend_from_slice(&ad.cookie.to_be_bytes());
    data.extend_from_slice(&sealed);
    Segment::new(segment.index, data)
}

/// Rendezvous-side helper: split a delivered segment into `(cookie,
/// sealed payload segment)`.
pub fn unwrap_at_rendezvous(segment: &Segment) -> Result<(u64, Segment), AnonError> {
    if segment.data.len() < 8 {
        return Err(AnonError::Malformed("short rendezvous envelope"));
    }
    let cookie = u64::from_be_bytes(segment.data[..8].try_into().unwrap());
    Ok((
        cookie,
        Segment::new(segment.index, segment.data[8..].to_vec()),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, RouteOutcome};
    use crate::endpoint::Initiator;
    use erasure::Codec as _;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Full mutual-anonymity flow over the message-level cluster:
    /// D (node 15) hides behind rendezvous V (node 8); I (node 0) reaches
    /// it without either endpoint learning the other.
    #[test]
    fn mutual_anonymity_end_to_end() {
        let mut net = Cluster::new(16, 21);
        let mut rng = StdRng::seed_from_u64(22);
        let initiator_id = NodeId(0);
        let hidden_id = NodeId(15);
        let rendezvous_id = NodeId(8);

        // --- D builds its path to V and registers --------------------------
        let mut d_endpoint = Initiator::new(hidden_id);
        let d_hops = vec![net.hops(&[NodeId(9), NodeId(10), NodeId(11)], rendezvous_id)];
        let d_cons = d_endpoint.construct_paths(&d_hops, &mut rng);
        let RouteOutcome::ConstructionDone {
            from,
            sid,
            session_key,
            ..
        } = net.route_construction(hidden_id, &d_cons[0]).unwrap()
        else {
            panic!("hidden path construction failed")
        };
        let d_keypair = KeyPair::generate(&mut rng);
        let hidden = HiddenResponder::new(d_endpoint.paths()[0].plan.clone(), d_keypair, &mut rng);
        let mut point = RendezvousPoint::new();
        point.register(hidden.cookie(), from, sid, session_key);
        let ad = hidden.advertisement();
        assert_eq!(ad.rendezvous, rendezvous_id);

        // --- I builds its own path to V ------------------------------------
        let mut i_endpoint = Initiator::new(initiator_id);
        let i_hops = vec![net.hops(&[NodeId(1), NodeId(2), NodeId(3)], rendezvous_id)];
        let i_cons = i_endpoint.construct_paths(&i_hops, &mut rng);
        assert!(matches!(
            net.route_construction(initiator_id, &i_cons[0]).unwrap(),
            RouteOutcome::ConstructionDone { .. }
        ));

        // --- I sends a sealed, cookie-tagged segment to V -------------------
        let secret = b"meet me at the rendezvous".to_vec();
        let mid = MessageId(9);
        let wrapped = wrap_for_hidden_responder(&ad, &Segment::new(0, secret.clone()), &mut rng);
        let codec = erasure::ReplicationCodec::new(1).unwrap();
        let out = i_endpoint
            .send_message(mid, &wrapped.data, &codec, None, &mut rng)
            .unwrap();
        let RouteOutcome::Delivered {
            at,
            mid: got_mid,
            segment,
            ..
        } = net.route_payload(initiator_id, &out[0]).unwrap()
        else {
            panic!("segment lost")
        };
        assert_eq!(at, rendezvous_id);

        // --- V pivots it backward down D's path -----------------------------
        let inner = codec.decode(&[segment]).unwrap();
        let (cookie, sealed_seg) = unwrap_at_rendezvous(&Segment::new(0, inner)).unwrap();
        assert_eq!(cookie, hidden.cookie());
        let (back_to, back_sid, blob) = point
            .forward_inbound(cookie, got_mid, &sealed_seg, &mut net.rng.clone())
            .unwrap();
        let RouteOutcome::ReachedInitiator { blob, .. } = net
            .route_reverse(rendezvous_id, back_to, back_sid, blob, hidden_id)
            .unwrap()
        else {
            panic!("reverse pivot lost")
        };

        // --- D strips its path layers and unseals ---------------------------
        let (final_mid, plaintext) = hidden.receive(&blob).unwrap();
        assert_eq!(final_mid, mid);
        assert_eq!(plaintext.data, secret);
    }

    #[test]
    fn wrong_cookie_rejected() {
        let mut rng = StdRng::seed_from_u64(3);
        let point = RendezvousPoint::new();
        let err = point
            .forward_inbound(42, MessageId(1), &Segment::new(0, vec![1]), &mut rng)
            .unwrap_err();
        assert_eq!(err, AnonError::UnknownStream);
    }

    #[test]
    fn unregister_revokes() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut point = RendezvousPoint::new();
        point.register(7, NodeId(1), StreamId(2), SymmetricKey::generate(&mut rng));
        assert_eq!(point.registrations(), 1);
        assert!(point.unregister(7));
        assert!(!point.unregister(7));
        assert!(point
            .forward_inbound(7, MessageId(1), &Segment::new(0, vec![]), &mut rng)
            .is_err());
    }

    #[test]
    fn envelope_roundtrip_and_malformed() {
        let mut rng = StdRng::seed_from_u64(5);
        let kp = KeyPair::generate(&mut rng);
        let ad = Advertisement {
            rendezvous: NodeId(3),
            cookie: 99,
            responder_pub: kp.public,
        };
        let seg = Segment::new(4, b"payload".to_vec());
        let wrapped = wrap_for_hidden_responder(&ad, &seg, &mut rng);
        let (cookie, sealed) = unwrap_at_rendezvous(&wrapped).unwrap();
        assert_eq!(cookie, 99);
        assert_eq!(unseal(&kp.secret, &sealed.data).unwrap(), b"payload");
        assert!(unwrap_at_rendezvous(&Segment::new(0, vec![1, 2, 3])).is_err());
    }
}
