//! Onion encodings: the §4.1 construction onion and §4.2/§4.4 payload
//! onions, using real layered encryption from `sim-crypto`.
//!
//! # Construction onion (§4.1)
//!
//! ```text
//! Path_i = ⊥                                      i = L + 1  (responder)
//! Path_i = < P_{i+1}, R_i, Path_{i+1} >_{PubKey_{P_i}}   1 <= i <= L
//! ```
//!
//! Every hop (including the responder, which receives the terminal layer
//! carrying its session key) peels one sealed-box layer, learning only its
//! predecessor, its successor, and its own session key `R_i`.
//!
//! Layer plaintext wire format (before sealing):
//!
//! ```text
//! relay:    0x01 | next_hop u32 BE | R_i (32) | inner_len u32 BE | inner
//! terminal: 0x02 | R_i (32)
//! ```
//!
//! # Payload onion (§4.2, §4.4)
//!
//! Payloads are nested authenticated symmetric encryptions under the
//! session keys planted at construction. Layer plaintexts:
//!
//! ```text
//! forward:          0x01 | inner (ciphertext for the next hop)
//! deliver:          0x02 | MID u64 BE | seg_index u32 BE | seg bytes
//! redirect:         0x03 | new_dest u32 BE | inner       (path reuse, §4.4)
//! deliver-with-key: 0x04 | sealed_len u32 BE | sealed R | inner
//! ```
//!
//! `redirect` appears only in the layer addressed to the *last* relay and
//! tells it to forward `inner` to a different responder than the one the
//! path was built for; `deliver-with-key` carries the new responder's
//! session key sealed to its public key (it never met our construction
//! onion).

use crate::ids::MessageId;
use crate::AnonError;
use erasure::Segment;
use rand::{CryptoRng, Rng};
use sim_crypto::symmetric as sym;
use sim_crypto::{
    seal, sealed, sealers, sym_decrypt_in_place, sym_encrypt_in_place, unseal, PublicKey,
    RecipientTable, SecretKey, SymmetricKey,
};
use simnet::NodeId;

const TAG_RELAY: u8 = 0x01;
const TAG_TERMINAL: u8 = 0x02;

const TAG_FORWARD: u8 = 0x01;
const TAG_DELIVER: u8 = 0x02;
const TAG_REDIRECT: u8 = 0x03;
const TAG_DELIVER_WITH_KEY: u8 = 0x04;

/// The initiator's private plan for one path: hop identities and the
/// session keys planted at each hop. `hops[L]` is the responder, so a plan
/// is never empty: [`build_construction_onion`] refuses an empty hop list
/// and [`crate::cover::random_cover_plan`] appends the destination.
#[derive(Clone, Debug)]
pub struct PathPlan {
    /// Relay nodes followed by the responder (length `L + 1`).
    pub hops: Vec<NodeId>,
    /// Session key `R_i` for each hop, aligned with `hops`.
    pub session_keys: Vec<SymmetricKey>,
}

impl PathPlan {
    /// Number of relays (`L`); the responder is not a relay.
    pub fn num_relays(&self) -> usize {
        self.hops.len() - 1
    }

    /// The responder node.
    pub fn responder(&self) -> NodeId {
        self.hops[self.num_relays()]
    }

    /// The first relay (where the initiator sends everything).
    pub fn first_hop(&self) -> NodeId {
        self.hops[0]
    }
}

/// One peeled construction layer.
#[derive(Debug)]
pub enum ConstructionLayer {
    /// This hop is a relay: forward `inner` to `next_hop`.
    Relay {
        /// The successor node.
        next_hop: NodeId,
        /// This hop's session key.
        session_key: SymmetricKey,
        /// Sealed onion for the successor.
        inner: Vec<u8>,
    },
    /// This hop is the responder (end of path).
    Terminal {
        /// This hop's session key.
        session_key: SymmetricKey,
    },
}

/// Build the construction onion for a path.
///
/// `hop_keys` lists `(node, public_key)` for every hop *including the
/// responder* (so `hop_keys.len() = L + 1`). Returns the initiator-side
/// [`PathPlan`] (fresh session keys) and the outermost sealed blob to send
/// to the first relay.
pub fn build_construction_onion<R: Rng + CryptoRng>(
    hop_keys: &[(NodeId, PublicKey)],
    rng: &mut R,
) -> (PathPlan, Vec<u8>) {
    build_construction_onion_sealing(hop_keys, rng, |_| None)
}

/// [`build_construction_onion`], sealing to each key through the comb
/// table `table_of` gives for it, if any (the initiator's tables): the same
/// bytes from the same RNG draws.
///
/// The draws are the session keys, then one ephemeral secret per layer in
/// sealing order, innermost first, as a [`seal`] per layer would make
/// them. Every layer's key agreement is done before the first layer is
/// sealed, under one field inversion for the whole onion.
pub(crate) fn build_construction_onion_sealing<'t, R: Rng + CryptoRng>(
    hop_keys: &[(NodeId, PublicKey)],
    rng: &mut R,
    table_of: impl Fn(&PublicKey) -> Option<&'t RecipientTable>,
) -> (PathPlan, Vec<u8>) {
    assert!(
        !hop_keys.is_empty(),
        "a path needs at least the responder hop"
    );
    let session_keys: Vec<SymmetricKey> = hop_keys
        .iter()
        .map(|_| SymmetricKey::generate(rng))
        .collect();
    let recipients: Vec<(&PublicKey, Option<&RecipientTable>)> = hop_keys
        .iter()
        .rev()
        .map(|(_, key)| (key, table_of(key)))
        .collect();
    let sealers = sealers(&recipients, rng);

    // Innermost (responder) layer first, then outwards: hop i learns hop
    // i+1.
    let last = hop_keys.len() - 1;
    let mut blob = Vec::new();
    for (i, sealer) in (0..=last).rev().zip(sealers) {
        let layer = if i == last {
            [&[TAG_TERMINAL][..], &session_keys[i].to_bytes()].concat()
        } else {
            let mut layer = Vec::with_capacity(41 + blob.len());
            layer.push(TAG_RELAY);
            layer.extend_from_slice(&hop_keys[i + 1].0 .0.to_be_bytes());
            layer.extend_from_slice(&session_keys[i].to_bytes());
            layer.extend_from_slice(&(blob.len() as u32).to_be_bytes());
            layer.extend_from_slice(&blob);
            layer
        };
        blob = sealer.seal(&layer);
    }

    // Non-empty, by the assertion above: `PathPlan::responder` relies on it.
    let plan = PathPlan {
        hops: hop_keys.iter().map(|&(n, _)| n).collect(),
        session_keys,
    };
    (plan, blob)
}

/// The `N` bytes of a layer at offset `at`, or `Malformed` when the layer
/// ends before them.
fn bytes_at<const N: usize>(layer: &[u8], at: usize) -> Result<[u8; N], AnonError> {
    layer
        .get(at..)
        .and_then(|tail| tail.first_chunk::<N>())
        .copied()
        .ok_or(AnonError::Malformed("truncated onion layer"))
}

fn be_u32(layer: &[u8], at: usize) -> Result<u32, AnonError> {
    bytes_at(layer, at).map(u32::from_be_bytes)
}

/// Peel one construction layer with the hop's secret key.
pub fn peel_construction_layer(
    secret: &SecretKey,
    blob: &[u8],
) -> Result<ConstructionLayer, AnonError> {
    let mut plaintext = unseal(secret, blob)?;
    match plaintext.first() {
        Some(&TAG_RELAY) => {
            let next_hop = NodeId(be_u32(&plaintext, 1)?);
            let session_key = SymmetricKey::from_bytes(bytes_at(&plaintext, 5)?);
            let inner_len = be_u32(&plaintext, 37)? as usize;
            if plaintext.len() - 41 != inner_len {
                return Err(AnonError::Malformed("construction layer length mismatch"));
            }
            // The successor's onion is the tail of the buffer `unseal`
            // returned: drop the header, keep the allocation.
            plaintext.drain(..41);
            Ok(ConstructionLayer::Relay {
                next_hop,
                session_key,
                inner: plaintext,
            })
        }
        Some(&TAG_TERMINAL) => {
            if plaintext.len() != 33 {
                return Err(AnonError::Malformed("bad terminal construction layer"));
            }
            Ok(ConstructionLayer::Terminal {
                session_key: SymmetricKey::from_bytes(bytes_at(&plaintext, 1)?),
            })
        }
        _ => Err(AnonError::Malformed("unknown construction layer tag")),
    }
}

/// One peeled payload layer: the variant carries only the parsed header;
/// the body (inner ciphertext, segment bytes, …) stays in the caller's
/// buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PeeledPayload {
    /// Relay: the buffer now holds the next hop's ciphertext.
    Forward,
    /// Responder: the buffer now holds the coded segment's bytes.
    Deliver {
        /// Message id correlating segments across paths.
        mid: MessageId,
        /// Segment index within the erasure-coded message.
        index: usize,
    },
    /// Last relay, path reuse: the buffer now holds the ciphertext for the
    /// overriding destination.
    Redirect {
        /// Overriding destination.
        new_dest: NodeId,
    },
    /// New responder, path reuse: the buffer now holds
    /// `sealed_key || inner`; split it at `sealed_len`.
    DeliverWithKey {
        /// Length of the sealed-key prefix in the buffer.
        sealed_len: usize,
    },
}

/// Shift `buf`'s tail left so the first `header` bytes disappear.
fn strip_prefix_in_place(buf: &mut Vec<u8>, header: usize) {
    buf.copy_within(header.., 0);
    buf.truncate(buf.len() - header);
}

/// Grow `buf` by `header.len()` bytes and plant `header` at the front,
/// without allocating when capacity suffices.
fn prepend_in_place(buf: &mut Vec<u8>, header: &[u8]) {
    let len = buf.len();
    buf.resize(len + header.len(), 0);
    buf.copy_within(..len, header.len());
    buf[..header.len()].copy_from_slice(header);
}

/// Length of a `Deliver` layer's header: tag, MID, segment index.
const DELIVER_HEADER_LEN: usize = 13;

/// Length of the payload onion [`build_payload_onion`] builds along
/// `plan` for a segment of `segment_len` bytes, with or without a
/// redirect: the buffer size that holds all of its layers.
pub fn payload_onion_len(plan: &PathPlan, segment_len: usize, redirect: bool) -> usize {
    let relays = plan.num_relays();
    // The deliver layer and every relay's layer, each encrypted once;
    // a forward tag on every relay's but the last, whose layer is a
    // redirect header when the path is reused and a forward tag if not.
    let layers = DELIVER_HEADER_LEN + segment_len + (relays + 1) * sym::OVERHEAD + relays;
    if redirect {
        // The new responder's sealed key, its length, and the tags and
        // destination around it, in place of the last forward tag.
        layers + sealed::OVERHEAD + 32 + 9
    } else {
        layers
    }
}

/// Write a `Deliver` plaintext into `buf` (cleared first).
fn deliver_plaintext_into(buf: &mut Vec<u8>, mid: MessageId, segment: &Segment) {
    buf.clear();
    buf.push(TAG_DELIVER);
    buf.extend_from_slice(&mid.to_bytes());
    buf.extend_from_slice(&(segment.index as u32).to_be_bytes());
    buf.extend_from_slice(&segment.data);
}

/// Wrap the layer in `buf` for `relay_keys`' relays, last relay first:
/// each adds the `Forward` tag and one encryption in place.
fn wrap_forward_layers<R: Rng + CryptoRng>(
    relay_keys: &[SymmetricKey],
    buf: &mut Vec<u8>,
    rng: &mut R,
) {
    for key in relay_keys.iter().rev() {
        prepend_in_place(buf, &[TAG_FORWARD]);
        sym_encrypt_in_place(key, buf, rng);
    }
}

/// Build a payload onion along `plan` carrying one coded segment.
///
/// With `redirect = None` the segment is delivered to the path's own
/// responder under the construction-time session key. With
/// `redirect = Some((d, d_pub))` the path is *reused* (§4.4): the last
/// relay is told to forward to `d`, and the segment travels with a fresh
/// session key sealed to `d_pub`. Returns the blob for the first relay and,
/// for redirects, the fresh responder key (for decrypting replies).
pub fn build_payload_onion<R: Rng + CryptoRng>(
    plan: &PathPlan,
    mid: MessageId,
    segment: &Segment,
    redirect: Option<(NodeId, PublicKey)>,
    rng: &mut R,
) -> (Vec<u8>, Option<SymmetricKey>) {
    let mut buf = Vec::with_capacity(payload_onion_len(plan, segment.len(), redirect.is_some()));
    let Some((new_dest, new_dest_pub)) = redirect else {
        build_payload_onion_into(plan, mid, segment, &mut buf, rng);
        return (buf, None);
    };
    // Fresh key for the new responder, sealed to its public key.
    let fresh = SymmetricKey::generate(rng);
    let sealed_key = seal(&new_dest_pub, &fresh.to_bytes(), rng);
    deliver_plaintext_into(&mut buf, mid, segment);
    sym_encrypt_in_place(&fresh, &mut buf, rng);
    // The last relay's layer: a redirect whose body is the new
    // responder's deliver-with-key layer.
    let mut header = Vec::with_capacity(10 + sealed_key.len());
    header.push(TAG_REDIRECT);
    header.extend_from_slice(&new_dest.0.to_be_bytes());
    header.push(TAG_DELIVER_WITH_KEY);
    header.extend_from_slice(&(sealed_key.len() as u32).to_be_bytes());
    header.extend_from_slice(&sealed_key);
    prepend_in_place(&mut buf, &header);
    let last = plan.num_relays() - 1;
    sym_encrypt_in_place(&plan.session_keys[last], &mut buf, rng);
    wrap_forward_layers(&plan.session_keys[..last], &mut buf, rng);
    debug_assert_eq!(buf.len(), payload_onion_len(plan, segment.len(), true));
    (buf, Some(fresh))
}

/// [`build_payload_onion`] without a redirect, *into* `buf` (cleared
/// first), reusing its capacity: grown once to hold every layer, the
/// deliver plaintext is written once and every layer is encrypted in
/// place on top of it.
pub fn build_payload_onion_into<R: Rng + CryptoRng>(
    plan: &PathPlan,
    mid: MessageId,
    segment: &Segment,
    buf: &mut Vec<u8>,
    rng: &mut R,
) {
    let num_relays = plan.num_relays();
    buf.clear();
    buf.reserve(payload_onion_len(plan, segment.len(), false));
    deliver_plaintext_into(buf, mid, segment);
    sym_encrypt_in_place(&plan.session_keys[num_relays], buf, rng);
    wrap_forward_layers(&plan.session_keys[..num_relays], buf, rng);
    debug_assert_eq!(buf.len(), payload_onion_len(plan, segment.len(), false));
}

/// The one parser of the payload-layer format: read the header at the
/// front of a decrypted layer. Returns the layer kind and the header's
/// length; `plaintext` is not touched.
fn parse_layer_header(plaintext: &[u8]) -> Result<(PeeledPayload, usize), AnonError> {
    match plaintext.first() {
        Some(&TAG_FORWARD) => Ok((PeeledPayload::Forward, 1)),
        Some(&TAG_DELIVER) => {
            let mid = MessageId::from_bytes(bytes_at(plaintext, 1)?);
            let index = be_u32(plaintext, 9)? as usize;
            Ok((PeeledPayload::Deliver { mid, index }, 13))
        }
        Some(&TAG_REDIRECT) => {
            let new_dest = NodeId(be_u32(plaintext, 1)?);
            Ok((PeeledPayload::Redirect { new_dest }, 5))
        }
        Some(&TAG_DELIVER_WITH_KEY) => {
            let sealed_len = be_u32(plaintext, 1)? as usize;
            if plaintext.len() - 5 < sealed_len {
                return Err(AnonError::Malformed("deliver-with-key length mismatch"));
            }
            Ok((PeeledPayload::DeliverWithKey { sealed_len }, 5))
        }
        _ => Err(AnonError::Malformed("unknown payload layer tag")),
    }
}

/// Peel one payload layer *in place*: decrypt `buf` under `key`, strip
/// the layer header, and leave the body in `buf`. Allocation-free. A
/// failed decryption leaves `buf` untouched; a header that does not
/// parse leaves the decrypted plaintext there.
pub fn peel_payload_layer_in_place(
    key: &SymmetricKey,
    buf: &mut Vec<u8>,
) -> Result<PeeledPayload, AnonError> {
    sym_decrypt_in_place(key, buf)?;
    let (layer, header) = parse_layer_header(buf)?;
    strip_prefix_in_place(buf, header);
    Ok(layer)
}

/// New-responder side of path reuse (§4.4): a last relay's redirect
/// arrives as a bare deliver-with-key layer on a stream this node has
/// never seen. Unseal the session key it carries and leave the ciphertext
/// under that key in `buf`, ready for [`peel_payload_layer_in_place`].
/// `Ok(None)`, with `buf` untouched, when the bytes are no such layer; an
/// unseal failure leaves `buf` untouched too.
pub fn unseal_deliver_with_key(
    secret: &SecretKey,
    buf: &mut Vec<u8>,
) -> Result<Option<SymmetricKey>, AnonError> {
    let Ok((PeeledPayload::DeliverWithKey { sealed_len }, header)) = parse_layer_header(buf) else {
        return Ok(None);
    };
    let key_bytes: [u8; 32] = unseal(secret, &buf[header..header + sealed_len])?
        .try_into()
        .map_err(|_| AnonError::Malformed("bad sealed session key length"))?;
    strip_prefix_in_place(buf, header + sealed_len);
    Ok(Some(SymmetricKey::from_bytes(key_bytes)))
}

/// Responder side: encrypt a reply segment under its session key (the
/// innermost reverse layer).
pub fn build_reverse_payload<R: Rng + CryptoRng>(
    responder_key: &SymmetricKey,
    mid: MessageId,
    segment: &Segment,
    rng: &mut R,
) -> Vec<u8> {
    let mut buf = Vec::new();
    build_reverse_payload_into(responder_key, mid, segment, &mut buf, rng);
    buf
}

/// [`build_reverse_payload`] into a caller-supplied buffer (cleared
/// first), reusing its capacity. Identical output bytes and RNG draws.
pub fn build_reverse_payload_into<R: Rng + CryptoRng>(
    responder_key: &SymmetricKey,
    mid: MessageId,
    segment: &Segment,
    buf: &mut Vec<u8>,
    rng: &mut R,
) {
    deliver_plaintext_into(buf, mid, segment);
    sym_encrypt_in_place(responder_key, buf, rng);
}

/// Relay side on the reverse path: add one layer with the cached session
/// key ("the payload is encrypted by the cached symmetric key at each hop",
/// §4.2), growing `buf` by the symmetric overhead.
pub fn wrap_reverse_layer_in_place<R: Rng + CryptoRng>(
    key: &SymmetricKey,
    buf: &mut Vec<u8>,
    rng: &mut R,
) {
    sym_encrypt_in_place(key, buf, rng);
}

/// Initiator side: strip all `L + 1` reverse layers within `buf`, leaving
/// the reply segment's bytes there, and return the message id and segment
/// index. Allocation-free. `responder_key_override` replaces the plan's
/// responder key for reused paths (where a fresh key was generated per
/// message).
pub fn peel_reverse_payload_in_place(
    plan: &PathPlan,
    buf: &mut Vec<u8>,
    responder_key_override: Option<&SymmetricKey>,
) -> Result<(MessageId, usize), AnonError> {
    // Relay layers were added in traversal order P_L .. P_1, so the
    // outermost is P_1's.
    for i in 0..plan.num_relays() {
        sym_decrypt_in_place(&plan.session_keys[i], buf)?;
    }
    let responder_key = responder_key_override.unwrap_or(&plan.session_keys[plan.num_relays()]);
    match peel_payload_layer_in_place(responder_key, buf)? {
        PeeledPayload::Deliver { mid, index } => Ok((mid, index)),
        _ => Err(AnonError::Malformed(
            "reverse payload must be a deliver layer",
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sim_crypto::KeyPair;

    fn make_hops(rng: &mut StdRng, n: usize) -> (Vec<(NodeId, PublicKey)>, Vec<KeyPair>) {
        let keypairs: Vec<KeyPair> = (0..n).map(|_| KeyPair::generate(rng)).collect();
        let hops = keypairs
            .iter()
            .enumerate()
            .map(|(i, kp)| (NodeId(i as u32), kp.public))
            .collect();
        (hops, keypairs)
    }

    #[test]
    fn construction_onion_peels_hop_by_hop() {
        let mut rng = StdRng::seed_from_u64(1);
        let l = 3;
        let (hops, keypairs) = make_hops(&mut rng, l + 1);
        let (plan, mut blob) = build_construction_onion(&hops, &mut rng);
        assert_eq!(plan.num_relays(), l);
        assert_eq!(plan.responder(), NodeId(l as u32));
        assert_eq!(plan.first_hop(), NodeId(0));

        for (i, keypair) in keypairs.iter().enumerate().take(l) {
            match peel_construction_layer(&keypair.secret, &blob).unwrap() {
                ConstructionLayer::Relay {
                    next_hop,
                    session_key,
                    inner,
                } => {
                    assert_eq!(next_hop, NodeId(i as u32 + 1));
                    assert_eq!(session_key, plan.session_keys[i]);
                    blob = inner;
                }
                other => panic!("hop {i}: expected relay layer, got {other:?}"),
            }
        }
        match peel_construction_layer(&keypairs[l].secret, &blob).unwrap() {
            ConstructionLayer::Terminal { session_key } => {
                assert_eq!(session_key, plan.session_keys[l]);
            }
            other => panic!("expected terminal layer, got {other:?}"),
        }
    }

    #[test]
    fn construction_layer_rejects_wrong_key() {
        let mut rng = StdRng::seed_from_u64(2);
        let (hops, keypairs) = make_hops(&mut rng, 3);
        let (_, blob) = build_construction_onion(&hops, &mut rng);
        // Second hop's key cannot open the first layer.
        assert!(peel_construction_layer(&keypairs[1].secret, &blob).is_err());
    }

    #[test]
    fn single_hop_path_is_just_the_responder() {
        let mut rng = StdRng::seed_from_u64(3);
        let (hops, keypairs) = make_hops(&mut rng, 1);
        let (plan, blob) = build_construction_onion(&hops, &mut rng);
        assert_eq!(plan.num_relays(), 0);
        assert!(matches!(
            peel_construction_layer(&keypairs[0].secret, &blob).unwrap(),
            ConstructionLayer::Terminal { .. }
        ));
    }

    #[test]
    fn payload_onion_roundtrip() {
        let mut rng = StdRng::seed_from_u64(4);
        let (hops, _) = make_hops(&mut rng, 4);
        let (plan, _) = build_construction_onion(&hops, &mut rng);
        let mid = MessageId(77);
        let seg = Segment::new(5, b"erasure coded bytes".to_vec());
        let (mut blob, reuse) = build_payload_onion(&plan, mid, &seg, None, &mut rng);
        assert!(reuse.is_none());

        // Each relay strips exactly one symmetric layer: sizes decrease by
        // the symmetric overhead + 1 tag byte.
        for i in 0..plan.num_relays() {
            let before = blob.len();
            let peeled = peel_payload_layer_in_place(&plan.session_keys[i], &mut blob).unwrap();
            assert_eq!(peeled, PeeledPayload::Forward, "hop {i}");
            assert_eq!(blob.len(), before - sim_crypto::symmetric::OVERHEAD - 1);
        }
        let peeled = peel_payload_layer_in_place(&plan.session_keys[3], &mut blob).unwrap();
        assert_eq!(peeled, PeeledPayload::Deliver { mid, index: 5 });
        assert_eq!(blob, seg.data);
    }

    #[test]
    fn redirect_path_reuse_roundtrip() {
        let mut rng = StdRng::seed_from_u64(6);
        let (hops, _) = make_hops(&mut rng, 4);
        let (plan, _) = build_construction_onion(&hops, &mut rng);
        // A brand-new responder that was not on the original path.
        let new_responder = KeyPair::generate(&mut rng);
        let new_dest = NodeId(99);
        let mid = MessageId(123);
        let seg = Segment::new(2, b"reused path payload".to_vec());
        let (mut blob, fresh_key) = build_payload_onion(
            &plan,
            mid,
            &seg,
            Some((new_dest, new_responder.public)),
            &mut rng,
        );
        let fresh_key = fresh_key.expect("redirect must mint a key");

        // Relays 0..L-1 see plain forwards, the last relay the redirect.
        let last = plan.num_relays() - 1;
        for i in 0..last {
            let peeled = peel_payload_layer_in_place(&plan.session_keys[i], &mut blob).unwrap();
            assert_eq!(peeled, PeeledPayload::Forward, "hop {i}");
        }
        let peeled = peel_payload_layer_in_place(&plan.session_keys[last], &mut blob).unwrap();
        assert_eq!(peeled, PeeledPayload::Redirect { new_dest });

        // Anyone but the new responder is refused, buffer untouched.
        let before = blob.clone();
        let stranger = KeyPair::generate(&mut rng);
        assert!(unseal_deliver_with_key(&stranger.secret, &mut blob).is_err());
        assert_eq!(blob, before);
        // The new responder unseals its key and opens the delivery.
        let recovered = unseal_deliver_with_key(&new_responder.secret, &mut blob)
            .unwrap()
            .expect("a deliver-with-key layer");
        assert_eq!(recovered, fresh_key);
        let peeled = peel_payload_layer_in_place(&recovered, &mut blob).unwrap();
        assert_eq!(peeled, PeeledPayload::Deliver { mid, index: 2 });
        assert_eq!(blob, seg.data);
    }

    #[test]
    fn bytes_that_are_no_deliver_with_key_layer_are_left_alone() {
        let mut rng = StdRng::seed_from_u64(10);
        let kp = KeyPair::generate(&mut rng);
        for bytes in [
            vec![],
            vec![TAG_FORWARD, 1, 2, 3],
            vec![TAG_DELIVER_WITH_KEY, 0, 0],
            vec![TAG_DELIVER_WITH_KEY, 0, 0, 0, 9, 1, 2],
        ] {
            let mut buf = bytes.clone();
            assert!(matches!(
                unseal_deliver_with_key(&kp.secret, &mut buf),
                Ok(None)
            ));
            assert_eq!(buf, bytes);
        }
    }

    /// Responder ack under `responder_key`, wrapped by every relay of `plan`
    /// on the way back (P_L first).
    fn wrapped_reply(
        plan: &PathPlan,
        responder_key: &SymmetricKey,
        mid: MessageId,
        seg: &Segment,
        rng: &mut StdRng,
    ) -> Vec<u8> {
        let mut blob = build_reverse_payload(responder_key, mid, seg, rng);
        for key in plan.session_keys[..plan.num_relays()].iter().rev() {
            wrap_reverse_layer_in_place(key, &mut blob, rng);
        }
        blob
    }

    #[test]
    fn reverse_payload_roundtrip() {
        let mut rng = StdRng::seed_from_u64(7);
        let (hops, _) = make_hops(&mut rng, 4);
        let (plan, _) = build_construction_onion(&hops, &mut rng);
        let mid = MessageId(55);
        let seg = Segment::new(1, b"the reply".to_vec());
        let mut blob = wrapped_reply(&plan, &plan.session_keys[3], mid, &seg, &mut rng);
        let peeled = peel_reverse_payload_in_place(&plan, &mut blob, None).unwrap();
        assert_eq!(peeled, (mid, 1));
        assert_eq!(blob, seg.data);
    }

    #[test]
    fn reverse_payload_with_override_key() {
        let mut rng = StdRng::seed_from_u64(8);
        let (hops, _) = make_hops(&mut rng, 3);
        let (plan, _) = build_construction_onion(&hops, &mut rng);
        let fresh = SymmetricKey::generate(&mut rng);
        let seg = Segment::new(0, b"reply on reused path".to_vec());
        let blob = wrapped_reply(&plan, &fresh, MessageId(9), &seg, &mut rng);
        assert!(peel_reverse_payload_in_place(&plan, &mut blob.clone(), None).is_err());
        let mut buf = blob;
        peel_reverse_payload_in_place(&plan, &mut buf, Some(&fresh)).unwrap();
        assert_eq!(buf, seg.data);
    }

    #[test]
    fn reverse_payload_must_be_a_deliver_layer() {
        let mut rng = StdRng::seed_from_u64(13);
        let (hops, _) = make_hops(&mut rng, 1);
        let (plan, _) = build_construction_onion(&hops, &mut rng);
        let mut buf = vec![TAG_FORWARD, 1, 2, 3];
        sym_encrypt_in_place(&plan.session_keys[0], &mut buf, &mut rng);
        assert!(matches!(
            peel_reverse_payload_in_place(&plan, &mut buf, None),
            Err(AnonError::Malformed(_))
        ));
    }

    #[test]
    fn tampered_payload_rejected() {
        let mut rng = StdRng::seed_from_u64(9);
        let (hops, _) = make_hops(&mut rng, 3);
        let (plan, _) = build_construction_onion(&hops, &mut rng);
        let (mut blob, _) = build_payload_onion(
            &plan,
            MessageId(1),
            &Segment::new(0, vec![1, 2, 3]),
            None,
            &mut rng,
        );
        blob[10] ^= 0xff;
        let tampered = blob.clone();
        assert!(matches!(
            peel_payload_layer_in_place(&plan.session_keys[0], &mut blob),
            Err(AnonError::Crypto(_))
        ));
        assert_eq!(blob, tampered, "a refused layer is left as it arrived");
    }
}
