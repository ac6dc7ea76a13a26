//! Property-based tests for the onion formats: arbitrary path lengths,
//! segment contents, and hop orderings.

use anon_core::ids::MessageId;
use anon_core::onion::{
    build_construction_onion, build_payload_onion, build_reverse_payload, peel_construction_layer,
    peel_payload_layer_in_place, peel_reverse_payload_in_place, wrap_reverse_layer_in_place,
    ConstructionLayer, PeeledPayload,
};
use anon_core::AnonError;
use erasure::Segment;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sim_crypto::{seal, KeyPair, PublicKey};
use simnet::NodeId;

fn make_path(seed: u64, l: usize) -> (Vec<(NodeId, PublicKey)>, Vec<KeyPair>, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let keypairs: Vec<KeyPair> = (0..=l).map(|_| KeyPair::generate(&mut rng)).collect();
    let hops = keypairs
        .iter()
        .enumerate()
        .map(|(i, kp)| (NodeId(i as u32), kp.public))
        .collect();
    (hops, keypairs, rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Construction onions unwrap exactly in hop order for any L, and no
    /// hop can peel another hop's layer.
    #[test]
    fn construction_unwraps_in_order(l in 1usize..7, seed in any::<u64>()) {
        let (hops, keypairs, mut rng) = make_path(seed, l);
        let (plan, mut blob) = build_construction_onion(&hops, &mut rng);
        prop_assert_eq!(plan.num_relays(), l);
        for i in 0..l {
            // A later hop cannot open this layer.
            prop_assert!(peel_construction_layer(&keypairs[i + 1].secret, &blob).is_err());
            match peel_construction_layer(&keypairs[i].secret, &blob).unwrap() {
                ConstructionLayer::Relay { next_hop, session_key, inner } => {
                    prop_assert_eq!(next_hop, NodeId((i + 1) as u32));
                    prop_assert_eq!(session_key, plan.session_keys[i]);
                    blob = inner;
                }
                other => prop_assert!(false, "hop {} got {:?}", i, other),
            }
        }
        let terminal = matches!(
            peel_construction_layer(&keypairs[l].secret, &blob).unwrap(),
            ConstructionLayer::Terminal { .. }
        );
        prop_assert!(terminal);
    }

    /// What a relay finds inside a box sealed to it is the sender's to
    /// choose: any bytes parse without a panic, and anything but a
    /// well-formed layer is `Malformed`.
    #[test]
    fn sealed_garbage_is_malformed_not_a_panic(
        shape in 0u8..4,
        bytes in proptest::collection::vec(any::<u8>(), 0..96),
        seed in any::<u64>(),
    ) {
        let mut bytes = bytes;
        // Raw bytes, a forced relay or terminal tag, or a relay layer whose
        // length field is made to agree with what follows it.
        match (shape, bytes.len()) {
            (1, 1..) => bytes[0] = 0x01,
            (2, 1..) => bytes[0] = 0x02,
            (3, 41..) => {
                bytes[0] = 0x01;
                let inner_len = (bytes.len() - 41) as u32;
                bytes[37..41].copy_from_slice(&inner_len.to_be_bytes());
            }
            _ => {}
        }
        let well_formed = match bytes.first() {
            Some(0x01) => {
                bytes.len() >= 41
                    && u32::from_be_bytes(bytes[37..41].try_into().unwrap()) as usize
                        == bytes.len() - 41
            }
            Some(0x02) => bytes.len() == 33,
            _ => false,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let relay = KeyPair::generate(&mut rng);
        let blob = seal(&relay.public, &bytes, &mut rng);
        match peel_construction_layer(&relay.secret, &blob) {
            Ok(ConstructionLayer::Relay { next_hop, inner, .. }) => {
                prop_assert!(well_formed && bytes[0] == 0x01);
                prop_assert_eq!(next_hop.0.to_be_bytes(), bytes[1..5]);
                prop_assert_eq!(inner, bytes[41..].to_vec());
            }
            Ok(ConstructionLayer::Terminal { .. }) => {
                prop_assert!(well_formed && bytes[0] == 0x02);
            }
            Err(e) => {
                prop_assert!(!well_formed, "refused a well-formed layer: {e}");
                prop_assert!(matches!(e, AnonError::Malformed(_)), "{e}");
            }
        }
    }

    /// Payload onions carry arbitrary segments intact through any L.
    #[test]
    fn payload_roundtrip(
        l in 1usize..7,
        seed in any::<u64>(),
        index in 0usize..64,
        data in proptest::collection::vec(any::<u8>(), 0..768),
    ) {
        let (hops, _, mut rng) = make_path(seed, l);
        let (plan, _) = build_construction_onion(&hops, &mut rng);
        let seg = Segment::new(index, data.clone());
        let mid = MessageId(seed);
        let (mut blob, _) = build_payload_onion(&plan, mid, &seg, None, &mut rng);
        for i in 0..l {
            let peeled = peel_payload_layer_in_place(&plan.session_keys[i], &mut blob).unwrap();
            prop_assert_eq!(peeled, PeeledPayload::Forward, "hop {}", i);
        }
        let peeled = peel_payload_layer_in_place(&plan.session_keys[l], &mut blob).unwrap();
        prop_assert_eq!(peeled, PeeledPayload::Deliver { mid, index });
        prop_assert_eq!(blob, data);
    }

    /// A flipped bit anywhere in a payload onion is refused by the first
    /// hop, which leaves the bytes as they arrived.
    #[test]
    fn tampered_payload_is_refused_untouched(
        l in 1usize..5,
        seed in any::<u64>(),
        data in proptest::collection::vec(any::<u8>(), 0..256),
        flip in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        let (hops, _, mut rng) = make_path(seed, l);
        let (plan, _) = build_construction_onion(&hops, &mut rng);
        let seg = Segment::new(0, data);
        let (mut blob, _) = build_payload_onion(&plan, MessageId(seed), &seg, None, &mut rng);
        let at = flip.index(blob.len());
        blob[at] ^= 1 << bit;
        let tampered = blob.clone();
        prop_assert!(peel_payload_layer_in_place(&plan.session_keys[0], &mut blob).is_err());
        prop_assert_eq!(blob, tampered);
    }

    /// Reverse payloads survive wrap-at-every-relay and peel-at-initiator
    /// for any L.
    #[test]
    fn reverse_roundtrip(
        l in 1usize..7,
        seed in any::<u64>(),
        data in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let (hops, _, mut rng) = make_path(seed, l);
        let (plan, _) = build_construction_onion(&hops, &mut rng);
        let seg = Segment::new(3, data.clone());
        let mid = MessageId(seed ^ 1);
        let mut blob = build_reverse_payload(&plan.session_keys[l], mid, &seg, &mut rng);
        for i in (0..l).rev() {
            wrap_reverse_layer_in_place(&plan.session_keys[i], &mut blob, &mut rng);
        }
        let peeled = peel_reverse_payload_in_place(&plan, &mut blob, None).unwrap();
        prop_assert_eq!(peeled, (mid, 3));
        prop_assert_eq!(blob, data);
    }

    /// Onion sizes are a function of (L, segment length) only — never of
    /// the segment's content, hop identities, or keys. This is the
    /// unlinkability-by-size property the §5 analysis needs.
    #[test]
    fn payload_size_depends_only_on_shape(
        l in 1usize..5,
        len in 0usize..512,
        seed_a in any::<u64>(),
        seed_b in any::<u64>(),
    ) {
        let build = |seed: u64| {
            let (hops, _, mut rng) = make_path(seed, l);
            let (plan, _) = build_construction_onion(&hops, &mut rng);
            let seg = Segment::new((seed % 7) as usize, vec![(seed % 251) as u8; len]);
            build_payload_onion(&plan, MessageId(seed), &seg, None, &mut rng).0.len()
        };
        prop_assert_eq!(build(seed_a), build(seed_b));
    }
}
