//! # p2p-anon — resilient peer-to-peer anonymous routing
//!
//! A faithful, self-contained reproduction of *Making Peer-to-Peer
//! Anonymous Routing Resilient to Failures* (Zhu & Hu, IPPS 2007):
//! erasure-coded multipath onion routing over a churning P2P network, with
//! lifetime-biased mix (relay) selection.
//!
//! This crate is a facade re-exporting the workspace's layers:
//!
//! * [`crypto`] (`sim-crypto`) — ChaCha20 / HChaCha20 / Poly1305 / X25519
//!   and the sealed-box hybrid encryption used for onion layers.
//! * [`coding`] (`erasure`) — systematic Reed–Solomon erasure coding over
//!   GF(2^8) and the replication codec.
//! * [`net`] (`simnet`) — discrete-event simulator: clock, engine, latency
//!   matrix, churn schedules.
//! * [`members`] (`membership`) — gossip membership with the §4.9 liveness
//!   predictor.
//! * [`anon`] (`anon-core`) — onions, relays, endpoints, mix choice,
//!   SimEra allocation analytics, the CurMix/SimRep/SimEra protocols and
//!   the evaluation framework.
//!
//! ## Quickstart
//!
//! Send an erasure-coded message through real onion paths (see
//! `examples/quickstart.rs` for the full version):
//!
//! ```
//! use p2p_anon::anon::onion::{build_construction_onion, build_payload_onion};
//! use p2p_anon::anon::ids::MessageId;
//! use p2p_anon::coding::{Codec, ErasureCodec};
//! use p2p_anon::crypto::KeyPair;
//! use p2p_anon::net::NodeId;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! // Three relays plus the responder, each with a PKI key pair.
//! let keys: Vec<KeyPair> = (0..4).map(|_| KeyPair::generate(&mut rng)).collect();
//! let hops: Vec<(NodeId, _)> =
//!     keys.iter().enumerate().map(|(i, k)| (NodeId(i as u32), k.public)).collect();
//! let (plan, _onion) = build_construction_onion(&hops, &mut rng);
//!
//! // Erasure-code a message: any 2 of 4 segments reconstruct it.
//! let codec = ErasureCodec::new(2, 4).unwrap();
//! let segments = codec.encode(b"anonymity loves company");
//! let (blob, _) =
//!     build_payload_onion(&plan, MessageId(7), &segments[0], None, &mut rng);
//! assert!(blob.len() > segments[0].len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Cryptography substrate (`sim-crypto`).
pub mod crypto {
    pub use sim_crypto::*;
}

/// Erasure coding substrate (`erasure`).
pub mod coding {
    pub use erasure::*;
}

/// Discrete-event network simulator (`simnet`).
pub mod net {
    pub use simnet::*;
}

/// Gossip membership and liveness prediction (`membership`).
pub mod members {
    pub use membership::*;
}

/// The anonymous-routing core (`anon-core`).
pub mod anon {
    pub use anon_core::*;
}

pub use anon_core::mix::MixStrategy;
pub use anon_core::protocols::ProtocolKind;
pub use erasure::{Codec, ErasureCodec, ReplicationCodec, Segment};
pub use simnet::{NodeId, SimDuration, SimTime};
