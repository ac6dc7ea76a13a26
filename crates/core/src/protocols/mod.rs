//! The three anonymity protocols under evaluation (§6.1) and the drivers
//! that measure them.
//!
//! * **CurMix** — a single onion path, the behaviour of current mix-based
//!   protocols.
//! * **SimRep** — the full message replicated over `k` disjoint paths
//!   (erasure coding's `m = 1` special case).
//! * **SimEra** — the paper's contribution: `n = k` erasure-coded segments
//!   (any `m = k/r` reconstruct), one per path.
//!
//! [`runner`] drives them over a [`crate::sim::World`] to produce the
//! numbers behind Tables 1–4 and Figure 5.

pub mod runner;

use crate::metrics::SuccessRule;
use crate::AnonError;
use erasure::{Codec, ErasureCodec, ReplicationCodec};

/// Which protocol, with its redundancy parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ProtocolKind {
    /// Single-path onion routing.
    CurMix,
    /// `k` full copies over `k` disjoint paths.
    SimRep {
        /// Number of paths (= copies = replication factor).
        k: usize,
    },
    /// `k` coded segments over `k` disjoint paths, replication factor `r`.
    SimEra {
        /// Number of paths; must be a multiple of `r`.
        k: usize,
        /// Replication factor (`n/m`).
        r: usize,
    },
}

impl ProtocolKind {
    /// Number of disjoint paths the protocol maintains.
    pub fn paths(&self) -> usize {
        match *self {
            ProtocolKind::CurMix => 1,
            ProtocolKind::SimRep { k } => k,
            ProtocolKind::SimEra { k, .. } => k,
        }
    }

    /// The §6.1 success rule for path setup and durability.
    pub fn success_rule(&self) -> SuccessRule {
        match *self {
            ProtocolKind::CurMix => SuccessRule::Single,
            ProtocolKind::SimRep { k } => SuccessRule::AnyOf { k },
            ProtocolKind::SimEra { k, r } => SuccessRule::Quorum { k, r },
        }
    }

    /// The message codec: how `|M|` bytes become per-path payloads.
    pub fn codec(&self) -> Result<Box<dyn Codec>, AnonError> {
        match *self {
            ProtocolKind::CurMix | ProtocolKind::SimRep { .. } => {
                ReplicationCodec::new(self.paths())
                    .map(|c| Box::new(c) as Box<dyn Codec>)
                    .map_err(Into::into)
            }
            ProtocolKind::SimEra { k, r } => {
                if r == 0 || k == 0 || k % r != 0 {
                    return Err(AnonError::InvalidParameters(format!(
                        "SimEra requires k a positive multiple of r (k={k}, r={r})"
                    )));
                }
                ErasureCodec::new(SuccessRule::Quorum { k, r }.needed(), k)
                    .map(|c| Box::new(c) as Box<dyn Codec>)
                    .map_err(Into::into)
            }
        }
    }

    /// Bytes each path carries for a message of `msg_bytes` (§4.7: SimEra
    /// paths carry `|M|·r/k`; replication paths carry the whole message).
    pub fn per_path_bytes(&self, msg_bytes: usize) -> f64 {
        match *self {
            ProtocolKind::CurMix => msg_bytes as f64,
            ProtocolKind::SimRep { .. } => msg_bytes as f64,
            ProtocolKind::SimEra { k, r } => msg_bytes as f64 * r as f64 / k as f64,
        }
    }

    /// Human-readable label used in the experiment tables.
    pub fn label(&self) -> String {
        match *self {
            ProtocolKind::CurMix => "CurMix".to_string(),
            ProtocolKind::SimRep { k } => format!("SimRep(r={k})"),
            ProtocolKind::SimEra { k, r } => format!("SimEra(k={k},r={r})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paths_and_rules() {
        assert_eq!(ProtocolKind::CurMix.paths(), 1);
        assert_eq!(ProtocolKind::SimRep { k: 3 }.paths(), 3);
        assert_eq!(ProtocolKind::SimEra { k: 8, r: 2 }.paths(), 8);
        assert_eq!(
            ProtocolKind::SimEra { k: 8, r: 2 }.success_rule(),
            SuccessRule::Quorum { k: 8, r: 2 }
        );
    }

    #[test]
    fn codecs_have_matching_shapes() {
        let c = ProtocolKind::CurMix.codec().unwrap();
        assert_eq!((c.required(), c.total()), (1, 1));
        let c = ProtocolKind::SimRep { k: 4 }.codec().unwrap();
        assert_eq!((c.required(), c.total()), (1, 4));
        let c = ProtocolKind::SimEra { k: 8, r: 2 }.codec().unwrap();
        assert_eq!((c.required(), c.total()), (4, 8));
    }

    #[test]
    fn simera_rejects_bad_parameters() {
        assert!(ProtocolKind::SimEra { k: 5, r: 2 }.codec().is_err());
        assert!(ProtocolKind::SimEra { k: 0, r: 2 }.codec().is_err());
        assert!(ProtocolKind::SimEra { k: 4, r: 0 }.codec().is_err());
    }

    #[test]
    fn per_path_bytes_model() {
        assert_eq!(ProtocolKind::CurMix.per_path_bytes(1024), 1024.0);
        assert_eq!(ProtocolKind::SimRep { k: 2 }.per_path_bytes(1024), 1024.0);
        // SimEra(k=4, r=4): each path carries the full |M| (m = 1).
        assert_eq!(
            ProtocolKind::SimEra { k: 4, r: 4 }.per_path_bytes(1024),
            1024.0
        );
        // SimEra(k=8, r=2): each path carries |M|/4.
        assert_eq!(
            ProtocolKind::SimEra { k: 8, r: 2 }.per_path_bytes(1024),
            256.0
        );
    }

    #[test]
    fn labels_match_paper_style() {
        assert_eq!(ProtocolKind::CurMix.label(), "CurMix");
        assert_eq!(ProtocolKind::SimRep { k: 2 }.label(), "SimRep(r=2)");
        assert_eq!(
            ProtocolKind::SimEra { k: 4, r: 4 }.label(),
            "SimEra(k=4,r=4)"
        );
    }

    #[test]
    fn simera_equals_simrep_when_k_equals_r() {
        // The paper omits SimEra(k=2, r=2) from Table 2 "since its results
        // are same as SimRep(r=2)" — the codecs agree on shape.
        let era = ProtocolKind::SimEra { k: 2, r: 2 }.codec().unwrap();
        let rep = ProtocolKind::SimRep { k: 2 }.codec().unwrap();
        assert_eq!(era.required(), rep.required());
        assert_eq!(era.total(), rep.total());
    }
}
