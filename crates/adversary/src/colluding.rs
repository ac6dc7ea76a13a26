//! Colluding-relay adversaries: the paper's §5 model (a fraction `f` of
//! nodes collude) generalized from `anon_core::attack` to the
//! [`Adversary`] trait, including §7's staying adversary as
//! uptime-biased infiltration, plus the fused variant that additionally
//! runs the timing correlator from its own vantage points (per Shirazi
//! et al.'s analysis of routing attacks in mix networks).
//!
//! Per observed flow the attacker's posterior over initiators is:
//!
//! * first relay compromised → point mass on the true initiator (the
//!   relay sees its upstream hop — Equation 4's Case 1);
//! * otherwise → uniform over the `n − |bad|` non-colluding nodes (the
//!   adversary can at least exclude its own members).
//!
//! The mean posterior mass on the true initiator therefore converges to
//! `f·1 + (1−f)·1/(n(1−f))` — exactly
//! [`anon_core::anonymity::p_initiator_identified`] with the exact
//! Case-1 probability `c₁ = f`, which the acceptance test pins at the
//! uniform-choice point.

use crate::{entropy, timing, Adversary, Assessment};
use anon_core::observe::ObservedRun;
use rand::rngs::StdRng;
use rand::SeedableRng;
use simnet::NodeId;
use std::collections::HashSet;

/// A colluding fraction of relays (§5), optionally infiltrating with an
/// uptime bias (§7's staying adversary).
#[derive(Clone, Copy, Debug)]
pub struct ColludingRelays {
    /// Fraction of nodes the adversary controls.
    pub fraction: f64,
    /// §7's strategy: instead of compromising uniformly at random, the
    /// adversary concentrates on the relays most often chosen — the
    /// slots a maximum-uptime attacker accumulates once biased mix
    /// choice starts favouring it.
    pub adversary_stays: bool,
    /// Seed for the uniform infiltration draw.
    pub seed: u64,
}

impl ColludingRelays {
    /// The compromised node set for one observed run. Deterministic in
    /// `(self, run)`; the true endpoints are never compromised (sender
    /// anonymity is measured against honest endpoints).
    pub fn compromised(&self, run: &ObservedRun) -> HashSet<NodeId> {
        let mut bad = if self.adversary_stays {
            // Uptime-biased infiltration: rank nodes by how many relay
            // slots they actually served (what staying online buys under
            // biased mix choice) and compromise the top `f` fraction.
            let mut slots = vec![0u64; run.n];
            for c in &run.log.constructions {
                for r in &c.relays {
                    if r.index() < run.n {
                        slots[r.index()] += 1;
                    }
                }
            }
            let mut order: Vec<usize> = (0..run.n).collect();
            order.sort_by_key(|&i| (std::cmp::Reverse(slots[i]), i));
            let num_bad = ((run.n as f64) * self.fraction).round() as usize;
            order
                .into_iter()
                .take(num_bad)
                .map(NodeId::from)
                .collect::<HashSet<_>>()
        } else {
            let mut rng = StdRng::seed_from_u64(self.seed);
            anon_core::attack::select_compromised(run.n, self.fraction, &mut rng)
        };
        bad.remove(&run.initiator);
        bad.remove(&run.responder);
        bad
    }

    /// Shared posterior machinery: per-construction posteriors over
    /// initiators, averaged into an [`Assessment`] (without the timing
    /// correlator — `linkability_auc` is left `NaN`).
    fn assess_with(&self, run: &ObservedRun, bad: &HashSet<NodeId>) -> Assessment {
        if run.log.constructions.is_empty() {
            return Assessment {
                linkability_auc: f64::NAN,
                ..Assessment::uninformed(run.n)
            };
        }
        let mut h_sum = 0.0;
        let mut hmin_sum = 0.0;
        let mut mass_sum = 0.0;
        let mut count = 0u64;
        let mut posterior = vec![0.0f64; run.n];
        for c in &run.log.constructions {
            let Some(first) = c.relays.first() else {
                continue;
            };
            count += 1;
            posterior.iter_mut().for_each(|w| *w = 0.0);
            if bad.contains(first) {
                // Case 1: the compromised first relay sees the initiator.
                posterior[c.initiator.index()] = 1.0;
            } else {
                // The adversary saw nothing: uniform over everyone it
                // cannot exclude (its own members are not initiators).
                for (i, w) in posterior.iter_mut().enumerate() {
                    if !bad.contains(&NodeId::from(i)) {
                        *w = 1.0;
                    }
                }
            }
            let p = entropy::normalized(&posterior);
            h_sum += entropy::shannon_entropy_bits(&p);
            hmin_sum += entropy::min_entropy_bits(&p);
            mass_sum += p[run.initiator.index()];
        }
        if count == 0 {
            return Assessment {
                linkability_auc: f64::NAN,
                ..Assessment::uninformed(run.n)
            };
        }
        let shannon = h_sum / count as f64;
        Assessment {
            shannon_entropy_bits: shannon,
            min_entropy_bits: hmin_sum / count as f64,
            anonymity_set: shannon.exp2(),
            p_identified: mass_sum / count as f64,
            linkability_auc: f64::NAN,
        }
    }
}

impl Adversary for ColludingRelays {
    fn label(&self) -> String {
        if self.adversary_stays {
            format!("colluding(f={:.2},stays)", self.fraction)
        } else {
            format!("colluding(f={:.2})", self.fraction)
        }
    }

    fn assess(&self, run: &ObservedRun) -> Assessment {
        let bad = self.compromised(run);
        self.assess_with(run, &bad)
    }
}

/// Colluding relays that additionally run the inter-packet-delay
/// correlator of [`timing`] from their own vantage points: the posterior
/// metrics of [`ColludingRelays`] fused with a linkability AUC scored
/// over the compromised set.
#[derive(Clone, Copy, Debug)]
pub struct Fused {
    /// The colluding-relay component (also supplies the vantage points).
    pub colluding: ColludingRelays,
    /// Timing-correlation pairing window in seconds.
    pub window_secs: f64,
    /// Synthetic cover-traffic rate (emissions per minute) the defender
    /// runs; see [`timing`] for the dilution model.
    pub cover_per_min: f64,
}

impl Adversary for Fused {
    fn label(&self) -> String {
        format!(
            "{}+timing(w={:.1}s)",
            self.colluding.label(),
            self.window_secs
        )
    }

    fn assess(&self, run: &ObservedRun) -> Assessment {
        let bad = self.colluding.compromised(run);
        let mut assessment = self.colluding.assess_with(run, &bad);
        assessment.linkability_auc = timing::linkability_auc(
            run,
            &bad,
            self.window_secs,
            self.cover_per_min,
            self.colluding.seed,
        );
        assessment
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anon_core::observe::{ConstructionObservation, ObservationLog, ObservedRun};
    use simnet::SimTime;

    /// A synthetic run: `cons` constructions, the first `bad_first` of
    /// which use relay 2 (compromised when listed) as first hop.
    fn synthetic_run(n: usize, cons: usize, first_hops: &[u32]) -> ObservedRun {
        let mut log = ObservationLog::new();
        for i in 0..cons {
            let first = NodeId(first_hops[i % first_hops.len()]);
            log.constructions.push(ConstructionObservation {
                initiator: NodeId(0),
                responder: NodeId(1),
                relays: vec![first, NodeId(5), NodeId(6)],
                sid: anon_core::StreamId(i as u64),
                at: SimTime::from_secs(i as u64),
            });
        }
        ObservedRun {
            log,
            n,
            initiator: NodeId(0),
            responder: NodeId(1),
            flows: Vec::new(),
        }
    }

    #[test]
    fn no_collusion_means_uniform_posterior() {
        let adv = ColludingRelays {
            fraction: 0.0,
            adversary_stays: false,
            seed: 1,
        };
        let run = synthetic_run(64, 10, &[3]);
        let a = adv.assess(&run);
        assert!((a.shannon_entropy_bits - 6.0).abs() < 1e-9, "log2(64)");
        assert!((a.p_identified - 1.0 / 64.0).abs() < 1e-12);
        assert!(a.linkability_auc.is_nan());
    }

    #[test]
    fn full_collusion_identifies_every_flow() {
        let adv = ColludingRelays {
            fraction: 1.0,
            adversary_stays: false,
            seed: 1,
        };
        // All first hops compromised (endpoints excluded, relay 3 isn't).
        let run = synthetic_run(16, 8, &[3]);
        let a = adv.assess(&run);
        assert_eq!(a.shannon_entropy_bits, 0.0);
        assert_eq!(a.p_identified, 1.0);
        assert!((a.anonymity_set - 1.0).abs() < 1e-12);
    }

    #[test]
    fn entropy_degrades_monotonically_with_fraction() {
        // Same synthetic run, growing f: entropy must not increase and
        // identification must not decrease.
        let run = synthetic_run(64, 40, &[3, 4, 5, 6, 7, 8, 9, 10]);
        let mut last_h = f64::INFINITY;
        let mut last_p = 0.0;
        for f in [0.0, 0.1, 0.2, 0.3, 0.5] {
            let adv = ColludingRelays {
                fraction: f,
                adversary_stays: true, // deterministic slot-ranked set
                seed: 1,
            };
            let a = adv.assess(&run);
            assert!(
                a.shannon_entropy_bits <= last_h + 1e-9,
                "entropy must fall with f"
            );
            assert!(a.p_identified >= last_p - 1e-9, "exposure must rise");
            last_h = a.shannon_entropy_bits;
            last_p = a.p_identified;
        }
        assert!(last_h < 6.0, "f=0.5 must beat the uniform prior");
    }

    #[test]
    fn staying_adversary_takes_the_busiest_slots() {
        // Relays 5 and 6 serve every construction and relay 3 serves 3 of
        // 4; a three-node staying adversary must grab exactly those.
        let run = synthetic_run(10, 4, &[3, 3, 3, 4]);
        let adv = ColludingRelays {
            fraction: 0.3,
            adversary_stays: true,
            seed: 9,
        };
        let bad = adv.compromised(&run);
        assert!(bad.contains(&NodeId(3)));
        let uniform_identified = adv.assess(&run).p_identified;
        assert!(
            uniform_identified > 0.7,
            "holding the hottest first hop identifies 3/4 flows (got {uniform_identified})"
        );
    }

    #[test]
    fn endpoints_are_never_compromised() {
        let run = synthetic_run(8, 4, &[3]);
        for stays in [false, true] {
            let adv = ColludingRelays {
                fraction: 1.0,
                adversary_stays: stays,
                seed: 2,
            };
            let bad = adv.compromised(&run);
            assert!(!bad.contains(&run.initiator));
            assert!(!bad.contains(&run.responder));
        }
    }

    #[test]
    fn empty_log_is_uninformed() {
        let run = ObservedRun {
            log: ObservationLog::new(),
            n: 32,
            initiator: NodeId(0),
            responder: NodeId(1),
            flows: Vec::new(),
        };
        let adv = ColludingRelays {
            fraction: 0.3,
            adversary_stays: false,
            seed: 3,
        };
        let a = adv.assess(&run);
        assert!((a.shannon_entropy_bits - 5.0).abs() < 1e-9);
        assert!((a.p_identified - 1.0 / 32.0).abs() < 1e-12);
    }
}
