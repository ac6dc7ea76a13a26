//! Differential test for [`sample_universe`]: the sampler that deduped each
//! draw by scanning its own output (PR 25's parent) is kept here, and the
//! bitset sampler must match it draw for draw — same output vector, same
//! candidates offered to `accept`, same RNG state afterwards — and hand
//! its bitset back all zero.

use membership::gossip::sample_universe;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use simnet::NodeId;

/// The parent's sampler, verbatim but for its name.
fn reference_sample<R: Rng>(
    n: u32,
    sender: NodeId,
    count: usize,
    rng: &mut R,
    out: &mut Vec<NodeId>,
    mut accept: impl FnMut(NodeId) -> bool,
) {
    out.clear();
    let mut tries = 0usize;
    while out.len() < count && tries < count * 8 + 16 {
        tries += 1;
        let cand = NodeId(rng.gen_range(0..n));
        if cand != sender && !out.contains(&cand) && accept(cand) {
            out.push(cand);
        }
    }
}

fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn bitset_sampler_matches_the_scanning_reference(
        n in 2u32..2000,
        count_word in any::<u64>(),
        sender_word in any::<u64>(),
        // Out of 4: how many of an id's hash classes `accept` turns down
        // (0 = the open-membership default, 3 = an evicting cache).
        reject in 0u64..4,
        seed in any::<u64>(),
    ) {
        let mut seen = vec![0u64; (n as usize).div_ceil(64)];
        let (mut rng, mut twin) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
        let (mut out, mut expected) = (Vec::new(), Vec::new());
        // Several passes through one bitset, so a bit left set by one pass
        // would show in the next.
        for pass in 0..3u64 {
            // Up to n + 4: from n − 1 on, the sample cannot fill and the
            // `tries` cap ends it.
            let count = (mix64(count_word ^ pass) % (u64::from(n) + 5)) as usize;
            let sender = NodeId((mix64(sender_word ^ pass) % u64::from(n)) as u32);
            let accepts = |id: NodeId| mix64(seed ^ pass ^ u64::from(id.0)) % 4 >= reject;
            let (mut asked, mut asked_ref) = (Vec::new(), Vec::new());
            sample_universe(n, sender, count, &mut rng, &mut out, &mut seen, |id| {
                asked.push(id);
                accepts(id)
            });
            reference_sample(n, sender, count, &mut twin, &mut expected, |id| {
                asked_ref.push(id);
                accepts(id)
            });
            prop_assert_eq!(&out, &expected);
            prop_assert_eq!(asked, asked_ref);
            prop_assert!(seen.iter().all(|&w| w == 0), "bitset left dirty");
        }
        prop_assert_eq!(rng.next_u64(), twin.next_u64());
    }
}
