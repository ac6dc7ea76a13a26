//! Onion hot-path benchmarks: construction-onion build/peel and payload
//! wrap/strip as a function of path length L — the per-message costs the
//! paper trades off against resilience.

use anon_core::ids::MessageId;
use anon_core::onion::{
    build_construction_onion, build_payload_onion, peel_construction_layer,
    peel_payload_layer_in_place, ConstructionLayer,
};
use bench::{bench_rng, payload};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use erasure::Segment;
use sim_crypto::{KeyPair, PublicKey};
use simnet::NodeId;
use std::hint::black_box;

fn hops(l: usize) -> (Vec<(NodeId, PublicKey)>, Vec<KeyPair>) {
    let mut rng = bench_rng();
    let keypairs: Vec<KeyPair> = (0..=l).map(|_| KeyPair::generate(&mut rng)).collect();
    let hops = keypairs
        .iter()
        .enumerate()
        .map(|(i, kp)| (NodeId(i as u32), kp.public))
        .collect();
    (hops, keypairs)
}

fn bench_construction(c: &mut Criterion) {
    let mut g = c.benchmark_group("construction_onion");
    for l in [1usize, 3, 5, 8] {
        let (hop_keys, keypairs) = hops(l);
        g.bench_with_input(BenchmarkId::new("build", l), &l, |b, _| {
            let mut rng = bench_rng();
            b.iter(|| black_box(build_construction_onion(&hop_keys, &mut rng)))
        });
        let mut rng = bench_rng();
        let (_, blob) = build_construction_onion(&hop_keys, &mut rng);
        g.bench_with_input(BenchmarkId::new("peel_first_layer", l), &l, |b, _| {
            b.iter(|| black_box(peel_construction_layer(&keypairs[0].secret, &blob).unwrap()))
        });
        g.bench_with_input(BenchmarkId::new("peel_full_path", l), &l, |b, _| {
            b.iter(|| {
                let mut cur = blob.clone();
                for kp in &keypairs {
                    match peel_construction_layer(&kp.secret, &cur).unwrap() {
                        ConstructionLayer::Relay { inner, .. } => cur = inner,
                        ConstructionLayer::Terminal { session_key } => {
                            return black_box(session_key);
                        }
                    }
                }
                unreachable!()
            })
        });
    }
    g.finish();
}

fn bench_payload(c: &mut Criterion) {
    let mut g = c.benchmark_group("payload_onion");
    let seg = Segment::new(0, payload(512)); // |M|·r/k for 1 KB, k=4, r=2
    for l in [1usize, 3, 5, 8] {
        let (hop_keys, _) = hops(l);
        let mut rng = bench_rng();
        let (plan, _) = build_construction_onion(&hop_keys, &mut rng);
        g.bench_with_input(BenchmarkId::new("build_512B", l), &l, |b, _| {
            let mut rng = bench_rng();
            b.iter(|| {
                black_box(build_payload_onion(
                    &plan,
                    MessageId(1),
                    &seg,
                    None,
                    &mut rng,
                ))
            })
        });
        let (blob, _) = build_payload_onion(&plan, MessageId(1), &seg, None, &mut rng);
        g.bench_with_input(BenchmarkId::new("strip_full_path_512B", l), &l, |b, _| {
            b.iter(|| {
                let mut cur = blob.clone();
                for key in &plan.session_keys {
                    black_box(peel_payload_layer_in_place(key, &mut cur).unwrap());
                }
                black_box(cur)
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_construction, bench_payload);
criterion_main!(benches);
