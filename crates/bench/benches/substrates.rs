//! Substrate microbenchmarks: field arithmetic, erasure coding, and every
//! cryptographic primitive on the onion hot path.

use bench::{bench_rng, payload};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use erasure::codec::{Codec, ErasureCodec};
use erasure::gf256;
use erasure::rs::ReedSolomon;
use sim_crypto::{
    chacha20, seal, sha256::sha256, sym_decrypt_in_place, sym_encrypt_in_place, unseal, x25519,
    KeyPair, SymmetricKey,
};
use std::hint::black_box;

fn bench_gf256(c: &mut Criterion) {
    let mut g = c.benchmark_group("gf256");
    let a = payload(4096);
    let b = payload(4096);
    g.throughput(Throughput::Bytes(4096));
    g.bench_function("mul_table_4k", |bench| {
        bench.iter(|| {
            let mut acc = 0u8;
            for (&x, &y) in a.iter().zip(&b) {
                acc ^= gf256::mul(x, y);
            }
            black_box(acc)
        })
    });
    g.bench_function("mul_shift_add_4k", |bench| {
        bench.iter(|| {
            let mut acc = 0u8;
            for (&x, &y) in a.iter().zip(&b) {
                acc ^= gf256::mul_slow(x, y);
            }
            black_box(acc)
        })
    });
    g.bench_function("mul_acc_slice_4k", |bench| {
        let mut dst = vec![0u8; 4096];
        bench.iter(|| {
            gf256::mul_acc_slice(&mut dst, &a, 0x37);
            black_box(dst[0])
        })
    });
    g.finish();
}

fn bench_reed_solomon(c: &mut Criterion) {
    let mut g = c.benchmark_group("reed_solomon");
    for &(m, n) in &[(2usize, 4usize), (4, 8), (4, 16), (8, 16)] {
        let rs = ReedSolomon::new(m, n).unwrap();
        let shard = 1024 / m;
        let data: Vec<Vec<u8>> = (0..m).map(|_| payload(shard)).collect();
        g.throughput(Throughput::Bytes((shard * m) as u64));
        g.bench_with_input(
            BenchmarkId::new("encode", format!("{m}of{n}")),
            &rs,
            |bench, rs| bench.iter(|| black_box(rs.encode(&data).unwrap())),
        );
        let coded = rs.encode(&data).unwrap();
        // Worst case: reconstruct from the last m (parity-heavy) shards.
        let survivors: Vec<(usize, &[u8])> = (n - m..n).map(|i| (i, coded[i].as_slice())).collect();
        g.bench_with_input(
            BenchmarkId::new("decode_parity", format!("{m}of{n}")),
            &rs,
            |bench, rs| bench.iter(|| black_box(rs.reconstruct(&survivors).unwrap())),
        );
        // Best case: all data shards present (systematic fast path).
        let data_survivors: Vec<(usize, &[u8])> =
            (0..m).map(|i| (i, coded[i].as_slice())).collect();
        g.bench_with_input(
            BenchmarkId::new("decode_systematic", format!("{m}of{n}")),
            &rs,
            |bench, rs| bench.iter(|| black_box(rs.reconstruct(&data_survivors).unwrap())),
        );
    }
    g.finish();
}

fn bench_message_codec(c: &mut Criterion) {
    let mut g = c.benchmark_group("message_codec");
    let msg = payload(1024); // the paper's 1 KB message
    for &(m, r) in &[(1usize, 2usize), (1, 4), (2, 2), (4, 4)] {
        let codec = ErasureCodec::from_replication_factor(m, r).unwrap();
        g.throughput(Throughput::Bytes(1024));
        g.bench_function(format!("encode_1KB_m{m}_r{r}"), |bench| {
            bench.iter(|| black_box(codec.encode(&msg)))
        });
        let segs = codec.encode(&msg);
        let survivors: Vec<_> = segs.into_iter().rev().take(m).collect();
        g.bench_function(format!("decode_1KB_m{m}_r{r}"), |bench| {
            bench.iter(|| black_box(codec.decode(&survivors).unwrap()))
        });
    }
    g.finish();
}

fn bench_crypto(c: &mut Criterion) {
    let mut g = c.benchmark_group("crypto");
    let mut rng = bench_rng();
    let data = payload(1024);

    g.throughput(Throughput::Bytes(1024));
    g.bench_function("sha256_1KB", |b| b.iter(|| black_box(sha256(&data))));

    let key = [7u8; 32];
    let nonce = [9u8; 12];
    g.bench_function("chacha20_1KB", |b| {
        b.iter(|| black_box(chacha20::encrypt(&key, 0, &nonce, &data)))
    });

    let sym = SymmetricKey::generate(&mut rng);
    g.bench_function("sym_encrypt_1KB", |b| {
        let mut rng = bench_rng();
        b.iter(|| {
            let mut buf = data.clone();
            sym_encrypt_in_place(&sym, &mut buf, &mut rng);
            black_box(buf)
        })
    });

    // The symmetric layer as the forwarding path pays it and as the
    // benchmark's ledger defines it (`benchmark/src/replay.rs`): half an
    // in-place seal/open round trip under a key expanded beforehand.
    // Iterations alternate seal and open on one buffer, so the reported
    // time is the mean layer. 64 B is nearly all fixed cost, 8 KiB nearly
    // all per-byte; `sym_key_expand` is the once-per-path part.
    for (name, len) in [("sym_layer_64B", 64usize), ("sym_layer_8KiB", 8192)] {
        g.throughput(Throughput::Bytes(len as u64));
        g.bench_function(name, |b| {
            let mut rng = bench_rng();
            let mut buf = Vec::with_capacity(len + 64);
            buf.extend_from_slice(&payload(len));
            let mut sealed = false;
            b.iter(|| {
                if sealed {
                    sym_decrypt_in_place(&sym, &mut buf).unwrap();
                } else {
                    sym_encrypt_in_place(&sym, &mut buf, &mut rng);
                }
                sealed = !sealed;
                black_box(buf.len())
            })
        });
    }
    g.throughput(Throughput::Elements(1));
    g.bench_function("sym_key_expand", |b| {
        b.iter(|| black_box(SymmetricKey::from_bytes(black_box(key))))
    });

    g.throughput(Throughput::Bytes(1024));
    let kp = KeyPair::generate(&mut rng);
    g.bench_function("x25519_scalar_mult", |b| {
        b.iter(|| black_box(x25519::x25519(&[0x42u8; 32], &kp.public.0)))
    });
    g.bench_function("sealed_box_seal_1KB", |b| {
        let mut rng = bench_rng();
        b.iter(|| black_box(seal(&kp.public, &data, &mut rng)))
    });
    let boxed = seal(&kp.public, &data, &mut rng);
    g.bench_function("sealed_box_unseal_1KB", |b| {
        b.iter(|| black_box(unseal(&kp.secret, &boxed).unwrap()))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_gf256,
    bench_reed_solomon,
    bench_message_codec,
    bench_crypto
);
criterion_main!(benches);
