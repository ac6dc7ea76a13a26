//! Replay: after a run, call a layer's public function on inputs of
//! the sizes the run observed and report nanoseconds per call. The
//! caller multiplies by the run's call counts to attribute time the
//! wrappers cannot see from outside (onion, wire, crypto live inside
//! `ProtocolNode::handle` and `SimTransport::send`).

use crate::report::splitmix;
use anon_core::onion::{
    build_construction_onion, build_payload_onion, build_reverse_payload, peel_construction_layer,
    peel_payload_layer_in_place, peel_reverse_payload_in_place, wrap_reverse_layer_in_place,
};
use anon_core::relay::Relay;
use anon_core::sim::WorldConfig;
use anon_core::wire::{decode_frame_vec, encode_frame, Frame, Wire, HEADER_LEN};
use anon_core::{MessageId, StreamId};
use erasure::{gf256, Segment};
use membership::MembershipLayer;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sim_crypto::{
    seal, sym_decrypt_in_place, sym_encrypt_in_place, unseal, x25519, KeyPair, SymmetricKey,
};
use simnet::{ChurnSchedule, Engine, Latency, NodeId, SimTime};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// How long each replayed function is timed for in one round. A run
/// replays in several rounds spread between its slices and keeps each
/// function's best round: interference on a shared box only ever adds
/// time, and it comes in bursts that outlast a round but not a run.
const BUDGET: Duration = Duration::from_millis(6);

/// Nanoseconds per item: batches of `batch` inputs are prepared
/// untimed and consumed timed; the best batch is reported.
fn per_item_ns<I>(batch: usize, mut prepare: impl FnMut() -> I, mut run: impl FnMut(I)) -> f64 {
    let end = Instant::now() + BUDGET;
    let mut best = f64::INFINITY;
    let mut batches = 0;
    while batches < 3 || Instant::now() < end {
        let inputs: Vec<I> = (0..batch).map(|_| prepare()).collect();
        let t = Instant::now();
        for input in inputs {
            run(input);
        }
        best = best.min(t.elapsed().as_nanos() as f64 / batch as f64);
        batches += 1;
    }
    best
}

/// Per-call costs of the data-path layers at one workload's sizes.
#[derive(Clone, Copy, Default)]
pub struct ChainCosts {
    pub build_payload_ns: f64,
    pub peel_ns: f64,
    pub wrap_reverse_ns: f64,
    pub peel_reverse_ns: f64,
    pub build_construct_us: f64,
    pub peel_construct_us: f64,
    pub handle_payload_ns: f64,
    pub wire_encode_ns: f64,
    pub wire_decode_ns: f64,
    /// One symmetric layer (half an encrypt + decrypt round trip) at
    /// [`SYM_SMALL`] and at [`SYM_LARGE`] bytes.
    pub sym_small_ns: f64,
    pub sym_large_ns: f64,
    pub seal_us: f64,
    pub unseal_us: f64,
    pub x25519_us: f64,
    pub gf256_mul_acc_mb_s: f64,
    pub engine_dispatch_ns: f64,
}

impl ChainCosts {
    /// Field by field, the better of two rounds.
    pub fn best_of(self, o: ChainCosts) -> ChainCosts {
        ChainCosts {
            build_payload_ns: self.build_payload_ns.min(o.build_payload_ns),
            peel_ns: self.peel_ns.min(o.peel_ns),
            wrap_reverse_ns: self.wrap_reverse_ns.min(o.wrap_reverse_ns),
            peel_reverse_ns: self.peel_reverse_ns.min(o.peel_reverse_ns),
            build_construct_us: self.build_construct_us.min(o.build_construct_us),
            peel_construct_us: self.peel_construct_us.min(o.peel_construct_us),
            handle_payload_ns: self.handle_payload_ns.min(o.handle_payload_ns),
            wire_encode_ns: self.wire_encode_ns.min(o.wire_encode_ns),
            wire_decode_ns: self.wire_decode_ns.min(o.wire_decode_ns),
            sym_small_ns: self.sym_small_ns.min(o.sym_small_ns),
            sym_large_ns: self.sym_large_ns.min(o.sym_large_ns),
            seal_us: self.seal_us.min(o.seal_us),
            unseal_us: self.unseal_us.min(o.unseal_us),
            x25519_us: self.x25519_us.min(o.x25519_us),
            gf256_mul_acc_mb_s: self.gf256_mul_acc_mb_s.max(o.gf256_mul_acc_mb_s),
            engine_dispatch_ns: self.engine_dispatch_ns.min(o.engine_dispatch_ns),
        }
    }

    /// One symmetric layer costs `fixed + per_byte * bytes`, fitted
    /// through the two sizes timed.
    pub fn sym_per_byte_ns(&self) -> f64 {
        ((self.sym_large_ns - self.sym_small_ns) / (SYM_LARGE - SYM_SMALL) as f64).max(0.0)
    }

    pub fn sym_fixed_ns(&self) -> f64 {
        (self.sym_small_ns - self.sym_per_byte_ns() * SYM_SMALL as f64).max(0.0)
    }

    pub fn sym_layer_ns(&self, bytes: f64) -> f64 {
        self.sym_fixed_ns() + self.sym_per_byte_ns() * bytes
    }

    pub fn sym_mb_s(&self) -> f64 {
        1e3 / self.sym_per_byte_ns().max(1e-9)
    }
}

const SYM_SMALL: usize = 64;
const SYM_LARGE: usize = 8192;

/// One symmetric layer's cost at `bytes` of plaintext: half of an
/// in-place encrypt followed by the matching decrypt, in a buffer with
/// room to grow (as a decoded frame's has).
fn sym_layer_ns(bytes: usize, rng: &mut StdRng) -> f64 {
    let key = SymmetricKey::generate(rng);
    let plain = vec![0x5Au8; bytes];
    per_item_ns(
        32,
        || {
            let mut buf = Vec::with_capacity(bytes + 64);
            buf.extend_from_slice(&plain);
            buf
        },
        |mut buf| {
            sym_encrypt_in_place(&key, &mut buf, rng);
            sym_decrypt_in_place(&key, &mut buf).expect("own ciphertext");
            black_box(&buf);
        },
    ) / 2.0
}

/// Time the data-path layers for paths of `relays` relays carrying
/// segments of `segment_bytes`, reverse blobs of `reverse_bytes` and
/// frames of `frame_bytes` (the means a traced run observed).
pub fn chain_costs(
    seed: u64,
    relays: usize,
    segment_bytes: usize,
    reverse_bytes: usize,
    frame_bytes: usize,
) -> ChainCosts {
    let mut rng = StdRng::seed_from_u64(splitmix(seed ^ 0x7e91a7));
    let keypairs: Vec<KeyPair> = (0..=relays).map(|_| KeyPair::generate(&mut rng)).collect();
    let hop_keys: Vec<_> = keypairs
        .iter()
        .enumerate()
        .map(|(i, kp)| (NodeId(i as u32 + 1), kp.public))
        .collect();
    let (plan, construct_blob) = build_construction_onion(&hop_keys, &mut rng);
    let mid = MessageId(7);
    let segment = Segment::new(0, vec![0xC3; segment_bytes]);
    let (onion, _) = build_payload_onion(&plan, mid, &segment, None, &mut rng);

    let mut c = ChainCosts::default();

    let mut r = StdRng::seed_from_u64(2);
    c.build_construct_us = per_item_ns(
        4,
        || (),
        |()| {
            black_box(build_construction_onion(&hop_keys, &mut r));
        },
    ) / 1e3;
    c.peel_construct_us = per_item_ns(
        4,
        || (),
        |()| {
            black_box(
                peel_construction_layer(&keypairs[0].secret, &construct_blob).expect("own onion"),
            );
        },
    ) / 1e3;
    c.build_payload_ns = per_item_ns(
        32,
        || (),
        |()| {
            black_box(build_payload_onion(&plan, mid, &segment, None, &mut r));
        },
    );
    c.peel_ns = per_item_ns(
        32,
        || onion.clone(),
        |mut buf| {
            black_box(
                peel_payload_layer_in_place(&plan.session_keys[0], &mut buf).expect("own onion"),
            );
        },
    );

    // Reverse path: the responder's ack, then one wrap per relay.
    let mut ack = build_reverse_payload(
        &plan.session_keys[relays],
        mid,
        &Segment::new(0, vec![0; reverse_bytes.saturating_sub(64)]),
        &mut rng,
    );
    c.wrap_reverse_ns = per_item_ns(
        32,
        || ack.clone(),
        |mut buf| {
            wrap_reverse_layer_in_place(&plan.session_keys[0], &mut buf, &mut r);
            black_box(&buf);
        },
    );
    for key in plan.session_keys[..relays].iter().rev() {
        wrap_reverse_layer_in_place(key, &mut ack, &mut rng);
    }
    c.peel_reverse_ns = per_item_ns(
        32,
        || ack.clone(),
        |mut buf| {
            black_box(peel_reverse_payload_in_place(&plan, &mut buf, None).expect("own ack"));
        },
    );

    // The relay's own handling on top of the peel: table lookup, TTL
    // refresh, action dispatch.
    let mut relay = Relay::new(NodeId(1), keypairs[0].clone());
    let (from, sid) = (NodeId(0), StreamId(99));
    relay
        .handle_construction(from, sid, &construct_blob, SimTime::ZERO, &mut rng)
        .expect("own construction onion");
    c.handle_payload_ns = per_item_ns(
        32,
        || onion.clone(),
        |mut buf| {
            black_box(
                relay
                    .handle_payload_in_place(from, sid, &mut buf, SimTime::ZERO, &mut r)
                    .expect("own onion"),
            );
        },
    );

    let frame = Frame::Stream {
        sid,
        wire: Wire::Payload {
            blob: vec![0x11; frame_bytes.saturating_sub(HEADER_LEN + 8)],
        },
    };
    let encoded = encode_frame(&frame);
    c.wire_encode_ns = per_item_ns(
        64,
        || (),
        |()| {
            black_box(encode_frame(black_box(&frame)));
        },
    );
    c.wire_decode_ns = per_item_ns(
        64,
        || encoded.clone(),
        |bytes| {
            black_box(decode_frame_vec(bytes).expect("own frame"));
        },
    );

    c.sym_small_ns = sym_layer_ns(SYM_SMALL, &mut rng);
    c.sym_large_ns = sym_layer_ns(SYM_LARGE, &mut rng);

    let recipient = &keypairs[0];
    let sealed = seal(&recipient.public, &[0u8; 33], &mut rng);
    c.seal_us = per_item_ns(
        4,
        || (),
        |()| {
            black_box(seal(&recipient.public, &[0u8; 33], &mut r));
        },
    ) / 1e3;
    c.unseal_us = per_item_ns(
        4,
        || (),
        |()| {
            black_box(unseal(&recipient.secret, &sealed).expect("own box"));
        },
    ) / 1e3;
    let scalar = [0x42u8; 32];
    c.x25519_us = per_item_ns(
        4,
        || (),
        |()| {
            black_box(x25519::x25519(black_box(&scalar), &x25519::BASE_POINT));
        },
    ) / 1e3;

    let src = vec![0x9Du8; 4096];
    let mut dst = vec![0u8; 4096];
    let ns = per_item_ns(
        16,
        || (),
        |()| {
            gf256::mul_acc_slice(&mut dst, black_box(&src), 0x57);
        },
    );
    black_box(&dst);
    c.gf256_mul_acc_mb_s = src.len() as f64 * 1e3 / ns;

    c.engine_dispatch_ns = engine_dispatch_ns();
    c
}

/// Nanoseconds to schedule and dispatch one event through
/// `simnet::Engine`, at a queue depth of a few hundred.
pub fn engine_dispatch_ns() -> f64 {
    const EVENTS: u64 = 4096;
    per_item_ns(
        1,
        || (),
        |()| {
            let mut engine: Engine<u64> = Engine::new();
            let mut fired = 0u64;
            for i in 0..EVENTS {
                // Arrival order differs from schedule order, as frames'
                // does when link delays differ.
                let at = SimTime((splitmix(i) % 400) * 50 + i * 20);
                engine.schedule_at(at, |w: &mut u64, _| *w += 1);
            }
            engine.run(&mut fired);
            assert_eq!(fired, EVENTS);
        },
    ) / EVENTS as f64
}

/// Nanoseconds per `ChurnSchedule::is_up` and per `Latency::owd` on
/// the workload's own world, over seed-generated node pairs.
pub fn world_lookup_ns(seed: u64, schedule: &ChurnSchedule, latency: &Latency) -> (f64, f64) {
    let n = schedule.len() as u64;
    let mut state = splitmix(seed ^ 0x100c);
    let mut pair = move || {
        state = splitmix(state);
        (
            NodeId((state % n) as u32),
            NodeId(((state >> 32) % n) as u32),
            SimTime::from_secs(600 + (state >> 48) % 6400),
        )
    };
    let is_up = per_item_ns(1024, &mut pair, |(a, _, t)| {
        black_box(schedule.is_up(a, t));
    });
    let owd = per_item_ns(1024, &mut pair, |(a, b, _)| {
        black_box(latency.owd(a, b));
    });
    (is_up, owd)
}

/// `World::new`'s three constructors, called one by one in its draw
/// order on its RNG, each timed.
pub struct WorldParts {
    pub schedule: ChurnSchedule,
    pub latency: Latency,
    pub generate_s: f64,
    pub latency_build_s: f64,
    pub membership_new_s: f64,
}

pub fn world_parts(cfg: &WorldConfig) -> WorldParts {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let t = Instant::now();
    let schedule = ChurnSchedule::generate(
        cfg.n,
        &cfg.lifetime,
        &cfg.downtime,
        cfg.horizon + cfg.schedule_margin,
        &mut rng,
    );
    let generate_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let latency = cfg.topology.latency_model(cfg.n, cfg.avg_rtt_ms, &mut rng);
    let latency_build_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    black_box(MembershipLayer::new(cfg.n, cfg.membership, &mut rng));
    WorldParts {
        schedule,
        latency,
        generate_s,
        latency_build_s,
        membership_new_s: t.elapsed().as_secs_f64(),
    }
}
