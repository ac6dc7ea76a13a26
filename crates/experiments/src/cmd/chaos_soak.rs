//! Chaos soak harness: thousands of message rounds through the live
//! protocol stack (`ProtocolNode` over `SimTransport`) under
//! deterministic fault injection — drops, delays, corruption, link
//! resets — with relays killed on a schedule.
//!
//! Two configurations face the identical fault plan:
//!
//! * **era** — SimEra-style 2-of-4 erasure coding over 4 disjoint paths
//! * **curmix** — a single path, no redundancy (the CurMix baseline)
//!
//! and the harness asserts the recovery invariants the chaos test suite
//! pins at small scale: zero acked-message loss, bounded retry storms,
//! run-twice determinism under one seed, and erasure-coded multipath
//! delivering where the single path fails.
//!
//! `--rounds` sets the round count (default 2000, or 200 under
//! `--quick`), `--seed` the chaos seed (default 42); `--out` writes a
//! JSON blob including `rounds_per_sec`.

use super::{Args, ExitCode};
use anon_core::MessageId;
use erasure::ErasureCodec;
use rand::rngs::StdRng;
use rand::SeedableRng;
use simnet::{ChurnSchedule, LatencyMatrix, NodeId, SimDuration, SimTime};
use std::fmt::Write as _;
use std::time::Instant;
use transport::{
    ChaosConfig, ChaosPlan, ChaosTransport, PolicyConfig, ProtocolNode, Runtime, SimTransport,
};

/// Fault plan shared by every configuration: moderate weather plus link
/// reset windows (the `simnet::fault` duty-cycle discipline).
const CHAOS_SPEC: &str =
    "drop=0.03,delay=0.1,delay_max_ms=25,corrupt=0.01,resets_per_hour=30,reset_window_ms=2000";

/// Retry budget for the soak initiator (deeper than the default: the
/// weather costs ~1 in 4 round trips).
const SOAK_RETRIES: u32 = 8;

/// One configuration's topology: `paths` disjoint relay chains feeding
/// one responder, erasure-coded `need`-of-`total`.
struct Config {
    label: &'static str,
    paths: Vec<Vec<NodeId>>,
    need: usize,
    total: usize,
}

fn era_config() -> Config {
    Config {
        label: "era",
        paths: (0..4)
            .map(|p| (0..3).map(|h| NodeId(1 + (p * 3 + h) as u32)).collect())
            .collect(),
        need: 2,
        total: 4,
    }
}

fn curmix_config() -> Config {
    Config {
        label: "curmix",
        paths: vec![(0..3).map(|h| NodeId(1 + h as u32)).collect()],
        need: 1,
        total: 1,
    }
}

/// Everything one soak run observed, comparable across replays.
#[derive(Debug, PartialEq, Eq)]
struct SoakResult {
    completed: u64,
    rounds: u64,
    acks: Vec<(u64, usize, u64)>,
    deliveries: Vec<(u64, usize, u64)>,
    retransmits: u64,
    ack_timeouts: u64,
    injected: u64,
    dropped: u64,
    corrupted: u64,
    delayed: u64,
    reset_drops: u64,
}

impl SoakResult {
    fn delivery(&self) -> f64 {
        self.completed as f64 / self.rounds as f64
    }
}

/// Run `rounds` messages through `cfg` under the shared chaos plan,
/// crashing a sacrificial relay's state every `crash_every` rounds.
fn soak(cfg: &Config, rounds: u64, seed: u64, crash_every: u64) -> SoakResult {
    let n = 2 + cfg.paths.iter().map(Vec::len).sum::<usize>();
    let responder = NodeId((n - 1) as u32);
    let horizon = SimTime::from_secs(1 << 22);
    let schedule = ChurnSchedule::always_up(n, horizon);
    let latency = LatencyMatrix::uniform(n, SimDuration::from_millis(20));
    let chaos = ChaosConfig::from_spec(CHAOS_SPEC).expect("valid spec");

    // Warm up fault-free (construction has no retry machinery), then
    // turn the weather on for the payload rounds.
    let mut rt = Runtime::new(ChaosTransport::new(
        SimTransport::new(schedule, latency),
        ChaosPlan::none(),
    ));
    let policy = PolicyConfig {
        max_retries: SOAK_RETRIES,
        ..PolicyConfig::default()
    };
    let mut keyrng = StdRng::seed_from_u64(0x5eed);
    for i in 0..n {
        let id = NodeId::from(i);
        let mut node = ProtocolNode::new(id, sim_crypto::KeyPair::generate(&mut keyrng), {
            0xA0 ^ ((i as u64) << 3)
        })
        .with_state_ttl(SimDuration::from_secs(1 << 20));
        if id == responder {
            node = node
                .with_auto_ack()
                .with_codec(Box::new(ErasureCodec::new(cfg.need, cfg.total).unwrap()));
        }
        if id == NodeId(0) {
            node = node
                .with_codec(Box::new(ErasureCodec::new(cfg.need, cfg.total).unwrap()))
                .with_policy(&policy);
        }
        rt.add_node(node);
    }
    let hop_lists: Vec<Vec<_>> = cfg
        .paths
        .iter()
        .map(|p| {
            p.iter()
                .chain(std::iter::once(&responder))
                .map(|&h| (h, rt.node(h).public_key()))
                .collect()
        })
        .collect();
    rt.drive(NodeId(0), |node, out| node.construct_paths(&hop_lists, out));
    rt.run_until_idle(0);
    assert_eq!(
        rt.node(NodeId(0)).established_paths(),
        cfg.paths.len(),
        "{}: warmup failed to establish all paths",
        cfg.label
    );
    rt.transport.set_plan(ChaosPlan::new(chaos, seed));

    // The sacrificial relay: path 0's first hop. Killing its stream
    // state is a crash-without-restart for that path; era routes around
    // it, curmix has nowhere to go.
    let sacrificial = cfg.paths[0][0];
    let mut completed = 0u64;
    for round in 0..rounds {
        if crash_every > 0 && round % crash_every == crash_every - 1 {
            rt.drive(sacrificial, |node, _| node.crash_relay_state());
        }
        let mid = MessageId(round + 1);
        let body = vec![(round & 0xFF) as u8; 256];
        rt.drive(NodeId(0), |node, out| {
            node.send_message(mid, &body, out).unwrap()
        });
        rt.run_until_idle(0);
        if rt.node(NodeId(0)).message_complete(mid) {
            completed += 1;
        }
    }

    let init = &rt.node(NodeId(0)).events;
    let resp = &rt.node(responder).events;
    let stats = rt.transport.stats();
    SoakResult {
        completed,
        rounds,
        acks: init.acks.iter().map(|&(m, i, at)| (m.0, i, at)).collect(),
        deliveries: resp
            .deliveries
            .iter()
            .map(|&(m, i, at)| (m.0, i, at))
            .collect(),
        retransmits: init.retransmits,
        ack_timeouts: init.ack_timeouts.len() as u64,
        injected: stats.total_injected(),
        dropped: stats.dropped,
        corrupted: stats.corrupted + stats.corrupt_dropped,
        delayed: stats.delayed,
        reset_drops: stats.reset_drops,
    }
}

pub fn run(args: &Args) -> ExitCode {
    let rounds = args.rounds.unwrap_or(if args.quick { 200 } else { 2_000 });
    let seed = args.seed.unwrap_or(42);
    let crash_every = 50;
    println!(
        "chaos soak: {rounds} rounds, seed {seed}, spec {CHAOS_SPEC}, relay crash every {crash_every}"
    );

    let t0 = Instant::now();
    let era = soak(&era_config(), rounds, seed, crash_every);
    let wall_s = t0.elapsed().as_secs_f64();
    let rounds_per_sec = rounds as f64 / wall_s;

    // Invariant 1: zero acked-message loss — every ack corresponds to a
    // delivery the responder recorded.
    for &(mid, index, _) in &era.acks {
        assert!(
            era.deliveries
                .iter()
                .any(|&(m, i, _)| m == mid && i == index),
            "acked (mid={mid}, index={index}) was never delivered"
        );
    }
    // Invariant 2: bounded retry storms.
    assert!(
        era.retransmits <= era.rounds * era_config().total as u64 * SOAK_RETRIES as u64,
        "retry storm: {} retransmits over {} rounds",
        era.retransmits,
        era.rounds
    );
    // Invariant 3: the chaos plan actually acted.
    assert!(era.injected > 0, "no faults injected");
    // Invariant 4: run-twice determinism under the same seed.
    let replay = soak(&era_config(), rounds, seed, crash_every);
    assert_eq!(era, replay, "soak replay diverged under the same seed");

    // The comparison: the same weather on the single-path baseline.
    let curmix = soak(&curmix_config(), rounds, seed, crash_every);
    assert!(
        era.delivery() >= 0.75,
        "era delivery collapsed: {:.3}",
        era.delivery()
    );
    assert!(
        era.delivery() > curmix.delivery() + 0.2,
        "multipath erasure coding shows no advantage: era {:.3} vs curmix {:.3}",
        era.delivery(),
        curmix.delivery()
    );

    println!(
        "  era:    delivery {:.3} ({} / {} rounds), {} retransmits, {} ack timeouts",
        era.delivery(),
        era.completed,
        era.rounds,
        era.retransmits,
        era.ack_timeouts
    );
    println!(
        "  curmix: delivery {:.3} ({} / {} rounds), {} retransmits, {} ack timeouts",
        curmix.delivery(),
        curmix.completed,
        curmix.rounds,
        curmix.retransmits,
        curmix.ack_timeouts
    );
    println!(
        "  chaos:  {} injected (drop {}, corrupt {}, delay {}, reset {})",
        era.injected, era.dropped, era.corrupted, era.delayed, era.reset_drops
    );
    println!("  determinism: replay identical under seed {seed}");
    println!("  rate:   {rounds_per_sec:.1} soak-rounds/sec ({wall_s:.2} s wall)");
    println!("ALL INVARIANTS HELD");

    if let Some(path) = &args.out {
        let mut json = String::new();
        let _ = write!(
            json,
            concat!(
                "{{\"harness\": \"chaos_soak\", \"rounds\": {}, \"seed\": {}, ",
                "\"wall_s\": {:.3}, \"rounds_per_sec\": {:.1}, ",
                "\"era_delivery\": {:.4}, \"curmix_delivery\": {:.4}, ",
                "\"era_retransmits\": {}, \"chaos_injected\": {}, ",
                "\"deterministic\": true}}"
            ),
            rounds,
            seed,
            wall_s,
            rounds_per_sec,
            era.delivery(),
            curmix.delivery(),
            era.retransmits,
            era.injected,
        );
        std::fs::write(path, json + "\n").expect("write --out");
        println!("wrote {path}");
    }
    ExitCode::SUCCESS
}
