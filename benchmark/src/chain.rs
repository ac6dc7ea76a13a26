//! The three sans-io workloads: an initiator, relays and an auto-ack
//! responder as `ProtocolNode`s over `SimTransport`, all in one
//! process. Link delay is simulated (free in host time), so what these
//! measure is the host cost of the protocol stack itself.
//!
//! A run is a sequence of slices; each slice builds a fresh chain
//! (one `setup_s` sample), then does a fixed amount of work (one
//! `ops_per_s` sample). Reported values are the best slice's
//! (`report::steady_low`), so a burst from a noisy neighbour cannot
//! move them, and memory stays at one slice's worth however long the
//! run is. The first slice is also
//! where the deterministic counts are taken, so they do not depend on
//! how many slices the clock allowed.

use crate::replay::{chain_costs, ChainCosts};
use crate::report::{payload, peak_rss_mb, quantile, splitmix, steady_high, steady_low, Report};
use crate::trace::{Ledger, Role, SharedTracer, TracedCodec, TracedPump, Tracer};
use anon_core::MessageId;
use erasure::{Codec, ErasureCodec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sim_crypto::{KeyPair, PublicKey};
use simnet::{ChurnSchedule, LatencyMatrix, NodeId, SimDuration, SimTime};
use std::collections::HashMap;
use std::time::Instant;
use transport::{
    ChaosConfig, ChaosPlan, ChaosTransport, Output, PolicyConfig, ProtocolNode, Runtime,
    SimTransport, Transport,
};

/// The simulated transport every chain workload runs over. The chaos
/// wrapper is there on all three so its counters can be checked; with
/// `ChaosPlan::none()` it delegates without touching the frame.
pub type SimLink = ChaosTransport<SimTransport>;

/// What the closed-loop driver needs from an event pump: the repo's
/// own `Runtime` for the numbers that count, the benchmark's
/// `TracedPump` for the ledger.
pub trait Pump {
    type T: Transport;
    fn transport(&self) -> &Self::T;
    fn transport_mut(&mut self) -> &mut Self::T;
    fn node_mut(&mut self, id: NodeId) -> &mut ProtocolNode;
    fn drive<R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut ProtocolNode, &mut Vec<Output>) -> R,
    ) -> R;
    /// Dispatch one event; `false` once the simulation is idle.
    fn poll_once(&mut self) -> bool;
}

impl<T: Transport> Pump for Runtime<T> {
    type T = T;
    fn transport(&self) -> &T {
        &self.transport
    }
    fn transport_mut(&mut self) -> &mut T {
        &mut self.transport
    }
    fn node_mut(&mut self, id: NodeId) -> &mut ProtocolNode {
        Runtime::node_mut(self, id)
    }
    fn drive<R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut ProtocolNode, &mut Vec<Output>) -> R,
    ) -> R {
        Runtime::drive(self, id, f)
    }
    fn poll_once(&mut self) -> bool {
        Runtime::poll_once(self, 0)
    }
}

/// Which of the three workloads.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Small,
    Coded,
    Construct,
}

/// A chain workload's shape and slice size.
#[derive(Clone, Copy)]
pub struct ChainSize {
    pub kind: Kind,
    pub paths: usize,
    pub relays: usize,
    /// `(m, n)` of the erasure code.
    pub codec: (usize, usize),
    pub payload_bytes: usize,
    pub drop_prob: f64,
    pub in_flight: usize,
    /// Operations per slice: messages, or construction rounds.
    pub slice_ops: usize,
}

impl ChainSize {
    pub fn of(kind: Kind) -> ChainSize {
        match kind {
            Kind::Small => ChainSize {
                kind,
                paths: 1,
                relays: 3,
                codec: (1, 1),
                payload_bytes: 64,
                drop_prob: 0.0,
                in_flight: 32,
                slice_ops: 3_000,
            },
            Kind::Coded => ChainSize {
                kind,
                paths: 4,
                relays: 3,
                codec: (2, 4),
                payload_bytes: 8192,
                drop_prob: 0.02,
                in_flight: 32,
                slice_ops: 250,
            },
            Kind::Construct => ChainSize {
                kind,
                paths: 4,
                relays: 3,
                codec: (2, 4),
                payload_bytes: 0,
                drop_prob: 0.0,
                in_flight: 1,
                slice_ops: 100,
            },
        }
    }

    /// The same shape at a size a unit test finishes in milliseconds.
    pub fn tiny(kind: Kind) -> ChainSize {
        ChainSize {
            slice_ops: 24,
            in_flight: Self::of(kind).in_flight.min(8),
            ..Self::of(kind)
        }
    }
}

/// Deep enough that a message failing needs eleven losses in a row on
/// one segment (about 1e-9 at 2 % per frame-hop): no operation fails.
const MAX_RETRIES: u32 = 10;

const INITIATOR: NodeId = NodeId(0);

/// A built chain, ready for traffic.
struct Chain<P> {
    pump: P,
    responder: NodeId,
    hop_lists: Vec<Vec<(NodeId, PublicKey)>>,
    setup_s: f64,
}

/// Build the nodes, construct the paths over a fault-free link, then
/// switch the loss on. `new_pump` makes the empty pump; `add` registers
/// a node in it. Timed from before key generation to the last
/// construction ack.
fn build<P: Pump<T = SimLink>>(
    size: &ChainSize,
    seed: u64,
    tracer: Option<&SharedTracer>,
    new_pump: impl FnOnce(SimLink) -> P,
    add: impl Fn(&mut P, ProtocolNode, Role),
) -> Chain<P> {
    let t0 = Instant::now();
    let n = 2 + size.paths * size.relays;
    let responder = NodeId((n - 1) as u32);
    let horizon = SimTime::from_secs(1 << 22);
    let link = ChaosTransport::new(
        SimTransport::new(
            ChurnSchedule::always_up(n, horizon),
            LatencyMatrix::uniform(n, SimDuration::from_millis(20)),
        ),
        ChaosPlan::none(),
    );
    let mut pump = new_pump(link);
    let codec = || -> Box<dyn Codec> {
        let codec = ErasureCodec::new(size.codec.0, size.codec.1).expect("valid (m, n)");
        match tracer {
            Some(t) => Box::new(TracedCodec::new(codec, t.clone())),
            None => Box::new(codec),
        }
    };
    let policy = PolicyConfig {
        max_retries: MAX_RETRIES,
        ..PolicyConfig::default()
    };
    let mut keyrng = StdRng::seed_from_u64(splitmix(seed ^ 0x6b65_7973));
    let mut keys = Vec::with_capacity(n);
    for i in 0..n {
        let id = NodeId(i as u32);
        let keypair = KeyPair::generate(&mut keyrng);
        keys.push(keypair.public);
        // Relay state must outlive a slice's simulated time.
        let mut node = ProtocolNode::new(id, keypair, splitmix(seed ^ ((i as u64) << 8)))
            .with_state_ttl(SimDuration::from_secs(1 << 20));
        let role = if id == INITIATOR {
            node = node.with_codec(codec()).with_policy(&policy);
            Role::Initiator
        } else if id == responder {
            node = node.with_auto_ack().with_codec(codec());
            Role::Responder
        } else {
            Role::Relay
        };
        add(&mut pump, node, role);
    }
    let hop_lists: Vec<Vec<_>> = (0..size.paths)
        .map(|p| {
            (0..size.relays)
                .map(|h| 1 + p * size.relays + h)
                .chain(std::iter::once(n - 1))
                .map(|i| (NodeId(i as u32), keys[i]))
                .collect()
        })
        .collect();
    pump.drive(INITIATOR, |node, out| node.construct_paths(&hop_lists, out));
    while pump.poll_once() {}
    assert_eq!(
        pump.node_mut(INITIATOR).established_paths(),
        size.paths,
        "set-up must establish every path"
    );
    pump.node_mut(INITIATOR).events.established.clear();
    pump.node_mut(responder).events.constructions.clear();
    if size.drop_prob > 0.0 {
        let chaos = ChaosConfig {
            drop_prob: size.drop_prob,
            ..ChaosConfig::NONE
        };
        pump.transport_mut()
            .set_plan(ChaosPlan::new(chaos, splitmix(seed ^ 0xc4a05)));
    }
    Chain {
        pump,
        responder,
        hop_lists,
        setup_s: t0.elapsed().as_secs_f64(),
    }
}

/// What one slice of work observed.
#[derive(Default)]
struct Slice {
    attempted: u64,
    completed: u64,
    failed: u64,
    elapsed_s: f64,
    /// Host microseconds from launch to completion, per operation.
    latency_us: Vec<f64>,
    /// Every message the responder reassembled equals the bytes sent.
    payloads_match: bool,
    reassembled: u64,
    retransmits: u64,
    ack_timeouts: u64,
    stateless_drops: u64,
    wire_bytes: u64,
    chaos_passed: u64,
    chaos_dropped: u64,
}

impl Slice {
    fn ops_per_s(&self) -> f64 {
        self.completed as f64 / self.elapsed_s
    }
}

/// Closed loop: keep `in_flight` messages outstanding until `ops` have
/// completed or failed. With `sample`, each message is launched alone
/// and its spans are kept in full.
fn run_messages<P: Pump<T = SimLink>>(
    chain: &mut Chain<P>,
    size: &ChainSize,
    seed: u64,
    first_mid: u64,
    ops: usize,
    in_flight: usize,
    sample: Option<&SharedTracer>,
) -> Slice {
    let responder = chain.responder;
    let pump = &mut chain.pump;
    let wire0 = pump.transport().inner().wire_bytes();
    let chaos0 = pump.transport().stats();
    let mut slice = Slice {
        payloads_match: true,
        ..Slice::default()
    };
    let mut inflight: HashMap<u64, Instant> = HashMap::with_capacity(in_flight * 2);
    let mut timeouts: HashMap<(u64, usize), u32> = HashMap::new();
    let mut launched = 0usize;
    let mut done = 0usize;
    let t0 = Instant::now();
    while done < ops {
        while inflight.len() < in_flight && launched < ops {
            let mid = first_mid + launched as u64;
            let body = payload(seed, mid, size.payload_bytes);
            if let Some(t) = sample {
                t.borrow_mut().sample(mid);
            }
            inflight.insert(mid, Instant::now());
            pump.drive(INITIATOR, |node, out| {
                node.send_message(MessageId(mid), &body, out)
            })
            .expect("paths are established and a codec is attached");
            launched += 1;
        }
        if !pump.poll_once() {
            break; // idle with messages outstanding: they are lost
        }
        let node = pump.node_mut(INITIATOR);
        for &(mid, _, _) in &node.events.acks {
            if node.message_complete(mid) {
                if let Some(start) = inflight.remove(&mid.0) {
                    slice
                        .latency_us
                        .push(start.elapsed().as_nanos() as f64 / 1e3);
                    slice.completed += 1;
                    done += 1;
                    if let Some(t) = sample {
                        t.borrow_mut().stop_sample();
                    }
                }
            }
        }
        for &(mid, index, _) in &node.events.ack_timeouts {
            slice.ack_timeouts += 1;
            let seen = timeouts.entry((mid.0, index)).or_insert(0);
            *seen += 1;
            // The node gives a segment up after its last retry's
            // deadline; the message can then never complete.
            if *seen > MAX_RETRIES && inflight.remove(&mid.0).is_some() {
                slice.failed += 1;
                done += 1;
            }
        }
        // Drained every iteration, so memory stays flat.
        node.events.acks.clear();
        node.events.ack_timeouts.clear();
        node.events.established.clear();
        let node = pump.node_mut(responder);
        for (mid, body) in node.events.completed.drain(..) {
            slice.reassembled += 1;
            slice.payloads_match &= body == payload(seed, mid.0, size.payload_bytes);
        }
        node.events.deliveries.clear();
        node.events.constructions.clear();
    }
    slice.elapsed_s = t0.elapsed().as_secs_f64();
    slice.attempted = launched as u64;
    slice.failed += inflight.len() as u64;
    let node = pump.node_mut(INITIATOR);
    slice.retransmits = node.events.retransmits;
    slice.stateless_drops = node.events.stateless_drops;
    slice.wire_bytes = pump.transport().inner().wire_bytes() - wire0;
    let chaos = pump.transport().stats();
    slice.chaos_passed = chaos.passed - chaos0.passed;
    slice.chaos_dropped = chaos.dropped - chaos0.dropped;
    slice
}

/// Rounds of `paths` constructions, each run to idle; one operation is
/// one path established end to end.
fn run_constructions<P: Pump<T = SimLink>>(
    chain: &mut Chain<P>,
    size: &ChainSize,
    rounds: usize,
    sample: Option<&SharedTracer>,
) -> Slice {
    let pump = &mut chain.pump;
    let wire0 = pump.transport().inner().wire_bytes();
    let chaos0 = pump.transport().stats();
    let mut slice = Slice {
        payloads_match: true,
        ..Slice::default()
    };
    let t0 = Instant::now();
    for round in 0..rounds {
        if let Some(t) = sample {
            t.borrow_mut().sample(round as u64);
        }
        let start = Instant::now();
        let before = pump.node_mut(INITIATOR).established_paths();
        let hop_lists = &chain.hop_lists;
        pump.drive(INITIATOR, |node, out| node.construct_paths(hop_lists, out));
        while pump.poll_once() {}
        let formed = pump.node_mut(INITIATOR).established_paths() - before;
        slice
            .latency_us
            .push(start.elapsed().as_nanos() as f64 / 1e3);
        slice.attempted += size.paths as u64;
        slice.failed += (size.paths - formed) as u64;
        let acks = &mut pump.node_mut(INITIATOR).events.established;
        slice.completed += acks.len() as u64;
        acks.clear();
        pump.node_mut(chain.responder).events.constructions.clear();
    }
    if let Some(t) = sample {
        t.borrow_mut().stop_sample();
    }
    slice.elapsed_s = t0.elapsed().as_secs_f64();
    slice.stateless_drops = pump.node_mut(INITIATOR).events.stateless_drops;
    slice.wire_bytes = pump.transport().inner().wire_bytes() - wire0;
    let chaos = pump.transport().stats();
    slice.chaos_passed = chaos.passed - chaos0.passed;
    slice.chaos_dropped = chaos.dropped - chaos0.dropped;
    slice
}

fn run_slice<P: Pump<T = SimLink>>(chain: &mut Chain<P>, size: &ChainSize, seed: u64) -> Slice {
    match size.kind {
        Kind::Construct => run_constructions(chain, size, size.slice_ops, None),
        _ => run_messages(chain, size, seed, 1, size.slice_ops, size.in_flight, None),
    }
}

fn untraced_chain(size: &ChainSize, seed: u64) -> Chain<Runtime<SimLink>> {
    build(size, seed, None, Runtime::new, |rt, node, _| {
        rt.add_node(node)
    })
}

/// Slices of the repo's own `Runtime` until `seconds` have passed.
/// Returns the set-up times, the slices, and the process's peak
/// resident set after the first slice: what one slice of fixed work
/// needs, whatever the allocator keeps of it afterwards.
fn untraced_slices(size: &ChainSize, seed: u64, seconds: f64) -> (Vec<f64>, Vec<Slice>, f64) {
    let t0 = Instant::now();
    let (mut setups, mut slices, mut rss_mb) = (Vec::new(), Vec::new(), 0.0);
    while slices.len() < 4 || t0.elapsed().as_secs_f64() < seconds {
        // Every slice gets its own keys and payloads, all from `seed`.
        let slice_seed = splitmix(seed.wrapping_add(slices.len() as u64));
        let mut chain = untraced_chain(size, slice_seed);
        setups.push(chain.setup_s);
        slices.push(run_slice(&mut chain, size, slice_seed));
        if slices.len() == 1 {
            rss_mb = peak_rss_mb(std::process::id());
        }
    }
    (setups, slices, rss_mb)
}

/// Fold the output checks and deterministic counts of the slices into
/// `report`; the counts come from the first slice only, which every
/// run completes whatever the clock does.
fn check_slices(report: &mut Report, size: &ChainSize, slices: &[Slice]) {
    report.attempted = slices.iter().map(|s| s.attempted).sum();
    report.failed = slices.iter().map(|s| s.failed).sum();
    let all = |f: &dyn Fn(&Slice) -> bool| slices.iter().all(f);
    report.check("payloads_match", all(&|s| s.payloads_match));
    report.check(
        "attempted_is_completed_plus_failed",
        all(&|s| s.attempted == s.completed + s.failed),
    );
    if size.kind != Kind::Construct {
        report.check(
            "every_completed_message_reassembled",
            all(&|s| s.reassembled >= s.completed),
        );
    }
    if size.drop_prob == 0.0 {
        report.check("chaos_dropped_is_zero", all(&|s| s.chaos_dropped == 0));
        report.check("no_retransmits_without_loss", all(&|s| s.retransmits == 0));
    }
    let first = &slices[0];
    report.count("first_slice.attempted", first.attempted);
    report.count("first_slice.failed", first.failed);
    report.count("first_slice.wire_bytes", first.wire_bytes);
    report.count("first_slice.retransmits", first.retransmits);
    report.count("first_slice.ack_timeouts", first.ack_timeouts);
    report.count("first_slice.chaos_dropped", first.chaos_dropped);
    report.count("first_slice.chaos_passed", first.chaos_passed);
}

/// The untraced run: end-to-end metrics from the repo's own `Runtime`.
pub fn run(size: &ChainSize, seed: u64, seconds: f64) -> Report {
    let (setups, mut slices, rss_mb) = untraced_slices(size, seed, seconds);
    let mut report = Report::default();
    check_slices(&mut report, size, &slices);
    let rates: Vec<f64> = slices.iter().map(Slice::ops_per_s).collect();
    let p50: Vec<f64> = slices
        .iter_mut()
        .map(|s| quantile(&mut s.latency_us, 0.5))
        .collect();
    let p90: Vec<f64> = slices
        .iter_mut()
        .map(|s| quantile(&mut s.latency_us, 0.9))
        .collect();
    report.set("setup_s", steady_low(&setups));
    report.set("ops_per_s", steady_high(&rates));
    report.set("p50_us", steady_low(&p50));
    report.set("p90_us", steady_low(&p90));
    report.set("peak_rss_mb", rss_mb);
    report
}

/// The traced run: slices under the benchmark's pump and wrappers
/// (alternating with untraced ones, for the overhead ratio, and with
/// rounds of the replay that splits what the wrappers cannot see), then
/// a 1-in-64 sample of operations launched alone with full spans.
///
/// Times and shares are those of the best traced slice; counts are
/// those of the first, which is fixed work on a fixed sub-seed, so they
/// repeat exactly for a seed however many slices the clock allowed.
pub fn run_traced(size: &ChainSize, seed: u64, seconds: f64) -> (Report, String) {
    let tracer = Tracer::shared();
    let t0 = Instant::now();
    let (mut untraced, mut slices, mut ledgers) = (Vec::new(), Vec::new(), Vec::new());
    let mean = |bytes: u64, calls: u64| bytes as f64 / calls.max(1) as f64;
    let segment_bytes = ErasureCodec::new(size.codec.0, size.codec.1)
        .expect("valid (m, n)")
        .segment_len(size.payload_bytes);
    let mut costs: Option<ChainCosts> = None;
    loop {
        let slice_seed = splitmix(seed.wrapping_add(slices.len() as u64));
        // Untraced and traced slices alternate, so that both sides of
        // the overhead ratio see the same machine.
        let mut plain = untraced_chain(size, slice_seed);
        untraced.push(run_slice(&mut plain, size, slice_seed).ops_per_s());
        drop(plain);
        let mut chain = build(
            size,
            slice_seed,
            Some(&tracer),
            |link| TracedPump::new(link, tracer.clone(), size.relays),
            |pump, node, role| pump.add_node(node, role),
        );
        // Set-up ran through the same wrappers: start the slice's
        // ledger from nothing.
        tracer.borrow_mut().ledger = Ledger::default();
        slices.push(run_slice(&mut chain, size, slice_seed));
        ledgers.push(std::mem::take(&mut tracer.borrow_mut().ledger));
        // One short replay round per slice, at the sizes the first
        // slice saw; each function keeps its best round.
        let c = ledgers[0].counts;
        let round = chain_costs(
            seed,
            size.relays,
            segment_bytes,
            mean(c.reverse_bytes, c.reverse_wraps) as usize,
            mean(c.wire_bytes, ledgers[0].calls("transport.send")) as usize,
        );
        costs = Some(costs.map_or(round, |best: ChainCosts| best.best_of(round)));
        if t0.elapsed().as_secs_f64() < seconds * 0.8 {
            continue;
        }
        // The last chain also carries the sampled operations.
        let solo = (size.slice_ops / 64).max(1);
        match size.kind {
            Kind::Construct => run_constructions(&mut chain, size, solo, Some(&tracer)),
            _ => {
                let next_mid = 1 + size.slice_ops as u64;
                run_messages(
                    &mut chain,
                    size,
                    slice_seed,
                    next_mid,
                    solo,
                    1,
                    Some(&tracer),
                )
            }
        };
        break;
    }
    let untraced_rate = steady_high(&untraced);

    let mut report = Report::default();
    check_slices(&mut report, size, &slices);
    let traced_rate = steady_high(&slices.iter().map(Slice::ops_per_s).collect::<Vec<_>>());
    let sum = |f: &dyn Fn(&Slice) -> u64| slices.iter().map(f).sum::<u64>() as f64;
    // Times and shares: the best traced slice, like every other time.
    let best = (0..slices.len())
        .max_by(|&a, &b| slices[a].ops_per_s().total_cmp(&slices[b].ops_per_s()))
        .expect("at least one traced slice");
    let (all, wall_s) = (&ledgers[best], slices[best].elapsed_s);
    let first = &ledgers[0];
    let c = all.counts;

    let costs = costs.expect("one replay round per slice");
    let sends = all.calls("transport.send");
    let frame_bytes = mean(c.wire_bytes, sends);

    // Estimated seconds inside the measured spans: calls x replayed cost.
    let layers = size.relays as f64 + 1.0;
    let crypto_s = (c.sym_layers as f64 * costs.sym_fixed_ns()
        + c.sym_bytes as f64 * costs.sym_per_byte_ns())
        / 1e9
        + (c.construct_builds as f64 * layers * costs.seal_us
            + c.construct_peels as f64 * costs.unseal_us)
            / 1e6;
    let onion_s = (c.payload_builds as f64 * costs.build_payload_ns
        + c.payload_peels as f64 * costs.peel_ns
        + (c.reverse_wraps + c.acks_built) as f64 * costs.wrap_reverse_ns
        + c.reverse_peels as f64 * costs.peel_reverse_ns)
        / 1e9
        + (c.construct_builds as f64 * costs.build_construct_us
            + c.construct_peels as f64 * costs.peel_construct_us)
            / 1e6;
    let wire_s = sends as f64 * (costs.wire_encode_ns + costs.wire_decode_ns) / 1e9;

    let transport_s = all.seconds("transport.");
    let erasure_s = all.seconds("erasure.");
    let node_s = all.self_seconds("node.");
    let share = |s: f64| s / wall_s;
    report.set("transport.share", share(transport_s - wire_s));
    report.set("core.wire.share", share(wire_s));
    report.set("transport.node.share", share(node_s - onion_s));
    report.set("core.onion.share", share(onion_s - crypto_s));
    report.set("sim-crypto.share", share(crypto_s));
    report.set("erasure.share", share(erasure_s));
    report.set(
        "trace.unattributed_share",
        share(wall_s - transport_s - erasure_s - node_s),
    );
    report.set("trace.overhead_ratio", untraced_rate / traced_rate);

    let completed = sum(&|s| s.completed);
    report.set("fail_ratio", sum(&|s| s.failed) / sum(&|s| s.attempted));
    report.set("delivered_ratio", completed / sum(&|s| s.attempted));
    report.set("wire_bytes_per_op", sum(&|s| s.wire_bytes) / completed);

    report.set("core.onion.build_payload_ns", costs.build_payload_ns);
    report.set("core.onion.peel_ns", costs.peel_ns);
    report.set("core.onion.wrap_reverse_ns", costs.wrap_reverse_ns);
    report.set("core.onion.peel_reverse_ns", costs.peel_reverse_ns);
    report.set("core.onion.build_construct_us", costs.build_construct_us);
    report.set("core.onion.peel_construct_us", costs.peel_construct_us);
    report.set("core.wire.encode_ns", costs.wire_encode_ns);
    report.set("core.wire.decode_ns", costs.wire_decode_ns);
    report.set("core.wire.frame_bytes_mean", frame_bytes);
    report.set("core.relay.handle_payload_ns", costs.handle_payload_ns);
    report.set(
        "sim-crypto.sym_layer_ns",
        costs.sym_layer_ns(mean(c.sym_bytes, c.sym_layers)),
    );
    report.set("sim-crypto.sym_mb_s", costs.sym_mb_s());
    report.set("sim-crypto.sealed_box_us", costs.seal_us + costs.unseal_us);
    report.set("sim-crypto.x25519_us", costs.x25519_us);
    report.set("erasure.gf256_mul_acc_mb_s", costs.gf256_mul_acc_mb_s);
    report.set("simnet.engine.dispatch_ns", costs.engine_dispatch_ns);

    let (encode, decode) = (all.totals("erasure.encode"), all.totals("erasure.decode"));
    report.set("erasure.encode_s", encode.total_ns as f64 / 1e9);
    report.set("erasure.decode_s", decode.total_ns as f64 / 1e9);
    if encode.total_ns > 0 {
        report.set(
            "erasure.encode_mb_s",
            c.encode_bytes as f64 * 1e3 / encode.total_ns as f64,
        );
    }
    report.set(
        "transport.node.handle_s.initiator",
        all.seconds("node.handle.initiator") + all.seconds("node.drive"),
    );
    report.set(
        "transport.node.handle_s.relay",
        all.seconds("node.handle.relay"),
    );
    report.set(
        "transport.node.handle_s.responder",
        all.seconds("node.handle.responder"),
    );
    report.set("transport.node.self_s", node_s);
    report.set("transport.send_s", all.seconds("transport.send"));
    report.set("transport.poll_s", all.seconds("transport.poll"));

    // Counts: the first traced slice.
    let (s0, c0) = (&slices[0], first.counts);
    let mut count = |name: &'static str, value: u64| {
        report.set(name, value as f64);
        report.count(format!("first_traced_slice.{name}"), value);
    };
    count("core.relay.cached_paths", c0.construct_peels);
    count("erasure.encode_calls", first.calls("erasure.encode"));
    count("erasure.decode_calls", first.calls("erasure.decode"));
    count("erasure.decode_reconstruct_calls", c0.decode_reconstructs);
    count("erasure.decode_fail", c0.decode_fails);
    count("transport.node.handle_calls", first.calls("node.handle."));
    count("transport.node.retransmits", s0.retransmits);
    count("transport.node.ack_timeouts", s0.ack_timeouts);
    count("transport.node.stateless_drops", s0.stateless_drops);
    count("transport.send_calls", first.calls("transport.send"));
    count("transport.poll_calls", first.calls("transport.poll"));
    let (sets, cancels) = (
        first.calls("transport.timer_set"),
        first.calls("transport.timer_cancel"),
    );
    count("transport.timer_sets", sets);
    count("transport.timer_cancels", cancels);
    count("transport.timer_fires", c0.timer_fires);
    count("transport.wire_bytes", c0.wire_bytes);
    count("transport.chaos.passed", s0.chaos_passed);
    count("transport.chaos.dropped", s0.chaos_dropped);
    // The sim transport schedules one engine event per frame the
    // chaos wrapper let through and one per timer armed; a cancelled
    // timer's event is popped and skipped.
    count(
        "simnet.engine.events_processed",
        first.calls("transport.send") - s0.chaos_dropped + sets - cancels,
    );
    count("simnet.engine.events_cancelled", cancels);
    if size.kind != Kind::Construct {
        let first_sends = (s0.attempted * size.codec.1 as u64) as f64;
        report.set(
            "transport.node.useful_ratio",
            first_sends / (first_sends + s0.retransmits as f64),
        );
    }
    let spans = tracer.borrow().spans_jsonl();
    (report, spans)
}
