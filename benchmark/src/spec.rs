//! The benchmark's contract: workloads, end-to-end metrics with their
//! regression bounds, per-layer metrics. `BENCHMARK.json` at the
//! repository root is generated from these tables
//! (`p2p-anon-benchmark --print-spec`) and the schema self-test pins
//! the file to them byte for byte.

/// Seconds one run measures for (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 10;

/// One workload: its name and the reason it exists.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

/// A metric a user of the system would see, with the share of the
/// parent's median by which it may worsen before a change is rejected.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

/// A metric of a single layer (a module of the repository).
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "sim_recovery",
        why: "the paper's section 6 setting at n=256 (1 h gossip warm-up, message-level driver under heavy faults): world build + membership + core::driver; transport does nothing",
    },
    Workload {
        name: "sim_scale",
        why: "biased-mix flows over a 100k-node procedural world with sampled membership: latency/churn/mix at scale; no crypto, no engine, no erasure, so it bypasses every data-path optimisation",
    },
    Workload {
        name: "chain_small",
        why: "64-B (1,1) messages over a 3-relay sans-io chain, closed loop x32: smallest packet, so per-frame cost (node dispatch, wire codec, onion key schedule, engine); erasure is a no-op",
    },
    Workload {
        name: "chain_coded",
        why: "8-KiB (2,4)-coded messages over 4 disjoint paths with 2 % frame loss: per-byte cost (ChaCha20/HMAC), erasure encode and reconstruct, and the timeout/retransmit path",
    },
    Workload {
        name: "chain_construct",
        why: "rounds of 4-path construction on the 14-node topology, no data: sealed-box/X25519 per hop and relay path-state growth; steady-state forwarding optimisations must not move it",
    },
    Workload {
        name: "live_tcp",
        why: "initiator over EventedTransport to a spawned p2p-anon-node relay and responder on loopback TCP, one core, closed loop x1 (latency) then x32 (rate): the only path through epoll and real syscalls",
    },
];

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// Every workload reports every one of these (host time throughout).
/// The time bounds are the widest the contract allows: the box this
/// was written on is shared, and with nothing changed its speed moves
/// by more than a tenth within the hour (see README.md).
pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("ops_per_s", "ops/s", "higher", 0.25),
    e2e("p50_us", "us", "lower", 0.25),
    e2e("p90_us", "us", "lower", 0.25),
    e2e("peak_rss_mb", "MiB", "lower", 0.15),
];

const fn pl(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Reported by the traced run; a metric that does not apply to a
/// workload reads 0 there.
pub const PER_LAYER: &[PerLayer] = &[
    // Harness-level outcomes that have no bound of their own.
    pl("fail_ratio", "ratio", "lower"),
    pl("delivered_ratio", "ratio", "higher"),
    pl("wire_bytes_per_op", "bytes", "lower"),
    pl("trace.unattributed_share", "ratio", "lower"),
    pl("trace.overhead_ratio", "ratio", "lower"),
    // membership
    pl("membership.new_s", "s", "lower"),
    pl("membership.advance_s", "s", "lower"),
    pl("membership.track_s", "s", "lower"),
    pl("membership.share", "ratio", "lower"),
    // simnet
    pl("simnet.churn.generate_s", "s", "lower"),
    pl("simnet.churn.sessions", "count", "lower"),
    pl("simnet.churn.random_live_s", "s", "lower"),
    pl("simnet.churn.is_up_ns", "ns", "lower"),
    pl("simnet.churn.share", "ratio", "lower"),
    pl("simnet.latency.build_s", "s", "lower"),
    pl("simnet.latency.owd_ns", "ns", "lower"),
    pl("simnet.latency.share", "ratio", "lower"),
    pl("simnet.engine.events_processed", "count", "lower"),
    pl("simnet.engine.events_cancelled", "count", "lower"),
    pl("simnet.engine.max_pending", "count", "lower"),
    pl("simnet.engine.dispatch_ns", "ns", "lower"),
    // core
    pl("core.sim.pick_path_s", "s", "lower"),
    pl("core.sim.construct_path_s", "s", "lower"),
    pl("core.sim.links", "count", "lower"),
    pl("core.sim.probes", "count", "lower"),
    pl("core.sim.share", "ratio", "lower"),
    pl("core.runner.run_s", "s", "lower"),
    pl("core.runner.protocol_s", "s", "lower"),
    pl("core.runner.segments_sent", "count", "lower"),
    pl("core.runner.retransmits", "count", "lower"),
    pl("core.runner.paths_rebuilt", "count", "lower"),
    pl("core.runner.construction_rounds", "count", "lower"),
    pl("core.runner.share", "ratio", "lower"),
    pl("core.onion.build_payload_ns", "ns", "lower"),
    pl("core.onion.peel_ns", "ns", "lower"),
    pl("core.onion.wrap_reverse_ns", "ns", "lower"),
    pl("core.onion.peel_reverse_ns", "ns", "lower"),
    pl("core.onion.build_construct_us", "us", "lower"),
    pl("core.onion.peel_construct_us", "us", "lower"),
    pl("core.onion.share", "ratio", "lower"),
    pl("core.wire.encode_ns", "ns", "lower"),
    pl("core.wire.decode_ns", "ns", "lower"),
    pl("core.wire.frame_bytes_mean", "bytes", "lower"),
    pl("core.wire.share", "ratio", "lower"),
    pl("core.relay.handle_payload_ns", "ns", "lower"),
    pl("core.relay.cached_paths", "count", "lower"),
    // sim-crypto
    pl("sim-crypto.sym_layer_ns", "ns", "lower"),
    pl("sim-crypto.sym_mb_s", "MB/s", "higher"),
    pl("sim-crypto.sealed_box_us", "us", "lower"),
    pl("sim-crypto.x25519_us", "us", "lower"),
    pl("sim-crypto.share", "ratio", "lower"),
    // erasure
    pl("erasure.encode_calls", "count", "lower"),
    pl("erasure.encode_s", "s", "lower"),
    pl("erasure.encode_mb_s", "MB/s", "higher"),
    pl("erasure.decode_calls", "count", "lower"),
    pl("erasure.decode_s", "s", "lower"),
    pl("erasure.decode_reconstruct_calls", "count", "lower"),
    pl("erasure.decode_fail", "count", "lower"),
    pl("erasure.gf256_mul_acc_mb_s", "MB/s", "higher"),
    pl("erasure.share", "ratio", "lower"),
    // transport
    pl("transport.node.handle_calls", "count", "lower"),
    pl("transport.node.handle_s.initiator", "s", "lower"),
    pl("transport.node.handle_s.relay", "s", "lower"),
    pl("transport.node.handle_s.responder", "s", "lower"),
    pl("transport.node.self_s", "s", "lower"),
    pl("transport.node.retransmits", "count", "lower"),
    pl("transport.node.ack_timeouts", "count", "lower"),
    pl("transport.node.stateless_drops", "count", "lower"),
    pl("transport.node.useful_ratio", "ratio", "higher"),
    pl("transport.node.share", "ratio", "lower"),
    pl("transport.send_calls", "count", "lower"),
    pl("transport.send_s", "s", "lower"),
    pl("transport.poll_calls", "count", "lower"),
    pl("transport.poll_s", "s", "lower"),
    pl("transport.timer_sets", "count", "lower"),
    pl("transport.timer_cancels", "count", "lower"),
    pl("transport.timer_fires", "count", "lower"),
    pl("transport.wire_bytes", "bytes", "lower"),
    pl("transport.share", "ratio", "lower"),
    pl("transport.chaos.passed", "count", "higher"),
    pl("transport.chaos.dropped", "count", "lower"),
    // the live relay and responder processes, from /proc and /metrics
    pl("relay.cpu_us_per_forward", "us", "lower"),
    pl("relay.ctx_switches_per_frame", "count", "lower"),
    pl("relay.frames_shed", "count", "lower"),
    pl("relay.queue_depth_max", "count", "lower"),
    pl("responder.cpu_us_per_op", "us", "lower"),
    // the load generator itself
    pl("loadgen.cpu_us_per_op", "us", "lower"),
    pl("loadgen.lateness_p99_us", "us", "lower"),
    pl("loadgen.p50_us", "us", "lower"),
    pl("loadgen.p90_us", "us", "lower"),
    pl("loadgen.p99_us", "us", "lower"),
    pl("loadgen.p999_us", "us", "lower"),
    pl("loadgen.samples", "count", "higher"),
];

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"python3\", \"benchmark/run.py\"],\n");
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}
