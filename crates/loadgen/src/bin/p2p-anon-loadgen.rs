//! `p2p-anon-loadgen` — onion-forward throughput/latency measurement
//! against a live relay chain.
//!
//! The generator is a real protocol initiator over the live
//! transport: it constructs one onion path through the chain, then
//! drives `(1,1)`-coded operations per the arrival discipline and
//! reports throughput (ops/sec, onion-forwards/sec) plus
//! coordinated-omission-safe latency percentiles.
//!
//! Two ways to point it at a chain:
//!
//! * `--config FILE --path "1,2" --responder 3` — an existing fleet of
//!   `p2p-anon-node` processes (start the responder with `--codec 1,1`).
//! * `--auto-chain N` — spawn N relays and one responder itself on
//!   ephemeral localhost ports (the `p2p-anon-node` binary is found
//!   next to this executable, or via `--node-bin`), run, and tear them
//!   down. One command for the CI smoke run.
//!
//! Output: a human summary on stderr, one JSON object on stdout (and to
//! `--out FILE`).
//!
//! Examples:
//!
//! ```text
//! p2p-anon-loadgen --auto-chain 1 --mode closed --in-flight 64
//! p2p-anon-loadgen --auto-chain 2 --mode open --rate 5000 --measure-secs 10
//! ```

use erasure::ErasureCodec;
use loadgen::{establish_chain, run, Arrival, Summary, Workload};
use simnet::NodeId;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::process::{Child, Command, ExitCode, Stdio};
use std::thread;
use transport::{EventedTransport, ProtocolNode, Roster, Runtime};

struct Args {
    config: Option<String>,
    auto_chain: Option<u32>,
    node_bin: Option<String>,
    id: NodeId,
    path: Vec<NodeId>,
    responder: Option<NodeId>,
    mode: String,
    in_flight: usize,
    rate_hz: f64,
    payload_bytes: usize,
    warmup_secs: f64,
    measure_secs: f64,
    drain_secs: f64,
    ack_timeout_us: u64,
    seed: u64,
    out: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: p2p-anon-loadgen (--config FILE --path \"1,2\" --responder N | --auto-chain N)\n\
         \x20    [--node-bin PATH] [--id N]\n\
         \x20    [--mode closed|open] [--in-flight N] [--rate HZ]\n\
         \x20    [--payload-bytes B] [--warmup-secs S] [--measure-secs S] [--drain-secs S]\n\
         \x20    [--ack-timeout-ms MS] [--seed N] [--out FILE]\n\
         \n\
         closed loop keeps --in-flight ops outstanding; open loop launches at\n\
         --rate ops/sec with intended-start timestamps (coordinated-omission\n\
         safe). --auto-chain N spawns N relays + 1 responder itself."
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        config: None,
        auto_chain: None,
        node_bin: None,
        id: NodeId(0),
        path: Vec::new(),
        responder: None,
        mode: "closed".to_string(),
        in_flight: 32,
        rate_hz: 1000.0,
        payload_bytes: 512,
        warmup_secs: 2.0,
        measure_secs: 10.0,
        drain_secs: 2.0,
        ack_timeout_us: 2_000_000,
        seed: 0,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--config" => args.config = Some(value()),
            "--auto-chain" => args.auto_chain = Some(value().parse().unwrap_or_else(|_| usage())),
            "--node-bin" => args.node_bin = Some(value()),
            "--id" => args.id = NodeId(value().parse().unwrap_or_else(|_| usage())),
            "--responder" => {
                args.responder = Some(NodeId(value().parse().unwrap_or_else(|_| usage())))
            }
            "--path" => {
                args.path = value()
                    .split(',')
                    .filter(|p| !p.trim().is_empty())
                    .map(|n| NodeId(n.trim().parse().unwrap_or_else(|_| usage())))
                    .collect();
            }
            "--mode" => args.mode = value(),
            "--in-flight" => args.in_flight = value().parse().unwrap_or_else(|_| usage()),
            "--rate" => args.rate_hz = value().parse().unwrap_or_else(|_| usage()),
            "--payload-bytes" => args.payload_bytes = value().parse().unwrap_or_else(|_| usage()),
            "--warmup-secs" => args.warmup_secs = value().parse().unwrap_or_else(|_| usage()),
            "--measure-secs" => args.measure_secs = value().parse().unwrap_or_else(|_| usage()),
            "--drain-secs" => args.drain_secs = value().parse().unwrap_or_else(|_| usage()),
            "--ack-timeout-ms" => {
                let ms = value().parse::<u64>().unwrap_or_else(|_| usage());
                args.ack_timeout_us = ms.checked_mul(1_000).unwrap_or_else(|| usage());
            }
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--out" => args.out = Some(value()),
            _ => usage(),
        }
    }
    match (&args.config, args.auto_chain) {
        (Some(_), None) => {
            if args.path.is_empty() || args.responder.is_none() {
                usage();
            }
        }
        (None, Some(n)) if n >= 1 => {}
        _ => usage(),
    }
    match args.mode.as_str() {
        "closed" | "open" => {}
        _ => usage(),
    }
    args
}

/// Kills every spawned chain process when the run ends, pass or fail.
struct Fleet(HashMap<u32, Child>);

impl Drop for Fleet {
    fn drop(&mut self) {
        for child in self.0.values_mut() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Spawn `relays` relay processes and one responder on ephemeral ports,
/// returning the roster they share once every process printed `READY`.
fn spawn_chain(args: &Args, relays: u32) -> Result<(Roster, Fleet), String> {
    let bin = match &args.node_bin {
        Some(p) => p.clone(),
        None => {
            // The node binary lands next to this one under target/.
            let mut p = std::env::current_exe().map_err(|e| e.to_string())?;
            p.set_file_name("p2p-anon-node");
            p.to_string_lossy().into_owned()
        }
    };
    let nodes = relays + 2; // loadgen + relays + responder
    let listeners: Vec<TcpListener> = (0..nodes)
        .map(|_| TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let mut roster = Roster::new(args.seed ^ 0x10adbeef);
    for (id, l) in listeners.iter().enumerate() {
        roster.insert(
            NodeId(id as u32),
            l.local_addr().map_err(|e| e.to_string())?.to_string(),
        );
    }
    drop(listeners);

    let dir = std::env::temp_dir().join(format!("p2p-anon-loadgen-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let config = dir.join("roster.toml");
    std::fs::write(&config, roster.to_config()).map_err(|e| e.to_string())?;

    let run_secs = (args.warmup_secs + args.measure_secs + args.drain_secs).ceil() as u64 + 60;
    let responder = relays + 1;
    let mut fleet = Fleet(HashMap::new());
    for id in 1..nodes {
        let mut cmd = Command::new(&bin);
        cmd.arg("--config")
            .arg(&config)
            .args(["--id", &id.to_string()])
            .args(["--run-secs", &run_secs.to_string()])
            .arg("--quiet")
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if id == responder {
            cmd.args(["--role", "responder", "--codec", "1,1"]);
        } else {
            cmd.args(["--role", "relay"]);
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawn {bin} (node {id}): {e}"))?;
        let stdout = child.stdout.take().expect("stdout piped");
        fleet.0.insert(id, child);
        // Block until this node is listening, then keep its stdout
        // drained for the rest of the run.
        let mut reader = BufReader::new(stdout);
        let mut line = String::new();
        loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) => return Err(format!("node {id} exited before READY")),
                Ok(_) if line.starts_with("READY") => break,
                Ok(_) => {}
                Err(e) => return Err(format!("node {id} stdout: {e}")),
            }
        }
        thread::spawn(move || {
            let mut sink = String::new();
            loop {
                sink.clear();
                match reader.read_line(&mut sink) {
                    Ok(0) | Err(_) => return,
                    Ok(_) => {}
                }
            }
        });
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok((roster, fleet))
}

fn json_escape_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.1}")
    } else {
        "null".to_string()
    }
}

/// The machine-readable result: one JSON object, accounting documented
/// in PERFORMANCE.md §6.
fn to_json(args: &Args, relays: usize, summary: &Summary) -> String {
    let arrival = match args.mode.as_str() {
        "open" => format!("\"open\", \"rate_hz\": {:.1}", args.rate_hz),
        _ => format!("\"closed\", \"in_flight\": {}", args.in_flight),
    };
    format!(
        concat!(
            // "transport" has one value; the field stays so the output
            // compares with the lines recorded in BENCH_HISTORY.jsonl.
            "{{\"harness\": \"loadgen\", \"transport\": \"evented\", \"mode\": {}, ",
            "\"relays\": {}, \"hops\": {}, \"payload_bytes\": {}, ",
            "\"warmup_s\": {}, \"measure_s\": {}, ",
            "\"ops\": {}, \"launched\": {}, \"incomplete\": {}, \"timeouts\": {}, ",
            "\"send_errors\": {}, \"saturated\": {}, ",
            "\"ops_per_sec\": {}, \"forwards_per_op\": {}, \"forwards_per_sec\": {}, ",
            "\"relay_forwards_per_sec\": {}, ",
            "\"latency_us\": {{\"mean\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, ",
            "\"p999\": {}}}}}"
        ),
        arrival,
        relays,
        summary.hops,
        args.payload_bytes,
        args.warmup_secs,
        args.measure_secs,
        summary.ops,
        summary.launched,
        summary.incomplete,
        summary.timeout_events,
        summary.send_errors,
        summary.saturated,
        json_escape_f64(summary.ops_per_sec()),
        summary.forwards_per_op(),
        json_escape_f64(summary.forwards_per_sec()),
        json_escape_f64(summary.per_relay_forwards_per_sec()),
        json_escape_f64(summary.latency.mean()),
        summary.quantile_us(0.50),
        summary.quantile_us(0.90),
        summary.quantile_us(0.99),
        summary.quantile_us(0.999),
    )
}

/// Bind the transport, run the workload, and report.
fn run_workload(args: &Args, roster: &Roster, relays: usize) -> Result<Summary, String> {
    let responder = args.responder.unwrap_or(NodeId(relays as u32 + 1)); // auto-chain layout
    let chain: Vec<NodeId> = if args.path.is_empty() {
        (1..=relays as u32).map(NodeId).collect() // auto-chain layout
    } else {
        args.path.clone()
    };
    let hops: Vec<_> = chain
        .iter()
        .chain(std::iter::once(&responder))
        .map(|&n| (n, roster.public_key(n)))
        .collect();

    // The roster's transport policy (queues, backoff) stays as-is; the
    // loadgen only overrides the protocol-level ack deadline so heavy
    // closed-loop backlogs do not masquerade as losses.
    let mut policy = roster.policy;
    policy.ack_timeout_us = args.ack_timeout_us;
    let transport = EventedTransport::bind(args.id, roster.clone()).map_err(|e| e.to_string())?;
    let node = ProtocolNode::new(args.id, roster.keypair(args.id), args.seed ^ 0x6e6e)
        .with_policy(&policy)
        .with_codec(Box::new(ErasureCodec::new(1, 1).expect("(1,1) codec")));
    let mut rt = Runtime::new(transport);
    rt.add_node(node);
    establish_chain(&mut rt, args.id, &hops, 30_000_000)?;
    eprintln!(
        "loadgen: chain established ({} relays + responder), {} for {:.1}s after {:.1}s warm-up",
        relays,
        match args.mode.as_str() {
            "open" => format!("open loop @ {:.0} ops/s", args.rate_hz),
            _ => format!("closed loop x{}", args.in_flight),
        },
        args.measure_secs,
        args.warmup_secs,
    );
    let workload = Workload {
        arrival: match args.mode.as_str() {
            "open" => Arrival::Open {
                rate_hz: args.rate_hz,
            },
            _ => Arrival::Closed {
                in_flight: args.in_flight,
            },
        },
        payload: vec![0xA5; args.payload_bytes],
        warmup_us: (args.warmup_secs * 1e6) as u64,
        measure_us: (args.measure_secs * 1e6) as u64,
        drain_us: (args.drain_secs * 1e6) as u64,
    };
    Ok(run(&mut rt, args.id, &workload, hops.len()))
}

fn main() -> ExitCode {
    let args = parse_args();
    let (roster, _fleet, relays) = match (&args.config, args.auto_chain) {
        (Some(path), None) => match Roster::from_file(path) {
            Ok(r) => {
                let relays = args.path.len();
                (r, None, relays)
            }
            Err(e) => {
                eprintln!("p2p-anon-loadgen: {e}");
                return ExitCode::FAILURE;
            }
        },
        (None, Some(n)) => match spawn_chain(&args, n) {
            Ok((roster, fleet)) => (roster, Some(fleet), n as usize),
            Err(e) => {
                eprintln!("p2p-anon-loadgen: {e}");
                return ExitCode::FAILURE;
            }
        },
        _ => usage(),
    };

    let summary = match run_workload(&args, &roster, relays) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("p2p-anon-loadgen: {e}");
            return ExitCode::FAILURE;
        }
    };

    eprintln!(
        "loadgen: {} ops in {:.1}s = {:.0} ops/s -> {:.0} onion-forwards/s \
         ({:.0}/relay); latency us p50={} p90={} p99={} p999={} mean={:.0}; \
         incomplete={} timeouts={} send_errors={}{}",
        summary.ops,
        args.measure_secs,
        summary.ops_per_sec(),
        summary.forwards_per_sec(),
        summary.per_relay_forwards_per_sec(),
        summary.quantile_us(0.50),
        summary.quantile_us(0.90),
        summary.quantile_us(0.99),
        summary.quantile_us(0.999),
        summary.latency.mean(),
        summary.incomplete,
        summary.timeout_events,
        summary.send_errors,
        if summary.saturated { "; SATURATED" } else { "" },
    );
    let json = to_json(&args, relays, &summary);
    println!("{json}");
    if let Some(out) = &args.out {
        match std::fs::File::create(out).and_then(|mut f| writeln!(f, "{json}")) {
            Ok(()) => eprintln!("loadgen: result written to {out}"),
            Err(e) => {
                eprintln!("p2p-anon-loadgen: write {out}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if summary.ops == 0 {
        eprintln!("p2p-anon-loadgen: no operations completed in the window");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
