//! `p2p-anon-node` — one live node of the resilient anonymous-routing
//! protocol over TCP.
//!
//! Every process loads the same static roster file and binds its own
//! entry, then plays one of three roles:
//!
//! * `relay` — forwards construction/payload/reverse onions; pure
//!   [`ProtocolNode`] relay half.
//! * `responder` — a relay that also acks deliveries end to end and
//!   reassembles erasure-coded messages, printing `MESSAGE` lines.
//! * `initiator` — builds `k` node-disjoint paths from `--paths`,
//!   waits for their construction acks, then reads message texts from
//!   stdin: each line is erasure-coded, sent over the paths, and
//!   tracked to end-to-end completion (`COMPLETE` line), retransmitting
//!   on ack timeout.
//!
//! Progress is reported as single-word-prefixed lines on stdout
//! (`READY`, `ESTABLISHED`, `SENT`, `TIMEOUT`, `RETRANSMIT`, `ACKED`,
//! `COMPLETE`, `MESSAGE`, `DELIVERED`), which is the interface the
//! localhost integration test drives.
//!
//! Example (see README for a full walkthrough):
//!
//! ```text
//! p2p-anon-node --config roster.toml --id 3 --role relay
//! p2p-anon-node --config roster.toml --id 0 --role initiator \
//!     --paths "1,2;3,4" --responder 5 --codec 1,2
//! ```

use anon_core::events::Events;
use anon_core::instrument::ProtocolTelemetry;
use anon_core::MessageId;
use erasure::ErasureCodec;
use simnet::NodeId;
use std::io::{BufRead, Write};
use std::process::ExitCode;
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;
use transport::{
    ChaosConfig, ChaosPlan, ChaosTransport, EventedTransport, ProtocolNode, Roster, Runtime,
    StatsServer, TcpTelemetry, Transport,
};

struct Args {
    config: String,
    id: NodeId,
    role: String,
    paths: Vec<Vec<NodeId>>,
    responder: Option<NodeId>,
    codec: (usize, usize),
    ack_timeout_us: Option<u64>,
    max_retries: Option<u32>,
    chaos: Option<String>,
    chaos_seed: u64,
    run_us: Option<u64>,
    seed: u64,
    stats_addr: Option<String>,
    quiet: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: p2p-anon-node --config FILE --id N --role relay|responder|initiator\n\
         \x20    [--transport evented]\n\
         \x20    [--paths \"1,2,3;4,5,6\"] [--responder N] [--codec M,N]\n\
         \x20    [--ack-timeout-ms MS] [--max-retries N]\n\
         \x20    [--chaos SPEC] [--chaos-seed N]\n\
         \x20    [--run-secs S] [--seed N] [--stats-addr ADDR] [--quiet]\n\
         \n\
         --chaos SPEC injects deterministic faults into this node's own\n\
         transport (testing only), e.g.\n\
         \x20    --chaos drop=0.05,delay=0.2,delay_max_ms=150,corrupt=0.01"
    );
    std::process::exit(2);
}

/// `value` parsed as a whole count of some unit, times `per_unit`
/// microseconds; a value that does not parse or would overflow exits 2.
fn scaled(value: &str, per_unit: u64) -> u64 {
    let n = value.parse::<u64>().unwrap_or_else(|_| usage());
    n.checked_mul(per_unit).unwrap_or_else(|| usage())
}

fn parse_args() -> Args {
    let mut args = Args {
        config: String::new(),
        id: NodeId(u32::MAX),
        role: String::new(),
        paths: Vec::new(),
        responder: None,
        codec: (2, 4),
        ack_timeout_us: None,
        max_retries: None,
        chaos: None,
        chaos_seed: 0,
        run_us: None,
        seed: 0,
        stats_addr: None,
        quiet: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--config" => args.config = value(),
            "--id" => args.id = NodeId(value().parse().unwrap_or_else(|_| usage())),
            "--role" => args.role = value(),
            // There is one live backend. The flag is still parsed
            // because spawners written against the two-backend node
            // (`benchmark/src/live_tcp.rs` among them) pass
            // `--transport evented`; it selects nothing.
            "--transport" => match value().as_str() {
                "evented" => {}
                "threaded" => {
                    eprintln!(
                        "p2p-anon-node: --transport threaded was removed in PR 13; \
                         the evented backend is the only one"
                    );
                    std::process::exit(2);
                }
                _ => usage(),
            },
            "--responder" => {
                args.responder = Some(NodeId(value().parse().unwrap_or_else(|_| usage())))
            }
            "--codec" => {
                let v = value();
                let (m, n) = v.split_once(',').unwrap_or_else(|| usage());
                args.codec = (
                    m.trim().parse().unwrap_or_else(|_| usage()),
                    n.trim().parse().unwrap_or_else(|_| usage()),
                );
            }
            "--ack-timeout-ms" => args.ack_timeout_us = Some(scaled(&value(), 1_000)),
            "--max-retries" => args.max_retries = Some(value().parse().unwrap_or_else(|_| usage())),
            "--chaos" => args.chaos = Some(value()),
            "--chaos-seed" => args.chaos_seed = value().parse().unwrap_or_else(|_| usage()),
            "--run-secs" => args.run_us = Some(scaled(&value(), 1_000_000)),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--stats-addr" => args.stats_addr = Some(value()),
            "--quiet" => args.quiet = true,
            "--paths" => {
                args.paths = value()
                    .split(';')
                    .filter(|p| !p.trim().is_empty())
                    .map(|p| {
                        p.split(',')
                            .map(|n| NodeId(n.trim().parse().unwrap_or_else(|_| usage())))
                            .collect()
                    })
                    .collect();
            }
            _ => usage(),
        }
    }
    if args.config.is_empty() || args.id == NodeId(u32::MAX) || args.role.is_empty() {
        usage();
    }
    args
}

fn say(line: String) {
    let mut out = std::io::stdout().lock();
    let _ = writeln!(out, "{line}");
    let _ = out.flush();
}

fn main() -> ExitCode {
    let args = parse_args();
    let roster = match Roster::from_file(&args.config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("p2p-anon-node: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The roster's [policy] section is the baseline; CLI flags override.
    let mut policy = roster.policy;
    if let Some(us) = args.ack_timeout_us {
        policy.ack_timeout_us = us;
    }
    if let Some(retries) = args.max_retries {
        policy.max_retries = retries;
    }
    let codec = match ErasureCodec::new(args.codec.0, args.codec.1) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("p2p-anon-node: codec: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Distinct per-node randomness even when --seed is shared.
    let seed = args.seed ^ 0xa11ce ^ (u64::from(args.id.0) << 8);
    let mut node = ProtocolNode::new(args.id, roster.keypair(args.id), seed).with_policy(&policy);
    match args.role.as_str() {
        "relay" => {}
        "responder" => node = node.with_auto_ack().with_codec(Box::new(codec)),
        "initiator" => node = node.with_codec(Box::new(codec)),
        _ => usage(),
    }
    let mut transport = match EventedTransport::bind(args.id, roster.clone()) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("p2p-anon-node: bind {}: {e}", args.id);
            return ExitCode::FAILURE;
        }
    };
    transport.set_policy(policy);
    // --stats-addr: register live instruments and serve them until the
    // process exits (the guard keeps the listener thread alive).
    let _stats = match &args.stats_addr {
        Some(addr) => {
            let registry = Arc::new(telemetry::Registry::new());
            transport.set_telemetry(TcpTelemetry::register(registry.clone()));
            node = node.with_telemetry(ProtocolTelemetry::register(&registry, Some(args.id)));
            match StatsServer::serve(addr, registry, Some(Duration::from_secs(10))) {
                Ok(server) => {
                    say(format!("STATS addr={}", server.local_addr()));
                    Some(server)
                }
                Err(e) => {
                    eprintln!("p2p-anon-node: stats bind {addr}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => None,
    };
    // --chaos wraps this node's own transport in the deterministic
    // fault injector; the protocol stack cannot tell the difference.
    match &args.chaos {
        Some(spec) => {
            let cfg = match ChaosConfig::from_spec(spec) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("p2p-anon-node: --chaos: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let chaos = ChaosTransport::new(transport, ChaosPlan::new(cfg, args.chaos_seed));
            run_role(Runtime::new(chaos), node, &args, &roster)
        }
        None => run_role(Runtime::new(transport), node, &args, &roster),
    }
}

/// Role dispatch, generic over the (possibly chaos-wrapped) transport.
fn run_role<T: Transport>(
    mut rt: Runtime<T>,
    node: ProtocolNode,
    args: &Args,
    roster: &Roster,
) -> ExitCode {
    let id = args.id;
    rt.add_node(node);
    say(format!("READY id={id}"));
    match args.role.as_str() {
        "initiator" => run_initiator(rt, args, roster),
        _ => run_passive(rt, args),
    }
}

/// Relays and responders are passive: pump events, print deliveries,
/// run until killed (or `--run-secs`).
///
/// `--quiet` suppresses the per-event `DELIVERED`/`MESSAGE` narration
/// (a responder under load-generator traffic would otherwise spend its
/// time formatting stdout); `READY` still prints.
fn run_passive<T: Transport>(mut rt: Runtime<T>, args: &Args) -> ExitCode {
    let id = args.id;
    let deadline = args.run_us.unwrap_or(u64::MAX);
    while rt.transport.now_us() < deadline {
        rt.poll_once(100_000);
        // Narrate, then drop every log: nothing else reads them, and a
        // node that runs until killed must stay flat in memory under
        // sustained (or hostile) construction and data traffic.
        let ev = &mut rt.node_mut(id).events;
        if !args.quiet {
            for &(mid, index, _) in &ev.deliveries {
                say(format!("DELIVERED mid={} index={index}", mid.0));
            }
            for (mid, msg) in &ev.completed {
                say(format!(
                    "MESSAGE mid={} text={}",
                    mid.0,
                    String::from_utf8_lossy(msg)
                ));
            }
        }
        ev.clear_logs();
    }
    ExitCode::SUCCESS
}

/// Initiator main loop: construct paths, wait for acks, then send one
/// message per stdin line until EOF.
fn run_initiator<T: Transport>(mut rt: Runtime<T>, args: &Args, roster: &Roster) -> ExitCode {
    let id = args.id;
    let Some(responder) = args.responder else {
        eprintln!("p2p-anon-node: initiator needs --responder");
        return ExitCode::FAILURE;
    };
    if args.paths.is_empty() {
        eprintln!("p2p-anon-node: initiator needs --paths");
        return ExitCode::FAILURE;
    }
    let hop_lists: Vec<Vec<_>> = args
        .paths
        .iter()
        .map(|relays| {
            relays
                .iter()
                .chain(std::iter::once(&responder))
                .map(|&n| (n, roster.public_key(n)))
                .collect()
        })
        .collect();
    let k = hop_lists.len();
    rt.drive(id, |n, out| n.construct_paths(&hop_lists, out));

    // Peer processes may still be starting: the transport retries the
    // connections, so waiting is all the initiator needs to do here.
    let deadline = rt.transport.now_us() + 30_000_000;
    rt.run_until(deadline, |rt| rt.node(id).established_paths() >= k);
    let established = rt.node(id).established_paths();
    say(format!("ESTABLISHED {established}/{k}"));
    if established < k {
        eprintln!("p2p-anon-node: only {established}/{k} paths formed");
        return ExitCode::FAILURE;
    }

    // Stdin lines arrive on a channel so the event pump keeps running.
    let (line_tx, line_rx) = mpsc::channel();
    thread::spawn(move || {
        for line in std::io::stdin().lock().lines() {
            let Ok(line) = line else { break };
            if line_tx.send(line).is_err() {
                break;
            }
        }
    });

    let mut next_mid = 1u64;
    loop {
        // Wait for the next message text (pumping events meanwhile).
        let text = loop {
            match line_rx.try_recv() {
                Ok(line) if line.trim() == "quit" => {
                    say("DONE".to_string());
                    return ExitCode::SUCCESS;
                }
                Ok(line) => break line,
                // Nothing narrates what arrives between messages.
                Err(mpsc::TryRecvError::Empty) => {
                    rt.poll_once(20_000);
                    rt.node_mut(id).events.clear_logs();
                }
                Err(mpsc::TryRecvError::Disconnected) => {
                    say("DONE".to_string());
                    return ExitCode::SUCCESS;
                }
            }
        };
        let mid = MessageId(next_mid);
        next_mid += 1;
        if let Err(e) = rt.drive(id, |n, out| n.send_message(mid, text.as_bytes(), out)) {
            eprintln!("p2p-anon-node: send: {e}");
            continue;
        }
        say(format!("SENT mid={}", mid.0));

        // Pump until every segment is acked (retransmitting on timeout),
        // narrating progress for the driving test from what was logged
        // since the send.
        let deadline = rt.transport.now_us() + 60_000_000;
        let mut retransmits = rt.node(id).events.retransmits;
        rt.node_mut(id).events.clear_logs();
        while rt.transport.now_us() < deadline && !rt.node(id).message_complete(mid) {
            rt.poll_once(20_000);
            narrate(&mut rt.node_mut(id).events, mid, &mut retransmits)
                .into_iter()
                .for_each(say);
        }
        if rt.node(id).message_complete(mid) {
            say(format!("COMPLETE mid={}", mid.0));
        } else {
            say(format!("INCOMPLETE mid={}", mid.0));
        }
    }
}

/// The progress lines for message `mid` out of what `ev` logged since the
/// last call: `ACKED` per ack, `TIMEOUT` per ack deadline passed, then
/// `RETRANSMIT` per retransmit past `*retransmits`, which moves up to the
/// counter. Every log is left empty, so a node that sends for as long as
/// it runs stays flat in memory.
fn narrate(ev: &mut Events, mid: MessageId, retransmits: &mut u64) -> Vec<String> {
    let acked = ev.acks.iter().map(|&(mid, index, _)| ("ACKED", mid, index));
    let timed_out = ev
        .ack_timeouts
        .iter()
        .map(|&(mid, index, _)| ("TIMEOUT", mid, index));
    let mut lines: Vec<String> = acked
        .chain(timed_out)
        .map(|(what, mid, index)| format!("{what} mid={} index={index}", mid.0))
        .collect();
    lines.extend((*retransmits..ev.retransmits).map(|_| format!("RETRANSMIT mid={}", mid.0)));
    *retransmits = ev.retransmits;
    ev.clear_logs();
    lines
}

#[cfg(test)]
mod tests {
    use super::*;
    use anon_core::events::Event;

    #[test]
    fn narration_reports_each_event_once_and_empties_the_logs() {
        let mut ev = Events::default();
        let mut retransmits = 0;
        let (first, second) = (MessageId(1), MessageId(2));
        ev.record(10, Event::Acked(first, 0, Some(10)));
        ev.record(20, Event::TimedOut(first, 1));
        ev.record(20, Event::Retransmitted);
        ev.record(30, Event::Acked(first, 1, None));
        assert_eq!(
            narrate(&mut ev, first, &mut retransmits),
            [
                "ACKED mid=1 index=0",
                "ACKED mid=1 index=1",
                "TIMEOUT mid=1 index=1",
                "RETRANSMIT mid=1",
            ]
        );
        // The second message: a late ack of the first, then its own.
        ev.record(40, Event::Acked(first, 1, None));
        ev.record(50, Event::TimedOut(second, 0));
        ev.record(50, Event::Retransmitted);
        ev.record(50, Event::Retransmitted);
        ev.record(60, Event::Acked(second, 0, None));
        ev.record(60, Event::Delivered(second, 0));
        ev.record(60, Event::Established(anon_core::StreamId(3)));
        assert_eq!(
            narrate(&mut ev, second, &mut retransmits),
            [
                "ACKED mid=1 index=1",
                "ACKED mid=2 index=0",
                "TIMEOUT mid=2 index=0",
                "RETRANSMIT mid=2",
                "RETRANSMIT mid=2",
            ]
        );
        assert!(narrate(&mut ev, second, &mut retransmits).is_empty());
        assert_eq!((retransmits, ev.retransmits), (3, 3));
        assert!(ev.acks.is_empty() && ev.ack_timeouts.is_empty());
        assert!(ev.deliveries.is_empty() && ev.established.is_empty());
        assert!(ev.constructions.is_empty() && ev.completed.is_empty());
    }
}
