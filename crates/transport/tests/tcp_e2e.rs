//! Localhost end-to-end: ≥16 real `p2p-anon-node` processes speak the
//! protocol over real TCP sockets.
//!
//! Topology: initiator (node 0), 16 relays (nodes 1–16) forming k = 4
//! node-disjoint paths of 4 relays each, responder (node 17) — 18
//! OS processes, one per node, wired by a generated roster file.
//!
//! The test delivers an erasure-coded SimEra(k=4, r=2) message (m = 2 of
//! n = 4 segments reconstruct), then kills one relay process outright
//! and sends again: the dead path's segment times out, the initiator
//! retransmits it over a surviving path, and the message still
//! completes end to end — the paper's recovery story, over sockets.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, Receiver};
use std::thread;
use std::time::{Duration, Instant};

const NODES: u32 = 18;
const INITIATOR: u32 = 0;
const RESPONDER: u32 = 17;

/// Kills every spawned node process when the test ends, pass or fail.
struct Fleet(HashMap<u32, Child>);

impl Drop for Fleet {
    fn drop(&mut self) {
        for child in self.0.values_mut() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Reserve one localhost port per node by binding ephemeral listeners,
/// then releasing them. (A tiny race with other processes is possible
/// but overwhelmingly unlikely, and the test fails loudly if lost.)
fn reserve_ports(n: u32) -> Vec<u16> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind ephemeral"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().unwrap().port())
        .collect()
}

/// Pipe a child's stdout lines into a channel, tagged with its node id.
fn tee_stdout(id: u32, child: &mut Child) -> Receiver<(u32, String)> {
    let stdout = child.stdout.take().expect("stdout piped");
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        for line in BufReader::new(stdout).lines() {
            let Ok(line) = line else { break };
            if tx.send((id, line)).is_err() {
                break;
            }
        }
    });
    rx
}

/// Drain lines from `rx` until one satisfies `pred`; panic after
/// `timeout`. Returns every line seen up to and including the match.
fn wait_for(
    rx: &Receiver<(u32, String)>,
    timeout: Duration,
    what: &str,
    mut pred: impl FnMut(u32, &str) -> bool,
) -> Vec<(u32, String)> {
    let deadline = Instant::now() + timeout;
    let mut seen = Vec::new();
    loop {
        let remaining = deadline
            .checked_duration_since(Instant::now())
            .unwrap_or_else(|| panic!("timed out waiting for {what}; saw {seen:#?}"));
        match rx.recv_timeout(remaining) {
            Ok((id, line)) => {
                let hit = pred(id, &line);
                seen.push((id, line));
                if hit {
                    return seen;
                }
            }
            Err(_) => panic!("timed out waiting for {what}; saw {seen:#?}"),
        }
    }
}

/// One scrape of a node's `--stats-addr` Prometheus endpoint, parsed
/// into `(family type by name, sample value by "name{labels}" key)`.
/// Panics on any line that is neither a well-formed comment nor a
/// `name{labels} value` sample — the exposition-format validation.
fn scrape(addr: &str) -> (HashMap<String, String>, HashMap<String, f64>) {
    let mut stream = TcpStream::connect(addr).expect("connect stats addr");
    write!(stream, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read scrape");
    let body = response
        .split_once("\r\n\r\n")
        .expect("http header/body split")
        .1;
    assert!(response.starts_with("HTTP/1.1 200"), "{response}");

    let mut types = HashMap::new();
    let mut samples = HashMap::new();
    for line in body.lines() {
        if let Some(comment) = line.strip_prefix("# ") {
            // `# TYPE <name> <counter|gauge|summary>` is the only
            // comment the exporter emits.
            let parts: Vec<&str> = comment.split_whitespace().collect();
            assert_eq!(parts.len(), 3, "malformed comment: {line}");
            assert_eq!(parts[0], "TYPE", "malformed comment: {line}");
            assert!(
                ["counter", "gauge", "summary"].contains(&parts[2]),
                "unknown family type: {line}"
            );
            types.insert(parts[1].to_string(), parts[2].to_string());
            continue;
        }
        let (key, value) = line.rsplit_once(' ').expect("sample: name value");
        let value: f64 = value.parse().unwrap_or_else(|_| {
            panic!("sample value must be numeric: {line}");
        });
        let name = key.split('{').next().unwrap();
        assert!(
            !name.is_empty() && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
            "bad metric name: {line}"
        );
        samples.insert(key.to_string(), value);
    }
    assert!(!samples.is_empty(), "scrape returned no samples:\n{body}");
    (types, samples)
}

#[test]
fn sixteen_plus_nodes_deliver_and_survive_a_relay_kill() {
    let bin = env!("CARGO_BIN_EXE_p2p-anon-node");
    let dir = std::env::temp_dir().join(format!("p2p-anon-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let config = dir.join("roster.toml");

    // One extra port for the initiator's stats listener.
    let mut ports = reserve_ports(NODES + 1);
    let stats_addr = format!("127.0.0.1:{}", ports.pop().unwrap());
    let mut roster = String::from("key_seed = 4217\n\n[nodes]\n");
    for (id, port) in ports.iter().enumerate() {
        roster.push_str(&format!("{id} = \"127.0.0.1:{port}\"\n"));
    }
    std::fs::write(&config, roster).unwrap();

    // Relays 1..=16 and the responder come up first; the initiator's
    // construction onions are one-shot, so its peers must be listening.
    let mut fleet = Fleet(HashMap::new());
    let (peer_tx, peer_rx) = mpsc::channel();
    for id in 1..NODES {
        let mut cmd = Command::new(bin);
        cmd.arg("--config")
            .arg(&config)
            .args(["--id", &id.to_string(), "--run-secs", "180"])
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        if id == RESPONDER {
            cmd.args(["--role", "responder", "--codec", "2,4"]);
        } else {
            cmd.args(["--role", "relay"]);
        }
        let mut child = cmd.spawn().expect("spawn node");
        let rx = tee_stdout(id, &mut child);
        let tx = peer_tx.clone();
        thread::spawn(move || {
            for msg in rx {
                if tx.send(msg).is_err() {
                    break;
                }
            }
        });
        fleet.0.insert(id, child);
    }
    let mut ready = 0;
    wait_for(
        &peer_rx,
        Duration::from_secs(30),
        "all peers READY",
        |_, l| {
            if l.starts_with("READY") {
                ready += 1;
            }
            ready == NODES as usize - 1
        },
    );

    // The initiator: 4 node-disjoint paths of 4 relays each, SimEra
    // (k=4, r=2) coding — any 2 of the 4 segments reconstruct.
    let mut init = Command::new(bin)
        .arg("--config")
        .arg(&config)
        .args(["--id", &INITIATOR.to_string(), "--role", "initiator"])
        .args(["--paths", "1,2,3,4;5,6,7,8;9,10,11,12;13,14,15,16"])
        .args(["--responder", &RESPONDER.to_string()])
        .args(["--codec", "2,4", "--ack-timeout-ms", "800"])
        .args(["--stats-addr", &stats_addr])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn initiator");
    let init_rx = tee_stdout(INITIATOR, &mut init);
    let mut stdin = init.stdin.take().expect("stdin piped");
    fleet.0.insert(INITIATOR, init);

    wait_for(
        &init_rx,
        Duration::from_secs(30),
        "4/4 paths established",
        |_, l| l.starts_with("ESTABLISHED 4/4"),
    );

    // Message 1: clean delivery over all four paths.
    writeln!(stdin, "hello over four disjoint paths").unwrap();
    stdin.flush().unwrap();
    wait_for(
        &init_rx,
        Duration::from_secs(30),
        "message 1 complete",
        |_, l| l == "COMPLETE mid=1",
    );
    wait_for(
        &peer_rx,
        Duration::from_secs(10),
        "responder reassembled message 1",
        |id, l| id == RESPONDER && l == "MESSAGE mid=1 text=hello over four disjoint paths",
    );

    // First telemetry scrape, mid-run: the exposition must parse and
    // the construction + first message must already be visible.
    let (types1, scrape1) = scrape(&stats_addr);
    assert_eq!(
        types1
            .get("transport_frames_enqueued_total")
            .map(String::as_str),
        Some("counter"),
        "{types1:?}"
    );
    assert!(
        scrape1.get("transport_frames_enqueued_total").copied() >= Some(8.0),
        "4 construct + 4 payload frames at least: {scrape1:?}"
    );
    assert_eq!(
        scrape1.get(r#"node_paths_established_total{node="0"}"#),
        Some(&4.0),
        "{scrape1:?}"
    );
    assert_eq!(
        scrape1.get(r#"node_acks_total{node="0"}"#),
        Some(&4.0),
        "all four segments of message 1 acked: {scrape1:?}"
    );

    // Kill the first relay of path 0 mid-stream. Its segment of the next
    // message can neither be forwarded nor acked.
    let mut victim = fleet.0.remove(&1).expect("relay 1 running");
    victim.kill().expect("kill relay");
    victim.wait().expect("reap relay");

    // Message 2: segment 0 dies with the relay, its ack deadline fires,
    // and the retransmit rotates onto a surviving path.
    writeln!(stdin, "still delivered after the kill").unwrap();
    stdin.flush().unwrap();
    let lines = wait_for(
        &init_rx,
        Duration::from_secs(45),
        "message 2 complete despite the dead relay",
        |_, l| l == "COMPLETE mid=2",
    );
    assert!(
        lines.iter().any(|(_, l)| l.starts_with("TIMEOUT mid=2")),
        "the dead path's segment timed out: {lines:#?}"
    );
    assert!(
        lines.iter().any(|(_, l)| l.starts_with("RETRANSMIT mid=2")),
        "the segment was retransmitted: {lines:#?}"
    );
    wait_for(
        &peer_rx,
        Duration::from_secs(10),
        "responder reassembled message 2",
        |id, l| id == RESPONDER && l == "MESSAGE mid=2 text=still delivered after the kill",
    );

    // Second scrape: every counter present in the first scrape must be
    // monotone non-decreasing, and the recovery left its marks — an ack
    // deadline fired and a retransmit went out.
    let (types2, scrape2) = scrape(&stats_addr);
    for (key, &v1) in &scrape1 {
        let family = key.split('{').next().unwrap();
        if types2.get(family).map(String::as_str) != Some("counter") {
            continue; // gauges (queue depth) may go up or down
        }
        let v2 = scrape2
            .get(key)
            .unwrap_or_else(|| panic!("counter {key} vanished between scrapes"));
        assert!(*v2 >= v1, "counter {key} went backwards: {v1} -> {v2}");
    }
    assert!(
        scrape2.get(r#"node_ack_timeouts_total{node="0"}"#).copied() >= Some(1.0),
        "the dead path's ack deadline fired: {scrape2:?}"
    );
    assert!(
        scrape2.get(r#"node_retransmits_total{node="0"}"#).copied() >= Some(1.0),
        "the retransmit was recorded: {scrape2:?}"
    );
    assert!(
        scrape2.get("transport_timer_fires_total").copied() >= Some(1.0),
        "{scrape2:?}"
    );

    // Clean shutdown of the initiator; the fleet guard reaps the rest.
    let _ = writeln!(stdin, "quit");
    let _ = stdin.flush();
    let _ = std::fs::remove_dir_all(&dir);
}
