//! `live_tcp`: the only workload through `transport::evented`, epoll,
//! `FrameReader`, the writer queues and real syscalls. The benchmark
//! process is the initiator (`loadgen::{establish_chain, run}` over
//! `EventedTransport`); it spawns one `p2p-anon-node` relay and one
//! responder on loopback TCP. Traffic crosses the host's loopback
//! interface, not a real link; three processes share the box's cores.
//!
//! Two phases, each cut into windows with their own short warm-up;
//! the reported value is the best window's (`report::steady_low`).
//! The latency phase is a closed loop with one message in flight: the
//! round trip of a message on an otherwise idle chain. The rate phase
//! is a closed loop with 32 in flight (the sustainable rate).
//!
//! The traced run replaces the latency phase with an open loop at a
//! fixed 2000 ops/s, about a twelfth of what the chain sustains on one
//! core (latency from the intended start, so a stall cannot hide the
//! operations it delayed), and reports it as `loadgen.*`. It is a
//! diagnostic, not a gate: its latency has two modes, about 130 and
//! 230 us, whose mix drifts from window to window (between two
//! open-loop operations the core goes idle, so every operation starts
//! with a timer waking an idle virtual CPU; the likely cause, not
//! measured). Over eight runs of the same binary the best window's
//! 90th percentile read 164-214 us and the median window's 195-254 us,
//! where the one-in-flight loop, which never lets the core idle, read
//! 86.5-92.4 us.
//!
//! All three processes are pinned to one core (`sched_setaffinity`),
//! the last one. Left to the scheduler, three processes on two cores
//! change partners every few seconds, and every hop that crosses cores
//! wakes an idle virtual CPU through the hypervisor, which costs more
//! than the frame's own work and varies with the box's other tenants:
//! open-loop latency moved by a factor of two from run to run. On one
//! core every hand-over is a local context switch, and the workload
//! measures what it is here for: the processor cost of the live path
//! per frame, not parallel speed-up (which this box cannot show).

use crate::report::{payload, peak_rss_mb, quantile, steady_high, steady_low, ProcUsage, Report};
use crate::trace::{SharedTracer, TracedTransport, Tracer};
use erasure::ErasureCodec;
use loadgen::{establish_chain, Arrival, Summary, Workload};
use simnet::NodeId;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};
use transport::{EventedTransport, ProtocolNode, Roster, Runtime, Transport};

#[derive(Clone, Copy)]
pub struct LiveSize {
    pub payload_bytes: usize,
    pub open_rate_hz: f64,
    pub in_flight: usize,
    /// Windows per phase.
    pub windows: usize,
    /// Unmeasured traffic at the start of every window, microseconds.
    pub warmup_us: u64,
    /// Times the fleet is spawned and the chain established.
    pub setups: usize,
}

impl LiveSize {
    pub fn full() -> Self {
        LiveSize {
            payload_bytes: 64,
            open_rate_hz: 2_000.0,
            in_flight: 32,
            windows: 8,
            warmup_us: 50_000,
            setups: 24,
        }
    }

    pub fn tiny() -> Self {
        LiveSize {
            windows: 1,
            warmup_us: 20_000,
            setups: 1,
            ..Self::full()
        }
    }
}

/// The one foreign call the benchmark makes.
mod affinity {
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    /// Pin process `pid` (0 = this one) to the last core. Best effort:
    /// `false` if the kernel refused.
    pub fn pin(pid: u32) -> bool {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mask: u64 = 1 << ((cores - 1) % 64);
        // SAFETY: `mask` is a live, aligned 8-byte CPU set and the
        // length passed is its size; the call reads it and writes
        // nothing.
        unsafe { sched_setaffinity(pid as i32, std::mem::size_of::<u64>(), &mask) == 0 }
    }
}

const INITIATOR: NodeId = NodeId(0);
const RELAY: u32 = 1;
const RESPONDER: u32 = 2;

/// The spawned chain; killed and reaped when dropped, pass or fail.
struct Fleet {
    relay: Child,
    responder: Child,
    /// The relay's `--stats-addr`, when asked for.
    relay_stats: Option<String>,
    dir: PathBuf,
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for child in [&mut self.relay, &mut self.responder] {
            let _ = child.kill();
            let _ = child.wait();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// `p2p-anon-node` as `run.py` built it: beside this executable (or
/// one level up, for a test binary under `deps/`).
fn node_binary() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    exe.ancestors()
        .skip(1)
        .take(2)
        .map(|dir| dir.join("p2p-anon-node"))
        .find(|p| p.is_file())
        .ok_or_else(|| {
            format!(
                "p2p-anon-node is not built beside {}; benchmark/run.py builds it",
                exe.display()
            )
        })
}

/// Start one node and wait for its `READY` line; returns the child and
/// the stats address it announced, if any.
fn spawn_node(
    bin: &PathBuf,
    config: &PathBuf,
    id: u32,
    role: &[&str],
    stats: bool,
) -> Result<(Child, Option<String>), String> {
    let mut cmd = Command::new(bin);
    cmd.arg("--config")
        .arg(config)
        .args(["--id", &id.to_string(), "--transport", "evented", "--quiet"])
        .args(role)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    if stats {
        cmd.args(["--stats-addr", "127.0.0.1:0"]);
    }
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
    let mut lines = BufReader::new(child.stdout.take().expect("stdout is piped")).lines();
    let mut stats_addr = None;
    loop {
        match lines.next() {
            Some(Ok(line)) if line.starts_with("READY") => return Ok((child, stats_addr)),
            Some(Ok(line)) => {
                if let Some(addr) = line.strip_prefix("STATS addr=") {
                    stats_addr = Some(addr.trim().to_string());
                }
            }
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("node {id} exited before READY"));
            }
        }
    }
}

fn spawn_fleet(seed: u64, stats: bool) -> Result<(Roster, Fleet), String> {
    let bin = node_binary()?;
    // Reserve three loopback ports, then hand them to the roster.
    let listeners: Vec<TcpListener> = (0..3)
        .map(|_| TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let mut roster = Roster::new(seed ^ 0x10ad_beef);
    for (id, l) in listeners.iter().enumerate() {
        let addr = l.local_addr().map_err(|e| e.to_string())?;
        roster.insert(NodeId(id as u32), addr.to_string());
    }
    drop(listeners);
    let dir = crate::out_dir()
        .map_err(|e| e.to_string())?
        .join(format!("live-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let config = dir.join("roster.toml");
    std::fs::write(&config, roster.to_config()).map_err(|e| e.to_string())?;
    let (relay, relay_stats) = spawn_node(&bin, &config, RELAY, &["--role", "relay"], stats)?;
    let responder = spawn_node(
        &bin,
        &config,
        RESPONDER,
        &["--role", "responder", "--codec", "1,1"],
        false,
    );
    let (responder, _) = match responder {
        Ok(r) => r,
        Err(e) => {
            let mut relay = relay;
            let _ = relay.kill();
            let _ = relay.wait();
            return Err(e);
        }
    };
    let pinned = affinity::pin(0) && affinity::pin(relay.id()) && affinity::pin(responder.id());
    if !pinned {
        eprintln!("live_tcp: could not pin processes to cores; latency will wander");
    }
    Ok((
        roster,
        Fleet {
            relay,
            responder,
            relay_stats,
            dir,
        },
    ))
}

/// Spawn the fleet, bind the initiator and establish the chain:
/// everything before the first measurable operation.
fn set_up<T: Transport>(
    seed: u64,
    stats: bool,
    wrap: impl FnOnce(EventedTransport) -> T,
) -> Result<(Runtime<T>, Fleet, f64), String> {
    let t0 = Instant::now();
    let (roster, fleet) = spawn_fleet(seed, stats)?;
    let mut policy = roster.policy;
    // A closed-loop backlog must not masquerade as loss.
    policy.ack_timeout_us = 2_000_000;
    let transport = EventedTransport::bind(INITIATOR, roster.clone()).map_err(|e| e.to_string())?;
    let node = ProtocolNode::new(INITIATOR, roster.keypair(INITIATOR), seed ^ 0x6e6e)
        .with_policy(&policy)
        .with_codec(Box::new(ErasureCodec::new(1, 1).expect("(1,1) codec")));
    let mut rt = Runtime::new(wrap(transport));
    rt.add_node(node);
    let hops: Vec<_> = [RELAY, RESPONDER]
        .iter()
        .map(|&n| (NodeId(n), roster.public_key(NodeId(n))))
        .collect();
    establish_chain(&mut rt, INITIATOR, &hops, 30_000_000)?;
    Ok((rt, fleet, t0.elapsed().as_secs_f64()))
}

/// What the two phases measured, one `Summary` per window.
struct Phases {
    latency: Vec<Summary>,
    rate: Vec<Summary>,
    /// Transport-clock start and end of each latency window.
    latency_spans_us: Vec<(u64, u64)>,
    measured: Duration,
}

/// The latency phase under `latency`, then the rate phase, half of
/// `seconds` each.
fn run_phases<T: Transport>(
    rt: &mut Runtime<T>,
    size: &LiveSize,
    seed: u64,
    seconds: f64,
    latency: Arrival,
) -> Phases {
    let window_us = (seconds * 1e6 / (2 * size.windows) as f64) as u64;
    let workload = |arrival| Workload {
        arrival,
        payload: payload(seed, 0, size.payload_bytes),
        warmup_us: size.warmup_us,
        measure_us: window_us.saturating_sub(size.warmup_us).max(size.warmup_us),
        drain_us: 1_000_000,
    };
    let t0 = Instant::now();
    let mut phases = Phases {
        latency: Vec::new(),
        rate: Vec::new(),
        latency_spans_us: Vec::new(),
        measured: Duration::ZERO,
    };
    let latency = workload(latency);
    for _ in 0..size.windows {
        let start = rt.transport.now_us();
        phases
            .latency
            .push(loadgen::run(rt, INITIATOR, &latency, 2));
        phases.latency_spans_us.push((start, rt.transport.now_us()));
    }
    let rate = workload(Arrival::Closed {
        in_flight: size.in_flight,
    });
    for _ in 0..size.windows {
        phases.rate.push(loadgen::run(rt, INITIATOR, &rate, 2));
    }
    phases.measured = t0.elapsed();
    phases
}

impl Phases {
    /// The best window's `q`-quantile of the latency phase.
    fn latency_us(&self, q: f64) -> f64 {
        steady_low(
            &self
                .latency
                .iter()
                .map(|s| quantile_us(s, q))
                .collect::<Vec<_>>(),
        )
    }

    /// The best window's rate in the rate phase.
    fn ops_per_s(&self) -> f64 {
        steady_high(
            &self
                .rate
                .iter()
                .map(Summary::ops_per_sec)
                .collect::<Vec<_>>(),
        )
    }
}

/// The `q`-quantile of a window's latency, interpolated by rank inside
/// the histogram bucket that holds it. `Summary::quantile_us` returns
/// the bucket's upper edge, a whole microsecond: ten quiet runs could
/// all read the same.
fn quantile_us(window: &Summary, q: f64) -> f64 {
    let count = window.latency.count();
    let target = ((q * count as f64).ceil() as u64).clamp(1, count.max(1));
    let mut below = 0;
    for (low, high, in_bucket) in window.latency.nonzero_buckets() {
        if below + in_bucket >= target {
            let rank = (target - below) as f64 / in_bucket as f64;
            return low as f64 - 1.0 + rank * (high - low + 1) as f64;
        }
        below += in_bucket;
    }
    0.0
}

fn check_phases(report: &mut Report, phases: &Phases) {
    let all = || phases.latency.iter().chain(&phases.rate);
    report.attempted = all().map(|s| s.launched + s.send_errors).sum();
    report.failed = all().map(|s| s.incomplete + s.send_errors).sum();
    report.check(
        "attempted_is_completed_plus_failed",
        all().all(|s| s.launched == s.ops + s.incomplete),
    );
    report.check("no_ack_timeouts", all().all(|s| s.timeout_events == 0));
    report.check("open_loop_not_saturated", all().all(|s| !s.saturated));
    report.check(
        "every_window_completed_operations",
        all().all(|s| s.ops > 0),
    );
}

/// The untraced run.
pub fn run(size: &LiveSize, seed: u64, seconds: f64) -> Result<Report, String> {
    let mut setups = Vec::new();
    for _ in 1..size.setups {
        let (rt, fleet, setup_s) = set_up(seed, false, |t| t)?;
        setups.push(setup_s);
        drop(rt);
        drop(fleet);
    }
    let (mut rt, fleet, setup_s) = set_up(seed, false, |t| t)?;
    setups.push(setup_s);
    let phases = run_phases(
        &mut rt,
        size,
        seed,
        seconds,
        Arrival::Closed { in_flight: 1 },
    );
    let rss = peak_rss_mb(fleet.relay.id());
    drop(rt);
    drop(fleet);

    let mut report = Report::default();
    check_phases(&mut report, &phases);
    report.set("setup_s", steady_low(&setups));
    report.set("ops_per_s", phases.ops_per_s());
    report.set("p50_us", phases.latency_us(0.5));
    report.set("p90_us", phases.latency_us(0.9));
    report.set("peak_rss_mb", rss);
    Ok(report)
}

/// Scrape the relay's `/metrics` page: total frames shed and the
/// deepest writer queue.
fn scrape_relay(addr: &str) -> Option<(f64, f64)> {
    let mut stream = TcpStream::connect(addr).ok()?;
    stream.set_read_timeout(Some(Duration::from_secs(2))).ok()?;
    stream.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").ok()?;
    let mut page = String::new();
    stream.read_to_string(&mut page).ok()?;
    let values = |name: &str| -> Vec<f64> {
        page.lines()
            .filter(|l| l.starts_with(name))
            .filter_map(|l| l.rsplit(' ').next()?.parse().ok())
            .collect()
    };
    Some((
        values("transport_frames_shed_total").iter().sum(),
        values("transport_writer_queue_depth")
            .into_iter()
            .fold(0.0, f64::max),
    ))
}

/// The traced run: the initiator's transport wrapped in spans, the
/// relay started with `--stats-addr`, and `/proc` read for both child
/// processes and for the generator itself around the measured phases.
/// Its latency phase is the open loop.
pub fn run_traced(size: &LiveSize, seed: u64, seconds: f64) -> Result<Report, String> {
    let open = Arrival::Open {
        rate_hz: size.open_rate_hz,
    };
    // A short untraced stretch first, for the overhead ratio.
    let (mut rt, fleet, _) = set_up(seed, false, |t| t)?;
    let plain = run_phases(&mut rt, size, seed, seconds * 0.3, open);
    drop(rt);
    drop(fleet);

    let tracer: SharedTracer = Tracer::shared();
    let (mut rt, fleet, _) = set_up(seed, true, |t| TracedTransport::new(t, tracer.clone()))?;
    {
        let mut t = tracer.borrow_mut();
        t.ledger = Default::default();
        t.payload_sends_us = Some(Vec::new());
    }
    let me = std::process::id();
    let before = [me, fleet.relay.id(), fleet.responder.id()].map(ProcUsage::of);
    let phases = run_phases(&mut rt, size, seed, seconds * 0.6, open);
    let after = [me, fleet.relay.id(), fleet.responder.id()].map(ProcUsage::of);
    let scraped = fleet.relay_stats.as_deref().and_then(scrape_relay);
    drop(rt);
    drop(fleet);

    let mut report = Report::default();
    check_phases(&mut report, &phases);
    report.set(
        "trace.overhead_ratio",
        plain.ops_per_s() / phases.ops_per_s(),
    );

    let t = tracer.borrow();
    let ledger = &t.ledger;
    let wall_s = phases.measured.as_secs_f64();
    let transport_s = ledger.seconds("transport.");
    // Poll time includes waiting for the socket: an idle generator
    // shows up here, not as unattributed time.
    report.set("transport.share", transport_s / wall_s);
    report.set("trace.unattributed_share", (wall_s - transport_s) / wall_s);
    let sends = ledger.calls("transport.send");
    report.set("transport.send_calls", sends as f64);
    report.set("transport.send_s", ledger.seconds("transport.send"));
    report.set(
        "transport.poll_calls",
        ledger.calls("transport.poll") as f64,
    );
    report.set("transport.poll_s", ledger.seconds("transport.poll"));
    report.set(
        "transport.timer_sets",
        ledger.calls("transport.timer_set") as f64,
    );
    report.set(
        "transport.timer_cancels",
        ledger.calls("transport.timer_cancel") as f64,
    );
    report.set("transport.timer_fires", ledger.counts.timer_fires as f64);
    report.set("transport.wire_bytes", ledger.counts.wire_bytes as f64);
    report.set(
        "core.wire.frame_bytes_mean",
        ledger.counts.wire_bytes as f64 / sends.max(1) as f64,
    );

    // Every operation the generator sent (warm-ups included) crossed
    // the relay twice: one forward peel, one reverse wrap.
    let ops = sends.max(1) as f64;
    let [gen, relay, responder] = [0, 1, 2].map(|i| after[i].since(before[i]));
    report.set("loadgen.cpu_us_per_op", gen.cpu_us / ops);
    report.set("relay.cpu_us_per_forward", relay.cpu_us / (2.0 * ops));
    report.set(
        "relay.ctx_switches_per_frame",
        relay.ctx_switches as f64 / (2.0 * ops),
    );
    report.set("responder.cpu_us_per_op", responder.cpu_us / ops);
    report.check("relay_metrics_scraped", scraped.is_some());
    let (shed, depth) = scraped.unwrap_or((0.0, 0.0));
    report.set("relay.frames_shed", shed);
    report.set("relay.queue_depth_max", depth);

    // How late the open-loop generator launched: the i-th payload send
    // of a window against its intended start.
    let period_us = (1e6 / size.open_rate_hz) as u64;
    let sends_us = t.payload_sends_us.as_deref().unwrap_or(&[]);
    let mut lateness: Vec<f64> = Vec::new();
    for &(start, end) in &phases.latency_spans_us {
        let in_window = sends_us.iter().filter(|&&at| at >= start && at < end);
        for (i, &at) in in_window.enumerate() {
            lateness.push(at.saturating_sub(start + i as u64 * period_us) as f64);
        }
    }
    report.set("loadgen.lateness_p99_us", quantile(&mut lateness, 0.99));
    report.set("loadgen.p50_us", phases.latency_us(0.5));
    report.set("loadgen.p90_us", phases.latency_us(0.9));
    report.set("loadgen.p99_us", phases.latency_us(0.99));
    report.set("loadgen.p999_us", phases.latency_us(0.999));
    report.set(
        "loadgen.samples",
        phases.latency.iter().map(|s| s.ops).sum::<u64>() as f64,
    );
    report.set(
        "fail_ratio",
        report.failed as f64 / report.attempted.max(1) as f64,
    );
    report.set(
        "delivered_ratio",
        1.0 - report.failed as f64 / report.attempted.max(1) as f64,
    );
    report.set("wire_bytes_per_op", ledger.counts.wire_bytes as f64 / ops);
    Ok(report)
}
