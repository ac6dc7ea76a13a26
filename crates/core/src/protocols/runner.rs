//! Experiment drivers: the procedures behind Tables 1–4 and Figure 5.
//!
//! Two experiments, exactly as §6 describes them:
//!
//! * [`run_setup_experiment_traced`] — 2-hour simulation; during the second hour
//!   every node schedules path-construction events with exponentially
//!   distributed inter-arrival times (mean 116 s). Measures the path-setup
//!   success rate under each protocol's rule (Table 1, Figure 5).
//! * [`run_performance_experiment_traced`] — a pinned initiator/responder pair
//!   sends a 1 KB message every 10 s during the second hour; path sets are
//!   (re)constructed as they fail. Measures durability, construction
//!   attempts, latency and bandwidth (Tables 2–4).

use crate::metrics::ProtocolMetrics;
use crate::mix::MixStrategy;
use crate::protocols::ProtocolKind;
use crate::sim::{FailureDetection, World, WorldConfig};
use crate::AnonError;
use rand::Rng;
use simnet::trace::EngineCounters;
use simnet::{FaultConfig, NodeId, SimDuration, SimTime};
use std::cell::RefCell;
use std::sync::Arc;

/// Execution statistics for one experiment run, captured by the `_traced`
/// drivers and surfaced in run traces.
///
/// The trajectory-level drivers iterate an explicit event timeline rather
/// than a `simnet::Engine` heap, but report through the same
/// [`EngineCounters`] vocabulary: `scheduled` is timeline events generated,
/// `processed` those whose handler ran, `cancelled` those skipped (e.g. a
/// down initiator), `max_pending` the peak backlog.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Event-timeline counters.
    pub engine: EngineCounters,
    /// Hop-by-hop path traversals evaluated.
    pub traversals: u64,
    /// Total links walked (includes partial traversal of failed paths).
    pub links: u64,
    /// Messages swallowed by down nodes (message-level runs; zero on
    /// trajectory-level runs, which have no wire messages).
    pub lost: u64,
    /// Messages dropped for missing relay state (unformed/torn paths,
    /// crash-wiped caches).
    pub stateless_drops: u64,
    /// Messages eaten by injected link-drop faults.
    pub fault_drops: u64,
    /// Crash-restart events applied by the fault plan.
    pub crash_wipes: u64,
    /// First-transmission segments launched end to end.
    pub segments_sent: u64,
    /// Segments re-sent by the recovery layer.
    pub retransmits: u64,
    /// End-to-end segment acks received back at the initiator.
    pub acks: u64,
    /// Ack deadlines that expired before their ack.
    pub ack_timeouts: u64,
    /// §4.5 failure-localization probes issued.
    pub probes: u64,
    /// Paths torn down and reconstructed by the recovery layer.
    pub paths_rebuilt: u64,
}

/// Configuration of the setup-rate experiment (§6.2 "Path Construction").
#[derive(Clone, Debug)]
pub struct SetupConfig {
    /// Network parameters.
    pub world: WorldConfig,
    /// Protocol under test.
    pub protocol: ProtocolKind,
    /// Mix choice.
    pub strategy: MixStrategy,
    /// Measurement starts after this warm-up (paper: first hour).
    pub warmup: SimTime,
    /// Mean inter-arrival of each node's construction events (paper: 116 s).
    pub mean_interarrival: SimDuration,
}

impl SetupConfig {
    /// Paper defaults for a given protocol/strategy and seed.
    pub fn paper_default(protocol: ProtocolKind, strategy: MixStrategy, seed: u64) -> Self {
        SetupConfig {
            world: WorldConfig::paper_default(seed),
            protocol,
            strategy,
            warmup: SimTime::from_secs(3600),
            mean_interarrival: SimDuration::from_secs(116),
        }
    }
}

/// Run the path-setup experiment; returns metrics with construction
/// attempt/success counts filled in, plus per-run execution statistics.
pub fn run_setup_experiment_traced(cfg: &SetupConfig) -> (ProtocolMetrics, RunStats) {
    let mut world = World::new(cfg.world.clone());
    let mut metrics = ProtocolMetrics::new();
    let mut stats = RunStats::default();
    let horizon = cfg.world.horizon;
    let mean = cfg.mean_interarrival.as_secs_f64();

    // Each node independently schedules construction events during the
    // measurement window; merge-sort them into one timeline.
    let mut events: Vec<(SimTime, NodeId)> = Vec::new();
    for i in 0..cfg.world.n {
        let mut t = cfg.warmup;
        loop {
            let u: f64 = 1.0 - world.rng.gen::<f64>();
            t += SimDuration::from_secs_f64(-mean * u.ln());
            if t >= horizon {
                break;
            }
            events.push((t, NodeId::from(i)));
        }
    }
    events.sort_unstable_by_key(|&(t, n)| (t, n.0));
    stats.engine.scheduled = events.len() as u64;
    // The timeline is materialized up front, so the whole schedule is the
    // peak backlog.
    stats.engine.max_pending = events.len() as u64;

    let rule = cfg.protocol.success_rule();
    let k = cfg.protocol.paths();
    for (t, initiator) in events {
        world.advance_gossip(t);
        // A node that is down cannot initiate.
        if !world.schedule.is_up(initiator, t) {
            stats.engine.cancelled += 1;
            continue;
        }
        // The paper assumes the responder is available; pick a live one.
        let Some(responder) = world.random_live_node(&[initiator], t) else {
            stats.engine.cancelled += 1;
            continue;
        };
        stats.engine.processed += 1;
        let formed = match world.pick_paths(initiator, responder, k, cfg.strategy, t) {
            Ok(paths) => attempt_construction(&mut world, initiator, responder, &paths, t),
            Err(AnonError::NotEnoughRelays { .. }) => 0,
            Err(e) => unreachable!("unexpected pick_paths error: {e}"),
        };
        metrics.record_construction(rule.satisfied(formed));
    }
    stats.traversals = world.stats.traversals();
    stats.links = world.stats.links();
    stats.probes = world.stats.probes();
    (metrics, stats)
}

/// Try to construct all `paths`; returns how many formed. Failed hops are
/// reported back into the initiator's cache (§4.5 timeout detection), so
/// retries avoid relays just observed dead.
fn attempt_construction(
    world: &mut World,
    initiator: NodeId,
    responder: NodeId,
    paths: &[Vec<NodeId>],
    t: SimTime,
) -> usize {
    let mut formed = 0usize;
    for relays in paths {
        let out = world.construct_path(initiator, relays, responder, t);
        if out.success {
            formed += 1;
        } else if let Some(h) = out.failed_hop {
            world.report_failure(initiator, relays, responder, h, t);
        }
    }
    formed
}

/// Configuration of the performance experiment (§6.2 "Performance
/// Comparison", "Effect of Churn", "Impact of Node Lifetime Distribution").
#[derive(Clone, Debug)]
pub struct PerfConfig {
    /// Network parameters.
    pub world: WorldConfig,
    /// Protocol under test.
    pub protocol: ProtocolKind,
    /// Mix choice.
    pub strategy: MixStrategy,
    /// Measurement starts after this warm-up (paper: first hour).
    pub warmup: SimTime,
    /// Message cadence (paper: every 10 s).
    pub msg_interval: SimDuration,
    /// Message size (paper: 1 KB).
    pub msg_bytes: usize,
    /// Durability cap (paper: 1 hour).
    pub durability_cap: SimDuration,
    /// Delay between construction retries.
    pub retry_interval: SimDuration,
    /// If set, §4.5 failure *prediction*: before each message the
    /// initiator recomputes each relay's predictor `q`; a path whose
    /// minimum `q` falls below the threshold is treated as failing and the
    /// whole set is proactively rebuilt when too few paths remain.
    pub predict_threshold: Option<f64>,
}

impl PerfConfig {
    /// Paper defaults for a given protocol/strategy and seed.
    pub fn paper_default(protocol: ProtocolKind, strategy: MixStrategy, seed: u64) -> Self {
        PerfConfig {
            world: WorldConfig::paper_default(seed),
            protocol,
            strategy,
            warmup: SimTime::from_secs(3600),
            msg_interval: SimDuration::from_secs(10),
            msg_bytes: 1024,
            durability_cap: SimDuration::from_secs(3600),
            retry_interval: SimDuration::from_secs(1),
            predict_threshold: None,
        }
    }
}

/// Result of a performance run.
#[derive(Clone, Debug)]
pub struct PerfResult {
    /// Latency / bandwidth / durability metrics.
    pub metrics: ProtocolMetrics,
    /// Path-set episodes completed (each began with a successful setup).
    pub episodes: u64,
    /// Total construction attempts across episodes.
    pub attempts: u64,
}

impl PerfResult {
    /// Mean construction attempts needed per successful setup — the
    /// "path construction attempts" column of Tables 2–4.
    pub fn attempts_per_episode(&self) -> f64 {
        if self.episodes == 0 {
            0.0
        } else {
            self.attempts as f64 / self.episodes as f64
        }
    }
}

/// Run the pinned-pair performance experiment; returns its result plus
/// per-run execution statistics.
pub fn run_performance_experiment_traced(cfg: &PerfConfig) -> (PerfResult, RunStats) {
    let mut stats = RunStats::default();
    let mut world = World::new(cfg.world.clone());
    let initiator = NodeId(0);
    let responder = NodeId(1);
    world.pin_up(&[initiator, responder]);

    let mut metrics = ProtocolMetrics::new();
    let mut episodes = 0u64;
    let mut attempts = 0u64;
    let horizon = cfg.world.horizon;
    let rule = cfg.protocol.success_rule();
    let k = cfg.protocol.paths();
    let needed = rule.needed();
    let per_path_bytes = cfg.protocol.per_path_bytes(cfg.msg_bytes);

    let mut t = cfg.warmup;
    world.advance_gossip(t);

    'episodes: while t < horizon {
        // ---- Construction: retry until the success rule is met. ----
        let paths = loop {
            if t >= horizon {
                break 'episodes;
            }
            attempts += 1;
            stats.engine.scheduled += 1;
            stats.engine.processed += 1;
            metrics.record_construction(true); // counted below if failed
            let candidate = world.pick_paths(initiator, responder, k, cfg.strategy, t);
            let formed: Option<Vec<Vec<NodeId>>> = match candidate {
                Ok(paths) => {
                    let ok = attempt_construction(&mut world, initiator, responder, &paths, t);
                    rule.satisfied(ok).then_some(paths)
                }
                Err(_) => None,
            };
            match formed {
                Some(paths) => break paths,
                None => {
                    // Undo the optimistic success record: construction failed.
                    metrics.construction_successes -= 1;
                    t += cfg.retry_interval;
                    world.advance_gossip(t);
                }
            }
        };
        episodes += 1;

        // ---- Durability of this path set (ground truth, capped). ----
        let durability = world.set_durability(&paths, needed, t, cfg.durability_cap);
        metrics.record_durability(durability);

        // ---- Message phase: send every interval until the set dies. ----
        loop {
            t += cfg.msg_interval;
            if t >= horizon {
                break 'episodes;
            }
            world.advance_gossip(t);

            stats.engine.scheduled += 1;

            // §4.5 prediction: rebuild proactively when the predictor says
            // too few paths will survive.
            if let Some(threshold) = cfg.predict_threshold {
                let cache = world.cache(initiator);
                let predicted_alive = paths
                    .iter()
                    .filter(|relays| {
                        relays
                            .iter()
                            .all(|&r| cache.predictor(r, t).unwrap_or(0.0) >= threshold)
                    })
                    .count();
                if predicted_alive < needed {
                    stats.engine.cancelled += 1;
                    continue 'episodes;
                }
            }

            stats.engine.processed += 1;
            let deliveries: Vec<_> = paths
                .iter()
                .map(|relays| world.send_over_path(initiator, relays, responder, t))
                .collect();
            // Failure detection on message traffic: localize dead hops.
            for (relays, d) in paths.iter().zip(&deliveries) {
                if let Some(h) = d.failed_hop {
                    world.report_failure(initiator, relays, responder, h, t);
                }
            }
            let bytes: f64 = deliveries
                .iter()
                .map(|d| d.links as f64 * per_path_bytes)
                .sum();
            let mut arrivals: Vec<SimTime> = deliveries.iter().filter_map(|d| d.arrival).collect();
            arrivals.sort_unstable();
            let delivered = arrivals.len() >= needed;
            let latency = delivered.then(|| arrivals[needed - 1] - t);
            metrics.record_message(delivered, latency, bytes);

            if !delivered {
                // Failure detected end-to-end (ack timeout): reconstruct.
                continue 'episodes;
            }
        }
    }

    // This driver handles one event at a time (no materialized queue).
    stats.engine.max_pending = 1;
    stats.traversals = world.stats.traversals();
    stats.links = world.stats.links();
    stats.probes = world.stats.probes();
    (
        PerfResult {
            metrics,
            episodes,
            attempts,
        },
        stats,
    )
}

/// Recovery-layer knobs (§4.5 made concrete and configurable).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RecoveryParams {
    /// End-to-end per-segment ack deadline for the first transmission.
    pub ack_timeout: SimDuration,
    /// Retransmission rounds allowed per message (0 = fire and forget).
    pub retry_budget: u32,
    /// Deadline multiplier applied each retry round (exponential backoff).
    pub backoff: f64,
    /// §4.5 localization timeout per silent hop.
    pub probe_timeout: SimDuration,
}

impl Default for RecoveryParams {
    fn default() -> Self {
        RecoveryParams {
            ack_timeout: SimDuration::from_secs(2),
            retry_budget: 2,
            backoff: 2.0,
            probe_timeout: SimDuration::from_secs(2),
        }
    }
}

/// Configuration of the message-level recovery experiment: a pinned
/// initiator/responder pair runs real onions over the event-driven
/// [`crate::driver::Driver`] under an injected [`FaultConfig`], with
/// end-to-end acks, timeout-driven localization, path repair and
/// erasure-aware retransmission.
#[derive(Clone, Debug)]
pub struct RecoveryConfig {
    /// Network parameters (kept small: this layer runs real cryptography).
    pub world: WorldConfig,
    /// Protocol under test.
    pub protocol: ProtocolKind,
    /// Mix choice.
    pub strategy: MixStrategy,
    /// Injected fault intensities ([`FaultConfig::NONE`] = churn only).
    pub faults: FaultConfig,
    /// Recovery knobs.
    pub recovery: RecoveryParams,
    /// Measurement starts after this warm-up.
    pub warmup: SimTime,
    /// Message cadence.
    pub msg_interval: SimDuration,
    /// Message size in bytes.
    pub msg_bytes: usize,
    /// Number of messages to attempt.
    pub messages: usize,
}

impl RecoveryConfig {
    /// The instant the run's membership views start at: the warm-up end,
    /// lagged by the faults' view staleness. Sweeps order their calls by it
    /// (per world), so one warmed checkpoint serves them all.
    pub fn warm_at(&self) -> SimTime {
        self.faults.stale_view_time(self.warmup)
    }
}

/// Result of a recovery run.
#[derive(Clone, Debug)]
pub struct RecoveryResult {
    /// Delivery/latency/bandwidth metrics (message = delivered when the
    /// responder reconstructed it: `m` distinct segments arrived).
    pub metrics: ProtocolMetrics,
    /// Messages fully delivered.
    pub delivered: u64,
    /// Messages that ended partially delivered (some but fewer than `m`
    /// distinct segments) after the retry budget ran out.
    pub partial: u64,
    /// First-transmission segments launched.
    pub segments_sent: u64,
    /// Segments re-sent by the recovery layer.
    pub retransmits: u64,
    /// Paths torn down and successfully reconstructed mid-stream.
    pub paths_rebuilt: u64,
    /// Path-construction rounds run (initial + repair).
    pub construction_rounds: u64,
}

impl RecoveryResult {
    /// Fraction of messages the responder reconstructed.
    pub fn delivery_rate(&self) -> f64 {
        if self.metrics.messages_sent == 0 {
            0.0
        } else {
            self.delivered as f64 / self.metrics.messages_sent as f64
        }
    }

    /// Retransmitted segments per first-transmission segment — the
    /// recovery layer's bandwidth overhead.
    pub fn retransmit_overhead(&self) -> f64 {
        if self.segments_sent == 0 {
            0.0
        } else {
            self.retransmits as f64 / self.segments_sent as f64
        }
    }
}

/// Construction rounds a message will wait for its path set before
/// giving up and sending over whatever formed.
const MAX_CONSTRUCT_ROUNDS: usize = 4;

/// Relays an initiator remembers as recently blamed (explicit avoidance
/// on top of the membership cache's death records).
const BLAME_MEMORY: usize = 16;

/// The pinned pair every recovery run sends between.
const PINNED: [NodeId; 2] = [NodeId(0), NodeId(1)];

thread_local! {
    /// The last world this thread warmed for a recovery run: built from
    /// its `cfg`, the pinned pair up, gossip advanced to its membership
    /// layer's `now`.
    static CHECKPOINT: RefCell<Option<World>> = const { RefCell::new(None) };
}

/// The world a recovery run starts from: `cfg.world` with the pinned pair
/// up throughout and the §4.5 timed detection, its gossip advanced to
/// `warm_at`.
///
/// Building and warming a world is about half of a run at n = 256, and a
/// sweep makes many runs over each world. So each thread keeps the last
/// world it warmed as a checkpoint. A run over the same `WorldConfig`
/// advances the checkpoint's gossip from its instant to `warm_at` and gets
/// a clone, RNG state included. Gossip advances incrementally, so that is
/// the world a fresh build warmed to `warm_at` would be. A run asking for
/// another world, or for an instant before the checkpoint's, builds afresh
/// and that build becomes the checkpoint. The pinned pair is the runner's
/// constant, and the detection model is set on the clone: the warm-up
/// never reads it.
fn warmed_world(cfg: &RecoveryConfig, warm_at: SimTime) -> World {
    CHECKPOINT.with(|slot| {
        let mut slot = slot.borrow_mut();
        // A checkpoint that does not fit is dropped before the build, so at
        // most two worlds are ever resident.
        let fits = |w: &World| w.cfg == cfg.world && w.membership.now() <= warm_at;
        let mut checkpoint = slot.take().filter(fits).unwrap_or_else(|| {
            let mut world = World::new(cfg.world.clone());
            world.pin_up(&PINNED);
            world
        });
        checkpoint.advance_gossip(warm_at);
        let mut world = checkpoint.clone();
        *slot = Some(checkpoint);
        world.detection = FailureDetection::Timed {
            probe_timeout: cfg.recovery.probe_timeout,
        };
        world
    })
}

/// Run the recovery experiment; returns its result plus per-run
/// execution statistics.
///
/// Hybrid of the two fidelity layers: the trajectory-level [`World`]
/// supplies membership, (stale) gossip, biased mix choice and §4.5
/// localization against ground truth, while the message-level
/// [`crate::driver::Driver`] actually carries every onion, ack and
/// teardown over the event engine with the fault plan applied per link.
pub fn run_recovery_experiment_traced(cfg: &RecoveryConfig) -> (RecoveryResult, RunStats) {
    let (res, stats, _) = run_recovery_experiment_observed(cfg, None, false);
    (res, stats)
}

/// [`run_recovery_experiment_traced`] with optional live telemetry and
/// the adversary observation tap optionally attached.
///
/// When `registry` is `Some`, the driver's engine and event record count
/// into it (`sim_*`, `protocol_*` instruments — see [`crate::instrument`]
/// and [`simnet::instrument`]), erasure decode outcomes and the
/// runner's retransmits included.
/// Telemetry is write-only, so the returned result and statistics are
/// bit-identical to the uninstrumented run — the experiments crate's
/// determinism suite pins this.
///
/// With `observe = true` the driver records every link crossing and path
/// registration into an [`crate::observe::ObservationLog`], and the
/// runner collects per-flow ground truth ([`crate::observe::FlowTruth`]);
/// both come back in the returned [`crate::observe::ObservedRun`] for the `adversary`
/// crate to assess. The tap is record-only (see [`crate::observe`]), so
/// `observe = false` vs `true` yields bit-identical results and
/// statistics — the same proof obligation telemetry carries.
pub fn run_recovery_experiment_observed(
    cfg: &RecoveryConfig,
    registry: Option<&telemetry::Registry>,
    observe: bool,
) -> (
    RecoveryResult,
    RunStats,
    Option<crate::observe::ObservedRun>,
) {
    use crate::driver::Driver;
    use crate::endpoint::Initiator;
    use crate::events::Event;
    use crate::ids::{MessageId, StreamId};
    use crate::observe::{FlowTruth, ObservedRun};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use simnet::FaultPlan;
    use std::collections::{HashMap, HashSet};

    // Append one launched segment to the flow record: departure time plus
    // the first/last relay of the path it rode (for observation gating).
    fn record_flow_segment(fl: &mut FlowTruth, at: SimTime, sid: StreamId, initiator: &Initiator) {
        fl.sent_at.push(at);
        if let Some(p) = initiator.path(sid) {
            let hops = &p.plan.hops;
            fl.first_relays.push(hops[0]);
            fl.last_relays.push(hops[hops.len().saturating_sub(2)]);
        }
    }

    let mut stats = RunStats::default();
    let [initiator_id, responder_id] = PINNED;
    let mut world = warmed_world(cfg, cfg.warm_at());

    let faults = FaultPlan::new(
        cfg.world.n,
        cfg.faults,
        cfg.world.horizon + cfg.world.schedule_margin,
        cfg.world.seed ^ 0xFA17,
    );
    let mut driver = Driver::new(
        cfg.world.n,
        Arc::clone(&world.schedule),
        Arc::clone(
            world
                .latency
                .as_matrix()
                .expect("message-level runs use matrix-backed topologies"),
        ),
        initiator_id,
        cfg.world.seed ^ 0xD21F,
    )
    .with_faults(faults.clone())
    .with_auto_ack();
    if observe {
        driver = driver.with_observation();
    }
    if let Some(reg) = registry {
        driver.attach_telemetry(reg);
    }
    let mut proto_rng = StdRng::seed_from_u64(cfg.world.seed ^ 0x9E37);

    let codec = cfg.protocol.codec().expect("valid protocol parameters");
    let k = cfg.protocol.paths();
    let needed = cfg.protocol.success_rule().needed();
    let l = cfg.world.l;
    let payload = vec![0xABu8; cfg.msg_bytes];
    let per_path_bytes = cfg.protocol.per_path_bytes(cfg.msg_bytes);

    let mut metrics = ProtocolMetrics::new();
    let mut delivered_msgs = 0u64;
    let mut partial_msgs = 0u64;
    let mut segments_sent = 0u64;
    let mut paths_rebuilt = 0u64;
    let mut construction_rounds = 0u64;
    let mut blamed: Vec<NodeId> = Vec::new();
    let mut timeout_streak: HashMap<StreamId, u32> = HashMap::new();
    let mut flows: Vec<FlowTruth> = Vec::new();

    // One construction round: pick `want` replacement paths avoiding
    // `blamed` + live path relays, launch the onions, wait one ack
    // deadline, keep what the responder acked. Returns (formed, new now).
    let construct_round = |world: &mut World,
                           driver: &mut Driver,
                           proto_rng: &mut StdRng,
                           blamed: &[NodeId],
                           want: usize,
                           t: SimTime|
     -> (usize, SimTime) {
        let mut picked: Vec<Vec<NodeId>> = Vec::new();
        for _ in 0..want {
            let mut exclude: Vec<NodeId> = blamed.to_vec();
            for p in driver.world.initiator.paths() {
                exclude.extend_from_slice(&p.plan.hops[..p.plan.hops.len() - 1]);
            }
            for p in &picked {
                exclude.extend_from_slice(p);
            }
            match world.pick_replacement_path(initiator_id, responder_id, &exclude, cfg.strategy, t)
            {
                Ok(p) => picked.push(p),
                Err(_) => break,
            }
        }
        if picked.is_empty() {
            return (0, t + cfg.recovery.ack_timeout);
        }
        let hop_lists: Vec<_> = picked
            .iter()
            .map(|p| driver.world.hops(p, responder_id))
            .collect();
        let msgs = driver
            .world
            .initiator
            .construct_paths(&hop_lists, proto_rng);
        for m in &msgs {
            driver.launch_construction(m, t);
        }
        let deadline = t + cfg.recovery.ack_timeout;
        driver.run_until(deadline);
        // The initiator marked each path established as its ack came in;
        // a path torn down never logs one.
        let drained = std::mem::take(&mut driver.world.events.established);
        let formed = drained.len();
        let latest = drained
            .iter()
            .fold(t, |latest, &(_, at)| latest.max(SimTime(at)));
        let initiator = &mut driver.world.initiator;
        let dead: Vec<StreamId> = initiator
            .paths()
            .iter()
            .filter(|p| !p.established)
            .map(|p| p.sid)
            .collect();
        for sid in dead {
            initiator.drop_path(sid);
        }
        let now = if formed == picked.len() {
            latest
        } else {
            deadline
        };
        (formed, now)
    };

    let mut t = cfg.warmup;
    for msg_i in 0..cfg.messages {
        let mid = MessageId(1000 + msg_i as u64);
        world.advance_gossip(faults.stale_view_time(t));

        // ---- Ensure k established paths (initial or repaired set). ----
        let mut rounds = 0usize;
        while driver.world.initiator.paths().len() < k && rounds < MAX_CONSTRUCT_ROUNDS {
            rounds += 1;
            construction_rounds += 1;
            let want = k - driver.world.initiator.paths().len();
            let (_, now) =
                construct_round(&mut world, &mut driver, &mut proto_rng, &blamed, want, t);
            t = now;
            world.advance_gossip(faults.stale_view_time(t));
        }
        if driver.world.initiator.paths().is_empty() {
            metrics.record_message(false, None, 0.0);
            t += cfg.msg_interval;
            continue;
        }

        // ---- First transmission: one onion per segment, each with an
        // armed end-to-end ack deadline. ----
        let send_t = t;
        let out = driver
            .world
            .initiator
            .send_message(mid, &payload, codec.as_ref(), None, &mut proto_rng)
            .expect("paths exist");
        let n_seg = out.len();
        segments_sent += n_seg as u64;
        // Ground-truth flow record for adversary scoring (observe only;
        // pure bookkeeping either way — no RNG, no scheduling).
        let mut flow = observe.then(|| FlowTruth {
            mid,
            sent_at: Vec::new(),
            delivered_at: Vec::new(),
            first_relays: Vec::new(),
            last_relays: Vec::new(),
        });
        if let Some(fl) = &mut flow {
            for o in &out {
                record_flow_segment(fl, send_t, o.sid, &driver.world.initiator);
            }
        }
        let mut msg_wire_segments = n_seg as u64;
        let mut deadline = t + cfg.recovery.ack_timeout;
        for (i, o) in out.iter().enumerate() {
            driver.launch_payload(o, t);
            driver.arm_ack_timer(mid, i, deadline);
        }

        let mut attempt = 0u32;
        loop {
            driver.run_until(deadline);
            let missing = driver.world.initiator.missing(mid);
            if n_seg - missing.len() >= needed || attempt >= cfg.recovery.retry_budget {
                break;
            }
            attempt += 1;

            // ---- §4.5: localize failures on the paths that carried the
            // missing segments; localizations run concurrently, so the
            // wall-clock cost is the slowest one. ----
            let mut t_now = deadline;
            // Segment-index order, each path once: the order decides the
            // order of `blamed` and so which relays BLAME_MEMORY forgets.
            let initiator = &driver.world.initiator;
            let mut suspects: Vec<StreamId> = Vec::new();
            for seg in missing.iter().filter_map(|&i| initiator.segment(mid, i)) {
                if !suspects.contains(&seg.path) {
                    suspects.push(seg.path);
                }
            }
            let mut recovery_done = t_now;
            let mut to_drop: Vec<StreamId> = Vec::new();
            for sid in suspects {
                let Some(path) = initiator.path(sid) else {
                    continue;
                };
                let relays: Vec<NodeId> = path.plan.hops[..path.plan.hops.len() - 1].to_vec();
                let (hop, done) = world.localize_failure(
                    initiator_id,
                    &relays,
                    responder_id,
                    t_now,
                    cfg.recovery.probe_timeout,
                );
                if done > recovery_done {
                    recovery_done = done;
                }
                let streak = timeout_streak.entry(sid).or_insert(0);
                *streak += 1;
                match hop {
                    Some(h) => {
                        if h < relays.len() {
                            blamed.push(relays[h]);
                        }
                        to_drop.push(sid);
                    }
                    // Every hop answered the probe, yet the segment died:
                    // a transient injected drop — retry over the same path
                    // once, but treat repeated unexplained loss (e.g. a
                    // crash-wiped relay cache) as a dead path.
                    None if *streak >= 2 => to_drop.push(sid),
                    None => {}
                }
            }
            if blamed.len() > BLAME_MEMORY {
                let excess = blamed.len() - BLAME_MEMORY;
                blamed.drain(..excess);
            }
            for sid in &to_drop {
                timeout_streak.remove(sid);
                if let Some(p) = driver.world.initiator.path(*sid) {
                    driver.launch_release(p.plan.first_hop(), *sid, recovery_done);
                }
                driver.world.initiator.drop_path(*sid);
            }
            t_now = recovery_done;
            world.advance_gossip(faults.stale_view_time(t_now));

            // ---- Repair: rebuild what was torn down. ----
            if !to_drop.is_empty() {
                construction_rounds += 1;
                let want = k - driver.world.initiator.paths().len();
                let (formed, now) = construct_round(
                    &mut world,
                    &mut driver,
                    &mut proto_rng,
                    &blamed,
                    want,
                    t_now,
                );
                paths_rebuilt += formed as u64;
                t_now = now;
                world.advance_gossip(faults.stale_view_time(t_now));
            }
            let initiator = &mut driver.world.initiator;
            if initiator.paths().is_empty() {
                break;
            }

            // ---- Erasure-aware retransmission: only the segments still
            // needed, with an exponentially backed-off deadline. The round's
            // slot rule: its `j`-th missing segment rides path `j mod k` of
            // the repaired set. ----
            let still_missing: Vec<(usize, usize)> =
                initiator.missing(mid).into_iter().zip(0..).collect();
            if still_missing.is_empty() {
                break;
            }
            let retx = initiator
                .resend(mid, codec.as_ref(), &still_missing, &mut proto_rng)
                .expect("paths exist");
            for _ in &retx {
                driver
                    .world
                    .events
                    .record(t_now.as_micros(), Event::Retransmitted);
            }
            msg_wire_segments += retx.len() as u64;
            if let Some(fl) = &mut flow {
                for o in &retx {
                    record_flow_segment(fl, t_now, o.sid, &driver.world.initiator);
                }
            }
            let wait = SimDuration::from_secs_f64(
                cfg.recovery.ack_timeout.as_secs_f64() * cfg.recovery.backoff.powi(attempt as i32),
            );
            deadline = t_now + wait;
            for (&(index, _), o) in still_missing.iter().zip(&retx) {
                driver.launch_payload(o, t_now);
                driver.arm_ack_timer(mid, index, deadline);
            }
        }

        // ---- Outcome from responder ground truth: the message counts as
        // delivered when `m` distinct segments arrived. ----
        let mut distinct: HashSet<usize> = HashSet::new();
        let mut arrivals: Vec<SimTime> = Vec::new();
        let delivered = driver.world.events.deliveries.iter();
        for &(_, index, at) in delivered.filter(|d| d.0 == mid) {
            if distinct.insert(index) {
                arrivals.push(SimTime(at));
            }
        }
        arrivals.sort_unstable();
        let ok = distinct.len() >= needed;
        let decoded = if ok {
            Event::Decoded
        } else {
            Event::Undecodable
        };
        let engine_now = driver.engine.now();
        driver.world.events.record(engine_now.as_micros(), decoded);
        let latency = ok.then(|| arrivals[needed - 1] - send_t);
        let bytes = per_path_bytes * (l + 1) as f64 * msg_wire_segments as f64;
        metrics.record_message(ok, latency, bytes);
        if ok {
            delivered_msgs += 1;
        } else if !distinct.is_empty() {
            partial_msgs += 1;
        }
        if let Some(mut fl) = flow {
            fl.delivered_at = driver
                .world
                .events
                .deliveries
                .iter()
                .filter(|d| d.0 == mid)
                .map(|d| SimTime(d.2))
                .collect();
            flows.push(fl);
        }

        t = (send_t + cfg.msg_interval).max(engine_now);
    }

    stats.engine = driver.engine.counters();
    stats.traversals = world.stats.traversals();
    stats.links = world.stats.links();
    stats.probes = world.stats.probes();
    stats.lost = driver.world.lost;
    stats.stateless_drops = driver.world.events.stateless_drops;
    stats.fault_drops = driver.world.fault_drops;
    stats.crash_wipes = driver.world.crash_wipes;
    stats.segments_sent = segments_sent;
    stats.retransmits = driver.world.events.retransmits;
    stats.acks = driver.world.events.acks.len() as u64;
    stats.ack_timeouts = driver.world.events.ack_timeouts.len() as u64;
    stats.paths_rebuilt = paths_rebuilt;
    let observed = observe.then(|| ObservedRun {
        log: driver.take_observations().unwrap_or_default(),
        n: cfg.world.n,
        initiator: initiator_id,
        responder: responder_id,
        flows,
    });
    (
        RecoveryResult {
            metrics,
            delivered: delivered_msgs,
            partial: partial_msgs,
            segments_sent,
            retransmits: stats.retransmits,
            paths_rebuilt,
            construction_rounds,
        },
        stats,
        observed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use membership::MembershipConfig;
    use simnet::LifetimeDistribution;

    fn small_world(seed: u64, median_secs: f64) -> WorldConfig {
        WorldConfig {
            n: 128,
            l: 3,
            avg_rtt_ms: 152.0,
            lifetime: LifetimeDistribution::pareto_with_median(median_secs),
            downtime: LifetimeDistribution::pareto_with_median(median_secs),
            horizon: SimTime::from_secs(3600),
            schedule_margin: SimDuration::from_secs(3600),
            membership: MembershipConfig::default(),
            topology: simnet::TopologyKind::King,
            churn_events: Vec::new(),
            seed,
        }
    }

    fn setup_cfg(protocol: ProtocolKind, strategy: MixStrategy, seed: u64) -> SetupConfig {
        SetupConfig {
            world: small_world(seed, 1800.0),
            protocol,
            strategy,
            warmup: SimTime::from_secs(1800),
            mean_interarrival: SimDuration::from_secs(116),
        }
    }

    #[test]
    fn biased_beats_random_setup_rate() {
        // The Table 1 headline: biased mix choice transforms setup rates.
        let random =
            run_setup_experiment_traced(&setup_cfg(ProtocolKind::CurMix, MixStrategy::Random, 1)).0;
        let biased =
            run_setup_experiment_traced(&setup_cfg(ProtocolKind::CurMix, MixStrategy::Biased, 1)).0;
        assert!(
            random.construction_attempts > 100,
            "enough events scheduled"
        );
        let r = random.setup_success_rate();
        let b = biased.setup_success_rate();
        assert!(b > r * 1.5, "biased {b:.3} must dominate random {r:.3}");
        assert!(b > 0.5, "biased setup should mostly succeed, got {b:.3}");
    }

    #[test]
    fn redundancy_improves_random_setup_rate() {
        // Table 1: SimRep/SimEra(k=2) roughly double CurMix's random rate.
        let single =
            run_setup_experiment_traced(&setup_cfg(ProtocolKind::CurMix, MixStrategy::Random, 2)).0;
        let replicated = run_setup_experiment_traced(&setup_cfg(
            ProtocolKind::SimRep { k: 2 },
            MixStrategy::Random,
            2,
        ))
        .0;
        let s = single.setup_success_rate();
        let r = replicated.setup_success_rate();
        assert!(
            r > s * 1.3,
            "redundancy must help: single {s:.3}, k=2 {r:.3}"
        );
    }

    #[test]
    fn simera_k2r2_matches_simrep_r2_rule() {
        // Same success rule → statistically indistinguishable rates (the
        // paper reports 4.98 % vs 4.98 %); with one seed allow slack.
        let rep = run_setup_experiment_traced(&setup_cfg(
            ProtocolKind::SimRep { k: 2 },
            MixStrategy::Random,
            3,
        ))
        .0;
        let era = run_setup_experiment_traced(&setup_cfg(
            ProtocolKind::SimEra { k: 2, r: 2 },
            MixStrategy::Random,
            3,
        ))
        .0;
        let diff = (rep.setup_success_rate() - era.setup_success_rate()).abs();
        assert!(diff < 0.05, "rates should be close, differ by {diff:.3}");
    }

    fn perf_cfg(protocol: ProtocolKind, strategy: MixStrategy, seed: u64) -> PerfConfig {
        PerfConfig {
            world: small_world(seed, 1800.0),
            protocol,
            strategy,
            warmup: SimTime::from_secs(1800),
            msg_interval: SimDuration::from_secs(10),
            msg_bytes: 1024,
            durability_cap: SimDuration::from_secs(1800),
            retry_interval: SimDuration::from_secs(1),
            predict_threshold: None,
        }
    }

    #[test]
    fn performance_run_produces_coherent_metrics() {
        let res = run_performance_experiment_traced(&perf_cfg(
            ProtocolKind::SimEra { k: 4, r: 4 },
            MixStrategy::Biased,
            4,
        ))
        .0;
        assert!(res.episodes >= 1);
        assert!(res.attempts >= res.episodes);
        assert!(res.metrics.messages_sent > 0);
        assert!(
            res.metrics.delivery_rate() > 0.5,
            "biased SimEra should deliver"
        );
        // Latencies are sane: above one hop (~10 ms) and below seconds.
        let lat = res.metrics.latency_ms.mean();
        assert!((10.0..2000.0).contains(&lat), "latency {lat} ms");
        assert!(res.metrics.durability_secs.mean() > 0.0);
    }

    #[test]
    fn redundancy_extends_durability() {
        // Table 2's shape: SimEra(4,4) outlives CurMix. The effect needs
        // several paths to actually form at setup, so measure with biased
        // choice over a longer horizon and multiple seeds.
        let run = |protocol: ProtocolKind| {
            let mut total = crate::metrics::ProtocolMetrics::new();
            for seed in [5u64, 6, 7] {
                let mut cfg = perf_cfg(protocol, MixStrategy::Biased, seed);
                cfg.world.horizon = SimTime::from_secs(7200);
                cfg.durability_cap = SimDuration::from_secs(3600);
                total.merge(&run_performance_experiment_traced(&cfg).0.metrics);
            }
            total
        };
        let dc = run(ProtocolKind::CurMix).durability_secs.mean();
        let de = run(ProtocolKind::SimEra { k: 4, r: 4 })
            .durability_secs
            .mean();
        assert!(
            de > dc * 1.1,
            "SimEra durability {de:.0}s must clearly exceed CurMix {dc:.0}s"
        );
    }

    #[test]
    fn biased_choice_cuts_construction_attempts() {
        let random = run_performance_experiment_traced(&perf_cfg(
            ProtocolKind::CurMix,
            MixStrategy::Random,
            6,
        ))
        .0;
        let biased = run_performance_experiment_traced(&perf_cfg(
            ProtocolKind::CurMix,
            MixStrategy::Biased,
            6,
        ))
        .0;
        assert!(
            biased.attempts_per_episode() < random.attempts_per_episode(),
            "biased {} vs random {}",
            biased.attempts_per_episode(),
            random.attempts_per_episode()
        );
        assert!(
            biased.attempts_per_episode() < 1.5,
            "biased construction should almost always succeed first try"
        );
    }

    #[test]
    fn setup_experiment_is_deterministic() {
        let cfg = setup_cfg(ProtocolKind::SimEra { k: 4, r: 2 }, MixStrategy::Biased, 11);
        let a = run_setup_experiment_traced(&cfg).0;
        let b = run_setup_experiment_traced(&cfg).0;
        assert_eq!(a.construction_attempts, b.construction_attempts);
        assert_eq!(a.construction_successes, b.construction_successes);
    }

    #[test]
    fn setup_event_count_matches_process_rate() {
        // n nodes × window / mean inter-arrival, thinned by availability
        // (down nodes skip their events): expect between 30% and 85% of
        // the raw rate.
        let cfg = setup_cfg(ProtocolKind::CurMix, MixStrategy::Random, 12);
        let metrics = run_setup_experiment_traced(&cfg).0;
        let window = (cfg.world.horizon - cfg.warmup).as_secs_f64();
        let raw = cfg.world.n as f64 * window / cfg.mean_interarrival.as_secs_f64();
        let measured = metrics.construction_attempts as f64;
        assert!(
            measured > raw * 0.3 && measured < raw * 0.85,
            "measured {measured} events vs raw rate {raw}"
        );
    }

    #[test]
    fn runner_works_on_onehop_membership() {
        // The same experiment over the hierarchical membership layer.
        let mut cfg = setup_cfg(ProtocolKind::CurMix, MixStrategy::Biased, 13);
        cfg.world.membership = MembershipConfig::onehop_default();
        let metrics = run_setup_experiment_traced(&cfg).0;
        assert!(metrics.construction_attempts > 100);
        assert!(
            metrics.setup_success_rate() > 0.5,
            "biased over OneHop should mostly succeed ({:.3})",
            metrics.setup_success_rate()
        );
    }

    #[test]
    fn traced_setup_stats_are_consistent() {
        let cfg = setup_cfg(ProtocolKind::CurMix, MixStrategy::Random, 21);
        let (metrics, stats) = run_setup_experiment_traced(&cfg);
        assert_eq!(stats.engine.processed, metrics.construction_attempts);
        assert_eq!(
            stats.engine.scheduled,
            stats.engine.processed + stats.engine.cancelled,
            "every timeline event either runs or is skipped"
        );
        assert_eq!(stats.engine.max_pending, stats.engine.scheduled);
        assert!(stats.traversals > 0);
        assert!(
            stats.links >= stats.traversals,
            "every traversal walks >= 1 link"
        );
    }

    #[test]
    fn traced_perf_stats_are_consistent() {
        let cfg = perf_cfg(ProtocolKind::SimEra { k: 4, r: 4 }, MixStrategy::Biased, 4);
        let (res, stats) = run_performance_experiment_traced(&cfg);
        assert_eq!(
            stats.engine.scheduled,
            res.attempts + res.metrics.messages_sent + stats.engine.cancelled
        );
        assert_eq!(
            stats.engine.processed,
            res.attempts + res.metrics.messages_sent
        );
        assert!(stats.traversals >= res.metrics.messages_sent);
    }

    #[test]
    fn prediction_does_not_reduce_delivery() {
        let base = perf_cfg(ProtocolKind::SimEra { k: 4, r: 4 }, MixStrategy::Biased, 7);
        let without = run_performance_experiment_traced(&base).0;
        let with = run_performance_experiment_traced(&PerfConfig {
            predict_threshold: Some(0.3),
            ..base
        })
        .0;
        assert!(
            with.metrics.delivery_rate() >= without.metrics.delivery_rate() - 0.05,
            "prediction should not hurt delivery: {} vs {}",
            with.metrics.delivery_rate(),
            without.metrics.delivery_rate()
        );
    }

    fn recovery_cfg(protocol: ProtocolKind, faults: FaultConfig, seed: u64) -> RecoveryConfig {
        RecoveryConfig {
            world: small_world(seed, 1800.0),
            protocol,
            strategy: MixStrategy::Biased,
            faults,
            recovery: RecoveryParams::default(),
            warmup: SimTime::from_secs(600),
            msg_interval: SimDuration::from_secs(20),
            msg_bytes: 1024,
            messages: 25,
        }
    }

    fn moderate_faults() -> FaultConfig {
        FaultConfig {
            link_drop: 0.06,
            spike_prob: 0.05,
            spike_factor: 4.0,
            crashes_per_hour: 0.5,
            view_staleness: SimDuration::from_secs(60),
            ..FaultConfig::NONE
        }
    }

    fn heavy_faults() -> FaultConfig {
        FaultConfig {
            view_staleness: SimDuration::from_secs(300),
            ..moderate_faults()
        }
    }

    fn forget_checkpoint() {
        CHECKPOINT.with(|slot| slot.borrow_mut().take());
    }

    /// The instant this thread's checkpoint is warmed to, and its schedule
    /// (which tells one build from another).
    fn checkpoint() -> Option<(SimTime, Arc<simnet::ChurnSchedule>)> {
        CHECKPOINT.with(|slot| {
            let slot = slot.borrow();
            let world = slot.as_ref()?;
            Some((world.membership.now(), Arc::clone(&world.schedule)))
        })
    }

    /// The fingerprint of the world `cfg` starts from, built and warmed
    /// without the checkpoint.
    fn fresh_world_fingerprint(cfg: &RecoveryConfig) -> u64 {
        let mut world = World::new(cfg.world.clone());
        world.detection = FailureDetection::Timed {
            probe_timeout: cfg.recovery.probe_timeout,
        };
        world.pin_up(&PINNED);
        world.advance_gossip(cfg.warm_at());
        world.fingerprint()
    }

    /// The fingerprint of the world this thread's checkpoint serves `cfg`.
    fn served_fingerprint(cfg: &RecoveryConfig) -> u64 {
        warmed_world(cfg, cfg.warm_at()).fingerprint()
    }

    /// Everything a call returns. The metrics hold floats that may be NaN,
    /// so calls are compared through their `Debug` text, which prints every
    /// float exactly.
    fn observed_call(cfg: &RecoveryConfig) -> String {
        let (result, stats, observed) = run_recovery_experiment_observed(cfg, None, true);
        format!("{result:?}\n{stats:?}\n{observed:?}")
    }

    #[test]
    fn checkpointed_calls_equal_fresh_builds() {
        let protocols = [
            ProtocolKind::CurMix,
            ProtocolKind::SimRep { k: 2 },
            ProtocolKind::SimEra { k: 4, r: 2 },
        ];
        for protocol in protocols {
            for faults in [FaultConfig::NONE, moderate_faults(), heavy_faults()] {
                let cfg = RecoveryConfig {
                    messages: 8,
                    ..recovery_cfg(protocol, faults, 31)
                };
                let label = format!("{} warmed to {:?}", protocol.label(), cfg.warm_at());
                let reference = fresh_world_fingerprint(&cfg);
                let earlier = SimTime(cfg.warm_at().as_micros() / 2);

                // Miss: nothing to start from, so the call builds.
                forget_checkpoint();
                assert_eq!(served_fingerprint(&cfg), reference, "miss: {label}");
                forget_checkpoint();
                let fresh = observed_call(&cfg);
                let (at, built) = checkpoint().expect("the call left a checkpoint");
                assert_eq!(at, cfg.warm_at(), "{label}");

                // Hit at the checkpoint's own instant: a clone, no build.
                assert_eq!(served_fingerprint(&cfg), reference, "hit: {label}");
                assert_eq!(observed_call(&cfg), fresh, "hit: {label}");
                let (_, reused) = checkpoint().expect("still there");
                assert!(Arc::ptr_eq(&built, &reused), "hit rebuilt: {label}");

                // Hit from an earlier instant: the checkpoint advances.
                forget_checkpoint();
                warmed_world(&cfg, earlier);
                assert_eq!(served_fingerprint(&cfg), reference, "advanced: {label}");
                forget_checkpoint();
                warmed_world(&cfg, earlier);
                let (_, primed) = checkpoint().expect("primed");
                assert_eq!(observed_call(&cfg), fresh, "advanced: {label}");
                let (at, advanced) = checkpoint().expect("still there");
                assert_eq!(at, cfg.warm_at(), "{label}");
                assert!(Arc::ptr_eq(&primed, &advanced), "advance rebuilt: {label}");
            }
        }

        // A later request for an earlier instant cannot go back: it builds
        // and replaces the checkpoint, and equals its own fresh build.
        let clean = recovery_cfg(ProtocolKind::CurMix, FaultConfig::NONE, 32);
        let heavy = RecoveryConfig {
            faults: heavy_faults(),
            ..clean.clone()
        };
        assert!(heavy.warm_at() < clean.warm_at());
        forget_checkpoint();
        let heavy_fresh = observed_call(&heavy);
        forget_checkpoint();
        observed_call(&clean);
        let (_, later) = checkpoint().expect("clean checkpoint");
        assert_eq!(observed_call(&heavy), heavy_fresh);
        let (at, rebuilt) = checkpoint().expect("heavy checkpoint");
        assert_eq!(at, heavy.warm_at());
        assert!(
            !Arc::ptr_eq(&later, &rebuilt),
            "an earlier instant rebuilds"
        );

        // Another world is a miss too.
        let other = RecoveryConfig {
            world: small_world(33, 1800.0),
            ..heavy.clone()
        };
        observed_call(&other);
        let (_, other_built) = checkpoint().expect("other checkpoint");
        assert!(!Arc::ptr_eq(&rebuilt, &other_built));

        // The same world under another probe timeout is a hit, and the
        // served copy carries that run's detection model.
        let patient = RecoveryConfig {
            recovery: RecoveryParams {
                probe_timeout: SimDuration::from_secs(5),
                ..other.recovery
            },
            ..other.clone()
        };
        let world = warmed_world(&patient, patient.warm_at());
        assert!(Arc::ptr_eq(&world.schedule, &other_built));
        assert_eq!(
            world.detection,
            FailureDetection::Timed {
                probe_timeout: SimDuration::from_secs(5)
            }
        );
    }

    #[test]
    fn recovery_run_produces_coherent_metrics() {
        let cfg = recovery_cfg(ProtocolKind::SimEra { k: 4, r: 2 }, moderate_faults(), 11);
        let (res, stats) = run_recovery_experiment_traced(&cfg);
        assert_eq!(res.metrics.messages_sent, cfg.messages as u64);
        assert_eq!(
            res.metrics.messages_delivered, res.delivered,
            "metrics and ground truth must agree"
        );
        assert!(res.delivered + res.partial <= cfg.messages as u64);
        assert!(res.segments_sent >= res.metrics.messages_sent * 4 - 4 * 4);
        assert!(stats.acks > 0, "auto-acks must flow back");
        assert!(stats.fault_drops > 0, "injected faults must bite");
        assert!(stats.segments_sent == res.segments_sent);
        assert!(stats.engine.processed <= stats.engine.scheduled);
        let rate = res.delivery_rate();
        assert!((0.0..=1.0).contains(&rate));
        assert!(res.retransmit_overhead() >= 0.0);
    }

    #[test]
    fn observed_recovery_run_is_inert_and_carries_ground_truth() {
        // Attaching the observation tap must not move a single number in
        // the result or the statistics (the inertness proof obligation),
        // while the returned ObservedRun carries usable ground truth.
        let cfg = recovery_cfg(ProtocolKind::SimEra { k: 4, r: 2 }, moderate_faults(), 11);
        let (a, sa) = run_recovery_experiment_traced(&cfg);
        let (b, sb, obs) = run_recovery_experiment_observed(&cfg, None, true);
        assert_eq!(sa, sb, "the tap must be event-for-event inert");
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(a.partial, b.partial);
        assert_eq!(a.retransmits, b.retransmits);
        assert_eq!(a.metrics.latency_ms.mean(), b.metrics.latency_ms.mean());
        let obs = obs.expect("observed run returns a log");
        assert!(obs.flows.len() <= cfg.messages);
        assert!(!obs.log.packets.is_empty(), "link crossings recorded");
        assert!(!obs.log.constructions.is_empty(), "paths recorded");
        let delivered_flows = obs
            .flows
            .iter()
            .filter(|f| !f.delivered_at.is_empty())
            .count() as u64;
        assert!(
            delivered_flows >= b.delivered,
            "every delivered message has arrival ground truth"
        );
        for f in &obs.flows {
            assert_eq!(f.sent_at.len(), f.first_relays.len());
            assert_eq!(f.sent_at.len(), f.last_relays.len());
        }
        // The unobserved variant returns no log.
        let (_, _, none) = run_recovery_experiment_observed(&cfg, None, false);
        assert!(none.is_none());
    }

    #[test]
    fn recovery_run_is_deterministic() {
        let cfg = recovery_cfg(ProtocolKind::SimRep { k: 2 }, moderate_faults(), 12);
        let (a, sa) = run_recovery_experiment_traced(&cfg);
        let (b, sb) = run_recovery_experiment_traced(&cfg);
        assert_eq!(sa, sb, "identical configs must replay event-for-event");
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(a.partial, b.partial);
        assert_eq!(a.retransmits, b.retransmits);
        assert_eq!(a.metrics.latency_ms.mean(), b.metrics.latency_ms.mean());
    }

    #[test]
    fn retries_recover_messages_that_faults_would_kill() {
        let faults = FaultConfig {
            link_drop: 0.10,
            ..moderate_faults()
        };
        let base = recovery_cfg(ProtocolKind::SimEra { k: 4, r: 2 }, faults, 13);
        let no_retry = RecoveryConfig {
            recovery: RecoveryParams {
                retry_budget: 0,
                ..RecoveryParams::default()
            },
            ..base.clone()
        };
        let with = run_recovery_experiment_traced(&base).0;
        let without = run_recovery_experiment_traced(&no_retry).0;
        assert_eq!(without.retransmits, 0, "budget 0 must never retransmit");
        assert!(
            with.delivery_rate() >= without.delivery_rate(),
            "retries must not hurt: with {:.3}, without {:.3}",
            with.delivery_rate(),
            without.delivery_rate()
        );
        assert!(with.retransmits > 0, "a 10% drop rate must trigger retries");
    }

    #[test]
    fn clean_network_needs_no_recovery() {
        // Long-lived relays + no injected faults: everything delivers on
        // the first transmission and the recovery machinery stays idle.
        let mut cfg = recovery_cfg(ProtocolKind::CurMix, FaultConfig::NONE, 14);
        cfg.world.lifetime = LifetimeDistribution::pareto_with_median(1_000_000.0);
        cfg.world.downtime = LifetimeDistribution::pareto_with_median(1.0);
        let (res, stats) = run_recovery_experiment_traced(&cfg);
        assert_eq!(res.delivered, res.metrics.messages_sent);
        assert_eq!(res.retransmits, 0);
        assert_eq!(stats.fault_drops, 0);
        assert_eq!(stats.crash_wipes, 0);
    }

    #[test]
    fn erasure_ordering_holds_under_moderate_faults() {
        // The fixed-2x-overhead comparison set under injected faults:
        // per-segment success sits well above the binomial crossover, so
        // redundancy (SimRep/SimEra) must clearly beat the single path.
        // The SimEra-vs-SimRep gap at that operating point is small, so at
        // unit-test scale (75 messages) it is asserted with a sampling
        // tolerance; the strict ordering shows at experiment scale.
        let faults = FaultConfig {
            link_drop: 0.08,
            ..moderate_faults()
        };
        let mut rates = [0.0f64; 3];
        let protos = [
            ProtocolKind::CurMix,
            ProtocolKind::SimRep { k: 2 },
            ProtocolKind::SimEra { k: 4, r: 2 },
        ];
        for seed in [21u64, 22, 23] {
            for (i, p) in protos.iter().enumerate() {
                let mut cfg = recovery_cfg(*p, faults, seed);
                cfg.recovery.retry_budget = 0;
                rates[i] += run_recovery_experiment_traced(&cfg).0.delivery_rate();
            }
        }
        let (cur, rep, era) = (rates[0] / 3.0, rates[1] / 3.0, rates[2] / 3.0);
        assert!(
            rep > cur && era > cur,
            "redundancy must beat the single path: cur {cur:.3} rep {rep:.3} era {era:.3}"
        );
        assert!(
            era >= rep - 0.05,
            "SimEra must match SimRep within tolerance: rep {rep:.3} era {era:.3}"
        );
    }
}
