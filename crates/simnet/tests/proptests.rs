//! Property-based tests for the simulator substrate.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use simnet::trace::{Samples, Summary};
use simnet::{
    ChurnSchedule, Engine, FaultConfig, FaultPlan, LatencyMatrix, LifetimeDistribution, NodeId,
    Session, SimDuration, SimTime,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The engine executes any batch of events in non-decreasing time
    /// order with FIFO tie-breaks, regardless of insertion order.
    #[test]
    fn engine_total_order(times in proptest::collection::vec(0u64..1000, 1..200)) {
        let mut engine: Engine<Vec<(u64, usize)>> = Engine::new();
        let mut world: Vec<(u64, usize)> = Vec::new();
        for (seq, &t) in times.iter().enumerate() {
            engine.schedule_at(SimTime(t), move |w: &mut Vec<(u64, usize)>, e| {
                w.push((e.now().as_micros(), seq));
            });
        }
        engine.run(&mut world);
        prop_assert_eq!(world.len(), times.len());
        for w in world.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time order violated");
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "FIFO violated at equal times");
            }
        }
    }

    /// run_until never executes an event past the horizon, and a
    /// subsequent run finishes the rest exactly once.
    #[test]
    fn engine_horizon_split(
        times in proptest::collection::vec(0u64..1000, 1..100),
        split in 0u64..1000,
    ) {
        let mut engine: Engine<Vec<u64>> = Engine::new();
        let mut world = Vec::new();
        for &t in &times {
            engine.schedule_at(SimTime(t), move |w: &mut Vec<u64>, e| {
                w.push(e.now().as_micros());
            });
        }
        engine.run_until(&mut world, SimTime(split));
        prop_assert!(world.iter().all(|&t| t <= split));
        let before = world.len();
        engine.run(&mut world);
        prop_assert_eq!(world.len(), times.len());
        prop_assert!(world[before..].iter().all(|&t| t > split));
    }

    /// Sessions of any generated schedule are disjoint, ordered, in-horizon
    /// and consistent with point queries.
    #[test]
    fn churn_schedule_invariants(
        n in 1usize..24,
        median in 60.0f64..2000.0,
        seed in any::<u64>(),
    ) {
        let horizon = SimTime::from_secs(3000);
        let dist = LifetimeDistribution::pareto_with_median(median);
        let mut rng = StdRng::seed_from_u64(seed);
        let sched = ChurnSchedule::generate(n, &dist, &dist, horizon, &mut rng);
        for i in 0..n {
            let node = NodeId::from(i);
            let sessions = sched.sessions(node);
            prop_assert!(!sessions.is_empty());
            for s in sessions {
                prop_assert!(s.start < s.end);
                prop_assert!(s.end <= horizon);
                // Point queries agree with the interval.
                prop_assert!(sched.is_up(node, s.start));
                prop_assert!(!sched.is_up(node, s.end));
                let mid = SimTime((s.start.as_micros() + s.end.as_micros()) / 2);
                prop_assert!(sched.is_up(node, mid));
            }
            for w in sessions.windows(2) {
                prop_assert!(w[0].end < w[1].start, "sessions must not touch");
            }
        }
    }

    /// Latency matrices are strictly positive off-diagonal, loopback-tiny,
    /// and the calibrated mean is within 3% of the target.
    #[test]
    fn latency_matrix_invariants(n in 2usize..48, rtt in 20.0f64..500.0, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = LatencyMatrix::synthetic(n, rtt, &mut rng);
        for i in 0..n {
            for j in 0..n {
                let d = m.owd(NodeId::from(i), NodeId::from(j));
                if i == j {
                    prop_assert!(d.as_micros() <= 1000);
                } else {
                    prop_assert!(d.as_micros() >= 1);
                }
            }
        }
        let mean = m.mean_rtt_ms();
        prop_assert!((mean - rtt).abs() / rtt < 0.03, "mean {mean} vs target {rtt}");
    }

    /// Summary::merge is associative-enough: merging any split equals the
    /// whole, and quantiles bracket the data.
    #[test]
    fn stats_invariants(data in proptest::collection::vec(-1e6f64..1e6, 1..300), cut in any::<prop::sample::Index>()) {
        let k = cut.index(data.len());
        let mut whole = Summary::new();
        let mut left = Summary::new();
        let mut right = Summary::new();
        let mut samples = Samples::new();
        for (i, &x) in data.iter().enumerate() {
            whole.record(x);
            if i < k { left.record(x) } else { right.record(x) }
            samples.record(x);
        }
        left.merge(&right);
        prop_assert_eq!(left.count(), whole.count());
        prop_assert!((left.mean() - whole.mean()).abs() < 1e-6 * (1.0 + whole.mean().abs()));
        let lo = samples.quantile(0.0).unwrap();
        let hi = samples.quantile(1.0).unwrap();
        let med = samples.quantile(0.5).unwrap();
        prop_assert!(lo <= med && med <= hi);
        prop_assert_eq!(lo, data.iter().cloned().fold(f64::INFINITY, f64::min));
        prop_assert_eq!(hi, data.iter().cloned().fold(f64::NEG_INFINITY, f64::max));
    }

    /// Lifetime CDFs are monotone with correct range, and the sampled
    /// median matches the analytic median.
    #[test]
    fn distribution_cdf_monotone(median in 100.0f64..5000.0, kind in 0u8..3) {
        let dist = match kind {
            0 => LifetimeDistribution::pareto_with_median(median),
            1 => LifetimeDistribution::Exponential { mean_secs: median / std::f64::consts::LN_2 },
            _ => LifetimeDistribution::Uniform { min_secs: median * 0.5, max_secs: median * 1.5 },
        };
        let mut prev = -1.0f64;
        for i in 0..100 {
            let t = i as f64 * median / 10.0;
            let c = dist.cdf(t);
            prop_assert!((0.0..=1.0).contains(&c));
            prop_assert!(c + 1e-12 >= prev);
            prev = c;
        }
        // The CDF evaluated just past the analytic median is 1/2 for all
        // three families (the Pareto CDF is left-discontinuous at β).
        let at_median = dist.cdf(dist.median_secs() + 1e-9);
        prop_assert!((at_median - 0.5).abs() < 1e-3, "cdf(median) = {}", at_median);
    }

    /// Up/down sessions strictly alternate, and `fails_at` names exactly
    /// the end of the session containing the query instant.
    #[test]
    fn churn_fails_at_matches_sessions(
        n in 1usize..16,
        median in 60.0f64..2000.0,
        seed in any::<u64>(),
        probe in 0u64..3000,
    ) {
        let horizon = SimTime::from_secs(3000);
        let dist = LifetimeDistribution::pareto_with_median(median);
        let mut rng = StdRng::seed_from_u64(seed);
        let sched = ChurnSchedule::generate(n, &dist, &dist, horizon, &mut rng);
        let t = SimTime::from_secs(probe);
        for i in 0..n {
            let node = NodeId::from(i);
            let containing = sched
                .sessions(node)
                .iter()
                .find(|s| s.start <= t && t < s.end)
                .copied();
            match containing {
                Some(s) => {
                    prop_assert!(sched.is_up(node, t));
                    prop_assert_eq!(sched.fails_at(node, t), Some(s.end));
                }
                None => {
                    prop_assert!(!sched.is_up(node, t));
                    prop_assert_eq!(sched.fails_at(node, t), None);
                }
            }
        }
    }

    /// `Session::containing` — the slice-level search a caller holding a
    /// span runs itself — answers like `uptime_at` / `is_up` on the
    /// schedule and like a linear scan, at every session boundary (start
    /// inclusive, end exclusive) and on a node with no session at all.
    #[test]
    fn churn_span_search_matches_point_queries(
        n in 1usize..12,
        median in 5.0f64..400.0,
        seed in any::<u64>(),
    ) {
        let horizon = SimTime::from_secs(3000);
        let dist = LifetimeDistribution::pareto_with_median(median);
        let mut rng = StdRng::seed_from_u64(seed);
        let generated = ChurnSchedule::generate(n, &dist, &dist, horizon, &mut rng);
        // One more node, never up; node 0 pinned past the horizon.
        let mut per_node: Vec<Vec<Session>> =
            (0..n).map(|i| generated.sessions(NodeId::from(i)).to_vec()).collect();
        per_node.push(Vec::new());
        let mut sched = ChurnSchedule::from_sessions(per_node, horizon);
        sched.pin_up(NodeId(0));

        for i in 0..=n {
            let node = NodeId::from(i);
            let span = sched.sessions(node);
            let edges = span.iter().flat_map(|s| [s.start, s.end]);
            for edge in edges.chain([SimTime::ZERO, horizon]) {
                for t in [edge.0.saturating_sub(1), edge.0, edge.0 + 1].map(SimTime) {
                    let found = Session::containing(span, t);
                    prop_assert_eq!(found, span.iter().find(|s| s.start <= t && t < s.end));
                    prop_assert_eq!(found, sched.session_at(node, t));
                    prop_assert_eq!(found.is_some(), sched.is_up(node, t));
                    prop_assert_eq!(found.map(|s| t - s.start), sched.uptime_at(node, t));
                }
            }
        }
        prop_assert!(sched.sessions(NodeId::from(n)).is_empty());
    }

    /// A fault plan is a pure function of (seed, config): two plans built
    /// from the same inputs agree on every drop decision, every latency
    /// scaling and every crash schedule.
    #[test]
    fn fault_plan_is_seed_deterministic(
        n in 2usize..32,
        seed in any::<u64>(),
        drop in 0.0f64..0.5,
        spike in 0.0f64..0.5,
        crashes in 0.0f64..5.0,
        probes in proptest::collection::vec(any::<u64>(), 1..50),
    ) {
        let cfg = FaultConfig {
            link_drop: drop,
            spike_prob: spike,
            spike_factor: 5.0,
            crashes_per_hour: crashes,
            view_staleness: SimDuration::from_secs(30),
            ..FaultConfig::NONE
        };
        let horizon = SimTime::from_secs(7200);
        let a = FaultPlan::new(n, cfg, horizon, seed);
        let b = FaultPlan::new(n, cfg, horizon, seed);
        let owd = SimDuration::from_millis(40);
        for &raw in &probes {
            // Unpack one random word into a (from, to, time) probe.
            let from = NodeId((raw % n as u64) as u32);
            let to = NodeId(((raw >> 8) % n as u64) as u32);
            let at = SimTime((raw >> 16) % 7_200_000_000);
            prop_assert_eq!(a.drops(from, to, at), b.drops(from, to, at));
            prop_assert_eq!(a.scale_owd(owd, from, to, at), b.scale_owd(owd, from, to, at));
            // Spikes only ever lengthen a link, bounded by the factor.
            let scaled = a.scale_owd(owd, from, to, at);
            prop_assert!(scaled >= owd);
            prop_assert!(scaled.as_micros() <= (owd.as_micros() as f64 * 5.0).ceil() as u64 + 1);
        }
        for node in 0..n {
            let node = NodeId::from(node);
            prop_assert_eq!(a.crash_times(node), b.crash_times(node));
            for w in a.crash_times(node).windows(2) {
                prop_assert!(w[0] < w[1], "crash schedules are strictly ordered");
            }
            for &c in a.crash_times(node) {
                prop_assert!(c <= horizon);
            }
        }
    }

    /// SimTime/SimDuration arithmetic is consistent.
    #[test]
    fn time_arithmetic(a in 0u64..1_000_000_000, b in 0u64..1_000_000_000) {
        let t = SimTime(a) + SimDuration(b);
        prop_assert_eq!(t - SimTime(a), SimDuration(b));
        prop_assert_eq!(t.since(SimTime(a)), SimDuration(b));
        prop_assert_eq!(SimTime(a).since(t), SimDuration::ZERO);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The procedural backend is a pure function of (n, seed): two
    /// instances agree on every queried pair, and delays are positive
    /// with cheap loopback.
    #[test]
    fn procedural_latency_is_deterministic_and_positive(
        seed in any::<u64>(),
        n in 2usize..5000,
        pairs in proptest::collection::vec(0u64..u64::MAX, 1..50),
    ) {
        use simnet::ProceduralLatency;
        let x = ProceduralLatency::new(n, 152.0, seed);
        let y = ProceduralLatency::new(n, 152.0, seed);
        for &pair in &pairs {
            let a = NodeId::from((pair >> 32) as usize % n);
            let b = NodeId::from((pair & 0xFFFF_FFFF) as usize % n);
            prop_assert_eq!(x.owd(a, b), y.owd(a, b));
            prop_assert!(x.owd(a, b) > SimDuration::ZERO);
            prop_assert_eq!(x.rtt(a, b), x.owd(a, b) + x.owd(b, a));
            if a == b {
                prop_assert!(x.owd(a, b) <= SimDuration(50), "loopback is cheap");
            }
        }
    }

    /// Coordinate-derived delays honor a *relaxed* triangle inequality:
    /// the underlying 2-D distances are metric, but the ±20% per-edge
    /// jitter (same model the dense matrix uses) can stretch one leg
    /// against the other two, so the paper-faithful bound is 1.5x + the
    /// base-delay floor, not the strict metric bound.
    #[test]
    fn procedural_latency_triangle_sanity(
        seed in any::<u64>(),
        ia in 0usize..3000,
        ib in 0usize..3000,
        ic in 0usize..3000,
    ) {
        use simnet::ProceduralLatency;
        let n = 3000;
        let m = ProceduralLatency::new(n, 152.0, seed);
        let (a, b, c) = (NodeId::from(ia), NodeId::from(ib), NodeId::from(ic));
        if a != b && b != c && a != c {
            let direct = m.owd(a, c).as_micros() as f64;
            let detour = (m.owd(a, b) + m.owd(b, c)).as_micros() as f64;
            // Worst case: direct jittered up 1.2x, detour legs down 0.8x,
            // so direct <= 1.5 * detour + slack from the base-delay floor.
            let base_us = 0.1 * 152_000.0 / 2.0;
            prop_assert!(
                direct <= 1.5 * detour + base_us,
                "triangle blowout: direct {direct} vs detour {detour}"
            );
        }
    }

    /// Differential check against the dense backend: both are calibrated
    /// to the same target mean RTT, so their sampled means agree within
    /// jitter tolerance.
    #[test]
    fn procedural_mean_matches_matrix_calibration(seed in any::<u64>(), n in 64usize..512) {
        use simnet::{Latency, LatencyModel, ProceduralLatency};
        let target = 152.0;
        let mut rng = StdRng::seed_from_u64(seed);
        let dense = LatencyMatrix::synthetic(n, target, &mut rng);
        let proc_ = Latency::Procedural(ProceduralLatency::new(n, target, seed));
        let dense_mean = dense.mean_rtt_ms();
        let proc_mean = proc_.mean_rtt_ms_sampled(200_000);
        // The dense matrix rescales itself to hit the target exactly;
        // the procedural backend is calibrated analytically, so small n
        // leaves sampling noise of a few ms.
        prop_assert!((dense_mean - target).abs() < 1.0, "dense calibration: {dense_mean}");
        prop_assert!((proc_mean - target).abs() < 12.0, "procedural calibration: {proc_mean}");
    }
}
