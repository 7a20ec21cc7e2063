//! Property-based tests (proptest) over the core invariants of the analytical
//! models, the stochastic-approximation library and the simulator.

use proptest::prelude::*;
use wlan_sa::analytic::{self, BackoffChain, SlotModel};
use wlan_sa::core::{Protocol, Scenario, TopologySpec};
use wlan_sa::sa::{KieferWolfowitz, PowerLawGains};
use wlan_sa::sim::backoff::{ExponentialBackoff, PPersistent, RandomReset};
use wlan_sa::sim::{
    ArrivalProcess, PhyParams, SimDuration, SimulatorBuilder, Topology, TrafficSpec,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Lemma 1: the weighted mapping preserves the odds ratio exactly.
    #[test]
    fn weighted_mapping_preserves_odds_ratio(p in 1e-4f64..0.8, w in 0.1f64..10.0) {
        let pw = analytic::station_probability(p, w);
        let lhs = pw / (1.0 - pw);
        let rhs = w * p / (1.0 - p);
        prop_assert!((lhs - rhs).abs() / rhs < 1e-9);
    }

    /// Eq. (2) / eq. (3): per-station throughputs always sum to the system throughput.
    #[test]
    fn per_station_throughput_sums_to_system(
        n in 2usize..20,
        p in 1e-4f64..0.3,
        seed in 0u64..1000,
    ) {
        let model = SlotModel::table1();
        // Heterogeneous probabilities derived deterministically from the seed.
        let probs: Vec<f64> = (0..n)
            .map(|i| (p * (1.0 + ((seed + i as u64) % 7) as f64 / 7.0)).min(0.9))
            .collect();
        let total: f64 =
            (0..n).map(|t| analytic::ppersistent::per_station_throughput(&model, &probs, t)).sum();
        let system = analytic::ppersistent::system_throughput_vector(&model, &probs);
        prop_assert!((total - system).abs() <= 1e-6 * system.max(1.0));
    }

    /// Theorem 2: S(p, W) is quasi-concave in p for any positive weight vector.
    #[test]
    fn weighted_throughput_is_quasi_concave(
        n in 2usize..15,
        w_low in 0.5f64..1.5,
        w_high in 1.5f64..5.0,
    ) {
        let model = SlotModel::table1();
        let weights: Vec<f64> =
            (0..n).map(|i| if i % 2 == 0 { w_low } else { w_high }).collect();
        let ys: Vec<f64> = (1..200)
            .map(|i| analytic::system_throughput(&model, i as f64 / 200.0, &weights))
            .collect();
        prop_assert!(analytic::is_quasi_concave(&ys, 1e-6));
    }

    /// The optimal control variable decreases as stations are added, and the
    /// optimal throughput stays within a narrow band (the paper's observation that
    /// the achievable optimum is essentially independent of N).
    #[test]
    fn optimal_p_monotone_in_n(n in 2usize..40) {
        let model = SlotModel::table1();
        let p_n = analytic::optimal_p(&model, &vec![1.0; n]);
        let p_n1 = analytic::optimal_p(&model, &vec![1.0; n + 1]);
        prop_assert!(p_n1 < p_n);
        // The achievable optimum is nearly independent of N once the network has a
        // handful of stations (very small N still shows a visible drop per station).
        if n >= 5 {
            let s_n = analytic::optimal_throughput(&model, &vec![1.0; n]);
            let s_n1 = analytic::optimal_throughput(&model, &vec![1.0; n + 1]);
            prop_assert!((s_n - s_n1).abs() / s_n < 0.02);
        }
    }

    /// Bianchi's fixed point is always a consistent pair (τ, c) with both in (0, 1).
    #[test]
    fn bianchi_fixed_point_is_consistent(n in 2usize..60, w_exp in 3u32..8, m in 1u8..8) {
        let model = SlotModel::table1();
        let w = 1u32 << w_exp;
        let op = analytic::solve_dcf(&model, n, w, m);
        prop_assert!(op.tau > 0.0 && op.tau < 1.0);
        prop_assert!(op.collision_probability >= 0.0 && op.collision_probability < 1.0);
        let back = analytic::bianchi::collision_given_tau(op.tau, n);
        prop_assert!((back - op.collision_probability).abs() < 1e-6);
    }

    /// Lemma 4 / Lemma 5: α_j(c) is non-decreasing in j and the RandomReset attempt
    /// probability is non-decreasing in p0 and bounded by the class range (Lemma 6).
    #[test]
    fn randomreset_structure(
        c in 0.0f64..0.999,
        p0_low in 0.0f64..0.5,
        p0_high in 0.5f64..1.0,
        j in 0u8..7,
        n in 2usize..50,
    ) {
        let chain = BackoffChain::table1();
        let alpha = chain.alpha(c);
        for k in 0..alpha.len() - 1 {
            prop_assert!(alpha[k] <= alpha[k + 1] + 1e-12);
        }
        let tau_low = chain.tau_given_collision_random_reset(c, j, p0_low);
        let tau_high = chain.tau_given_collision_random_reset(c, j, p0_high);
        prop_assert!(tau_low <= tau_high + 1e-12);

        let (lo, hi) = chain.attempt_probability_range(n);
        let tau = chain.random_reset_attempt_probability(n, j, p0_high);
        prop_assert!(tau >= lo - 1e-9 && tau <= hi + 1e-9);
    }

    /// Backoff policies never draw a counter outside their declared window, no
    /// matter what success/failure history they have seen.
    #[test]
    fn backoff_samples_stay_in_window(
        history in proptest::collection::vec(any::<bool>(), 0..64),
        seed in 0u64..10_000,
    ) {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let phy = PhyParams::table1();
        let mut dcf = ExponentialBackoff::new(&phy);
        let mut rr = RandomReset::new(&phy, 2, 0.4);
        for &ok in &history {
            if ok {
                dcf.on_success();
                rr.on_success(&mut rng);
            } else {
                dcf.on_failure();
                rr.on_failure();
            }
        }
        for _ in 0..32 {
            prop_assert!(dcf.next_backoff(&mut rng) < phy.cw_max as u64);
            prop_assert!(rr.next_backoff(&mut rng) < phy.cw_max as u64);
            prop_assert!(dcf.backoff_stage() <= phy.max_backoff_stage());
            prop_assert!(rr.backoff_stage() <= phy.max_backoff_stage());
        }
    }

    /// The p-persistent policy's geometric sampler has the right mean for any p.
    #[test]
    fn geometric_backoff_mean(p in 0.02f64..0.9) {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        let mut pol = PPersistent::new(p);
        let samples = 40_000;
        let total: u64 = (0..samples).map(|_| pol.next_backoff(&mut rng)).sum();
        let mean = total as f64 / samples as f64;
        let expected = (1.0 - p) / p;
        prop_assert!(
            (mean - expected).abs() < 0.1 + 0.1 * expected,
            "p={p} mean={mean} expected={expected}"
        );
    }

    /// Kiefer–Wolfowitz stays inside its bounds and converges on noiseless
    /// quadratics regardless of where the optimum sits.
    #[test]
    fn kiefer_wolfowitz_converges_on_quadratics(target in 0.05f64..0.95, start in 0.05f64..0.95) {
        let mut kw = KieferWolfowitz::with_gains(
            start,
            (0.0, 1.0),
            (0.0, 1.0),
            PowerLawGains::paper_defaults(),
        );
        let est = kw.maximize(|x| -(x - target).powi(2), 600);
        prop_assert!((0.0..=1.0).contains(&est));
        prop_assert!((est - target).abs() < 0.08, "target {target} start {start} est {est}");
    }
}

proptest! {
    // Whole-simulator properties are expensive; keep the case count low.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Conservation laws of the simulator: successes + failures never exceed
    /// attempts, delivered bytes match per-station success counts, and the
    /// channel is never busy for more than the measured time.
    #[test]
    fn simulator_conservation_laws(
        n in 2usize..12,
        p in 0.005f64..0.2,
        seed in 0u64..500,
        hidden in any::<bool>(),
    ) {
        let topo = if hidden {
            TopologySpec::UniformDisc { radius: 18.0 }
        } else {
            TopologySpec::FullyConnected
        };
        let r = Scenario::new(Protocol::StaticPPersistent { p }, topo, n)
            .durations(SimDuration::ZERO, SimDuration::from_millis(800))
            .seed(seed)
            .run();
        prop_assert!(r.throughput_mbps >= 0.0);
        prop_assert!(r.collision_fraction >= 0.0 && r.collision_fraction <= 1.0);
        prop_assert!(r.jain_index > 0.0 && r.jain_index <= 1.0 + 1e-9);
        let total: f64 = r.per_node_mbps.iter().sum();
        prop_assert!((total - r.throughput_mbps).abs() < 1e-6 * r.throughput_mbps.max(1.0));
        // 54 Mbps link: MAC goodput can never exceed the link rate.
        prop_assert!(r.throughput_mbps < 54.0);
    }

    /// Frame conservation in the traffic layer: for every station, under any
    /// arrival process (CBR / Poisson / bursty on/off, mixed per station via
    /// an override), any queue bound, and arbitrary arrival/drop/delivery
    /// interleavings, `queued_at_start + arrivals == delivered + drops +
    /// queued_at_end` holds exactly — and unbounded queues never drop.
    #[test]
    fn frame_conservation_under_arbitrary_arrivals(
        n in 2usize..8,
        kind in 0u8..3,
        rate in 20.0f64..3000.0,
        cap in 0usize..24, // 0 means unbounded
        seed in 0u64..1000,
    ) {
        let arrival = match kind {
            0 => ArrivalProcess::Cbr { rate_fps: rate },
            1 => ArrivalProcess::Poisson { rate_fps: rate },
            _ => ArrivalProcess::OnOff {
                rate_fps: rate * 4.0,
                mean_on: SimDuration::from_millis(20),
                mean_off: SimDuration::from_millis(60),
            },
        };
        let queue_frames = if cap == 0 { None } else { Some(cap) };
        let mut sim = SimulatorBuilder::new(PhyParams::table1(), Topology::fully_connected(n))
            .seed(seed)
            .with_stations(|_, _| PPersistent::new(0.05))
            .traffic(TrafficSpec { arrival, queue_frames })
            // Pluggable per-station processes: station 0 always deviates.
            .station_arrival(0, ArrivalProcess::Poisson { rate_fps: rate })
            .build();
        sim.run_for(SimDuration::from_millis(400));
        // Exercise a mid-run measurement reset too: `queued_at_start` must
        // re-anchor the invariant on the new interval.
        sim.reset_measurements();
        sim.run_for(SimDuration::from_millis(300));
        let stats = sim.stats();
        for i in 0..n {
            let t = &stats.nodes[i].traffic;
            prop_assert_eq!(
                t.queued_at_start + t.arrivals,
                t.delivered + t.drops + sim.queued_frames(i) as u64,
                "station {}: start {} + arrivals {} vs delivered {} + drops {} + queued {}",
                i, t.queued_at_start, t.arrivals, t.delivered, t.drops, sim.queued_frames(i)
            );
            // Delivered frames are exactly the MAC successes of the interval.
            prop_assert_eq!(t.delivered, stats.nodes[i].successes);
            if queue_frames.is_none() {
                prop_assert_eq!(t.drops, 0);
            } else {
                prop_assert!(sim.queued_frames(i) <= cap);
            }
        }
    }
}
