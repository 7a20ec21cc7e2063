//! Behavioural tests of the WLAN engine, exercised end-to-end through the
//! public facade (moved verbatim from the pre-kernel monolithic module —
//! they are deliberately agnostic to the component decomposition).

use super::*;
use crate::backoff::{ExponentialBackoff, FixedWindow, PPersistent};

fn quick_sim(n: usize, topo: Topology, p: f64, seed: u64) -> Simulator {
    let phy = PhyParams::table1();
    let _ = n;
    SimulatorBuilder::new(phy, topo)
        .seed(seed)
        .with_stations(move |_, _| PPersistent::new(p))
        .build()
}

#[test]
fn single_station_gets_near_saturation_throughput() {
    let topo = Topology::fully_connected(1);
    let phy = PhyParams::table1();
    let mut sim = SimulatorBuilder::new(phy.clone(), topo)
        .seed(1)
        .with_stations(|_, _| FixedWindow::new(1))
        .build();
    sim.run_for(SimDuration::from_secs(1));
    let stats = sim.stats();
    let mbps = stats.system_throughput_mbps();
    // One station with CW=1 transmits back-to-back: throughput should be close to
    // (but below) the zero-backoff bound.
    let bound = phy.saturation_bound_bps() / 1e6;
    assert!(mbps > 0.8 * bound, "mbps={mbps} bound={bound}");
    assert!(mbps <= bound * 1.01, "mbps={mbps} bound={bound}");
    assert_eq!(stats.total_failures(), 0);
}

#[test]
fn two_fully_connected_stations_share_and_rarely_collide() {
    let topo = Topology::fully_connected(2);
    let mut sim = quick_sim(2, topo, 0.05, 3);
    sim.run_for(SimDuration::from_secs(2));
    let stats = sim.stats();
    assert!(stats.total_successes() > 1000);
    // With carrier sensing and p=0.05 collisions exist but are a small minority.
    let ratio = stats.total_failures() as f64 / stats.total_attempts() as f64;
    assert!(ratio < 0.2, "collision ratio {ratio}");
    // Both stations get roughly equal shares.
    let t0 = stats.node_throughput_mbps(0);
    let t1 = stats.node_throughput_mbps(1);
    assert!((t0 - t1).abs() / (t0 + t1) < 0.15, "t0={t0} t1={t1}");
}

/// A station whose attempt probability is 0, or so small that `1 - p`
/// rounds to 1 (1e-17) or that a draw's fire time overflows (2e-16), never
/// transmits, on either sensing path. Such countdowns used to fire at once
/// in release builds (the fire time wrapped, or every draw was 0 slots) and
/// to panic on the overflow in debug builds.
#[test]
fn never_transmitting_stations_make_no_attempt() {
    for p in [0.0, 1e-17, 2e-16] {
        let disc = Topology::uniform_disc(5, 20.0, &mut ChaCha8Rng::seed_from_u64(2));
        let cells = [
            (Topology::fully_connected(5), false),
            (Topology::fully_connected(5), true),
            (disc, true),
        ];
        for (topology, per_station) in cells {
            let mut builder = SimulatorBuilder::new(PhyParams::table1(), topology)
                .seed(9)
                .with_stations(move |i, _| PPersistent::new(if i < 3 { p } else { 0.05 }));
            if per_station {
                builder = builder.per_station_sensing();
            }
            let mut sim = builder.build();
            sim.run_for(SimDuration::from_millis(300));
            let stats = sim.stats();
            let attempts: Vec<u64> = stats.nodes.iter().map(|s| s.attempts).collect();
            assert_eq!(
                attempts[..3],
                [0, 0, 0],
                "p = {p}, per-station {per_station}"
            );
            assert!(
                attempts[3..].iter().all(|&a| a > 100),
                "p = {p}, per-station {per_station}: {attempts:?}"
            );
        }
    }
}

#[test]
fn hidden_pair_collides_heavily() {
    // Two stations that cannot sense each other but both reach the AP.
    let mut topo = Topology::fully_connected(2);
    topo.set_senses(0, 1, false);
    // p chosen large enough that transmissions frequently overlap.
    let mut sim = quick_sim(2, topo, 0.05, 5);
    sim.run_for(SimDuration::from_secs(2));
    let hidden_stats = sim.stats();

    let topo_fc = Topology::fully_connected(2);
    let mut sim_fc = quick_sim(2, topo_fc, 0.05, 5);
    sim_fc.run_for(SimDuration::from_secs(2));
    let fc_stats = sim_fc.stats();

    assert!(
        hidden_stats.collision_fraction() > 2.0 * fc_stats.collision_fraction(),
        "hidden {} vs fc {}",
        hidden_stats.collision_fraction(),
        fc_stats.collision_fraction()
    );
    assert!(
        hidden_stats.system_throughput_mbps() < fc_stats.system_throughput_mbps(),
        "hidden nodes should reduce throughput"
    );
}

#[test]
fn dcf_with_many_stations_runs_and_everyone_transmits() {
    let topo = Topology::fully_connected(20);
    let phy = PhyParams::table1();
    let mut sim = SimulatorBuilder::new(phy, topo)
        .seed(11)
        .with_stations(|_, phy| ExponentialBackoff::new(phy))
        .build();
    sim.run_for(SimDuration::from_secs(2));
    let stats = sim.stats();
    assert!(stats.system_throughput_mbps() > 5.0);
    for i in 0..20 {
        assert!(stats.nodes[i].attempts > 0, "station {i} never attempted");
        assert!(stats.nodes[i].successes > 0, "station {i} never succeeded");
    }
    // Conservation: every attempt is eventually a success, a failure, or still pending.
    let pending = 20u64;
    assert!(stats.total_attempts() <= stats.total_successes() + stats.total_failures() + pending);
}

#[test]
fn determinism_same_seed_same_result() {
    let run = |seed| {
        let topo = Topology::fully_connected(8);
        let mut sim = quick_sim(8, topo, 0.03, seed);
        sim.run_for(SimDuration::from_secs(1));
        let s = sim.stats();
        (
            s.total_successes(),
            s.total_failures(),
            s.total_payload_bits(),
        )
    };
    assert_eq!(run(42), run(42));
    assert_ne!(run(42), run(43));
}

#[test]
fn reset_measurements_discards_warmup() {
    let topo = Topology::fully_connected(5);
    let mut sim = quick_sim(5, topo, 0.05, 9);
    sim.run_for(SimDuration::from_millis(500));
    let warm = sim.stats().total_successes();
    assert!(warm > 0);
    sim.reset_measurements();
    assert_eq!(sim.stats().total_successes(), 0);
    sim.run_for(SimDuration::from_millis(500));
    let after = sim.stats();
    assert!(after.total_successes() > 0);
    assert!(after.measured_time <= SimDuration::from_millis(501));
}

#[test]
fn activate_and_deactivate_stations() {
    let topo = Topology::fully_connected(10);
    let phy = PhyParams::table1();
    let mut sim = SimulatorBuilder::new(phy, topo)
        .seed(2)
        .with_stations(|_, _| PPersistent::new(0.05))
        .initially_active(2)
        .build();
    assert_eq!(sim.active_stations(), 2);
    sim.run_for(SimDuration::from_millis(300));
    let before = sim.stats();
    assert_eq!(before.nodes[5].attempts, 0);

    for i in 2..10 {
        sim.activate_station(i);
    }
    assert_eq!(sim.active_stations(), 10);
    sim.run_for(SimDuration::from_millis(300));
    assert!(sim.stats().nodes[5].attempts > 0);

    for i in 0..9 {
        sim.deactivate_station(i);
    }
    assert_eq!(sim.active_stations(), 1);
    let base = sim.stats().nodes[0].attempts;
    sim.run_for(SimDuration::from_millis(300));
    assert_eq!(
        sim.stats().nodes[0].attempts,
        base,
        "deactivated station kept transmitting"
    );
}

/// Deactivate and reactivate every station 20 µs before the first frame
/// ends, so each transmitter is reactivated while its own frame is still on
/// the air, then run on. The reactivated transmitter contends again at once
/// (it does not sense its own frame), so the frame's `TxEnd` and ACK must
/// leave it alone; otherwise its new backoff timer is armed a second time
/// when the ACK or the timeout ends the frame ("double arm").
fn reactivate_mid_frame(topology: Topology, per_station: bool) -> Simulator {
    let build = || {
        let builder = SimulatorBuilder::new(PhyParams::table1(), topology.clone())
            .seed(1)
            .with_stations(|_, phy| ExponentialBackoff::new(phy));
        if per_station {
            builder.per_station_sensing().build()
        } else {
            builder.build()
        }
    };
    let mut probe = build();
    while probe.frames_on_air() == 0 {
        probe.run_for(SimDuration::from_micros(1));
    }
    let first_end = probe.now() + probe.phy().data_airtime();
    let mut sim = build();
    sim.run_until(first_end - SimDuration::from_micros(20));
    assert!(sim.frames_on_air() > 0);
    for node in 0..3 {
        sim.deactivate_station(node);
        sim.activate_station(node);
    }
    sim.run_for(SimDuration::from_millis(50));
    assert_eq!(sim.active_stations(), 3);
    assert!(sim.stats().total_successes() > 0);
    sim
}

#[test]
fn reactivating_a_station_mid_frame_leaves_that_frame_to_its_fate() {
    // The per-station sensing path (the 20 m disc has a hidden pair) and the
    // clique path (an 8 m ring), each against the other path's rules.
    let disc = Topology::uniform_disc(3, 20.0, &mut ChaCha8Rng::seed_from_u64(9));
    assert!(!disc.is_fully_connected());
    reactivate_mid_frame(disc, false);
    let clique = reactivate_mid_frame(Topology::ring(3, 8.0), false);
    let reference = reactivate_mid_frame(Topology::ring(3, 8.0), true);
    assert_eq!(clique.events_processed(), reference.events_processed());
    assert_eq!(
        serde_json::to_string(&clique.stats()).unwrap(),
        serde_json::to_string(&reference.stats()).unwrap()
    );
}

/// Deactivate and reactivate every station while an ACK is on the air, then
/// run for 200 ms. The ACK's addressee does not sense the ACK and `AckEnd`
/// leaves its count alone, so the activation recount must leave that ACK
/// out too; counting it left the addressee's count stuck above zero, and the
/// station never transmitted again.
fn reactivate_mid_ack(topology: Topology, per_station: bool) -> Simulator {
    let n = topology.num_nodes();
    let mut builder = SimulatorBuilder::new(PhyParams::table1(), topology)
        .seed(1)
        .with_stations(|_, phy| ExponentialBackoff::new(phy));
    if per_station {
        builder = builder.per_station_sensing();
    }
    let mut sim = builder.build();
    while !sim.ack_on_air() {
        sim.run_for(SimDuration::from_micros(1));
    }
    for node in 0..n {
        sim.deactivate_station(node);
        sim.activate_station(node);
    }
    sim.run_for(SimDuration::from_millis(200));
    sim
}

#[test]
fn reactivating_every_station_mid_ack_keeps_the_addressee_contending() {
    let disc = Topology::uniform_disc(3, 20.0, &mut ChaCha8Rng::seed_from_u64(9));
    assert!(!disc.is_fully_connected());
    let attempts = |sim: &Simulator| -> Vec<u64> {
        sim.stats().nodes.iter().map(|node| node.attempts).collect()
    };
    let per_station = reactivate_mid_ack(disc, false);
    assert!(
        attempts(&per_station).iter().all(|&a| a > 10),
        "20 m disc: {:?}",
        attempts(&per_station)
    );
    for n in [3, 10] {
        let clique = reactivate_mid_ack(Topology::ring(n, 8.0), false);
        let reference = reactivate_mid_ack(Topology::ring(n, 8.0), true);
        assert!(
            attempts(&clique).iter().all(|&a| a > 10),
            "ring of {n}: {:?}",
            attempts(&clique)
        );
        assert_eq!(clique.events_processed(), reference.events_processed());
        assert_eq!(
            serde_json::to_string(&clique.stats()).unwrap(),
            serde_json::to_string(&reference.stats()).unwrap()
        );
    }
}

#[test]
fn throughput_series_is_recorded() {
    let topo = Topology::fully_connected(4);
    let phy = PhyParams::table1();
    let mut sim = SimulatorBuilder::new(phy, topo)
        .seed(6)
        .with_stations(|_, _| PPersistent::new(0.05))
        .throughput_bin(SimDuration::from_millis(100))
        .build();
    sim.run_for(SimDuration::from_secs(1));
    let series = sim.stats().throughput_series;
    assert!(
        series.len() >= 9,
        "expected ~10 samples, got {}",
        series.len()
    );
    assert!(series.iter().all(|s| s.active_nodes == 4));
    assert!(series.iter().any(|s| s.bps > 1e6));
}

#[test]
fn busy_periods_and_idle_slots_are_tracked() {
    let topo = Topology::fully_connected(6);
    let mut sim = quick_sim(6, topo, 0.02, 13);
    sim.run_for(SimDuration::from_secs(1));
    let stats = sim.stats();
    assert!(stats.busy_periods > 0);
    assert_eq!(
        stats.busy_periods,
        stats.successful_busy_periods + stats.collided_busy_periods
    );
    assert!(stats.idle_slots > 0);
    assert!(stats.avg_idle_slots_per_transmission() > 0.0);
    assert!(stats.channel_utilisation() > 0.0 && stats.channel_utilisation() <= 1.0);
}

#[test]
fn frame_error_injection_causes_failures_without_collisions() {
    let topo = Topology::fully_connected(1);
    let phy = PhyParams::table1();
    let mut sim = SimulatorBuilder::new(phy, topo)
        .seed(3)
        .with_stations(|_, _| FixedWindow::new(8))
        .frame_error_rate(0.3)
        .build();
    sim.run_for(SimDuration::from_secs(1));
    let stats = sim.stats();
    assert!(
        stats.total_failures() > 0,
        "frame errors should cause ACK timeouts"
    );
    let ratio = stats.total_failures() as f64 / stats.total_attempts() as f64;
    assert!(
        (ratio - 0.3).abs() < 0.05,
        "loss ratio {ratio} should be near 0.3"
    );
}

#[test]
fn weights_are_reported() {
    let topo = Topology::fully_connected(3);
    let phy = PhyParams::table1();
    let sim = SimulatorBuilder::new(phy, topo)
        .with_stations(|_, _| PPersistent::new(0.1))
        .weights(vec![1.0, 2.0, 3.0])
        .build();
    assert_eq!(sim.weights(), vec![1.0, 2.0, 3.0]);
}

#[test]
fn events_are_counted() {
    let topo = Topology::fully_connected(3);
    let mut sim = quick_sim(3, topo, 0.05, 17);
    assert_eq!(sim.events_processed(), 0);
    sim.run_for(SimDuration::from_secs(1));
    let events = sim.events_processed();
    // At minimum: 4 events per successful frame plus the stats ticks.
    assert!(
        events > 4 * sim.stats().total_successes(),
        "events={events}"
    );
}

#[test]
fn slab_high_water_is_bounded_by_station_count() {
    // The unbounded-memory regression test: over a long run the slab must
    // retain at most one entry per station (plus nothing for the AP), no
    // matter how many transmissions come and go.
    for (n, p, seed) in [(1usize, 0.5, 1u64), (5, 0.1, 2), (12, 0.05, 3)] {
        let topo = Topology::fully_connected(n);
        let mut sim = quick_sim(n, topo, p, seed);
        sim.run_for(SimDuration::from_secs(5));
        let stats = sim.stats();
        assert!(
            stats.total_attempts() > 1000,
            "n={n}: want a long run, got {} attempts",
            stats.total_attempts()
        );
        assert!(
            sim.tx_slab_high_water() <= n + 1,
            "n={n}: slab high-water {} exceeds N+1",
            sim.tx_slab_high_water()
        );
        assert!(sim.tx_slab_capacity() <= n + 1);
    }
}

#[test]
fn hidden_stations_keep_slab_bounded_too() {
    // Hidden pairs overlap freely, so concurrency genuinely approaches N.
    let mut topo = Topology::fully_connected(4);
    topo.set_senses(0, 1, false);
    topo.set_senses(0, 2, false);
    topo.set_senses(1, 3, false);
    let mut sim = quick_sim(4, topo, 0.2, 21);
    sim.run_for(SimDuration::from_secs(5));
    assert!(sim.stats().total_attempts() > 1000);
    assert!(sim.tx_slab_high_water() <= 5);
    assert!(sim.tx_slab_high_water() >= 2, "hidden pairs should overlap");
}

#[test]
fn sub_unity_sir_threshold_does_not_strand_stations() {
    // With sir_threshold <= 1 two mutually overlapping frames can BOTH be
    // decodable (`decodable` compares with `>=`, so equal-power frames
    // both pass at exactly 1.0), so a second success overwrites
    // `pending_ack` and the first sender's ACK is never delivered. Its
    // AckTimeout must then fire (the success-path timeout elision has to
    // be disabled), or the station would sit in AwaitingAck forever.
    // Regression test for the `ack_can_be_lost` gate: both hidden
    // stations must keep making progress for the whole run — including
    // at the boundary threshold of exactly 1.0, where the gate was once
    // `< 1.0` and station 0 made a single attempt in two simulated
    // seconds.
    for sir_threshold in [0.5, 1.0] {
        let mut topo = Topology::fully_connected(2);
        topo.set_senses(0, 1, false);
        let phy = PhyParams::table1();
        let capture = CaptureModel {
            sir_threshold,
            ..CaptureModel::default_indoor()
        };
        let mut sim = SimulatorBuilder::new(phy, topo)
            .seed(19)
            .with_stations(|_, _| PPersistent::new(0.2))
            .capture_model(Some(capture))
            .build();
        sim.run_for(SimDuration::from_secs(1));
        let before = sim.stats();
        assert!(
            before.nodes[0].attempts > 100 && before.nodes[1].attempts > 100,
            "sir {sir_threshold}: {} / {} attempts in warm-up",
            before.nodes[0].attempts,
            before.nodes[1].attempts
        );
        sim.run_for(SimDuration::from_secs(1));
        let after = sim.stats();
        for i in 0..2 {
            assert!(
                after.nodes[i].attempts > before.nodes[i].attempts + 100,
                "sir {sir_threshold}: station {i} stalled: {} -> {} attempts",
                before.nodes[i].attempts,
                after.nodes[i].attempts
            );
        }
    }
}

#[test]
fn light_poisson_load_is_carried_with_small_delay() {
    // 5 stations × 50 fps × 8000 bits = 2 Mbps offered — far below
    // capacity, so virtually everything is delivered with sub-ms queues.
    let topo = Topology::fully_connected(5);
    let phy = PhyParams::table1();
    let mut sim = SimulatorBuilder::new(phy, topo)
        .seed(4)
        .with_stations(|_, _| PPersistent::new(0.05))
        .traffic(TrafficSpec::poisson(50.0))
        .build();
    assert!(sim.has_finite_load());
    sim.run_for(SimDuration::from_secs(2));
    let stats = sim.stats();
    let arrivals = stats.total_frame_arrivals();
    let delivered = stats.total_frames_delivered();
    assert!(arrivals > 400, "arrivals {arrivals}");
    assert_eq!(stats.total_frame_drops(), 0, "unbounded queues never drop");
    // Nearly everything delivered; the rest still queued/in flight.
    assert!(
        delivered as f64 > 0.95 * arrivals as f64,
        "{delivered}/{arrivals}"
    );
    assert_eq!(delivered, stats.total_successes());
    // Offered ≈ carried at light load.
    let offered = arrivals as f64 * 8000.0 / 2.0;
    let carried = stats.system_throughput_bps();
    assert!(
        (carried - offered).abs() / offered < 0.06,
        "{carried} vs {offered}"
    );
    // Delay exists and is far below saturation queueing delays.
    let mean_delay = stats.mean_frame_delay();
    assert!(mean_delay > SimDuration::ZERO);
    assert!(mean_delay < SimDuration::from_millis(20), "{mean_delay}");
    assert!(stats.frame_delay_histogram().count() == delivered);
}

#[test]
fn overload_fills_bounded_queues_and_drops() {
    // 3 stations × 2000 fps × 8000 bits = 48 Mbps offered: far beyond
    // capacity, so bounded queues must fill and tail-drop.
    let topo = Topology::fully_connected(3);
    let phy = PhyParams::table1();
    let cap = 16;
    let mut sim = SimulatorBuilder::new(phy, topo)
        .seed(9)
        .with_stations(|_, _| PPersistent::new(0.05))
        .traffic(TrafficSpec::poisson(2000.0).with_queue_frames(cap))
        .build();
    sim.run_for(SimDuration::from_secs(1));
    let stats = sim.stats();
    assert!(
        stats.total_frame_drops() > 100,
        "{}",
        stats.total_frame_drops()
    );
    assert_eq!(stats.max_queue_high_water(), cap as u64);
    for i in 0..3 {
        assert!(sim.queued_frames(i) <= cap);
        let t = &stats.nodes[i].traffic;
        assert!(t.drop_fraction() > 0.0 && t.drop_fraction() < 1.0);
        // Saturated operation: delay is dominated by queueing.
        assert!(t.mean_delay() > SimDuration::from_millis(1));
        assert!(t.mean_jitter() > SimDuration::ZERO);
    }
    // The queue keeps the MAC saturated, so throughput stays healthy.
    assert!(stats.system_throughput_mbps() > 10.0);
}

#[test]
fn frame_conservation_holds_per_station() {
    let topo = Topology::fully_connected(4);
    let phy = PhyParams::table1();
    let mut sim = SimulatorBuilder::new(phy, topo)
        .seed(21)
        .with_stations(|_, _| PPersistent::new(0.03))
        .traffic(TrafficSpec::poisson(400.0).with_queue_frames(8))
        .build();
    sim.run_for(SimDuration::from_secs(1));
    let stats = sim.stats();
    for i in 0..4 {
        let t = &stats.nodes[i].traffic;
        assert_eq!(
            t.queued_at_start + t.arrivals,
            t.delivered + t.drops + sim.queued_frames(i) as u64,
            "station {i}"
        );
    }
    // The invariant also survives a measurement reset mid-run.
    sim.reset_measurements();
    sim.run_for(SimDuration::from_millis(500));
    let stats = sim.stats();
    for i in 0..4 {
        let t = &stats.nodes[i].traffic;
        assert!(t.queued_at_start <= 8);
        assert_eq!(
            t.queued_at_start + t.arrivals,
            t.delivered + t.drops + sim.queued_frames(i) as u64,
            "station {i} after reset"
        );
    }
}

#[test]
fn queue_empty_stations_do_not_contend() {
    // One lonely CBR station at 20 fps: with no competition every frame
    // should take exactly one attempt, and between frames the station
    // must sit in QueueEmpty drawing nothing.
    let topo = Topology::fully_connected(1);
    let phy = PhyParams::table1();
    let mut sim = SimulatorBuilder::new(phy, topo)
        .seed(2)
        .with_stations(|_, _| FixedWindow::new(8))
        .traffic(TrafficSpec {
            arrival: ArrivalProcess::Cbr { rate_fps: 20.0 },
            queue_frames: Some(4),
        })
        .build();
    sim.run_for(SimDuration::from_secs(2));
    let stats = sim.stats();
    let t = &stats.nodes[0].traffic;
    assert!((38..=41).contains(&t.arrivals), "arrivals {}", t.arrivals);
    assert_eq!(stats.nodes[0].attempts, t.delivered);
    assert_eq!(t.drops, 0);
    // Idle between frames: mean delay is a single uncontended access.
    assert!(
        t.mean_delay() < SimDuration::from_millis(1),
        "{}",
        t.mean_delay()
    );
    // The series saw mostly empty queues.
    assert!(stats.throughput_series.iter().all(|s| s.active_nodes <= 1));
}

#[test]
fn mixed_saturated_and_finite_stations_coexist() {
    let topo = Topology::fully_connected(3);
    let phy = PhyParams::table1();
    let mut sim = SimulatorBuilder::new(phy, topo)
        .seed(6)
        .with_stations(|_, _| PPersistent::new(0.05))
        .traffic(TrafficSpec::poisson(30.0))
        .station_arrival(0, ArrivalProcess::Saturated)
        .build();
    sim.run_for(SimDuration::from_secs(2));
    let stats = sim.stats();
    // The saturated station has no traffic bookkeeping but dominates the
    // channel; the finite stations still get their trickle through.
    assert_eq!(stats.nodes[0].traffic.arrivals, 0);
    assert_eq!(sim.queued_frames(0), 0);
    assert!(stats.nodes[0].successes > 1000);
    for i in 1..3 {
        let t = &stats.nodes[i].traffic;
        assert!(t.arrivals > 30, "station {i}: {}", t.arrivals);
        assert!(t.delivered > 0, "station {i}");
    }
}

#[test]
fn saturated_spec_builds_no_traffic_layer() {
    let topo = Topology::fully_connected(2);
    let phy = PhyParams::table1();
    let sim = SimulatorBuilder::new(phy, topo)
        .seed(1)
        .with_stations(|_, _| PPersistent::new(0.05))
        .traffic(TrafficSpec::saturated())
        .build();
    assert!(!sim.has_finite_load());
    assert_eq!(sim.total_queued_frames(), 0);
}

#[test]
fn onoff_bursts_drive_queue_high_water_above_cbr() {
    // Same long-run rate, bursty vs smooth: the MMPP source must show a
    // larger queue high-water mark.
    let run = |arrival: ArrivalProcess| {
        let topo = Topology::fully_connected(2);
        let phy = PhyParams::table1();
        let mut sim = SimulatorBuilder::new(phy, topo)
            .seed(14)
            .with_stations(|_, _| PPersistent::new(0.02))
            .traffic(TrafficSpec {
                arrival,
                queue_frames: None,
            })
            .build();
        sim.run_for(SimDuration::from_secs(3));
        let stats = sim.stats();
        assert_eq!(stats.total_frame_drops(), 0);
        stats.max_queue_high_water()
    };
    let cbr = run(ArrivalProcess::Cbr { rate_fps: 200.0 });
    let bursty = run(ArrivalProcess::OnOff {
        rate_fps: 800.0,
        mean_on: SimDuration::from_millis(50),
        mean_off: SimDuration::from_millis(150),
    });
    assert!(
        bursty > cbr,
        "bursty high-water {bursty} should exceed CBR {cbr}"
    );
}

#[test]
fn finite_load_runs_are_deterministic() {
    let run = || {
        let topo = Topology::fully_connected(6);
        let phy = PhyParams::table1();
        let mut sim = SimulatorBuilder::new(phy, topo)
            .seed(33)
            .with_stations(|_, _| PPersistent::new(0.04))
            .traffic(TrafficSpec::poisson(120.0).with_queue_frames(32))
            .build();
        sim.run_for(SimDuration::from_secs(1));
        let s = sim.stats();
        (
            s.total_frame_arrivals(),
            s.total_frames_delivered(),
            s.total_frame_drops(),
            s.mean_frame_delay(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn deactivation_pauses_arrivals_and_preserves_the_queue() {
    let topo = Topology::fully_connected(2);
    let phy = PhyParams::table1();
    let mut sim = SimulatorBuilder::new(phy, topo)
        .seed(8)
        .with_stations(|_, _| PPersistent::new(0.05))
        .traffic(TrafficSpec::poisson(5000.0).with_queue_frames(64))
        .build();
    sim.run_for(SimDuration::from_millis(100));
    sim.deactivate_station(1);
    let queued = sim.queued_frames(1);
    let arrivals = sim.stats().nodes[1].traffic.arrivals;
    sim.run_for(SimDuration::from_millis(200));
    // No generation and no service while inactive.
    assert_eq!(sim.queued_frames(1), queued);
    assert_eq!(sim.stats().nodes[1].traffic.arrivals, arrivals);
    sim.activate_station(1);
    sim.run_for(SimDuration::from_millis(200));
    assert!(sim.stats().nodes[1].traffic.arrivals > arrivals);
    assert!(sim.stats().nodes[1].traffic.delivered > 0);
}

#[test]
fn airtime_accounts_every_attempt() {
    let topo = Topology::fully_connected(2);
    let phy = PhyParams::table1();
    let data_airtime = phy.data_airtime();
    let mut sim = SimulatorBuilder::new(phy, topo)
        .seed(8)
        .with_stations(|_, _| PPersistent::new(0.05))
        .build();
    sim.run_for(SimDuration::from_secs(1));
    let stats = sim.stats();
    for i in 0..2 {
        let n = &stats.nodes[i];
        // Attempts still in flight at the end of the run have not been
        // credited yet, so airtime lies within one frame of attempts×T.
        let lower = data_airtime * n.attempts.saturating_sub(1);
        let upper = data_airtime * n.attempts;
        assert!(
            n.airtime >= lower && n.airtime <= upper,
            "station {i}: airtime {} vs attempts {}",
            n.airtime,
            n.attempts
        );
        assert!(stats.node_airtime_share(i) > 0.0);
    }
    assert!(stats.total_airtime() > SimDuration::ZERO);
}

// ---------------------------------------------------------------------------
// Checkpoint / resume
// ---------------------------------------------------------------------------

/// Run `straight` and `resumed` to `t_end` and assert they are observably
/// bit-identical: same clock, same event count, same serialized statistics.
fn assert_runs_identical(straight: &mut Simulator, resumed: &mut Simulator, t_end: SimTime) {
    straight.run_until(t_end);
    resumed.run_until(t_end);
    assert_eq!(straight.now(), resumed.now());
    assert_eq!(straight.events_processed(), resumed.events_processed());
    assert_eq!(
        serde_json::to_string(&straight.stats()).unwrap(),
        serde_json::to_string(&resumed.stats()).unwrap(),
    );
}

#[test]
fn checkpoint_resume_is_bit_identical_saturated_dcf() {
    let build = || {
        SimulatorBuilder::new(PhyParams::table1(), Topology::fully_connected(8))
            .seed(11)
            .with_stations(|_, phy| ExponentialBackoff::new(phy))
            .build()
    };
    let mut straight = build();
    let mut source = build();
    // An odd instant, generally inside a busy period.
    source.run_until(SimTime::from_nanos(123_456_789));
    let ckpt = source.checkpoint();
    let mut resumed = build();
    resumed.resume(&ckpt).unwrap();
    assert_eq!(resumed.now(), source.now());
    assert_runs_identical(&mut straight, &mut resumed, SimTime::from_millis(300));
}

#[test]
fn checkpoint_resume_is_bit_identical_under_finite_load() {
    let build = || {
        SimulatorBuilder::new(PhyParams::table1(), Topology::fully_connected(6))
            .seed(29)
            .traffic(TrafficSpec::poisson(400.0).with_queue_frames(16))
            .with_stations(|_, _| PPersistent::new(0.04))
            .build()
    };
    let mut straight = build();
    let mut source = build();
    source.run_until(SimTime::from_nanos(87_654_321));
    let ckpt = source.checkpoint();
    let mut resumed = build();
    resumed.resume(&ckpt).unwrap();
    assert_runs_identical(&mut straight, &mut resumed, SimTime::from_millis(400));
    assert_eq!(
        straight.total_queued_frames(),
        resumed.total_queued_frames()
    );
}

#[test]
fn checkpoint_survives_a_mid_run_measurement_reset() {
    // Checkpoint *before* the warm-up reset; both runs reset at the same
    // instant afterwards, so the measured stats must agree exactly.
    let build = || {
        SimulatorBuilder::new(PhyParams::table1(), Topology::fully_connected(4))
            .seed(5)
            .with_stations(|_, _| PPersistent::new(0.05))
            .build()
    };
    let mut straight = build();
    let mut source = build();
    source.run_until(SimTime::from_millis(40));
    let ckpt = source.checkpoint();
    let mut resumed = build();
    resumed.resume(&ckpt).unwrap();
    assert_eq!(
        resumed.measurement_started_at(),
        source.measurement_started_at()
    );
    for sim in [&mut straight, &mut resumed] {
        sim.run_until(SimTime::from_millis(100));
        sim.reset_measurements();
    }
    assert_eq!(resumed.measurement_started_at(), SimTime::from_millis(100));
    assert_runs_identical(&mut straight, &mut resumed, SimTime::from_millis(350));
}

#[test]
fn resume_rejects_corrupt_and_mismatched_checkpoints() {
    let build = |n: usize| {
        SimulatorBuilder::new(PhyParams::table1(), Topology::fully_connected(n))
            .seed(3)
            .with_stations(|_, phy| ExponentialBackoff::new(phy))
            .build()
    };
    let mut source = build(4);
    source.run_until(SimTime::from_millis(10));
    let ckpt = source.checkpoint();

    // Truncation is an error, not a panic.
    assert!(build(4).resume(&ckpt[..ckpt.len() / 2]).is_err());
    // Garbage is rejected by the magic check.
    assert!(build(4).resume(b"definitely not a checkpoint").is_err());
    // A scenario with a different station count is rejected loudly.
    let err = build(5).resume(&ckpt).unwrap_err();
    assert!(err.to_string().contains("stations"), "{err}");
}

#[test]
fn resume_rejects_checkpoints_from_a_different_policy() {
    let mut source = SimulatorBuilder::new(PhyParams::table1(), Topology::fully_connected(3))
        .seed(7)
        .with_stations(|_, _| PPersistent::new(0.05))
        .build();
    source.run_until(SimTime::from_millis(5));
    let ckpt = source.checkpoint();
    let mut other = SimulatorBuilder::new(PhyParams::table1(), Topology::fully_connected(3))
        .seed(7)
        .with_stations(|_, phy| ExponentialBackoff::new(phy))
        .build();
    let err = other.resume(&ckpt).unwrap_err();
    assert!(err.to_string().contains("policy"), "{err}");
}

fn dcf_cell(n: usize) -> Simulator {
    SimulatorBuilder::new(PhyParams::table1(), Topology::fully_connected(n))
        .seed(1)
        .with_stations(|_, phy| ExponentialBackoff::new(phy))
        .build()
}

#[test]
fn every_single_bit_flip_of_a_checkpoint_is_rejected() {
    let mut source = dcf_cell(10);
    source.run_until(SimTime::from_millis(60));
    let ckpt = source.checkpoint();
    dcf_cell(10).resume(&ckpt).unwrap();
    for byte in 0..ckpt.len() {
        for bit in 0..8 {
            let mut flipped = ckpt.clone();
            flipped[byte] ^= 1 << bit;
            assert!(
                dcf_cell(10).resume(&flipped).is_err(),
                "flip of bit {bit} in byte {byte} of {} resumed",
                ckpt.len()
            );
        }
    }
}

#[test]
fn resume_names_the_version_of_an_older_checkpoint() {
    // A format-v4 header: the length-prefixed magic, then the version.
    let mut v4 = 8u64.to_le_bytes().to_vec();
    v4.extend_from_slice(b"WLANCKPT");
    v4.extend_from_slice(&4u32.to_le_bytes());
    v4.extend_from_slice(&[0; 64]);
    let err = dcf_cell(4).resume(&v4).unwrap_err().to_string();
    assert!(err.contains("v4") && err.contains("v5"), "{err}");
}

#[test]
fn n1000_checkpoint_stays_under_300_kb() {
    let mut sim = dcf_cell(1000);
    sim.run_until(SimTime::from_millis(100));
    let size = sim.checkpoint().len();
    assert!(size < 300_000, "N = 1000 checkpoint is {size} B");
}

// ---------------------------------------------------------------------------
// Clique sensing path vs per-station sensing path
// ---------------------------------------------------------------------------

mod clique_equivalence {
    //! The clique path must be an exact stand-in for the per-station path:
    //! the same scenario built both ways (the per-station one forced through
    //! the builder's test hook) must process the same events and produce
    //! byte-identical statistics, including across mid-run activations and
    //! deactivations with frames on the air.
    use super::*;
    use crate::backoff::RandomReset;
    use crate::idlesense::{IdleSenseConfig, IdleSensePolicy};
    use proptest::prelude::*;

    fn policy(kind: u8, node: NodeId, phy: &PhyParams) -> Policy {
        match kind % 6 {
            0 => ExponentialBackoff::new(phy).into(),
            1 => PPersistent::new(0.08).into(),
            2 => RandomReset::new(phy, 1, 0.6).into(),
            3 => FixedWindow::new(6).into(),
            4 => IdleSensePolicy::new(IdleSenseConfig::for_phy(phy)).into(),
            // Weighted static p-persistent: Lemma 1 gives each weight its
            // own attempt probability, so a resume redraws several `ln q`
            // classes.
            _ => {
                let weight = [1.0, 2.0, 0.5][node % 3];
                PPersistent::with_weight(PPersistent::weighted_probability(0.08, weight), weight)
                    .into()
            }
        }
    }

    #[derive(Debug)]
    struct Case {
        n: usize,
        kind: u8,
        mixed: bool,
        sir: Option<f64>,
        fer: f64,
        poisson: bool,
        /// Place the stations in a 10 m disc (still a clique: at most 20 m
        /// apart) instead of on the 8 m ring, so capture sees unequal powers.
        disc: bool,
        seed: u64,
    }

    fn build(case: &Case, per_station: bool) -> Simulator {
        let phy = PhyParams::table1();
        let capture = case.sir.map(|sir_threshold| CaptureModel {
            sir_threshold,
            ..CaptureModel::default_indoor()
        });
        let topology = if case.disc {
            let mut rng = ChaCha8Rng::seed_from_u64(case.seed);
            Topology::uniform_disc(case.n, 10.0, &mut rng)
        } else {
            Topology::fully_connected(case.n)
        };
        let mut builder = SimulatorBuilder::new(phy, topology)
            .seed(case.seed)
            .with_stations(|i, phy| {
                let kind = if case.mixed {
                    case.kind + i as u8
                } else {
                    case.kind
                };
                policy(kind, i, phy)
            })
            .capture_model(capture)
            .frame_error_rate(case.fer);
        if case.poisson {
            builder = builder.traffic(TrafficSpec::poisson(900.0).with_queue_frames(4));
        }
        if per_station {
            builder = builder.per_station_sensing();
        }
        let sim = builder.build();
        assert_eq!(
            sim.sim.component(sim.mac).clique.is_some(),
            !per_station,
            "a fully connected cell builds the clique path unless forced off"
        );
        sim
    }

    fn fingerprint(sim: &Simulator) -> (SimTime, u64, usize, String) {
        (
            sim.now(),
            sim.events_processed(),
            sim.active_stations(),
            serde_json::to_string(&sim.stats()).unwrap(),
        )
    }

    /// Drive both builds through the same steps, comparing after each one.
    /// A step either runs for a while (microseconds to milliseconds, so it
    /// ends inside busy periods and ACKs as often as between them) or
    /// toggles one station's membership, including while that station's own
    /// frame is on the air.
    fn check(case: &Case, steps: &[(u8, u16)]) {
        let mut clique = build(case, false);
        let mut reference = build(case, true);
        for (i, &(op, arg)) in steps.iter().enumerate() {
            let node = arg as usize % case.n;
            for sim in [&mut clique, &mut reference] {
                match op % 4 {
                    0 => sim.run_for(SimDuration::from_micros(u64::from(arg) % 97 + 1)),
                    1 => sim.run_for(SimDuration::from_micros(u64::from(arg) * 7)),
                    2 if sim.sim.component(sim.mac).stations.is_active(node) => {
                        sim.deactivate_station(node)
                    }
                    2 => sim.activate_station(node),
                    _ => sim.run_for(SimDuration::from_millis(u64::from(arg) % 5)),
                }
            }
            prop_assert_eq!(
                fingerprint(&clique),
                fingerprint(&reference),
                "{:?} diverged after step {} of {:?}",
                case,
                i,
                steps
            );
        }
        clique.run_for(SimDuration::from_millis(20));
        reference.run_for(SimDuration::from_millis(20));
        prop_assert_eq!(fingerprint(&clique), fingerprint(&reference), "{:?}", case);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn clique_path_matches_per_station_path(
            n_idx in 0usize..6,
            kind in 0u8..6,
            mixed in any::<bool>(),
            sir_idx in 0usize..4,
            lossy in any::<bool>(),
            poisson in any::<bool>(),
            disc in any::<bool>(),
            seed in 1u64..10_000,
            steps in proptest::collection::vec((0u8..4, 0u16..2000), 1..40),
        ) {
            let case = Case {
                n: [1, 2, 3, 64, 65, 130][n_idx],
                kind,
                mixed,
                sir: [None, Some(0.5), Some(1.0), Some(2.0)][sir_idx],
                fer: if lossy { 0.2 } else { 0.0 },
                poisson,
                disc,
                seed,
            };
            check(&case, &steps);
        }
    }

    /// A case the random search found to separate a mis-numbered walk
    /// (detached stations arming with colliding sequence numbers): stations
    /// with small fixed windows under Poisson load tie on expiry instants.
    #[test]
    fn clique_path_matches_on_same_instant_expiries() {
        let case = Case {
            n: 64,
            kind: 3,
            mixed: false,
            sir: Some(1.0),
            fer: 0.0,
            poisson: true,
            disc: false,
            seed: 6998,
        };
        let steps = [
            (2, 1683),
            (1, 1561),
            (3, 1766),
            (3, 1976),
            (0, 1264),
            (1, 1797),
            (2, 1884),
            (3, 643),
            (3, 510),
            (1, 943),
        ];
        check(&case, &steps);
    }

    /// On either sensing path the kernel's backoff tier holds the earliest
    /// backoff timer only, and the MAC's cancel-and-rearm churn stays out
    /// of it: the tier arms about one timer per timer that fires.
    #[test]
    fn the_backoff_tier_holds_only_the_earliest_timer() {
        let disc = Topology::uniform_disc(64, 20.0, &mut ChaCha8Rng::seed_from_u64(5));
        for (topology, clique) in [(disc, false), (Topology::fully_connected(64), true)] {
            let mut sim = SimulatorBuilder::new(PhyParams::table1(), topology)
                .seed(5)
                .with_stations(|_, phy| ExponentialBackoff::new(phy))
                .build();
            assert_eq!(sim.sim.component(sim.mac).clique.is_some(), clique);
            sim.enable_metrics();
            for ms in 1..=200 {
                sim.run_for(SimDuration::from_millis(1));
                let tier = sim.metrics_report().unwrap().kernel.tiers[0];
                assert!(
                    tier.armed <= 1,
                    "clique {clique}: {} backoff timers armed in the kernel at {ms} ms",
                    tier.armed
                );
            }
            let tier = sim.metrics_report().unwrap().kernel.tiers[0];
            assert!(tier.fires > 1000, "clique {clique}: {} fires", tier.fires);
            assert!(
                tier.arms <= 2 * tier.fires,
                "clique {clique}: the backoff tier armed {} timers for {} fires",
                tier.arms,
                tier.fires
            );
        }
    }

    #[test]
    fn hidden_pairs_keep_the_per_station_path() {
        let mut topo = Topology::fully_connected(4);
        topo.set_senses(0, 3, false);
        let sim = quick_sim(4, topo, 0.05, 1);
        assert!(sim.sim.component(sim.mac).clique.is_none());
    }

    #[test]
    fn clique_checkpoints_resume_bit_identically_mid_busy_period() {
        let case = Case {
            n: 64,
            kind: 1,
            mixed: true,
            sir: Some(1.0),
            fer: 0.1,
            poisson: true,
            disc: true,
            seed: 41,
        };
        // A chain of checkpoint -> fresh simulator steps 1.2-1.7 ms apart:
        // most land inside a busy period or an ACK.
        let mut straight = build(&case, false);
        let mut chained = build(&case, false);
        let mut at = SimTime::ZERO;
        for step in 0..40u64 {
            at += SimDuration::from_micros(1_237 + 13 * step);
            chained.run_until(at);
            let mut fresh = build(&case, false);
            fresh.resume(&chained.checkpoint()).unwrap();
            chained = fresh;
        }
        assert_runs_identical(&mut straight, &mut chained, SimTime::from_millis(120));
    }
}
