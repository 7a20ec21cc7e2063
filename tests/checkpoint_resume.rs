//! Checkpoint/resume equivalence: the engine's contract is that
//! `Simulator::checkpoint()` + `Simulator::resume()` splits a run into two
//! processes with **no observable effect** — every metric, series and trace
//! of the resumed run is byte-identical to the straight-through run. This is
//! what makes the campaign server's snapshots trustworthy: a job interrupted
//! and resumed reports exactly what an uninterrupted job would have.
//!
//! The property is exercised across all six protocols, saturated and
//! finite-load traffic, hidden-terminal topologies, and checkpoint instants
//! drawn from the whole run — including inside the warm-up (where the
//! `reset_measurements` call is still pending at resume time) and inside
//! busy periods (a saturated cell keeps the channel almost always busy, so a
//! dense checkpoint chain necessarily snapshots mid-transmission).

use proptest::prelude::*;
use wlan_sa::core::{Protocol, Scenario, ScenarioResult, TopologySpec};
use wlan_sa::sim::{SimDuration, SimTime, Simulator, TrafficSpec};

fn protocol(idx: usize) -> Protocol {
    match idx % 6 {
        0 => Protocol::Standard80211,
        1 => Protocol::IdleSense,
        2 => Protocol::WTopCsma,
        3 => Protocol::ToraCsma,
        4 => Protocol::StaticPPersistent { p: 0.04 },
        _ => Protocol::StaticRandomReset { stage: 1, p0: 0.6 },
    }
}

fn topology(idx: usize) -> TopologySpec {
    match idx % 3 {
        0 => TopologySpec::FullyConnected,
        1 => TopologySpec::Ring { radius: 8.0 },
        _ => TopologySpec::UniformDisc { radius: 16.0 },
    }
}

fn scenario(proto_idx: usize, topo_idx: usize, n: usize, seed: u64, finite_load: bool) -> Scenario {
    let mut s = Scenario::new(protocol(proto_idx), topology(topo_idx), n)
        .durations(SimDuration::from_millis(30), SimDuration::from_millis(90))
        .update_period(SimDuration::from_millis(15))
        .seed(seed);
    if finite_load {
        s = s.traffic(TrafficSpec::poisson(300.0).with_queue_frames(16));
    }
    s
}

/// Run `scenario` to `checkpoint_at`, snapshot, restore the snapshot into a
/// **fresh** simulator (as a separate process would), and finish the run
/// there.
fn resumed_run(scenario: &Scenario, checkpoint_at: SimTime) -> ScenarioResult {
    let mut first = scenario.build_simulator();
    scenario.advance_until(&mut first, checkpoint_at);
    let snapshot = first.checkpoint();
    drop(first);
    let mut second = scenario.build_simulator();
    second
        .resume(&snapshot)
        .expect("a snapshot the engine just wrote must resume");
    scenario.advance_until(&mut second, scenario.end_time());
    scenario.collect(&second)
}

fn json(result: &ScenarioResult) -> String {
    serde_json::to_string(result).expect("serialise result")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random protocol × topology × traffic × seed × checkpoint instant:
    /// the resumed run must serialise byte-identically to the straight run.
    /// Checkpoint fractions below 25% land inside the warm-up, so the
    /// pending mid-run `reset_measurements` is part of the sampled space.
    #[test]
    fn resume_is_byte_identical_to_straight_through(
        proto_idx in 0usize..6,
        topo_idx in 0usize..3,
        n in 3usize..6,
        seed in 1u64..10_000,
        finite_load in any::<bool>(),
        frac_permille in 10u32..990,
    ) {
        let s = scenario(proto_idx, topo_idx, n, seed, finite_load);
        let end = s.end_time();
        let checkpoint_at = SimTime::ZERO
            + SimDuration::from_secs_f64(end.as_secs_f64() * frac_permille as f64 / 1000.0);
        let straight = json(&s.run());
        let resumed = json(&resumed_run(&s, checkpoint_at));
        prop_assert_eq!(
            straight,
            resumed,
            "resume diverged: protocol {:?}, topology {:?}, n {}, seed {}, finite_load {}, checkpoint at {}‰",
            protocol(proto_idx),
            topology(topo_idx),
            n,
            seed,
            finite_load,
            frac_permille
        );
    }
}

/// Checkpointing inside the warm-up must preserve the *pending*
/// `reset_measurements`: the resumed simulator still has to zero its
/// statistics at the warm-up boundary, or every counter in the result
/// shifts. One deterministic case per protocol.
#[test]
fn checkpoint_during_warmup_preserves_the_pending_measurement_reset() {
    for proto_idx in 0..6 {
        let s = scenario(proto_idx, 0, 5, 11, false);
        let mid_warmup = SimTime::ZERO + SimDuration::from_millis(15);
        assert_eq!(
            json(&s.run()),
            json(&resumed_run(&s, mid_warmup)),
            "{:?}: checkpoint during warm-up broke the measurement reset",
            protocol(proto_idx)
        );
    }
}

/// A dense chain of checkpoint → restore-into-fresh-simulator steps across a
/// saturated run. With a snapshot every 1.3 ms of a cell whose channel is
/// essentially always busy, many snapshots necessarily land inside a busy
/// period (mid-transmission, pending ACK timers, half-elapsed backoffs); the
/// final result must still match the uninterrupted run byte for byte.
#[test]
fn chained_checkpoints_inside_busy_periods_are_byte_identical() {
    let s = scenario(0, 0, 6, 7, false);
    let straight = json(&s.run());
    let end = s.end_time();
    let step = SimDuration::from_micros(1300);
    let mut sim = s.build_simulator();
    let mut snapshots = 0u32;
    while sim.now() < end {
        let next = (sim.now() + step).min(end);
        s.advance_until(&mut sim, next);
        if sim.now() < end {
            let snapshot = sim.checkpoint();
            let mut fresh = s.build_simulator();
            fresh.resume(&snapshot).expect("chain snapshot must resume");
            sim = fresh;
            snapshots += 1;
        }
    }
    assert!(snapshots > 50, "the chain must actually checkpoint densely");
    assert_eq!(
        straight,
        json(&s.collect(&sim)),
        "a chain of {snapshots} checkpoint/restore steps diverged from the straight run"
    );
}

/// Fully connected N = 200 runs on the clique sensing path with many
/// stations on the air at once. Each run is checkpointed first with at
/// least three frames on the air (a k-way collision), then while the AP's
/// ACK is on the air; each snapshot resumes into a fresh simulator, and the
/// run must end byte-identical to the straight one. 802.11 keeps frozen
/// counters across the freeze; static p-persistent redraws on every resume.
#[test]
fn clique_checkpoints_mid_collision_and_mid_ack_are_byte_identical() {
    let protocols = [
        Protocol::Standard80211,
        Protocol::StaticPPersistent { p: 0.01 },
    ];
    for protocol in protocols {
        let s = Scenario::new(protocol, TopologySpec::FullyConnected, 200)
            .durations(SimDuration::from_millis(20), SimDuration::from_millis(60))
            .update_period(SimDuration::from_millis(20))
            .seed(5);
        let straight = json(&s.run());
        let end = s.end_time();
        let mut sim = s.build_simulator();
        for what in ["three frames", "an ACK"] {
            let found = |sim: &Simulator| match what {
                "an ACK" => sim.ack_on_air(),
                _ => sim.frames_on_air() >= 3,
            };
            while !found(&sim) {
                assert!(sim.now() < end, "{protocol:?}: never {what} on the air");
                let next = sim.now() + SimDuration::from_micros(1);
                s.advance_until(&mut sim, next);
            }
            let snapshot = sim.checkpoint();
            sim = s.build_simulator();
            sim.resume(&snapshot)
                .expect("a snapshot the engine just wrote must resume");
        }
        s.advance_until(&mut sim, end);
        assert_eq!(
            straight,
            json(&s.collect(&sim)),
            "{protocol:?}: resuming mid-collision and mid-ACK diverged"
        );
    }
}
