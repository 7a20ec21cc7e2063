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
//!
//! Equal results could still hide a reorder of events, so every test also
//! compares the dispatched-event stream of each resumed segment: kernel
//! metrics are enabled on the uninterrupted simulator at the checkpoint
//! instant and on the resumed one right after `resume`, and both registries'
//! event digests and dispatch counts must agree at the segment's end.

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

/// Checkpoint `sim` and restore the snapshot into a **fresh** simulator (as
/// a separate process would), with kernel metrics on from the resume.
fn resumed(scenario: &Scenario, sim: &Simulator) -> Simulator {
    let snapshot = sim.checkpoint();
    let mut fresh = scenario.build_simulator();
    fresh
        .resume(&snapshot)
        .expect("a snapshot the engine just wrote must resume");
    fresh.enable_metrics();
    fresh
}

/// The events `sim` dispatched since its kernel metrics were enabled: their
/// digest and count, with the simulator's lifetime event count.
fn stream(sim: &Simulator) -> (u64, u64, u64) {
    let kernel = sim.metrics_report().expect("metrics enabled").kernel;
    let dispatched = kernel.dispatch.iter().map(|d| d.total).sum();
    (kernel.event_digest, dispatched, sim.events_processed())
}

/// Run `scenario` to `checkpoint_at`, then to its end: in the same simulator
/// for the straight run, or, for the resumed one, in a fresh simulator that
/// resumed a checkpoint taken there. Returns the result and the event stream
/// dispatched after `checkpoint_at`.
fn split_run(
    scenario: &Scenario,
    checkpoint_at: SimTime,
    resume: bool,
) -> (String, (u64, u64, u64)) {
    let mut sim = scenario.build_simulator();
    scenario.advance_until(&mut sim, checkpoint_at);
    if resume {
        sim = resumed(scenario, &sim);
    } else {
        sim.enable_metrics();
    }
    scenario.advance_until(&mut sim, scenario.end_time());
    (json(&scenario.collect(&sim)), stream(&sim))
}

fn json(result: &ScenarioResult) -> String {
    serde_json::to_string(result).expect("serialise result")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random protocol × topology × traffic × seed × checkpoint instant:
    /// the resumed run must serialise byte-identically to the straight run
    /// and dispatch the same events after the checkpoint.
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
        let straight = split_run(&s, checkpoint_at, false);
        let resumed = split_run(&s, checkpoint_at, true);
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
            split_run(&s, mid_warmup, false),
            split_run(&s, mid_warmup, true),
            "{:?}: checkpoint during warm-up broke the measurement reset",
            protocol(proto_idx)
        );
    }
}

/// A dense chain of checkpoint → restore-into-fresh-simulator steps across a
/// saturated run. With a snapshot every 1.3 ms of a cell whose channel is
/// essentially always busy, many snapshots necessarily land inside a busy
/// period (mid-transmission, pending ACK timers, half-elapsed backoffs); the
/// final result must still match the uninterrupted run byte for byte, and
/// each segment must dispatch the events the uninterrupted run dispatches
/// over the same interval.
#[test]
fn chained_checkpoints_inside_busy_periods_are_byte_identical() {
    let s = scenario(0, 0, 6, 7, false);
    let end = s.end_time();
    let step = SimDuration::from_micros(1300);
    let mut straight = s.build_simulator();
    let mut sim = s.build_simulator();
    let mut snapshots = 0u32;
    while sim.now() < end {
        let next = (sim.now() + step).min(end);
        s.advance_until(&mut straight, next);
        s.advance_until(&mut sim, next);
        if snapshots > 0 {
            assert_eq!(
                stream(&straight),
                stream(&sim),
                "segment {snapshots} of the chain, ending at {next}"
            );
        }
        if sim.now() < end {
            sim = resumed(&s, &sim);
            straight.enable_metrics();
            snapshots += 1;
        }
    }
    assert!(snapshots > 50, "the chain must actually checkpoint densely");
    assert_eq!(
        json(&s.collect(&straight)),
        json(&s.collect(&sim)),
        "a chain of {snapshots} checkpoint/restore steps diverged from the straight run"
    );
}

/// Fully connected N = 200 runs on the clique sensing path with many
/// stations on the air at once. Each run is checkpointed first with at
/// least three frames on the air (a k-way collision), then while the AP's
/// ACK is on the air; each snapshot resumes into a fresh simulator, and the
/// run must end byte-identical to the straight one, each resumed segment
/// dispatching the straight run's events. 802.11 keeps frozen counters
/// across the freeze; static p-persistent redraws on every resume.
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
        let end = s.end_time();
        let mut straight = s.build_simulator();
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
            s.advance_until(&mut straight, sim.now());
            if sim.metrics_enabled() {
                assert_eq!(
                    stream(&straight),
                    stream(&sim),
                    "{protocol:?}: the segment before {what} on the air"
                );
            }
            sim = resumed(&s, &sim);
            straight.enable_metrics();
        }
        s.advance_until(&mut straight, end);
        s.advance_until(&mut sim, end);
        assert_eq!(
            stream(&straight),
            stream(&sim),
            "{protocol:?}: the segment after an ACK on the air"
        );
        assert_eq!(
            json(&s.collect(&straight)),
            json(&s.collect(&sim)),
            "{protocol:?}: resuming mid-collision and mid-ACK diverged"
        );
    }
}

/// A checkpoint holds its streams' positions, not their keys: it continues
/// only in a build whose streams were keyed from the same seed. A seed-1
/// checkpoint resumed into a seed-2 build of the same scenario is an error
/// naming both seeds, on a clique and on the 20 m disc, where the seed also
/// placed the stations.
#[test]
fn resume_rejects_a_checkpoint_of_another_seed() {
    for topology in [
        TopologySpec::FullyConnected,
        TopologySpec::UniformDisc { radius: 20.0 },
    ] {
        let build = |seed| {
            Scenario::new(Protocol::Standard80211, topology.clone(), 50)
                .durations(SimDuration::from_millis(10), SimDuration::from_millis(30))
                .seed(seed)
                .build_simulator()
        };
        let mut source = build(1);
        source.run_until(SimTime::from_millis(20));
        let ckpt = source.checkpoint();
        let err = build(2).resume(&ckpt).unwrap_err().to_string();
        assert!(
            err.contains("seed-1") && err.contains("seed 2"),
            "{topology:?}: {err}"
        );
        build(1).resume(&ckpt).unwrap();
    }
}

/// 64-bit FNV-1a of `bytes`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The bytes of three small checkpoints taken at a fixed instant, pinned
/// beside the format version in their header: 802.11 on a clique, wTOP-CSMA
/// on the 20 m disc and a Poisson finite-load TORA-CSMA cell on the 8 m
/// ring. `checkpoint_resume`'s other tests round-trip within one build, so
/// only this one notices a layout change that kept the version: such a
/// change must bump `CHECKPOINT_VERSION` in `crates/sim/src/engine/snapshot.rs`,
/// and a bump re-records these pins.
#[test]
fn checkpoint_bytes_are_pinned_beside_their_format_version() {
    // (version, length, FNV-1a) of each checkpoint.
    let pins: [(&str, Scenario, (u32, usize, u64)); 3] = [
        (
            "802.11 on a clique",
            Scenario::new(Protocol::Standard80211, TopologySpec::FullyConnected, 10),
            (9, 2_710, 0x8dd0_f213_6713_836b),
        ),
        (
            "wTOP-CSMA on the 20 m disc",
            Scenario::new(
                Protocol::WTopCsma,
                TopologySpec::UniformDisc { radius: 20.0 },
                20,
            ),
            (9, 5_279, 0xf789_e120_c37f_be62),
        ),
        (
            "Poisson TORA-CSMA on the 8 m ring",
            Scenario::new(Protocol::ToraCsma, TopologySpec::Ring { radius: 8.0 }, 8)
                .traffic(TrafficSpec::poisson(300.0).with_queue_frames(16)),
            (9, 8_915, 0xc1c0_4271_4a5f_9620),
        ),
    ];
    for (name, scenario, pin) in pins {
        let s = scenario
            .durations(SimDuration::from_millis(20), SimDuration::from_millis(60))
            .update_period(SimDuration::from_millis(10))
            .seed(3);
        let mut sim = s.build_simulator();
        s.advance_until(&mut sim, SimTime::from_millis(50));
        let bytes = sim.checkpoint();
        let version = u32::from_le_bytes(bytes[16..20].try_into().expect("a header"));
        assert_eq!(
            (version, bytes.len(), fnv1a64(&bytes)),
            pin,
            "{name}: the checkpoint's (version, length, FNV-1a) changed. A change to \
             the byte layout must bump CHECKPOINT_VERSION in \
             crates/sim/src/engine/snapshot.rs; then re-record these pins"
        );
    }
}
