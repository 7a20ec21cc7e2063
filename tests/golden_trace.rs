//! Golden-trace equivalence suite for the simulator hot path.
//!
//! Every `Protocol` is run on a fully-connected and a hidden-node topology at a
//! fixed seed, and the resulting `ScenarioResult` must serialise **byte for
//! byte** to the fixtures committed under `tests/golden/`. The fixtures were
//! generated before the hot-path refactor (adjacency lists, enum dispatch,
//! transmission slab), so these tests pin the refactored engine to the exact
//! event ordering and RNG stream of the original O(N)-scan implementation.
//!
//! To regenerate the fixtures after an *intentional* behaviour change:
//!
//! ```text
//! WLAN_GOLDEN_REGEN=1 cargo test --release --test golden_trace
//! ```
//!
//! and commit the diff under `tests/golden/` together with an explanation of
//! why the trace legitimately changed.
//!
//! Beside the results, `tests/golden/event_digests.json` pins each case's
//! event stream: the kernel's digest of the time, target component, kind and
//! payload identity (station or transmission) of every dispatched event
//! (sequence numbers excluded, so a change that only renumbers them keeps
//! it). A result can survive a reordered or shifted event by luck; the
//! digest cannot. The same regeneration command rewrites it.

use wlan_sa::{Protocol, Scenario, SimDuration, TopologySpec, TrafficSpec};

/// The scenario grid the fixtures cover: every protocol on both topology
/// classes. Short runs keep the suite fast; equivalence does not require the
/// adaptive controllers to converge, only that every code path draws the same
/// random numbers in the same order.
fn cases() -> Vec<(&'static str, Scenario)> {
    let protocols: Vec<(&'static str, Protocol)> = vec![
        ("standard80211", Protocol::Standard80211),
        ("idlesense", Protocol::IdleSense),
        ("wtop", Protocol::WTopCsma),
        ("tora", Protocol::ToraCsma),
        (
            "static_ppersistent",
            Protocol::StaticPPersistent { p: 0.03 },
        ),
        (
            "static_randomreset",
            Protocol::StaticRandomReset { stage: 1, p0: 0.6 },
        ),
    ];
    let topologies: Vec<(&'static str, TopologySpec)> = vec![
        ("fully_connected", TopologySpec::FullyConnected),
        ("hidden_disc20", TopologySpec::UniformDisc { radius: 20.0 }),
    ];
    let mut cases = Vec::new();
    for (pname, proto) in &protocols {
        for (tname, topo) in &topologies {
            let scenario = Scenario::new(*proto, topo.clone(), 8)
                .seed(7)
                .durations(SimDuration::from_millis(300), SimDuration::from_millis(700))
                .update_period(SimDuration::from_millis(50));
            cases.push((
                Box::leak(format!("{pname}_{tname}").into_boxed_str()) as &'static str,
                scenario,
            ));
        }
    }
    // The finite-load fixture: Poisson offered load at roughly half the
    // 8-station capacity into small bounded queues. Pins the traffic
    // subsystem — arrival tier, QueueEmpty lifecycle, delay accounting and
    // the serialised `traffic` summary — the same way the saturated grid
    // pins the engine hot path.
    cases.push((
        "standard80211_finite_poisson",
        Scenario::new(Protocol::Standard80211, TopologySpec::FullyConnected, 8)
            .seed(7)
            .durations(SimDuration::from_millis(300), SimDuration::from_millis(700))
            .update_period(SimDuration::from_millis(50))
            .traffic(TrafficSpec::poisson(250.0).with_queue_frames(16)),
    ));
    // Fully connected N = 300: dozens of stations on air in one busy
    // period (wTOP and TORA start far above the optimal attempt rate), so
    // k-way collisions, zero-slot countdowns left armed through an ACK and
    // same-instant ties are all exercised at scale. The N = 8 cases above
    // never put more than a few stations on air.
    let large: Vec<(&'static str, Protocol)> = vec![
        ("standard80211", Protocol::Standard80211),
        ("idlesense", Protocol::IdleSense),
        ("wtop", Protocol::WTopCsma),
        ("tora", Protocol::ToraCsma),
        (
            "static_ppersistent",
            Protocol::StaticPPersistent { p: 0.01 },
        ),
    ];
    // The same five on the paper's 20 m disc at N = 300: the per-station
    // sensing path with multi-word sensing rows (five 64-bit words per
    // station) and busy counts well past 16, which the N = 8 disc cases
    // above never reach.
    let topologies = [
        ("fully_connected_n300", TopologySpec::FullyConnected),
        (
            "hidden_disc20_n300",
            TopologySpec::UniformDisc { radius: 20.0 },
        ),
    ];
    for (tname, topo) in &topologies {
        for (pname, proto) in &large {
            cases.push((
                Box::leak(format!("{pname}_{tname}").into_boxed_str()) as &'static str,
                Scenario::new(*proto, topo.clone(), 300)
                    .seed(11)
                    .durations(SimDuration::from_millis(40), SimDuration::from_millis(80))
                    .update_period(SimDuration::from_millis(20)),
            ));
        }
    }
    cases
}

fn golden_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

fn regenerating() -> bool {
    std::env::var("WLAN_GOLDEN_REGEN")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// The committed event-stream digests, by case name, as hex strings.
type Digests = std::collections::BTreeMap<String, String>;

fn digests_path() -> std::path::PathBuf {
    golden_dir().join("event_digests.json")
}

#[test]
fn scenario_results_match_pre_refactor_fixtures() {
    let regen = regenerating();
    let dir = golden_dir();
    if regen {
        std::fs::create_dir_all(&dir).expect("create tests/golden");
    }
    let mut failures = Vec::new();
    for (name, scenario) in cases() {
        let result = scenario.run();
        let json = serde_json::to_string_pretty(&result).expect("serialise ScenarioResult");
        let path = dir.join(format!("{name}.json"));
        if regen {
            std::fs::write(&path, &json).expect("write fixture");
            eprintln!("regenerated {}", path.display());
            continue;
        }
        let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing fixture {} ({e}); run with WLAN_GOLDEN_REGEN=1",
                path.display()
            )
        });
        if json != expected {
            failures.push(name);
        }
    }
    assert!(
        failures.is_empty(),
        "ScenarioResult diverged from pre-refactor golden fixtures for: {failures:?}\n\
         The refactored engine must preserve the exact event ordering and RNG draw\n\
         order of the original implementation (see docs/ARCHITECTURE.md, the\n\
         determinism contract)."
    );
}

/// The telemetry layer's zero-perturbation contract, checked end to end: every
/// golden case re-run with observability at maximum verbosity — kernel
/// dispatch counters on *and* the wall-clock self-profiler sampling every
/// single event — must serialise byte-for-byte to the same fixture as the
/// uninstrumented run. Telemetry draws no RNG and schedules nothing, so the
/// `(time, seq)` order and every statistic are untouched. The same runs
/// check each case's event-stream digest against `event_digests.json`.
#[test]
fn telemetry_at_max_verbosity_is_byte_identical_to_fixtures() {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    let regen = regenerating();
    let dir = golden_dir();
    let expected_digests: Digests = if regen {
        Digests::new()
    } else {
        let path = digests_path();
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing {} ({e}); run with WLAN_GOLDEN_REGEN=1",
                path.display()
            )
        });
        serde_json::from_str(&text).expect("parse event_digests.json")
    };
    let mut digests = Digests::new();
    let mut digest_failures = Vec::new();
    let mut failures = Vec::new();
    for (name, scenario) in cases() {
        let samples = Arc::new(AtomicU64::new(0));
        let sink_samples = Arc::clone(&samples);
        let mut sim = scenario.build_simulator();
        sim.enable_metrics();
        sim.set_profiler(
            1,
            Box::new(move |_sample| {
                sink_samples.fetch_add(1, Ordering::Relaxed);
            }),
        );
        scenario.advance_until(&mut sim, scenario.end_time());
        let report = sim.metrics_report().expect("metrics were enabled");
        let digest = format!("{:016x}", report.kernel.event_digest);
        if !regen {
            if expected_digests.get(name) != Some(&digest) {
                digest_failures.push(name);
            }
            let result = scenario.collect(&sim);
            let json = serde_json::to_string_pretty(&result).expect("serialise ScenarioResult");
            let path = dir.join(format!("{name}.json"));
            let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                panic!(
                    "missing fixture {} ({e}); run with WLAN_GOLDEN_REGEN=1",
                    path.display()
                )
            });
            if json != expected {
                failures.push(name);
            }
        }
        digests.insert(name.to_string(), digest);
        // The instrumentation really was live: the dispatch registry saw
        // every event and the profiler (sampling every event, scheduler and
        // handler timed separately) streamed two samples per event.
        let processed = report.kernel.events_processed;
        assert!(processed > 0, "{name}: no events counted");
        let dispatched: u64 = report.kernel.dispatch.iter().map(|d| d.total).sum();
        assert_eq!(dispatched, processed, "{name}: dispatch rows disagree");
        assert_eq!(
            samples.load(Ordering::Relaxed),
            2 * processed,
            "{name}: profiler sample count"
        );
        assert!(report.tx_slab_high_water > 0, "{name}: slab untouched");
    }
    if regen {
        let json = serde_json::to_string_pretty(&digests).expect("serialise digests");
        std::fs::write(digests_path(), json + "\n").expect("write event_digests.json");
        eprintln!("regenerated {}", digests_path().display());
        return;
    }
    assert_eq!(
        digests.len(),
        expected_digests.len(),
        "event_digests.json names other cases than the suite runs"
    );
    assert!(
        digest_failures.is_empty(),
        "the dispatched event stream diverged from tests/golden/event_digests.json for: \
         {digest_failures:?}\nSome event ran at another instant, in another order, at \
         another component, or was added or dropped (sequence numbers are not hashed)."
    );
    assert!(
        failures.is_empty(),
        "telemetry at max verbosity perturbed the trace for: {failures:?}\n\
         Observability must be a pure observer: no RNG draws, no scheduling,\n\
         no `(time, seq)` consumption (see crates/des/src/metrics.rs)."
    );
}
