//! Determinism smoke tests: the discrete-event engine is specified to be fully
//! deterministic for a given seed, which everything else relies on — averaged
//! figure sweeps, the property tests' reproducibility, and regression
//! comparisons between PRs.
//!
//! Every run has the kernel's metrics registry on, so beside the result bits
//! the tests compare the digest of the dispatched event stream: equal results
//! could still hide events run in another order.

use wlan_sa::core::{Protocol, Scenario, TopologySpec};
use wlan_sa::sim::SimDuration;

/// Run the scenario to its end with kernel metrics on; return the result and
/// the digest of every event dispatched.
fn run_once(
    protocol: Protocol,
    topology: TopologySpec,
    seed: u64,
) -> (wlan_sa::ScenarioResult, u64) {
    let scenario = Scenario::new(protocol, topology, 8)
        .durations(SimDuration::from_millis(200), SimDuration::from_millis(400))
        .seed(seed);
    let mut sim = scenario.build_simulator();
    sim.enable_metrics();
    scenario.advance_until(&mut sim, scenario.end_time());
    let report = sim.metrics_report().expect("metrics were enabled");
    (scenario.collect(&sim), report.kernel.event_digest)
}

fn cases() -> [(Protocol, TopologySpec); 3] {
    [
        (Protocol::Standard80211, TopologySpec::FullyConnected),
        (Protocol::WTopCsma, TopologySpec::FullyConnected),
        (
            Protocol::ToraCsma,
            TopologySpec::UniformDisc { radius: 16.0 },
        ),
    ]
}

/// Two runs with the same seed must agree bit-for-bit on every metric,
/// including the full per-station and time-series vectors, and dispatch the
/// same event stream.
#[test]
fn same_seed_is_bit_identical() {
    for (protocol, topology) in cases() {
        let (a, digest_a) = run_once(protocol, topology.clone(), 12345);
        let (b, digest_b) = run_once(protocol, topology.clone(), 12345);
        assert_eq!(digest_a, digest_b, "{protocol:?}: event streams differ");
        assert_eq!(a.throughput_mbps.to_bits(), b.throughput_mbps.to_bits());
        assert_eq!(a.per_node_mbps.len(), b.per_node_mbps.len());
        for (x, y) in a.per_node_mbps.iter().zip(&b.per_node_mbps) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert_eq!(a.avg_idle_slots.to_bits(), b.avg_idle_slots.to_bits());
        assert_eq!(
            a.collision_fraction.to_bits(),
            b.collision_fraction.to_bits()
        );
        assert_eq!(a.jain_index.to_bits(), b.jain_index.to_bits());
        assert_eq!(a.hidden_pairs, b.hidden_pairs);
        assert_eq!(a.throughput_series.len(), b.throughput_series.len());
        for ((ta, sa, na), (tb, sb, nb)) in a.throughput_series.iter().zip(&b.throughput_series) {
            assert_eq!(ta.to_bits(), tb.to_bits());
            assert_eq!(sa.to_bits(), sb.to_bits());
            assert_eq!(na, nb);
        }
        assert_eq!(a.control_trace.len(), b.control_trace.len());
        for ((ta, va), (tb, vb)) in a.control_trace.iter().zip(&b.control_trace) {
            assert_eq!(ta.to_bits(), tb.to_bits());
            assert_eq!(va.to_bits(), vb.to_bits());
        }
    }
}

/// Different seeds must actually change the realisation — if they didn't, the
/// seed would be silently ignored and the averaged sweeps meaningless.
#[test]
fn different_seeds_differ() {
    for (protocol, topology) in cases() {
        let (a, digest_1) = run_once(protocol, topology.clone(), 1);
        let (b, digest_2) = run_once(protocol, topology, 2);
        assert_ne!(
            a.throughput_mbps.to_bits(),
            b.throughput_mbps.to_bits(),
            "{protocol:?}: seeds 1 and 2 produced identical throughput ({}); the seed is \
             being ignored",
            a.throughput_mbps
        );
        assert_ne!(
            digest_1, digest_2,
            "{protocol:?}: seeds 1 and 2 dispatched one event stream"
        );
    }
}
