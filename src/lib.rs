//! # wlan-sa
//!
//! Facade crate for the reproduction of *"Stochastic Approximation Algorithm for
//! Optimal Throughput Performance of Wireless LANs"* (Krishnan & Chaporkar, 2010).
//!
//! The workspace is organised as four libraries plus an experiment harness
//! (see `docs/ARCHITECTURE.md` for the full map and dataflow):
//!
//! | crate | contents |
//! |---|---|
//! | [`sim`] (`wlan-sim`) | discrete-event IEEE 802.11 DCF MAC simulator with hidden-terminal support |
//! | [`analytic`] (`wlan-analytic`) | Bianchi / p-persistent / RandomReset closed-form models |
//! | [`sa`] (`stochastic-approx`) | the Kiefer–Wolfowitz optimiser and its gain sequences |
//! | [`core`] (`wlan-core`) | wTOP-CSMA, TORA-CSMA, IdleSense, the scenario + campaign runners |
//! | `wlan-bench` | one binary per paper figure/table, the campaign server and the benchmarks |
//!
//! ## Quickstart
//!
//! This is the doc-tested version of `examples/quickstart.rs` (which runs the
//! same comparison at full length — `cargo run --release --example
//! quickstart`): compare standard 802.11 with wTOP-CSMA, which tunes itself
//! toward the analytic optimum from throughput measurements alone.
//!
//! ```
//! use wlan_sa::analytic;
//! use wlan_sa::core::{Protocol, RunContext, Scenario, TopologySpec};
//! use wlan_sa::sim::SimDuration;
//!
//! let n = 10;
//!
//! // What the closed-form model says the best any p-persistent scheme can do.
//! let model = analytic::SlotModel::table1();
//! let weights = vec![1.0; n];
//! let s_star = analytic::optimal_throughput(&model, &weights) / 1e6;
//!
//! // Standard IEEE 802.11 DCF (durations shortened for the doctest).
//! let dcf = Scenario::new(Protocol::Standard80211, TopologySpec::FullyConnected, n)
//!     .durations(SimDuration::from_millis(300), SimDuration::from_millis(500))
//!     .seed(1)
//!     .run();
//! assert!(dcf.throughput_mbps > 0.0 && dcf.throughput_mbps < s_star);
//!
//! // wTOP-CSMA: the AP tunes the attempt probability from throughput
//! // measurements only, with no knowledge of N — here averaged over two
//! // seeds on the deterministic parallel campaign pool (two workers, no
//! // cache, no faults: everything a run depends on is in its context).
//! let wtop = Scenario::new(Protocol::WTopCsma, TopologySpec::FullyConnected, n)
//!     .durations(SimDuration::from_millis(500), SimDuration::from_millis(500))
//!     .update_period(SimDuration::from_millis(50));
//! let jobs: Vec<Scenario> = [1, 2].map(|seed| wtop.clone().seed(seed)).to_vec();
//! let results = RunContext::new(2).run(&jobs);
//! assert_eq!(results.len(), 2);
//! assert!(results.iter().all(|r| r.throughput_mbps > 0.0));
//! assert!(!results[0].control_trace.is_empty(), "the AP records its control variable");
//! ```
//!
//! Grid experiments (protocol × topology × N × seed) go through
//! [`core::Campaign`], which executes under a [`core::RunContext`] and is
//! bit-identical for every thread count.
//!
//! ## Finite load
//!
//! Beyond the paper's saturated model, the traffic layer opens the
//! offered-load dimension: per-station arrival processes
//! ([`ArrivalProcess`]: CBR, Poisson, bursty on/off) feed bounded FIFO
//! queues, and results gain delay percentiles, jitter and drop metrics
//! ([`TrafficSummary`]). `examples/finite_load.rs` (`cargo run --release
//! --example finite_load`) walks a Poisson-loaded cell across the
//! saturation knee and prints its delay percentiles; the `fig_finite_load`
//! binary sweeps all six protocols over offered load.
//!
//! ```
//! use wlan_sa::{Protocol, Scenario, SimDuration, TopologySpec, TrafficSpec};
//!
//! let r = Scenario::new(Protocol::Standard80211, TopologySpec::FullyConnected, 5)
//!     .durations(SimDuration::from_millis(200), SimDuration::from_millis(500))
//!     .traffic(TrafficSpec::poisson(100.0).with_queue_frames(64))
//!     .run();
//! let t = r.traffic.expect("finite-load runs report delay metrics");
//! assert!(t.total_arrivals > 0 && t.mean_delay_ms > 0.0);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub use stochastic_approx as sa;
pub use wlan_analytic as analytic;
pub use wlan_core as core;
pub use wlan_sim as sim;

pub use wlan_core::{
    Campaign, CampaignOutcome, CampaignReport, Protocol, Scenario, ScenarioResult, TopologySpec,
    TrafficSummary,
};
pub use wlan_sim::{ArrivalProcess, PhyParams, SimDuration, SimTime, Topology, TrafficSpec};
