//! # wlan-sim
//!
//! A from-scratch discrete-event simulator of the IEEE 802.11 Distributed
//! Coordination Function (DCF) in basic-access mode, built to reproduce the
//! evaluation of *"Stochastic Approximation Algorithm for Optimal Throughput
//! Performance of Wireless LANs"* (Krishnan & Chaporkar, 2010).
//!
//! The simulator models exactly the system of the paper's Section II:
//!
//! * `N` saturated stations transmit fixed-size frames to a single access
//!   point — or, beyond the paper, finitely loaded stations fed by pluggable
//!   arrival processes ([`traffic::TrafficSpec`]: CBR, Poisson, bursty
//!   on/off) into bounded per-station FIFO queues, with per-frame delay and
//!   queue statistics;
//! * carrier sensing is geometric — station *i* defers to station *j* only if
//!   they are within sensing range of each other, so **hidden terminals** arise
//!   naturally from the topology;
//! * a frame is received iff no other transmission overlaps it in time and the
//!   AP is not itself transmitting; successful receptions are acknowledged after
//!   SIFS;
//! * the contention-resolution policy of every station is pluggable
//!   ([`backoff::BackoffPolicy`]): standard exponential backoff, p-persistent
//!   CSMA, the paper's RandomReset(j; p0) scheme, IdleSense, or a fixed
//!   window. The engine stores policies in the closed [`backoff::Policy`]
//!   enum and dispatches them statically;
//! * the AP may run a controller ([`ap::ApAlgorithm`], held as a
//!   `Box<dyn ApAlgorithm>`) that observes successful receptions and
//!   piggy-backs control variables on every ACK — the hook used by wTOP-CSMA
//!   and TORA-CSMA (implemented in the `wlan-core` crate).
//!
//! The engine is single-threaded and fully deterministic for a given seed.
//! Every simulator (and everything inside it — custom AP controllers are
//! `Send` trait objects, the RNG is an owned `ChaCha8Rng`, and there is no
//! `Rc` or thread-bound interior mutability anywhere) is `Send`, so the
//! campaign layer in `wlan-core` can run many independent simulations on a
//! thread pool with bit-identical results.
//!
//! ## Quick example
//!
//! ```
//! use wlan_sim::{PhyParams, SimDuration, SimulatorBuilder, Topology};
//! use wlan_sim::backoff::ExponentialBackoff;
//!
//! // 10 saturated stations running plain IEEE 802.11 DCF, fully connected.
//! let mut sim = SimulatorBuilder::new(PhyParams::table1(), Topology::fully_connected(10))
//!     .seed(1)
//!     .with_stations(|_, phy| ExponentialBackoff::new(phy))
//!     .build();
//! sim.run_for(SimDuration::from_millis(500));
//! let stats = sim.stats();
//! assert!(stats.system_throughput_mbps() > 5.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod ap;
pub mod backoff;
pub mod capture;
pub mod control;
mod engine;
pub mod idlesense;
pub mod phy;
pub mod stats;
pub mod topology;
pub mod traffic;

// Compile-time audit of the claim above: parallel replication in `wlan-core`
// moves whole simulators (builder closures run on worker threads) and their
// results across threads.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<engine::Simulator>();
    assert_send::<stats::SimStats>();
    assert_send::<topology::Topology>();
    assert_send::<phy::PhyParams>();
};

/// The checkpoint codec (re-exported from the `wlan-des` kernel): the
/// positional [`State`](snapshot::State) trait behind
/// [`Simulator::checkpoint`] / [`Simulator::resume`], which every
/// [`ApAlgorithm`] implements, and the [`state!`] macro that implements it
/// from a type's list of mutable fields.
pub use wlan_des::{snapshot, state};

/// Kernel telemetry types (re-exported from `wlan-des`): the report returned
/// by [`Simulator::metrics_report`] and the samples handed to a
/// [`Simulator::set_profiler`] sink.
pub use wlan_des::{MetricsReport, ProfileSample};

pub use ap::{ApAlgorithm, ControlEpoch, NullController};
pub use backoff::{BackoffPolicy, Policy};
pub use capture::CaptureModel;
pub use control::{BusyOutcome, ChannelObservation, ControlPayload};
pub use engine::{EngineMetrics, Simulator, SimulatorBuilder, COMPONENT_NAMES, TIER_NAMES};
pub use phy::PhyParams;
pub use stats::{DelayHistogram, NodeStats, SimStats, ThroughputSample, TrafficStats};
pub use topology::{NodeId, Position, Topology};
pub use traffic::{ArrivalProcess, ArrivalSampler, TrafficSpec};
pub use wlan_des::time::{SimDuration, SimTime};
