//! # wlan-core
//!
//! The paper's primary contribution: stochastic-approximation MAC controllers
//! that maximise WLAN throughput **without any underlying analytical model**,
//! which is what lets them keep working when hidden terminals invalidate the
//! fully-connected-network models that every previous tuning scheme relies on.
//!
//! * [`wtop`] — **wTOP-CSMA** (Algorithm 1): the AP tunes the attempt
//!   probability of p-persistent CSMA with Kiefer–Wolfowitz throughput
//!   measurements; stations apply a per-weight mapping for weighted fairness.
//! * [`tora`] — **TORA-CSMA** (Algorithm 2): the AP tunes the RandomReset(j; p0)
//!   exponential-backoff policy, walking the reset stage when `p0` saturates.
//! * [`IdleSensePolicy`] — the IdleSense baseline (Heusse et al. 2005),
//!   re-exported from `wlan_sim::idlesense`.
//! * [`protocol`] — the catalogue of schemes compared in the evaluation and
//!   factories to instantiate them.
//! * [`scenario`] — the experiment runner (protocol × topology × N × seed →
//!   metrics), the API used by the examples, integration tests and benches.
//! * [`campaign`] — the parallel campaign runner: expands a scenario grid into
//!   jobs, executes them on a thread pool, and aggregates per-cell statistics
//!   deterministically (parallel output is bit-identical to serial). Every
//!   run takes an explicit [`RunContext`] (workers, attempt budget, cache,
//!   fault plan, metrics); the crate keeps no process-global run state and
//!   reads no environment variable.
//! * [`cache`] — the content-addressed result cache: jobs keyed by a stable
//!   hash of `(canonical scenario, engine fingerprint)`, so reruns compute
//!   only the delta and serve everything else from disk, bit-identically.
//! * [`fault`] — the deterministic fault injector: a seeded [`FaultPlan`]
//!   trips named sites (cache I/O, checkpoint writes, job panics, worker
//!   stalls) as a pure function of `(seed, site, scope, attempt)`, so chaos
//!   tests can assert byte-identical recovery.
//! * [`error`] — typed failures of the service path ([`ScenarioError`],
//!   [`JobError`], [`CampaignError`]); the supervised pool quarantines
//!   failing jobs into these instead of panicking.
//! * [`dynamics`] — dynamic-membership runs (stations joining/leaving) used for
//!   the convergence experiments of Figs. 8–11.
//!
//! ```
//! use wlan_core::{Protocol, Scenario, TopologySpec};
//! use wlan_sim::SimDuration;
//!
//! // wTOP-CSMA on a small fully connected WLAN (short run for the doctest).
//! let result = Scenario::new(Protocol::WTopCsma, TopologySpec::FullyConnected, 5)
//!     .durations(SimDuration::from_millis(200), SimDuration::from_millis(300))
//!     .update_period(SimDuration::from_millis(50))
//!     .seed(42)
//!     .run();
//! assert!(result.throughput_mbps > 0.0);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod cache;
pub mod campaign;
pub mod dynamics;
pub mod error;
pub mod fault;
pub mod metrics;
pub mod protocol;
pub mod scenario;
pub mod tora;
pub(crate) mod trace;
pub mod wtop;

pub use cache::{job_key, CacheStats, ResultCache, ENGINE_FINGERPRINT};
pub use campaign::{
    Campaign, CampaignCell, CampaignOutcome, CampaignReport, CellStats, RunContext,
};
pub use dynamics::{run_dynamic, DynamicResult, MembershipChange, MembershipSchedule};
pub use error::{CampaignError, JobError, ScenarioError};
pub use fault::{FaultPlan, FaultPlanBuilder, FaultSite};
pub use metrics::{MetricsRegistry, MetricsSnapshot};
pub use protocol::Protocol;
pub use scenario::{
    mean_throughput, ControllerTelemetry, SaEpochRecord, Scenario, ScenarioResult, TopologySpec,
    TrafficSummary,
};
pub use tora::{ToraConfig, ToraController};
pub use wlan_sim::idlesense::{IdleSenseConfig, IdleSensePolicy};
pub use wlan_sim::{ArrivalProcess, TrafficSpec};
pub use wtop::{WtopConfig, WtopController};

/// A per-process scratch path for tests that touch the filesystem, inside
/// the workspace's build directory (created, along with its parents).
#[cfg(test)]
fn scratch_path(tag: &str) -> std::path::PathBuf {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/tmp");
    let _ = std::fs::create_dir_all(&dir);
    dir.join(format!("{tag}_{}", std::process::id()))
}
