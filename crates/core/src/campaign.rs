//! The campaign runner: expand a scenario grid (protocol × topology × N ×
//! seed) into independent jobs, execute them on a hand-rolled `std::thread`
//! pool, and collect the results **in deterministic job order**, so a
//! parallel campaign is bit-identical to a serial one.
//!
//! The paper's figures and tables are averages over many independent
//! `(scenario, seed)` replications; each replication owns its RNG and its
//! simulator, so they parallelise perfectly. The only requirement for
//! reproducibility is that aggregation happens in a fixed order — which this
//! module guarantees by pre-expanding the grid into an indexed job list and
//! handing each job's outcome back at its input index.
//!
//! ## Run context
//!
//! Everything a run depends on besides its scenarios is one explicit
//! [`RunContext`] value: the worker count and attempt budget, an optional
//! [`ResultCache`], a [`FaultPlan`], a [`MetricsRegistry`], and the
//! telemetry and heartbeat settings. The library keeps no process-global run
//! state and reads no environment variable, so two contexts running at the
//! same time — two tests, say — never see each other's cache, faults or
//! counters. The binaries build their context from the `WLAN_*` knobs.
//!
//! ## Supervision
//!
//! There is one pool, [`RunContext::supervise`]: [`RunContext::run_checked`]
//! runs each job on it as one whole-job attempt, and `campaign_server` as
//! slices that snapshot and requeue. Workers claim jobs from a queue that
//! takes requeued jobs back, and every attempt runs under
//! [`std::panic::catch_unwind`]: a panicking job (a real bug, or an injected
//! [`crate::fault`] fault) is retried up to [`RunContext::attempts`] times
//! with a deterministic backoff, and a job that exhausts its attempts is
//! **quarantined** into a structured [`JobError`] slot instead of tearing
//! down the whole pool. Retries never perturb anything: each job owns all
//! of its randomness, so a retry is a pure re-execution, and outcomes are
//! handed back by input index, so the output order — and the output bytes
//! of every healthy job — are identical to a fault-free serial run.
//! [`RunContext::run_checked`] exposes the per-job `Result`s;
//! [`RunContext::run`] keeps the infallible signature (it panics, after the
//! pool has fully drained, if any job was quarantined).
//!
//! ```
//! use wlan_core::{Campaign, Protocol, RunContext, TopologySpec};
//! use wlan_sim::SimDuration;
//!
//! let outcome = Campaign::new()
//!     .protocols(&[Protocol::Standard80211, Protocol::StaticPPersistent { p: 0.02 }])
//!     .topology("fully connected", TopologySpec::FullyConnected)
//!     .node_counts(&[5, 10])
//!     .seeds(&[1, 2])
//!     .warmups(SimDuration::from_millis(100), SimDuration::from_millis(100))
//!     .measure(SimDuration::from_millis(200))
//!     .run(&RunContext::new(2));
//! assert_eq!(outcome.cells.len(), 4); // 2 protocols × 1 topology × 2 N
//! assert!(outcome.report().cells[0].mean_mbps > 0.0);
//! ```
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::cache::{job_key, ResultCache, TELEMETRY_SUFFIX};
use crate::error::{CampaignError, JobError};
use crate::fault::{FaultPlan, FaultSite};
use crate::metrics::MetricsRegistry;
use crate::protocol::Protocol;
use crate::scenario::{Scenario, ScenarioResult, TopologySpec};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};
use wlan_sim::{SimDuration, Simulator, TrafficSpec};

// The campaign executor moves scenarios and results across threads; these
// compile-time assertions are the "is everything Send?" audit the pool relies
// on (no `Rc`, no thread-bound interior mutability anywhere in the job path).
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Scenario>();
    assert_send::<ScenarioResult>();
    assert_send::<Protocol>();
    assert_send::<TopologySpec>();
    assert_send::<JobError>();
};

/// Retries granted to a panicking job beyond its first attempt by
/// [`RunContext::new`] (the binaries' `WLAN_JOB_RETRIES` overrides it).
pub const DEFAULT_JOB_RETRIES: u32 = 2;

/// Deterministic backoff before retry `attempt` (1-based): doubling from
/// 1 ms, capped at 50 ms. Purely a wall-clock pause — it cannot influence
/// results, which depend only on the scenario's own seed.
fn retry_backoff(attempt: u32) -> Duration {
    Duration::from_millis((1u64 << attempt.min(6)).min(50))
}

/// Extract a printable message from a caught panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Everything a campaign run depends on besides its scenarios.
///
/// The caller owns one value per run; the pool reads its settings from it
/// and counts into its registry, whether [`Campaign::run`] or
/// `campaign_server` runs it. No field can change a result's bytes, except
/// that `telemetry` adds the optional controller-telemetry section.
#[derive(Debug)]
pub struct RunContext {
    /// Worker threads (`0` counts as 1). Results are bit-identical for
    /// every value.
    pub threads: usize,
    /// Attempts per job: 1 initial run plus retries (`0` counts as 1). A job
    /// that panics on every attempt is quarantined as [`JobError::Panicked`].
    pub attempts: u32,
    /// The result cache: hits are served from disk and computed misses
    /// stored. `None` caches nothing.
    pub cache: Option<ResultCache>,
    /// Injected faults; the empty plan injects none.
    pub faults: FaultPlan,
    /// The counters every run on this context adds to.
    pub metrics: MetricsRegistry,
    /// Kernel dispatch counters on every job (folded into `metrics`) and the
    /// controller-telemetry section on every result.
    pub telemetry: bool,
    /// Period of the heartbeat line on stderr while a run is in flight;
    /// `None` is off.
    pub heartbeat: Option<Duration>,
}

impl RunContext {
    /// A context on `threads` workers with `1 + DEFAULT_JOB_RETRIES`
    /// attempts per job and nothing else: no cache, no faults, no
    /// telemetry, no heartbeat.
    pub fn new(threads: usize) -> Self {
        RunContext {
            threads,
            attempts: 1 + DEFAULT_JOB_RETRIES,
            cache: None,
            faults: FaultPlan::default(),
            metrics: MetricsRegistry::default(),
            telemetry: false,
            heartbeat: None,
        }
    }

    /// Run every scenario and return the results **in input order**,
    /// bit-identical to running them serially.
    ///
    /// Panics — after every job has been given its full retry budget and
    /// every healthy result collected — if any job was quarantined; use
    /// [`run_checked`](Self::run_checked) to handle failures as values.
    pub fn run(&self, scenarios: &[Scenario]) -> Vec<ScenarioResult> {
        let mut out = Vec::with_capacity(scenarios.len());
        let mut failures = Vec::new();
        for (i, result) in self.run_checked(scenarios).into_iter().enumerate() {
            match result {
                Ok(r) => out.push(r),
                Err(e) => failures.push((i, e)),
            }
        }
        if !failures.is_empty() {
            panic!("campaign failed: {}", CampaignError { failures });
        }
        out
    }

    /// One `Result` per scenario, in input order. A quarantined job occupies
    /// its own error slot; every other job's result is bit-identical to a
    /// run in which the failure never happened.
    ///
    /// Each job is one whole-job attempt on [`supervise`](Self::supervise).
    /// An invalid scenario is settled as [`JobError::InvalidScenario`] before
    /// any worker starts. With a cache, each job's entry is read once: hits
    /// are settled from disk, and only the misses run (healthy fresh results
    /// are stored). The results are bit-identical either way, because the
    /// cache stores exactly what the engine produced, and a context with
    /// `telemetry` on keeps entries of its own (see [`lookup`](Self::lookup)).
    pub fn run_checked(&self, scenarios: &[Scenario]) -> Vec<Result<ScenarioResult, JobError>> {
        // The key scopes the fault sites and names the cache entry; without
        // either there is nothing to key.
        let keyed = self.cache.is_some() || !self.faults.is_empty();
        let keys: Vec<String> = scenarios
            .iter()
            .map(|s| if keyed { job_key(s) } else { String::new() })
            .collect();
        let slots = scenarios
            .iter()
            .zip(&keys)
            .map(|(scenario, key)| match scenario.validate() {
                Err(e) => Slot::Settled(Err(e.into())),
                Ok(()) => match self.lookup(key) {
                    Some((hit, _)) => Slot::Settled(Ok(hit)),
                    None => Slot::Run(key.clone()),
                },
            });
        let mut out = Vec::with_capacity(scenarios.len());
        self.supervise(
            slots,
            || false,
            |index, _claim| {
                let scenario = &scenarios[index];
                let started = Instant::now();
                let mut sim = self.build(scenario);
                scenario.advance_until(&mut sim, scenario.end_time());
                let result = self.collect(scenario, &sim);
                self.metrics
                    .record_job(sim.events_processed(), started.elapsed());
                if self.cache.is_some() {
                    self.store(&keys[index], &result.to_json());
                }
                Attempt::Done(result)
            },
            |_, outcome| out.push(outcome),
        );
        out
    }

    /// The cached result for job `key` and the exact JSON text it was
    /// stored as (`None` without a cache; see [`ResultCache::lookup_json`]).
    /// A hit is what this context computes: with `telemetry` on, the job's
    /// entry is named by its key and a `.telemetry` suffix, since telemetry
    /// adds the controller-telemetry section, so runs with and without it
    /// never serve each other. An injected `cache_read` fault (keyed by the
    /// job key) models a read I/O error, which — like every other read
    /// failure — is a miss, counted on the handle.
    pub fn lookup(&self, key: &str) -> Option<(ScenarioResult, String)> {
        let cache = self.cache.as_ref()?;
        if self.faults.should_fault(FaultSite::CacheRead, key, 0) {
            cache.note_miss();
            return None;
        }
        cache.lookup_json(&self.entry(key))
    }

    /// The name job `key`'s entry has in this context (see
    /// [`lookup`](Self::lookup)).
    fn entry(&self, key: &str) -> String {
        let suffix = if self.telemetry { TELEMETRY_SUFFIX } else { "" };
        format!("{key}{suffix}")
    }

    /// Store `json`, a result's [`ScenarioResult::to_json`] text, as job
    /// `key`'s entry in this context (see [`lookup`](Self::lookup)) in the
    /// cache, if there is one. A failed store — read-only
    /// directory, disk full, or an injected `cache_write` fault — only loses
    /// the entry: the handle degrades (one warning, later failures counted
    /// silently) and the run continues compute-only.
    pub fn store(&self, key: &str, json: &str) {
        let Some(cache) = &self.cache else {
            return;
        };
        let stored = if self.faults.should_fault(FaultSite::CacheWrite, key, 0) {
            Err(std::io::Error::other(format!(
                "injected fault: cache_write (key {key})"
            )))
        } else {
            cache.store_json(&self.entry(key), json)
        };
        if let Err(e) = stored {
            cache.note_degraded(key, &e);
        }
    }

    /// Build `scenario`'s simulator, with the kernel's dispatch counters on
    /// when `telemetry` is.
    pub fn build(&self, scenario: &Scenario) -> Simulator {
        let mut sim = scenario.build_simulator();
        if self.telemetry {
            sim.enable_metrics();
        }
        sim
    }

    /// Summarise a simulator that [`build`](Self::build) made and the caller
    /// ran to the scenario's end, folding its kernel report (if telemetry is
    /// on) into `metrics`.
    pub fn collect(&self, scenario: &Scenario, sim: &Simulator) -> ScenarioResult {
        if let Some(report) = sim.metrics_report() {
            self.metrics.record_engine_report(&report);
        }
        scenario.collect_with_telemetry(sim, self.telemetry)
    }

    /// The supervised pool every campaign job runs on.
    ///
    /// `min(threads, jobs to run)` workers claim [`Slot::Run`] jobs from a
    /// shared queue. A claim sleeps first if `worker_stall` trips (keyed by
    /// the job's claim index), then calls `attempt(index, claim)` under
    /// `catch_unwind`, after `job_panic` (keyed by how many attempts of the
    /// job have panicked). A panicking job is retried: requeued after a
    /// deterministic backoff, until it has panicked `attempts` times and is
    /// quarantined as [`JobError::Panicked`]. [`Attempt::Requeue`] puts the
    /// job at the back of the queue. Workers check `stop` before every
    /// claim and claim nothing once it holds; a job not settled by then gets
    /// no outcome.
    ///
    /// On the calling thread, `emit` receives every outcome, the
    /// [`Slot::Settled`] ones included, in input order as soon as those
    /// before it are in (settled slots ahead of every job to run go out as
    /// `slots` yields them, so a warm run streams); after a stop, the
    /// outcomes behind a gap follow in ascending order. Retries, quarantines
    /// and error outcomes are counted into `metrics`. With `heartbeat` set,
    /// a thread beside the workers prints one line per period (see
    /// [`crate::metrics`]) with the claims so far; it only reads counters,
    /// so it cannot influence scheduling or results.
    pub fn supervise<T: Send>(
        &self,
        slots: impl IntoIterator<Item = Slot<T>>,
        stop: impl Fn() -> bool + Sync,
        attempt: impl Fn(usize, u32) -> Attempt<T> + Sync,
        mut emit: impl FnMut(usize, Result<T, JobError>),
    ) {
        let (mut outcomes, mut queue, mut next) = (Vec::new(), VecDeque::new(), 0);
        for (index, slot) in slots.into_iter().enumerate() {
            let outcome = match slot {
                Slot::Run(scope) => {
                    queue.push_back(Ticket {
                        index,
                        scope,
                        claims: 0,
                        panics: 0,
                    });
                    None
                }
                Slot::Settled(outcome) => {
                    if outcome.is_err() {
                        self.metrics.record_job_failure();
                    }
                    Some(outcome)
                }
            };
            match outcome {
                Some(outcome) if queue.is_empty() => {
                    emit(index, outcome);
                    next = index + 1;
                    outcomes.push(None);
                }
                outcome => outcomes.push(outcome),
            }
        }
        let workers = self.threads.max(1).min(queue.len());
        let queue = Mutex::new(queue);
        let claims = AtomicU64::new(0);
        std::thread::scope(|scope| {
            let (queue, claims, stop, attempt) = (&queue, &claims, &stop, &attempt);
            let (beat, beats) = mpsc::channel::<()>();
            if let Some(period) = self.heartbeat {
                scope.spawn(move || {
                    // Runs until `beat` is dropped below.
                    while beats.recv_timeout(period) == Err(RecvTimeoutError::Timeout) {
                        let line = self.metrics.snapshot(None).heartbeat_line(
                            crate::metrics::unix_secs(),
                            claims.load(Ordering::Relaxed),
                        );
                        crate::metrics::emit_heartbeat(&line);
                    }
                });
            }
            let (tx, rx) = mpsc::channel();
            for _ in 0..workers {
                let tx = tx.clone();
                scope.spawn(move || {
                    let lock = || queue.lock().unwrap_or_else(PoisonError::into_inner);
                    while !stop() {
                        let Some(mut ticket) = lock().pop_front() else {
                            break;
                        };
                        claims.fetch_add(1, Ordering::Relaxed);
                        match self.claim(&mut ticket, attempt) {
                            Some(outcome) => {
                                let _ = tx.send((ticket.index, outcome));
                            }
                            None => lock().push_back(ticket),
                        }
                    }
                });
            }
            drop(tx);
            loop {
                while let Some(outcome) = outcomes.get_mut(next).and_then(Option::take) {
                    emit(next, outcome);
                    next += 1;
                }
                let Ok((index, outcome)) = rx.recv() else {
                    break;
                };
                outcomes[index] = Some(outcome);
            }
            for (index, outcome) in outcomes.into_iter().enumerate().skip(next) {
                if let Some(outcome) = outcome {
                    emit(index, outcome);
                }
            }
            drop(beat);
        });
    }

    /// One claim of `ticket` (see [`supervise`](Self::supervise)): its
    /// outcome, or `None` when the job needs another claim.
    fn claim<T>(
        &self,
        ticket: &mut Ticket,
        attempt: &impl Fn(usize, u32) -> Attempt<T>,
    ) -> Option<Result<T, JobError>> {
        let (scope, claim, panics) = (&ticket.scope, ticket.claims, ticket.panics);
        ticket.claims += 1;
        if self
            .faults
            .should_fault(FaultSite::WorkerStall, scope, claim)
        {
            std::thread::sleep(self.faults.stall());
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if self.faults.should_fault(FaultSite::JobPanic, scope, panics) {
                panic!("injected fault: job_panic (scope {scope}, attempt {panics})");
            }
            attempt(ticket.index, claim)
        }));
        match outcome {
            Ok(Attempt::Done(outcome)) => Some(Ok(outcome)),
            Ok(Attempt::Requeue) => None,
            Err(payload) => {
                ticket.panics += 1;
                let attempts = self.attempts.max(1);
                if ticket.panics < attempts {
                    self.metrics.record_retry();
                    std::thread::sleep(retry_backoff(ticket.panics));
                    return None;
                }
                self.metrics.record_quarantine();
                self.metrics.record_job_failure();
                Some(Err(JobError::Panicked {
                    attempts,
                    message: panic_message(payload),
                }))
            }
        }
    }
}

/// One job handed to [`RunContext::supervise`].
#[derive(Debug)]
pub enum Slot<T> {
    /// Run the job. The string scopes its `worker_stall` and `job_panic`
    /// fault sites: the job's cache key (unused when the plan is empty).
    Run(String),
    /// Already settled (an invalid job, a cache hit): handed back as is.
    Settled(Result<T, JobError>),
}

/// What one attempt at a job asks of [`RunContext::supervise`].
#[derive(Debug)]
pub enum Attempt<T> {
    /// The job is settled with this outcome.
    Done(T),
    /// Claim the job again: the attempt saved its progress and stopped
    /// early (a wall-clock timeout, or a drain after which the pool's `stop`
    /// holds and the job stays unsettled).
    Requeue,
}

/// A queued job: its input index, fault scope, and how many claims and
/// panicked attempts it has had.
struct Ticket {
    index: usize,
    scope: String,
    claims: u32,
    panics: u32,
}

/// Declarative description of a grid of experiments: every combination of
/// protocol × topology × station count is a **cell**, and every cell is
/// replicated once per seed. Build with the fluent setters, then [`Campaign::run`].
#[derive(Debug, Clone)]
pub struct Campaign {
    protocols: Vec<Protocol>,
    topologies: Vec<(String, TopologySpec)>,
    node_counts: Vec<usize>,
    seeds: Vec<u64>,
    adaptive_warmup: SimDuration,
    static_warmup: SimDuration,
    measure: SimDuration,
    update_period: Option<SimDuration>,
    throughput_bin: Option<SimDuration>,
    traffic: Option<TrafficSpec>,
}

impl Default for Campaign {
    fn default() -> Self {
        Self::new()
    }
}

impl Campaign {
    /// An empty campaign with the paper's default durations (10 s warm-up for
    /// every protocol class, 10 s measurement).
    pub fn new() -> Self {
        Campaign {
            protocols: Vec::new(),
            topologies: Vec::new(),
            node_counts: Vec::new(),
            seeds: vec![1],
            adaptive_warmup: SimDuration::from_secs(10),
            static_warmup: SimDuration::from_secs(10),
            measure: SimDuration::from_secs(10),
            update_period: None,
            throughput_bin: None,
            traffic: None,
        }
    }

    /// Protocols to sweep (one curve per protocol in the report).
    pub fn protocols(mut self, protocols: &[Protocol]) -> Self {
        self.protocols = protocols.to_vec();
        self
    }

    /// Add one labelled topology to the grid.
    pub fn topology(mut self, label: &str, spec: TopologySpec) -> Self {
        self.topologies.push((label.to_string(), spec));
        self
    }

    /// Station counts to sweep.
    pub fn node_counts(mut self, counts: &[usize]) -> Self {
        self.node_counts = counts.to_vec();
        self
    }

    /// Seeds each cell is replicated over.
    pub fn seeds(mut self, seeds: &[u64]) -> Self {
        self.seeds = seeds.to_vec();
        self
    }

    /// Warm-up durations: adaptive protocols get `adaptive`, static ones `static_`
    /// (adaptive controllers need tens of seconds to converge before measuring).
    pub fn warmups(mut self, adaptive: SimDuration, static_: SimDuration) -> Self {
        self.adaptive_warmup = adaptive;
        self.static_warmup = static_;
        self
    }

    /// Measurement duration for every job.
    pub fn measure(mut self, measure: SimDuration) -> Self {
        self.measure = measure;
        self
    }

    /// `UPDATE_PERIOD` for the stochastic-approximation controllers
    /// (defaults to the scenario default of 250 ms).
    pub fn update_period(mut self, period: SimDuration) -> Self {
        self.update_period = Some(period);
        self
    }

    /// Width of the throughput time-series bins, which is also the beacon
    /// interval (defaults to the scenario default of 1 s). The scaling
    /// campaign shortens it: in a collision collapse the control variable
    /// reaches stations only via beacons, so controller segments close — and
    /// the control variable reaches stations — only at beacon cadence.
    pub fn throughput_bin(mut self, bin: SimDuration) -> Self {
        self.throughput_bin = Some(bin);
        self
    }

    /// Offered-load model applied to every job (defaults to the scenario
    /// default of saturated sources). Finite-load campaigns make each
    /// [`ScenarioResult`] carry a `TrafficSummary` with delay/drop metrics.
    pub fn traffic(mut self, traffic: TrafficSpec) -> Self {
        self.traffic = Some(traffic);
        self
    }

    /// Expand the grid into concrete scenarios, in the deterministic job order
    /// (protocol-major, then topology, then N, then seed) that `run` collects in.
    pub fn jobs(&self) -> Vec<Scenario> {
        let mut jobs = Vec::new();
        for proto in &self.protocols {
            for (_, topo) in &self.topologies {
                for &n in &self.node_counts {
                    for &seed in &self.seeds {
                        let warm = if proto.is_adaptive() {
                            self.adaptive_warmup
                        } else {
                            self.static_warmup
                        };
                        let mut s = Scenario::new(*proto, topo.clone(), n)
                            .durations(warm, self.measure)
                            .seed(seed);
                        if let Some(period) = self.update_period {
                            s = s.update_period(period);
                        }
                        if let Some(bin) = self.throughput_bin {
                            s.throughput_bin = bin;
                        }
                        if let Some(traffic) = self.traffic {
                            s = s.traffic(traffic);
                        }
                        jobs.push(s);
                    }
                }
            }
        }
        jobs
    }

    /// Execute every job under `ctx` and fold the per-seed results into
    /// cells (panicking, like [`RunContext::run`], if any job was
    /// quarantined).
    ///
    /// The outcome is independent of the thread count: jobs are collected in
    /// grid order and every aggregation below iterates in that order.
    pub fn run(&self, ctx: &RunContext) -> CampaignOutcome {
        let results = ctx.run(&self.jobs());
        let mut cells = Vec::new();
        let mut it = results.into_iter();
        for proto in &self.protocols {
            for (topo_label, _) in &self.topologies {
                for &n in &self.node_counts {
                    let cell_results: Vec<ScenarioResult> =
                        (&mut it).take(self.seeds.len()).collect();
                    cells.push(CampaignCell {
                        protocol: *proto,
                        topology: topo_label.clone(),
                        n,
                        seeds: self.seeds.clone(),
                        results: cell_results,
                    });
                }
            }
        }
        CampaignOutcome { cells }
    }
}

/// One grid cell's raw per-seed results.
#[derive(Debug, Clone)]
pub struct CampaignCell {
    /// The protocol of this cell.
    pub protocol: Protocol,
    /// Label of the topology of this cell.
    pub topology: String,
    /// Number of stations.
    pub n: usize,
    /// The seeds replicated over, in result order.
    pub seeds: Vec<u64>,
    /// One [`ScenarioResult`] per seed, in seed order.
    pub results: Vec<ScenarioResult>,
}

impl CampaignCell {
    /// Per-seed system throughputs in Mbps, in seed order.
    pub fn throughputs_mbps(&self) -> Vec<f64> {
        self.results.iter().map(|r| r.throughput_mbps).collect()
    }

    /// Summarise this cell (mean/stddev/CI95/min/max of system throughput).
    pub fn stats(&self) -> CellStats {
        let xs = self.throughputs_mbps();
        let len = xs.len() as f64;
        let mean = if xs.is_empty() {
            0.0
        } else {
            xs.iter().sum::<f64>() / len
        };
        let stddev = if xs.len() < 2 {
            0.0
        } else {
            (xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (len - 1.0)).sqrt()
        };
        let ci95 = if xs.len() < 2 {
            0.0
        } else {
            1.96 * stddev / len.sqrt()
        };
        CellStats {
            protocol: self.protocol.label().to_string(),
            topology: self.topology.clone(),
            n: self.n,
            seeds: self.seeds.clone(),
            mean_mbps: mean,
            stddev_mbps: stddev,
            ci95_mbps: ci95,
            min_mbps: xs.iter().cloned().fold(f64::INFINITY, f64::min),
            max_mbps: xs.iter().cloned().fold(0.0f64, f64::max),
        }
    }
}

/// Everything a finished campaign produced: the raw per-cell results. Derive
/// the serialisable summary with [`CampaignOutcome::report`].
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    /// One cell per protocol × topology × N combination, in grid order.
    pub cells: Vec<CampaignCell>,
}

impl CampaignOutcome {
    /// The serialisable per-cell summary (mean/stddev/CI95/min/max).
    pub fn report(&self) -> CampaignReport {
        CampaignReport {
            cells: self.cells.iter().map(CampaignCell::stats).collect(),
        }
    }

    /// The cells of one protocol, in grid order (one throughput-vs-N curve).
    pub fn cells_for(&self, protocol: Protocol) -> Vec<&CampaignCell> {
        self.cells
            .iter()
            .filter(|c| c.protocol == protocol)
            .collect()
    }
}

/// Summary statistics of one campaign cell; `mean/min/max` match what the
/// serial per-figure loops historically computed, so reports serialise into
/// the existing `results/*.dat` and `results/*.json` shapes byte-for-byte.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CellStats {
    /// Protocol label.
    pub protocol: String,
    /// Topology label.
    pub topology: String,
    /// Number of stations.
    pub n: usize,
    /// Seeds averaged over.
    pub seeds: Vec<u64>,
    /// Mean system throughput (Mbps) over the seeds.
    pub mean_mbps: f64,
    /// Sample standard deviation (Mbps); 0 for fewer than two seeds.
    pub stddev_mbps: f64,
    /// Half-width of the normal-approximation 95% confidence interval (Mbps).
    pub ci95_mbps: f64,
    /// Smallest per-seed throughput (Mbps).
    pub min_mbps: f64,
    /// Largest per-seed throughput (Mbps).
    pub max_mbps: f64,
}

/// Serialisable summary of a whole campaign: one [`CellStats`] per grid cell,
/// in deterministic grid order.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignReport {
    /// Per-cell summaries in grid order.
    pub cells: Vec<CellStats>,
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::fault::FaultPlan;

    fn tiny_campaign() -> Campaign {
        Campaign::new()
            .protocols(&[
                Protocol::StaticPPersistent { p: 0.03 },
                Protocol::Standard80211,
            ])
            .topology("fully connected", TopologySpec::FullyConnected)
            .node_counts(&[4, 8])
            .seeds(&[1, 2, 3])
            .warmups(SimDuration::from_millis(100), SimDuration::from_millis(100))
            .measure(SimDuration::from_millis(300))
    }

    #[test]
    fn grid_expansion_order_is_protocol_major() {
        let jobs = tiny_campaign().jobs();
        assert_eq!(jobs.len(), 2 * 2 * 3);
        // First six jobs: p-persistent, n=4 seeds 1,2,3 then n=8 seeds 1,2,3.
        assert_eq!(jobs[0].n, 4);
        assert_eq!(jobs[0].seed, 1);
        assert_eq!(jobs[2].seed, 3);
        assert_eq!(jobs[3].n, 8);
        assert!(matches!(
            jobs[0].protocol,
            Protocol::StaticPPersistent { .. }
        ));
        assert!(matches!(jobs[6].protocol, Protocol::Standard80211));
    }

    #[test]
    fn update_period_and_bin_flow_into_jobs() {
        let jobs = tiny_campaign()
            .update_period(SimDuration::from_millis(100))
            .throughput_bin(SimDuration::from_millis(50))
            .jobs();
        assert!(jobs.iter().all(|j| {
            j.update_period == SimDuration::from_millis(100)
                && j.throughput_bin == SimDuration::from_millis(50)
        }));
        // Unset -> scenario defaults.
        let defaults = tiny_campaign().jobs();
        assert!(defaults
            .iter()
            .all(|j| j.throughput_bin == SimDuration::from_secs(1)));
    }

    #[test]
    fn traffic_spec_flows_into_jobs_and_results() {
        let spec = TrafficSpec::poisson(200.0).with_queue_frames(16);
        let campaign = tiny_campaign().traffic(spec);
        assert!(campaign.jobs().iter().all(|j| j.traffic == spec));
        // Saturated default stays saturated.
        assert!(tiny_campaign()
            .jobs()
            .iter()
            .all(|j| j.traffic.is_saturated()));
        // A finite-load campaign's results all carry traffic summaries.
        let outcome = campaign.run(&RunContext::new(2));
        for cell in &outcome.cells {
            for r in &cell.results {
                let t = r.traffic.as_ref().expect("finite-load result");
                assert_eq!(
                    t.queued_at_start + t.total_arrivals,
                    t.total_delivered + t.total_drops + t.queued_at_end
                );
            }
        }
    }

    #[test]
    fn parallel_matches_serial_bit_for_bit() {
        let serial = tiny_campaign().run(&RunContext::new(1));
        let parallel = tiny_campaign().run(&RunContext::new(4));
        assert_eq!(serial.cells.len(), parallel.cells.len());
        for (a, b) in serial.cells.iter().zip(&parallel.cells) {
            assert_eq!(a.n, b.n);
            for (ra, rb) in a.results.iter().zip(&b.results) {
                assert_eq!(ra.throughput_mbps.to_bits(), rb.throughput_mbps.to_bits());
                for (x, y) in ra.per_node_mbps.iter().zip(&rb.per_node_mbps) {
                    assert_eq!(x.to_bits(), y.to_bits());
                }
            }
        }
        let (ja, jb) = (
            serde_json::to_string(&serial.report()).unwrap(),
            serde_json::to_string(&parallel.report()).unwrap(),
        );
        assert_eq!(ja, jb);
    }

    #[test]
    fn run_seeds_parallel_matches_run_seeds_serial() {
        let base = Scenario::new(
            Protocol::StaticPPersistent { p: 0.05 },
            TopologySpec::FullyConnected,
            5,
        )
        .durations(SimDuration::from_millis(100), SimDuration::from_millis(300))
        .seed(0);
        let jobs: Vec<Scenario> = (1..=5u64).map(|seed| base.clone().seed(seed)).collect();
        let serial = RunContext::new(1).run(&jobs);
        let parallel = RunContext::new(4).run(&jobs);
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.throughput_mbps.to_bits(), b.throughput_mbps.to_bits());
        }
    }

    #[test]
    fn invalid_scenarios_are_quarantined_not_panicked() {
        let mut bad = Scenario::new(Protocol::Standard80211, TopologySpec::FullyConnected, 4)
            .durations(SimDuration::from_millis(50), SimDuration::from_millis(100));
        bad.weights = Some(vec![1.0; 3]); // length mismatch
        let good = Scenario::new(
            Protocol::StaticPPersistent { p: 0.04 },
            TopologySpec::FullyConnected,
            4,
        )
        .durations(SimDuration::from_millis(50), SimDuration::from_millis(100));
        let results = RunContext::new(2).run_checked(&[good.clone(), bad, good.clone()]);
        assert!(results[0].is_ok());
        assert!(matches!(
            results[1],
            Err(JobError::InvalidScenario(
                crate::error::ScenarioError::WeightsLengthMismatch {
                    expected: 4,
                    got: 3
                }
            ))
        ));
        assert!(results[2].is_ok());
        // The healthy slots are bit-identical to a run without the bad job.
        let clean = RunContext::new(1).run_checked(&[good.clone(), good]);
        let ok = |r: &Result<ScenarioResult, JobError>| {
            serde_json::to_string(r.as_ref().unwrap()).unwrap()
        };
        assert_eq!(ok(&results[0]), ok(&clean[0]));
        assert_eq!(ok(&results[2]), ok(&clean[1]));
        // run folds the same failure into a CampaignError panic.
        let mut bad2 = Scenario::new(Protocol::Standard80211, TopologySpec::FullyConnected, 4);
        bad2.n = 0;
        let payload = std::panic::catch_unwind(|| RunContext::new(1).run(&[bad2]))
            .expect_err("zero stations must fail");
        let message = panic_message(payload);
        assert!(
            message.contains("1 campaign job(s) quarantined"),
            "{message}"
        );
        assert!(message.contains("[job 0: invalid scenario"), "{message}");
    }

    #[test]
    fn transient_injected_panics_are_retried_to_success() {
        let jobs: Vec<Scenario> = (1..=3u64)
            .map(|seed| {
                Scenario::new(
                    Protocol::StaticPPersistent { p: 0.04 },
                    TopologySpec::FullyConnected,
                    4,
                )
                .durations(SimDuration::from_millis(50), SimDuration::from_millis(150))
                .seed(seed)
            })
            .collect();
        let clean: Vec<String> = RunContext::new(1)
            .run_checked(&jobs)
            .into_iter()
            .map(|r| serde_json::to_string(&r.unwrap()).unwrap())
            .collect();
        // Every attempt below the retry budget trips; the final one succeeds.
        let mut ctx = RunContext::new(2);
        ctx.faults = FaultPlan::builder(11)
            .site(FaultSite::JobPanic, 1.0, Some(ctx.attempts - 1))
            .build();
        let faulted = ctx.run_checked(&jobs);
        for (r, expect) in faulted.into_iter().zip(&clean) {
            let r = r.expect("transient faults must be retried through");
            assert_eq!(&serde_json::to_string(&r).unwrap(), expect);
        }
    }

    #[test]
    fn permanent_injected_panics_quarantine_only_their_job() {
        let jobs: Vec<Scenario> = (1..=4u64)
            .map(|seed| {
                Scenario::new(
                    Protocol::StaticPPersistent { p: 0.04 },
                    TopologySpec::FullyConnected,
                    4,
                )
                .durations(SimDuration::from_millis(50), SimDuration::from_millis(150))
                .seed(seed)
            })
            .collect();
        let clean: Vec<String> = RunContext::new(1)
            .run_checked(&jobs)
            .into_iter()
            .map(|r| serde_json::to_string(&r.unwrap()).unwrap())
            .collect();
        // Rate 0.5, unbounded: some jobs fault on every attempt (quarantined),
        // some recover. The plan itself predicts which, so assert exactness.
        let mut ctx = RunContext::new(2);
        ctx.faults = FaultPlan::builder(5)
            .site(FaultSite::JobPanic, 0.5, None)
            .build();
        let attempts = ctx.attempts;
        let expect_fail: Vec<bool> = jobs
            .iter()
            .map(|j| {
                ctx.faults
                    .faults_every_attempt(FaultSite::JobPanic, &job_key(j), attempts)
            })
            .collect();
        let faulted = ctx.run_checked(&jobs);
        for ((r, &fail), expect) in faulted.into_iter().zip(&expect_fail).zip(&clean) {
            match r {
                Ok(result) => {
                    assert!(!fail, "plan predicted quarantine");
                    assert_eq!(&serde_json::to_string(&result).unwrap(), expect);
                }
                Err(e) => {
                    assert!(fail, "plan predicted success, got {e}");
                    assert!(e.is_injected(), "{e}");
                    assert!(matches!(e, JobError::Panicked { attempts: a, .. } if a == attempts));
                }
            }
        }
    }

    #[test]
    fn cell_stats_match_manual_aggregation() {
        let outcome = tiny_campaign().run(&RunContext::new(2));
        let cell = &outcome.cells[0];
        let stats = cell.stats();
        let xs = cell.throughputs_mbps();
        assert_eq!(xs.len(), 3);
        let mean = xs.iter().sum::<f64>() / 3.0;
        assert!((stats.mean_mbps - mean).abs() < 1e-12);
        assert!(stats.min_mbps <= stats.mean_mbps && stats.mean_mbps <= stats.max_mbps);
        assert!(stats.stddev_mbps > 0.0, "three seeds should not coincide");
        assert!(stats.ci95_mbps > 0.0 && stats.ci95_mbps < stats.stddev_mbps * 1.96);
    }

    #[test]
    fn singleton_and_empty_stats_are_defined() {
        let cell = CampaignCell {
            protocol: Protocol::Standard80211,
            topology: "t".into(),
            n: 1,
            seeds: vec![],
            results: vec![],
        };
        let s = cell.stats();
        assert_eq!(s.mean_mbps, 0.0);
        assert_eq!(s.stddev_mbps, 0.0);
        assert_eq!(s.ci95_mbps, 0.0);
    }

    #[test]
    fn cached_runner_serves_second_pass_from_disk_bit_identically() {
        let dir = crate::scratch_path("wlan_campaign_cache_test");
        let _ = std::fs::remove_dir_all(&dir);
        let mut ctx = RunContext::new(2);
        ctx.cache = Some(ResultCache::open(&dir).unwrap());
        let stats = || ctx.cache.as_ref().unwrap().stats();
        let base = Scenario::new(
            Protocol::StaticPPersistent { p: 0.04 },
            TopologySpec::FullyConnected,
            5,
        )
        .durations(SimDuration::from_millis(50), SimDuration::from_millis(200));
        let jobs: Vec<Scenario> = (1..=3u64).map(|seed| base.clone().seed(seed)).collect();

        let cold = ctx.run(&jobs);
        assert_eq!(stats().misses, 3);
        assert_eq!(stats().hits, 0);
        let warm = ctx.run(&jobs);
        assert_eq!(stats().hits, 3, "warm pass must run zero jobs");
        assert_eq!(
            serde_json::to_string(&cold).unwrap(),
            serde_json::to_string(&warm).unwrap(),
            "cached results must be bit-identical to computed ones"
        );

        // A corrupted entry is detected, recomputed and healed.
        let key = crate::cache::job_key(&jobs[0]);
        let entry = dir.join(format!("{key}.json"));
        std::fs::write(&entry, "{\"truncated\": tru").unwrap();
        let healed = ctx.run(&jobs);
        assert_eq!(stats().misses, 4, "corrupt entry counts as a miss");
        assert_eq!(
            serde_json::to_string(&cold).unwrap(),
            serde_json::to_string(&healed).unwrap()
        );
        let again = ctx.run(&jobs);
        assert_eq!(stats().hits, 3 + 2 + 3, "healed entry hits again");
        let snap = ctx.metrics.snapshot(ctx.cache.as_ref());
        assert_eq!(
            (snap.cache_hits, snap.cache_misses),
            (8, 4),
            "read from the handle"
        );
        assert_eq!(
            serde_json::to_string(&cold).unwrap(),
            serde_json::to_string(&again).unwrap()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A hit is what the context computes: with telemetry on it carries the
    /// controller-telemetry section, with it off it does not, whichever
    /// setting filled the cache; the job key stays the same.
    #[test]
    fn a_hit_is_what_the_context_computes_with_or_without_telemetry() {
        let job = [
            Scenario::new(Protocol::WTopCsma, TopologySpec::FullyConnected, 5)
                .durations(SimDuration::from_millis(50), SimDuration::from_millis(200))
                .update_period(SimDuration::from_millis(20))
                .seed(2),
        ];
        let context = |telemetry: bool, dir: Option<&std::path::Path>| {
            let mut ctx = RunContext::new(1);
            ctx.telemetry = telemetry;
            ctx.cache = dir.map(|dir| ResultCache::open(dir).unwrap());
            ctx
        };
        let computed = |telemetry| context(telemetry, None).run(&job)[0].to_json();
        let (plain, telemetered) = (computed(false), computed(true));
        assert!(!plain.contains("controller_telemetry"));
        assert!(telemetered.contains("\"controller_telemetry\""));

        for (first, second) in [(false, true), (true, false)] {
            let dir = crate::scratch_path(&format!("wlan_campaign_telemetry_{first}"));
            let _ = std::fs::remove_dir_all(&dir);
            let expected = |telemetry| if telemetry { &telemetered } else { &plain };
            for (telemetry, misses) in [(first, 1), (second, 1), (second, 0), (first, 0)] {
                let ctx = context(telemetry, Some(&dir));
                let result = ctx.run_checked(&job).remove(0).unwrap();
                assert_eq!(
                    &result.to_json(),
                    expected(telemetry),
                    "telemetry {telemetry}"
                );
                let stats = ctx.cache.as_ref().unwrap().stats();
                assert_eq!(stats.misses, misses, "telemetry {telemetry} after {first}");
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn retry_backoff_is_deterministic_and_bounded() {
        assert_eq!(retry_backoff(1), Duration::from_millis(2));
        assert_eq!(retry_backoff(2), Duration::from_millis(4));
        for attempt in 0..40 {
            assert!(retry_backoff(attempt) <= Duration::from_millis(50));
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = tiny_campaign().run(&RunContext::new(2)).report();
        let json = serde_json::to_string(&report).unwrap();
        let back: CampaignReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.cells.len(), report.cells.len());
        assert_eq!(back.cells[0].protocol, report.cells[0].protocol);
    }
}
