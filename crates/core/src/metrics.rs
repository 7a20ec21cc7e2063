//! Campaign observability: the metrics registry a [`crate::RunContext`]
//! carries, and the library's log layer.
//!
//! The registry unifies retry and quarantine tallies with per-job execution
//! metrics (wall-clock, engine events processed); its snapshot adds the
//! context's cache counters, so a service-mode process can dump one coherent
//! `metrics.json` at exit and emit periodic heartbeat lines while a campaign
//! drains.
//!
//! Cost model (mirrors the kernel's `wlan_des::metrics` contract):
//!
//! * Counter bumps are single relaxed atomic adds on paths that already do
//!   I/O or run whole simulations — unmeasurable against the work they count.
//! * The engine-report aggregation (per-event-kind totals) only runs when
//!   the context's `telemetry` is on — `WLAN_METRICS=1` in the binaries —
//!   because producing kernel reports requires the dispatch registry to
//!   have been enabled on the simulator in the first place.
//! * Nothing here draws RNG or touches simulation state: results are
//!   byte-identical whatever the verbosity.
//!
//! Heartbeats (the context's `heartbeat` period, `WLAN_HEARTBEAT_SECS=n` in
//! the binaries, default off) are JSON lines on stderr, one every period
//! while a supervised campaign runs:
//! `{"heartbeat":<unix_secs>,"claimed":N,"done":N,"errors":N}`.

use crate::cache::ResultCache;
use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// The library's log layer: every diagnostic a library crate emits goes
/// through here (the binaries print their own reports directly). One line on
/// stderr, prefixed so service logs are greppable. Centralising the writes
/// lets the workspace deny `clippy::print_stdout`/`print_stderr` in library
/// code without losing the diagnostics.
#[allow(clippy::print_stderr)]
pub fn log_line(level: &str, message: &str) {
    eprintln!("[wlan:{level}] {message}");
}

/// [`log_line`] at warning level.
pub fn warn(message: &str) {
    log_line("warn", message);
}

/// Emit one heartbeat record on stderr — the raw JSON line, unprefixed, so
/// service supervisors can parse the stream with any JSON-lines tooling.
#[allow(clippy::print_stderr)]
pub fn emit_heartbeat(line: &str) {
    eprintln!("{line}");
}

/// Wall-clock seconds since the Unix epoch (0 if the clock is before it).
pub fn unix_secs() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// Aggregated per-event-kind engine telemetry, folded from the kernel
/// reports of every instrumented job run on the registry's context.
#[derive(Debug, Default)]
struct EngineAccum {
    /// Total events dispatched, by event kind (sorted at snapshot time).
    by_kind: Vec<(String, u64)>,
    /// Largest transmission-slab high-water mark seen in any job.
    max_tx_slab_high_water: usize,
    /// Jobs that contributed a kernel report.
    reports: u64,
}

/// A run context's campaign metrics registry. All counters are monotonic
/// relaxed atomics; cross-thread ordering does not matter for tallies that
/// are only read at snapshot time.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    retries: AtomicU64,
    quarantined: AtomicU64,
    jobs_completed: AtomicU64,
    jobs_failed: AtomicU64,
    events_processed: AtomicU64,
    busy_nanos: AtomicU64,
    engine: Mutex<EngineAccum>,
}

impl MetricsRegistry {
    /// A failed job attempt was retried.
    pub fn record_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    /// A job exhausted its attempts and was quarantined.
    pub fn record_quarantine(&self) {
        self.quarantined.fetch_add(1, Ordering::Relaxed);
    }

    /// A job finished: engine events it processed and the wall-clock time it
    /// occupied a worker.
    pub fn record_job(&self, events: u64, wall: Duration) {
        self.jobs_completed.fetch_add(1, Ordering::Relaxed);
        self.events_processed.fetch_add(events, Ordering::Relaxed);
        self.busy_nanos
            .fetch_add(wall.as_nanos() as u64, Ordering::Relaxed);
    }

    /// A job failed terminally.
    pub fn record_job_failure(&self) {
        self.jobs_failed.fetch_add(1, Ordering::Relaxed);
    }

    /// Fold one instrumented simulator's telemetry report into the engine
    /// aggregate.
    pub fn record_engine_report(&self, report: &wlan_sim::EngineMetrics) {
        let mut engine = self.engine.lock().expect("engine metrics poisoned");
        engine.reports += 1;
        engine.max_tx_slab_high_water =
            engine.max_tx_slab_high_water.max(report.tx_slab_high_water);
        for dispatch in &report.kernel.dispatch {
            for (kind, &count) in report.kernel.kinds.iter().zip(&dispatch.by_kind) {
                if count == 0 {
                    continue;
                }
                match engine.by_kind.iter_mut().find(|(k, _)| k == kind) {
                    Some((_, total)) => *total += count,
                    None => engine.by_kind.push((kind.clone(), count)),
                }
            }
        }
    }

    /// Point-in-time copy of every counter, with the cache fields read from
    /// `cache`'s own counters (zero without one): the serialisable form
    /// dumped to `results/metrics.json` and embedded in heartbeat summaries.
    pub fn snapshot(&self, cache: Option<&ResultCache>) -> MetricsSnapshot {
        let stats = cache.map(ResultCache::stats).unwrap_or_default();
        let busy_nanos = self.busy_nanos.load(Ordering::Relaxed);
        let events = self.events_processed.load(Ordering::Relaxed);
        let busy_secs = busy_nanos as f64 / 1e9;
        let engine = self.engine.lock().expect("engine metrics poisoned");
        let mut by_kind = engine.by_kind.clone();
        by_kind.sort_by(|a, b| a.0.cmp(&b.0));
        MetricsSnapshot {
            cache_hits: stats.hits,
            cache_misses: stats.misses,
            cache_degraded: cache.map_or(0, ResultCache::store_failures),
            retries: self.retries.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            jobs_completed: self.jobs_completed.load(Ordering::Relaxed),
            jobs_failed: self.jobs_failed.load(Ordering::Relaxed),
            events_processed: events,
            busy_secs,
            events_per_busy_sec: if busy_secs > 0.0 {
                events as f64 / busy_secs
            } else {
                0.0
            },
            engine_reports: engine.reports,
            max_tx_slab_high_water: engine.max_tx_slab_high_water as u64,
            events_by_kind: by_kind,
        }
    }
}

/// Serialisable point-in-time view of the [`MetricsRegistry`].
#[derive(Debug, Clone, Serialize)]
pub struct MetricsSnapshot {
    /// Results served from the cache.
    pub cache_hits: u64,
    /// Results computed (no usable cache entry).
    pub cache_misses: u64,
    /// Cache I/O failures absorbed without failing the run.
    pub cache_degraded: u64,
    /// Failed job attempts that were retried.
    pub retries: u64,
    /// Jobs quarantined after exhausting their attempts.
    pub quarantined: u64,
    /// Jobs that completed.
    pub jobs_completed: u64,
    /// Jobs that failed terminally.
    pub jobs_failed: u64,
    /// Engine events processed across all completed jobs.
    pub events_processed: u64,
    /// Total worker wall-clock seconds spent inside jobs (sums across
    /// threads, so it can exceed elapsed time).
    pub busy_secs: f64,
    /// `events_processed / busy_secs` — the fleet-wide engine rate.
    pub events_per_busy_sec: f64,
    /// Instrumented jobs that contributed a kernel telemetry report
    /// (requires the context's `telemetry`).
    pub engine_reports: u64,
    /// Largest transmission-slab high-water mark seen in any job.
    pub max_tx_slab_high_water: u64,
    /// Events dispatched by event kind, summed over instrumented jobs,
    /// sorted by kind name.
    pub events_by_kind: Vec<(String, u64)>,
}

impl MetricsSnapshot {
    /// One-line JSON heartbeat record:
    /// `{"heartbeat":<unix_secs>,"claimed":N,"done":N,"errors":N}`.
    /// `claimed` counts jobs handed to workers (done + failed + retries in
    /// flight are approximated by done+failed here; the supervised pool
    /// passes its own live claim count when it has one).
    pub fn heartbeat_line(&self, unix_secs: u64, claimed: u64) -> String {
        format!(
            "{{\"heartbeat\":{unix_secs},\"claimed\":{claimed},\"done\":{},\"errors\":{}}}",
            self.jobs_completed, self.jobs_failed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_counts_and_snapshots() {
        let reg = MetricsRegistry::default();
        reg.record_retry();
        reg.record_quarantine();
        reg.record_job(1000, Duration::from_millis(500));
        reg.record_job(3000, Duration::from_millis(500));
        reg.record_job_failure();
        let snap = reg.snapshot(None);
        assert_eq!(
            (snap.cache_hits, snap.cache_misses, snap.cache_degraded),
            (0, 0, 0)
        );
        assert_eq!(snap.retries, 1);
        assert_eq!(snap.quarantined, 1);
        assert_eq!(snap.jobs_completed, 2);
        assert_eq!(snap.jobs_failed, 1);
        assert_eq!(snap.events_processed, 4000);
        assert!((snap.busy_secs - 1.0).abs() < 1e-9);
        assert!((snap.events_per_busy_sec - 4000.0).abs() < 1e-6);
        let line = snap.heartbeat_line(1234, 7);
        assert_eq!(
            line,
            "{\"heartbeat\":1234,\"claimed\":7,\"done\":2,\"errors\":1}"
        );
    }

    #[test]
    fn engine_reports_aggregate_by_kind() {
        let reg = MetricsRegistry::default();
        let mut sim = wlan_sim::SimulatorBuilder::new(
            wlan_sim::PhyParams::table1(),
            wlan_sim::Topology::fully_connected(3),
        )
        .seed(5)
        .with_stations(|_, phy| {
            wlan_sim::backoff::PPersistent::new(2.0 / (3.0 * phy.tc_star().sqrt()))
        })
        .build();
        sim.enable_metrics();
        sim.run_for(wlan_sim::SimDuration::from_millis(20));
        let report = sim.metrics_report().expect("metrics enabled");
        reg.record_engine_report(&report);
        reg.record_engine_report(&report);
        let snap = reg.snapshot(None);
        assert_eq!(snap.engine_reports, 2);
        assert!(snap.max_tx_slab_high_water >= 1);
        let total: u64 = snap.events_by_kind.iter().map(|(_, c)| c).sum();
        assert_eq!(total, 2 * report.kernel.events_processed);
        // Sorted by kind name.
        for w in snap.events_by_kind.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
    }
}
