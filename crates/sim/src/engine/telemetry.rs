//! The engine's telemetry surface: WLAN display names for the kernel's
//! counters, the assembled [`EngineMetrics`] report, and the `Simulator`
//! methods that switch the kernel registry and self-profiler on and off.
//! Everything here is strictly observational — no path draws RNG, schedules
//! an event, or perturbs the `(time, seq)` order, so an instrumented run is
//! byte-identical to a plain one.

use serde::Serialize;
use wlan_des::{MetricsReport, ProfileSample};

use super::Simulator;

/// Display names of the engine's kernel components, index-aligned with the
/// `*_ID` component ids (and therefore with the `dispatch` rows of a
/// kernel [`MetricsReport`]).
pub const COMPONENT_NAMES: [&str; 4] = ["mac", "channel", "ap", "traffic"];

/// The engine's telemetry report: the kernel [`MetricsReport`] annotated
/// with the WLAN component names and the engine-level slab gauges.
/// Produced by [`Simulator::metrics_report`]; entirely observational — a run
/// with metrics enabled is event-order and RNG-stream identical to one
/// without.
#[derive(Debug, Clone, Serialize)]
pub struct EngineMetrics {
    /// Component display names, index-aligned with `kernel.dispatch`.
    pub components: Vec<String>,
    /// Largest number of transmissions ever simultaneously resident in the
    /// transmission slab.
    pub tx_slab_high_water: usize,
    /// Transmission-slab slots currently allocated (live + free).
    pub tx_slab_capacity: usize,
    /// The kernel-level report: dispatch counters, the event-stream digest,
    /// and queue and scheduler tallies.
    pub kernel: MetricsReport,
}

impl Simulator {
    /// Turn on the kernel's per-component / per-event-kind dispatch
    /// counters. Purely observational: counting happens after the pop and
    /// before the handler runs, draws no RNG, and schedules nothing, so an
    /// instrumented run is byte-identical to an uninstrumented one. When
    /// never called, the dispatch path pays one never-taken branch per event.
    pub fn enable_metrics(&mut self) {
        self.sim.enable_metrics();
    }

    /// Whether [`enable_metrics`](Self::enable_metrics) has been called.
    pub fn metrics_enabled(&self) -> bool {
        self.sim.metrics_enabled()
    }

    /// Assemble the engine telemetry report, or `None` when
    /// [`enable_metrics`](Self::enable_metrics) was never called.
    pub fn metrics_report(&self) -> Option<EngineMetrics> {
        let kernel = self.sim.metrics_report()?;
        Some(EngineMetrics {
            components: COMPONENT_NAMES.iter().map(|s| s.to_string()).collect(),
            tx_slab_high_water: self.tx_slab_high_water(),
            tx_slab_capacity: self.tx_slab_capacity(),
            kernel,
        })
    }

    /// Install the kernel's sampled wall-clock self-profiler: every
    /// `sample_every`-th event is timed (scheduler pop and component handler
    /// separately) and the samples stream into `sink`. Sampling is a
    /// deterministic countdown — which events are timed depends only on
    /// their ordinal, never on the clock — so the simulated trajectory is
    /// unchanged. See [`wlan_des::Simulation::set_profiler`].
    pub fn set_profiler(&mut self, sample_every: u32, sink: Box<dyn FnMut(ProfileSample) + Send>) {
        self.sim.set_profiler(sample_every, sink);
    }

    /// Remove the profiler installed by [`set_profiler`](Self::set_profiler).
    pub fn clear_profiler(&mut self) {
        self.sim.clear_profiler();
    }
}
