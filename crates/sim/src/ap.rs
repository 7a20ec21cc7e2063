//! The access-point side of the MAC: reception outcomes and the controller hook.
//!
//! Both of the paper's algorithms run at the AP: they observe the stream of
//! successfully received frames (Algorithm 1 / Algorithm 2, lines 3–14), update
//! their control variable once per `UPDATE_PERIOD`, and piggy-back the current
//! value on every ACK. The simulator exposes exactly that interface through
//! [`ApAlgorithm`]; protocol implementations live in the `wlan-core` crate.

use crate::control::ControlPayload;
use crate::topology::NodeId;
use serde::{Deserialize, Serialize};
use wlan_des::snapshot::State;
use wlan_des::time::SimTime;

/// One completed controller measurement segment, as reported through
/// [`ApAlgorithm::telemetry`]: the stochastic-approximation iterate and the
/// quantities that drove it. Purely observational — capturing epochs draws no
/// RNG and schedules nothing, so an instrumented run is identical to an
/// uninstrumented one.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ControlEpoch {
    /// The optimiser's iteration counter `k` after this segment was folded in.
    pub iteration: u64,
    /// Estimate of the optimal control variable (`pval`), in control-variable
    /// units (a probability, even for log-domain controllers).
    pub estimate: f64,
    /// The probe value advertised for the *next* segment.
    pub probe: f64,
    /// Step gain `a_k` in effect after the segment.
    pub gain: f64,
    /// Perturbation width `b_k` in effect after the segment.
    pub perturbation: f64,
    /// Mean of the observable over the segment window (throughput normalised
    /// by the controller's measurement scale).
    pub window_mean: f64,
    /// Change the update applied to the estimate, in the optimiser's working
    /// domain. `None` when the segment was the plus-side half of a
    /// finite-difference pair (no update yet — awaiting the minus side).
    pub delta: Option<f64>,
}

wlan_des::state!(struct ControlEpoch {
    iteration, estimate, probe, gain, perturbation, window_mean, delta
});

/// A controller running at the access point.
///
/// The simulator calls [`on_success`](ApAlgorithm::on_success) whenever a data
/// frame is decoded without collision (immediately before the ACK is scheduled),
/// [`on_collision`](ApAlgorithm::on_collision) whenever a busy period at the AP
/// ends without a decodable frame, and [`control_payload`](ApAlgorithm::control_payload)
/// when building each ACK.
///
/// A controller's [`State`] is its *mutable* state, which engine checkpoints
/// save and restore into a controller freshly built from the same scenario;
/// configuration is not part of it.
pub trait ApAlgorithm: Send + State {
    /// A data frame from `source` carrying `payload_bits` of MAC payload was
    /// successfully received; the reception finished at `now`.
    fn on_success(&mut self, now: SimTime, source: NodeId, payload_bits: u64);

    /// A busy period at the AP ended at `now` without any decodable frame
    /// (one or more overlapping transmissions collided).
    fn on_collision(&mut self, now: SimTime) {
        let _ = now;
    }

    /// Periodic beacon tick (the simulator's statistics tick). Gives controllers a
    /// chance to close a measurement segment even when no frame has been received
    /// for a while — the paper's suggested beacon-frame variant of wTOP-CSMA.
    fn on_beacon(&mut self, now: SimTime) {
        let _ = now;
    }

    /// The control payload to embed in the ACK transmitted at `now`.
    fn control_payload(&mut self, now: SimTime) -> ControlPayload;

    /// Short human-readable name.
    fn name(&self) -> &'static str;

    /// Time series of the controller's scalar control variable (`p` for wTOP-CSMA,
    /// `p0` for TORA-CSMA). Used to reproduce Figs. 9 and 11.
    ///
    /// Returns a borrowed slice: the trace is read once per scenario (after
    /// the run) but can hold thousands of entries, and the previous
    /// clone-per-call signature showed up as avoidable allocation in the
    /// large-N campaign profiles.
    fn control_trace(&self) -> &[(SimTime, f64)] {
        &[]
    }

    /// Per-update-epoch telemetry of the controller's stochastic-
    /// approximation iterate (see [`ControlEpoch`]), timestamped with the
    /// segment-close instant. Empty for controllers without one (the
    /// default). Surfaced on scenario results only when telemetry is
    /// requested, so the default serialised form is unchanged.
    fn telemetry(&self) -> &[(SimTime, ControlEpoch)] {
        &[]
    }
}

/// The "controller" of standard IEEE 802.11 and of all static policies: does
/// nothing and advertises no control information.
#[derive(Debug, Default, Clone)]
pub struct NullController {
    successes: u64,
    collisions: u64,
}

wlan_des::state!(struct NullController { successes, collisions });

impl NullController {
    /// Create a no-op controller.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of successful receptions observed.
    pub fn successes(&self) -> u64 {
        self.successes
    }

    /// Number of collision events observed.
    pub fn collisions(&self) -> u64 {
        self.collisions
    }
}

impl ApAlgorithm for NullController {
    fn on_success(&mut self, _now: SimTime, _source: NodeId, _payload_bits: u64) {
        self.successes += 1;
    }

    fn on_collision(&mut self, _now: SimTime) {
        self.collisions += 1;
    }

    fn control_payload(&mut self, _now: SimTime) -> ControlPayload {
        ControlPayload::None
    }

    fn name(&self) -> &'static str {
        "null"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_controller_counts_and_stays_silent() {
        let mut c = NullController::new();
        c.on_success(SimTime::from_micros(10), 3, 8000);
        c.on_success(SimTime::from_micros(20), 4, 8000);
        c.on_collision(SimTime::from_micros(30));
        assert_eq!(c.successes(), 2);
        assert_eq!(c.collisions(), 1);
        assert!(c.control_payload(SimTime::from_micros(40)).is_none());
        assert!(c.control_trace().is_empty());
        assert_eq!(c.name(), "null");
    }
}
