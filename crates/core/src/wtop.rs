//! wTOP-CSMA — Weighted fair Throughput Optimal p-Persistent CSMA (Algorithm 1).
//!
//! The access point measures the system throughput over consecutive
//! `UPDATE_PERIOD` segments, alternating the advertised control variable between
//! `pval + b_k` and `pval - b_k`, and applies the Kiefer–Wolfowitz update
//!
//! ```text
//! pval ← pval + a_k (S_plus - S_minus) / b_k
//! ```
//!
//! The current probe value `p` is piggy-backed on every ACK. Each station with
//! weight `w` sets its own attempt probability to `w p / (1 + (w - 1) p)`
//! (Lemma 1), which yields a weighted-fair, throughput-optimal allocation in a
//! fully connected network (Theorems 1 and 2) and tracks a local maximum when
//! hidden terminals make the throughput function unknown.

use crate::trace::BoundedTrace;
use stochastic_approx::{KieferWolfowitz, PowerLawGains};
use wlan_sim::backoff::PPersistent;
use wlan_sim::{
    ApAlgorithm, ControlEpoch, ControlPayload, PhyParams, Policy, SimDuration, SimTime,
};

/// Configuration of the wTOP-CSMA controller.
#[derive(Debug, Clone)]
pub struct WtopConfig {
    /// Length of one measurement segment (the paper's `UPDATE_PERIOD`; 250 ms in
    /// its ns-3 experiments, ideally covering ≈500 successful transmissions).
    pub update_period: SimDuration,
    /// Initial value of the control variable `pval`. Algorithm 1 starts at 0.5;
    /// the default here is 0.1 — the same initial attempt probability the paper
    /// gives the stations — which shortens the cold-start descent towards
    /// p* ≈ 1/N without affecting the converged operating point.
    pub initial_p: f64,
    /// Lower clamp applied to the advertised probe value. Algorithm 1 clamps at 0;
    /// a small positive floor avoids the absorbing state in which no station ever
    /// transmits and therefore no further measurements arrive.
    pub probe_min: f64,
    /// Upper clamp applied to the advertised probe value (0.9 in Algorithm 1).
    pub probe_max: f64,
    /// Throughput measurements are divided by this value before entering the
    /// Kiefer–Wolfowitz update so the gain sequences are dimensionless. The
    /// natural scale is the PHY bit rate.
    pub measurement_scale_bps: f64,
    /// Gain sequences (`a_k = 1/k`, `b_k = 1/k^{1/3}` in the paper).
    pub gains: PowerLawGains,
    /// Collapse recovery: when the throughput measured on *both* sides of an
    /// iteration falls below this fraction of `measurement_scale_bps` (default 5%), the
    /// finite-difference gradient carries no information (the network is in the
    /// flat, collision-saturated region of the throughput curve). Instead of
    /// applying a vanishing gradient step, the controller halves the advertised
    /// probability. Because the throughput curve is quasi-concave and strictly
    /// positive near the lower probe bound, a (near-)zero measurement can only
    /// mean the attempt probability is far too high, so stepping down is always
    /// the correct direction. Set to 0 to disable.
    pub collapse_threshold: f64,
    /// Upper bound on the number of retained [`ControlEpoch`]s (default
    /// 4096), the controller's one trace: the control trace is their
    /// `(time, estimate)` pairs. An epoch is recorded once per measurement
    /// segment, which is O(simulated time / update period) — unbounded over
    /// long runs. At the cap the trace is decimated (every second entry
    /// dropped) and the recording stride doubles, so memory stays O(cap)
    /// while the trace still spans the whole run at uniform resolution.
    /// Figure-length runs (≤ `cap` segments) are recorded exactly. Must be
    /// at least 2.
    pub trace_cap: usize,
    /// Run the Kiefer–Wolfowitz iteration on `ln p` instead of `p` directly.
    ///
    /// The optimal attempt probability scales as `1/N` (eq. 8) and is two orders
    /// of magnitude smaller than the `b_k` perturbations of the paper's gain
    /// sequences, so perturbing `p` additively probes wildly asymmetric operating
    /// points and the iterate pins to the lower clamp. Perturbing `ln p` keeps the
    /// probes multiplicatively symmetric around the estimate; quasi-concavity is
    /// preserved under the monotone transform, and the paper itself presents its
    /// control variable on a `-log p` axis (Fig. 9). Enabled by default.
    pub log_domain: bool,
}

impl WtopConfig {
    /// The paper's configuration for a given PHY.
    pub fn for_phy(phy: &PhyParams) -> Self {
        WtopConfig {
            update_period: SimDuration::from_millis(250),
            initial_p: 0.1,
            probe_min: 0.0005,
            probe_max: 0.9,
            measurement_scale_bps: phy.bit_rate_bps as f64,
            // a_k = 16/k, b_k = 1/k^(1/3). The paper's a_k = 1/k is stated without
            // fixing the units of the throughput measurements; with measurements
            // normalised by the 54 Mbps link rate, a numerator of 16 reproduces the
            // paper's reported convergence behaviour (within ~60 s of simulated
            // time from a cold start, robustly across seeds and N) and still
            // satisfies every Kiefer–Wolfowitz condition. See the
            // `ablation_gain_sequences` bench for the sweep behind this choice.
            gains: PowerLawGains::new(16.0, 1.0, 1.0, 1.0 / 3.0),
            collapse_threshold: 0.05,
            trace_cap: 4096,
            log_domain: true,
        }
    }
}

/// The AP-side wTOP-CSMA controller.
pub struct WtopController {
    kw: KieferWolfowitz,
    update_period: SimDuration,
    scale: f64,
    log_domain: bool,
    collapse_threshold: f64,
    last_plus_measurement: Option<f64>,
    bits_received: u64,
    segment_start: Option<SimTime>,
    advertised_p: f64,
    /// Per-segment SA telemetry ([`ControlEpoch`]: the estimate, the probe
    /// and what drove them), bounded by `trace_cap` (see [`BoundedTrace`]).
    sa_epochs: BoundedTrace<ControlEpoch>,
}

// The configuration (update period, scale, clamps, gains) is rebuilt from
// the scenario; the iterate, the open segment's accumulator and the trace
// are checkpointed.
wlan_sim::state!(struct WtopController {
    kw, last_plus_measurement, bits_received, segment_start, advertised_p, sa_epochs
});

impl WtopController {
    /// Create a controller from a configuration.
    pub fn new(config: WtopConfig) -> Self {
        assert!(config.probe_min > 0.0 && config.probe_min < config.probe_max);
        assert!(config.measurement_scale_bps > 0.0);

        let (initial, bounds) = if config.log_domain {
            (
                config
                    .initial_p
                    .clamp(config.probe_min, config.probe_max)
                    .ln(),
                (config.probe_min.ln(), config.probe_max.ln()),
            )
        } else {
            (config.initial_p, (config.probe_min, config.probe_max))
        };
        let kw = KieferWolfowitz::with_gains(initial, bounds, bounds, config.gains);
        let mut controller = WtopController {
            kw,
            update_period: config.update_period,
            scale: config.measurement_scale_bps,
            log_domain: config.log_domain,
            collapse_threshold: config.collapse_threshold,
            last_plus_measurement: None,
            bits_received: 0,
            segment_start: None,
            advertised_p: 0.0,
            sa_epochs: BoundedTrace::new(config.trace_cap),
        };
        controller.advertised_p = controller.domain_to_p(controller.kw.probe());
        controller
    }

    fn domain_to_p(&self, x: f64) -> f64 {
        if self.log_domain {
            x.exp()
        } else {
            x
        }
    }

    /// Create the paper-default controller for a PHY.
    pub fn for_phy(phy: &PhyParams) -> Self {
        Self::new(WtopConfig::for_phy(phy))
    }

    /// The station-side policy to pair with this controller: p-persistent CSMA with
    /// the given weight. Stations start at the paper's initial attempt probability
    /// of 0.1 and follow the control variable announced in ACKs thereafter.
    pub fn station_policy(weight: f64) -> Policy {
        PPersistent::with_weight(0.1, weight).into()
    }

    /// Current Kiefer–Wolfowitz estimate of the optimal control variable `p`.
    pub fn estimate(&self) -> f64 {
        self.domain_to_p(self.kw.estimate())
    }

    /// The control value currently advertised in ACKs.
    pub fn advertised(&self) -> f64 {
        self.advertised_p
    }

    /// Number of completed Kiefer–Wolfowitz iterations.
    pub fn iterations(&self) -> u64 {
        self.kw.iteration().saturating_sub(2)
    }

    fn finish_segment(&mut self, now: SimTime, segment_start: SimTime) {
        let elapsed = now.duration_since(segment_start).as_secs_f64();
        if elapsed <= 0.0 {
            return;
        }
        let throughput_bps = self.bits_received as f64 / elapsed;
        let measurement = throughput_bps / self.scale;
        let step = self.kw.record(measurement);
        let delta = match step {
            stochastic_approx::KwStep::AwaitingMinus => None,
            stochastic_approx::KwStep::Updated { delta, .. } => Some(delta),
        };
        match step {
            stochastic_approx::KwStep::AwaitingMinus => {
                self.last_plus_measurement = Some(measurement);
            }
            stochastic_approx::KwStep::Updated { .. } => {
                let y_plus = self.last_plus_measurement.take().unwrap_or(measurement);
                if self.collapse_threshold > 0.0
                    && y_plus < self.collapse_threshold
                    && measurement < self.collapse_threshold
                {
                    // Both probes sit in the collision-saturated flat region: the
                    // gradient is uninformative, so step the estimate down instead.
                    let halved = if self.log_domain {
                        self.kw.estimate() - std::f64::consts::LN_2
                    } else {
                        self.kw.estimate() / 2.0
                    };
                    self.kw.reset_estimate(halved);
                }
            }
        }
        self.bits_received = 0;
        self.segment_start = Some(now);
        self.advertised_p = self.domain_to_p(self.kw.probe());
        self.sa_epochs.push(
            now,
            ControlEpoch {
                iteration: self.kw.iteration(),
                estimate: self.estimate(),
                probe: self.advertised_p,
                gain: self.kw.gain(),
                perturbation: self.kw.perturbation(),
                window_mean: measurement,
                delta,
            },
        );
    }
}

impl ApAlgorithm for WtopController {
    fn on_success(&mut self, now: SimTime, _source: usize, payload_bits: u64) {
        self.bits_received += payload_bits;
        let segment_start = *self.segment_start.get_or_insert(now);
        if now.duration_since(segment_start) >= self.update_period {
            self.finish_segment(now, segment_start);
        }
    }

    fn control_payload(&mut self, _now: SimTime) -> ControlPayload {
        ControlPayload::AttemptProbability(self.advertised_p)
    }

    fn on_beacon(&mut self, now: SimTime) {
        // Close a measurement segment even if no frame has arrived: a silent
        // network is a legitimate (zero-throughput) measurement. Without this a
        // badly chosen probe value could starve the controller of updates.
        if let Some(segment_start) = self.segment_start {
            if now.duration_since(segment_start) >= self.update_period {
                self.finish_segment(now, segment_start);
            }
        } else {
            self.segment_start = Some(now);
        }
    }

    fn name(&self) -> &'static str {
        "wTOP-CSMA"
    }

    fn telemetry(&self) -> &[(SimTime, ControlEpoch)] {
        self.sa_epochs.as_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlan_sim::snapshot::{State, StateReader, StateWriter};

    fn controller() -> WtopController {
        WtopController::for_phy(&PhyParams::table1())
    }

    /// Feed the controller exactly one measurement segment with the given total
    /// number of payload bits, starting at `*cursor_ms`. The segment is closed by a
    /// zero-length success just past the `UPDATE_PERIOD` boundary. Returns nothing;
    /// advances the cursor to the segment boundary.
    fn feed_measurement(c: &mut WtopController, cursor_ms: &mut u64, bits: u64) {
        c.on_success(SimTime::from_millis(*cursor_ms + 1), 0, bits);
        c.on_success(SimTime::from_millis(*cursor_ms + 251), 0, 0);
        *cursor_ms += 251;
    }

    #[test]
    fn advertises_initial_probe_before_any_measurement() {
        let mut c = controller();
        match c.control_payload(SimTime::ZERO) {
            ControlPayload::AttemptProbability(p) => {
                // First probe is on the plus side of the initial estimate (0.1 by
                // default), clamped to the advertisable range.
                assert!(p > 0.1 && p <= 0.9, "initial probe {p}")
            }
            other => panic!("unexpected payload {other:?}"),
        }
    }

    #[test]
    fn completes_an_iteration_after_two_segments() {
        let mut c = controller();
        let mut cursor = 0;
        assert_eq!(c.iterations(), 0);
        feed_measurement(&mut c, &mut cursor, 4_000_000);
        assert_eq!(c.iterations(), 0, "only the plus side has been measured");
        feed_measurement(&mut c, &mut cursor, 4_000_000);
        assert!(c.iterations() >= 1, "iterations {}", c.iterations());
        assert!(!c.telemetry().is_empty());
    }

    #[test]
    fn higher_throughput_on_plus_side_raises_the_estimate() {
        let mut c = controller();
        let before = c.estimate();
        let mut cursor = 0;
        // Plus segment: high throughput (~25 Mbps); minus segment: nearly idle.
        feed_measurement(&mut c, &mut cursor, 6_000_000);
        feed_measurement(&mut c, &mut cursor, 100_000);
        assert!(
            c.estimate() > before,
            "estimate should rise: before {before}, after {}",
            c.estimate()
        );
        // And the converse drives it back down.
        let mid = c.estimate();
        feed_measurement(&mut c, &mut cursor, 100_000);
        feed_measurement(&mut c, &mut cursor, 6_000_000);
        assert!(
            c.estimate() < mid,
            "estimate should fall: mid {mid}, after {}",
            c.estimate()
        );
    }

    #[test]
    fn station_policy_applies_weighted_control() {
        let mut policy = WtopController::station_policy(2.0);
        assert!((policy.attempt_probability().unwrap() - 0.1).abs() < 1e-12);
        policy.on_control(&ControlPayload::AttemptProbability(0.3));
        let expected = 2.0 * 0.3 / (1.0 + 0.3);
        assert!((policy.attempt_probability().unwrap() - expected).abs() < 1e-12);
    }

    #[test]
    fn traces_stay_bounded_by_the_cap() {
        let mut cfg = WtopConfig::for_phy(&PhyParams::table1());
        cfg.trace_cap = 8;
        let mut c = WtopController::new(cfg);
        let mut cursor = 0;
        for _ in 0..200 {
            feed_measurement(&mut c, &mut cursor, 2_000_000);
        }
        assert!(c.iterations() >= 90, "iterations {}", c.iterations());
        assert!(
            c.telemetry().len() < 8,
            "trace length {}",
            c.telemetry().len()
        );
        assert!(!c.telemetry().is_empty());
        // The retained points still span (roughly) the whole run: the last
        // retained timestamp is in the final quarter of the feed.
        let last = c.telemetry().last().unwrap().0;
        assert!(
            last >= SimTime::from_millis(cursor * 3 / 4),
            "last retained point {last} vs cursor {cursor} ms"
        );
    }

    #[test]
    fn short_runs_record_every_segment_exactly_as_before() {
        // Below the cap the stride never doubles: one trace entry per
        // completed segment, the behaviour every figure run relies on.
        let mut c = controller();
        let mut cursor = 0;
        for _ in 0..20 {
            feed_measurement(&mut c, &mut cursor, 2_000_000);
        }
        assert_eq!(c.telemetry().len(), 20);
        // Each epoch holds the estimate and the probe advertised after it.
        let (_, last) = c.telemetry()[19];
        assert_eq!(last.estimate.to_bits(), c.estimate().to_bits());
        assert_eq!(last.probe.to_bits(), c.advertised().to_bits());
    }

    #[test]
    fn controller_state_round_trips_through_the_snapshot_codec() {
        let mut c = controller();
        let mut cursor = 0;
        for i in 0..7 {
            let bits = if i % 2 == 0 { 5_000_000 } else { 300_000 };
            feed_measurement(&mut c, &mut cursor, bits);
        }
        // Leave a segment half-open so the accumulator state is non-trivial.
        c.on_success(SimTime::from_millis(cursor + 40), 0, 123_456);

        let mut w = StateWriter::new();
        c.save(&mut w);
        let bytes = w.finish();
        let mut twin = controller();
        let mut r = StateReader::new(&bytes).unwrap();
        twin.load(&mut r).unwrap();
        r.expect_end().unwrap();

        assert_eq!(c.estimate().to_bits(), twin.estimate().to_bits());
        assert_eq!(c.advertised().to_bits(), twin.advertised().to_bits());
        assert_eq!(c.telemetry(), twin.telemetry());
        // Identical continuations stay identical.
        let mut ca = cursor;
        let mut cb = cursor;
        for i in 0..5 {
            let bits = if i % 2 == 0 { 200_000 } else { 4_000_000 };
            feed_measurement(&mut c, &mut ca, bits);
            feed_measurement(&mut twin, &mut cb, bits);
        }
        assert_eq!(c.estimate().to_bits(), twin.estimate().to_bits());
        assert_eq!(c.iterations(), twin.iterations());
        assert_eq!(c.telemetry(), twin.telemetry());
    }

    #[test]
    fn advertised_probe_stays_in_clamp_range() {
        let mut c = controller();
        let period = SimDuration::from_millis(250);
        let mut now = SimTime::ZERO;
        for seg in 0..40 {
            for _ in 0..10 {
                now += period / 10;
                // Alternate wildly between huge and zero throughput to push the
                // estimate around.
                let bits = if seg % 2 == 0 { 1_000_000 } else { 1 };
                c.on_success(now, 0, bits);
            }
        }
        assert!(
            c.advertised() >= 0.002 && c.advertised() <= 0.9,
            "{}",
            c.advertised()
        );
        assert!(c.estimate() >= 0.0 && c.estimate() <= 1.0);
    }
}
