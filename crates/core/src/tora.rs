//! TORA-CSMA — Throughput Optimal RandomReset CSMA (Algorithm 2).
//!
//! Stations run exponential backoff on failures; on a success they reset to
//! backoff stage `j` with probability `p0` and to a uniformly random higher
//! stage otherwise (the RandomReset(j; p0) policy of Definition 4). The AP tunes
//! `p0` with the same Kiefer–Wolfowitz throughput measurements as wTOP-CSMA and
//! walks the stage `j` whenever `p0` saturates:
//!
//! * `p0 ≤ δl` — even the most conservative reset at this stage is too
//!   aggressive → increase `j` (larger windows) and restart `p0` at 0.5;
//! * `p0 ≥ δh` — the stage is too conservative → decrease `j` and restart.
//!
//! The pair `(p0, 2^j CWmin)` is piggy-backed on every ACK.

use crate::trace::BoundedTrace;
use stochastic_approx::{KieferWolfowitz, PowerLawGains};
use wlan_sim::backoff::RandomReset;
use wlan_sim::{
    ApAlgorithm, ControlEpoch, ControlPayload, PhyParams, Policy, SimDuration, SimTime,
};

/// Configuration of the TORA-CSMA controller.
#[derive(Debug, Clone)]
pub struct ToraConfig {
    /// Measurement segment length (the paper's `UPDATE_PERIOD`, 250 ms).
    pub update_period: SimDuration,
    /// Initial reset probability `pval` (0.5 in Algorithm 2).
    pub initial_p0: f64,
    /// Initial backoff stage `j` (0 in Algorithm 2).
    pub initial_stage: u8,
    /// Maximum backoff stage `m` of the PHY.
    pub max_stage: u8,
    /// Lower stage-switch threshold δl (≈ 0).
    pub delta_low: f64,
    /// Upper stage-switch threshold δh (≈ 1).
    pub delta_high: f64,
    /// Throughput measurements are divided by this scale before the KW update.
    pub measurement_scale_bps: f64,
    /// Gain sequences.
    pub gains: PowerLawGains,
    /// Upper bound on retained trace entries (default 4096). The sampled
    /// `p0` trace is bounded by stride-doubling decimation, exactly as in
    /// [`WtopConfig::trace_cap`](crate::wtop::WtopConfig::trace_cap); the
    /// stage *transition* log keeps its most recent half at the cap instead
    /// (decimation would erase transitions).
    pub trace_cap: usize,
}

impl ToraConfig {
    /// The paper's configuration for a given PHY.
    pub fn for_phy(phy: &PhyParams) -> Self {
        ToraConfig {
            update_period: SimDuration::from_millis(250),
            initial_p0: 0.5,
            initial_stage: 0,
            max_stage: phy.max_backoff_stage(),
            delta_low: 0.05,
            delta_high: 0.95,
            measurement_scale_bps: phy.bit_rate_bps as f64,
            gains: PowerLawGains::paper_defaults(),
            trace_cap: 4096,
        }
    }
}

/// The AP-side TORA-CSMA controller.
pub struct ToraController {
    kw: KieferWolfowitz,
    update_period: SimDuration,
    scale: f64,
    delta_low: f64,
    delta_high: f64,
    stage: u8,
    max_stage: u8,
    bits_received: u64,
    segment_start: Option<SimTime>,
    advertised_p0: f64,
    /// Sampled signal, bounded by `trace_cap` (see [`BoundedTrace`]).
    p0_trace: BoundedTrace<f64>,
    /// Event log of stage *transitions* — decimating it would erase
    /// transitions and misreport which stage was active, so it is bounded by
    /// discarding the oldest half at the cap instead.
    stage_trace: Vec<(SimTime, u8)>,
    trace_cap: usize,
    /// Per-segment SA telemetry ([`ControlEpoch`]), bounded like `p0_trace`.
    sa_epochs: BoundedTrace<ControlEpoch>,
}

// The configuration (update period, scale, thresholds, caps) is rebuilt from
// the scenario; the iterate, the stage, the open segment and the traces are
// checkpointed.
wlan_sim::state!(struct ToraController {
    kw, stage, bits_received, segment_start, advertised_p0, p0_trace, stage_trace, sa_epochs
});

impl ToraController {
    /// Create a controller from a configuration.
    pub fn new(config: ToraConfig) -> Self {
        assert!(
            config.initial_stage < config.max_stage,
            "j must stay below m"
        );
        assert!(config.delta_low < config.delta_high);
        let kw =
            KieferWolfowitz::with_gains(config.initial_p0, (0.0, 1.0), (0.0, 1.0), config.gains);
        let advertised_p0 = kw.probe();
        ToraController {
            kw,
            update_period: config.update_period,
            scale: config.measurement_scale_bps,
            delta_low: config.delta_low,
            delta_high: config.delta_high,
            stage: config.initial_stage,
            max_stage: config.max_stage,
            bits_received: 0,
            segment_start: None,
            advertised_p0,
            p0_trace: BoundedTrace::new(config.trace_cap),
            stage_trace: Vec::new(),
            trace_cap: config.trace_cap,
            sa_epochs: BoundedTrace::new(config.trace_cap),
        }
    }

    /// Create the paper-default controller for a PHY.
    pub fn for_phy(phy: &PhyParams) -> Self {
        Self::new(ToraConfig::for_phy(phy))
    }

    /// The station-side policy to pair with this controller. Stations start at the
    /// most aggressive configuration (stage 0, reset probability 1), exactly as in
    /// Algorithm 2, and follow the `(p0, j)` pair announced in ACKs thereafter.
    pub fn station_policy(phy: &PhyParams) -> Policy {
        RandomReset::new(phy, 0, 1.0).into()
    }

    /// Current estimate of the optimal reset probability for the current stage.
    pub fn estimate_p0(&self) -> f64 {
        self.kw.estimate()
    }

    /// Currently selected backoff stage `j`.
    pub fn stage(&self) -> u8 {
        self.stage
    }

    /// The `(time, stage)` history of stage switches.
    pub fn stage_trace(&self) -> &[(SimTime, u8)] {
        &self.stage_trace
    }

    fn finish_segment(&mut self, now: SimTime, segment_start: SimTime) {
        let elapsed = now.duration_since(segment_start).as_secs_f64();
        if elapsed <= 0.0 {
            return;
        }
        let throughput = self.bits_received as f64 / elapsed / self.scale;
        let step = self.kw.record(throughput);
        let delta = match step {
            stochastic_approx::KwStep::AwaitingMinus => None,
            stochastic_approx::KwStep::Updated { delta, .. } => Some(delta),
        };
        self.bits_received = 0;
        self.segment_start = Some(now);

        if let stochastic_approx::KwStep::Updated { .. } = step {
            // Stage-switch rule of Algorithm 2 (lines 12–15): applied after every
            // completed iteration; the gain sequences keep their index.
            let pval = self.kw.estimate();
            if pval <= self.delta_low && self.stage + 1 < self.max_stage {
                self.stage += 1;
                self.kw.reset_estimate(0.5);
                self.push_stage(now);
            } else if pval >= self.delta_high && self.stage > 0 {
                self.stage -= 1;
                self.kw.reset_estimate(0.5);
                self.push_stage(now);
            }
        }
        self.advertised_p0 = self.kw.probe();
        self.p0_trace.push(now, self.kw.estimate());
        self.sa_epochs.push(
            now,
            ControlEpoch {
                iteration: self.kw.iteration(),
                estimate: self.kw.estimate(),
                probe: self.advertised_p0,
                gain: self.kw.gain(),
                perturbation: self.kw.perturbation(),
                window_mean: throughput,
                delta,
            },
        );
    }

    fn push_stage(&mut self, now: SimTime) {
        self.stage_trace.push((now, self.stage));
        // Stage switches are rare, but bound the log anyway (a controller
        // oscillating at a threshold for a very long run must not grow it
        // without limit). This is a step-change event log: dropping interior
        // entries would erase transitions, so keep the most recent half.
        if self.stage_trace.len() >= self.trace_cap {
            let drop = self.stage_trace.len() / 2;
            self.stage_trace.drain(..drop);
        }
    }
}

impl ApAlgorithm for ToraController {
    fn on_success(&mut self, now: SimTime, _source: usize, payload_bits: u64) {
        self.bits_received += payload_bits;
        let segment_start = *self.segment_start.get_or_insert(now);
        if now.duration_since(segment_start) >= self.update_period {
            self.finish_segment(now, segment_start);
        }
    }

    fn control_payload(&mut self, _now: SimTime) -> ControlPayload {
        ControlPayload::RandomReset {
            p0: self.advertised_p0,
            stage: self.stage,
        }
    }

    fn on_beacon(&mut self, now: SimTime) {
        // Same rationale as wTOP-CSMA: a silent update period is a zero-throughput
        // measurement, not a reason to stall the controller.
        if let Some(segment_start) = self.segment_start {
            if now.duration_since(segment_start) >= self.update_period {
                self.finish_segment(now, segment_start);
            }
        } else {
            self.segment_start = Some(now);
        }
    }

    fn name(&self) -> &'static str {
        "TORA-CSMA"
    }

    fn control_trace(&self) -> &[(SimTime, f64)] {
        self.p0_trace.as_slice()
    }

    fn telemetry(&self) -> &[(SimTime, ControlEpoch)] {
        self.sa_epochs.as_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlan_sim::snapshot::{State, StateReader, StateWriter};
    use wlan_sim::BackoffPolicy;

    fn controller() -> ToraController {
        ToraController::for_phy(&PhyParams::table1())
    }

    /// Feed the controller exactly one measurement segment whose measured
    /// throughput is `bits / 0.25 s`, then close it just past the boundary.
    fn feed_measurement(c: &mut ToraController, cursor_ms: &mut u64, bits: u64) {
        c.on_success(SimTime::from_millis(*cursor_ms + 1), 0, bits);
        c.on_success(SimTime::from_millis(*cursor_ms + 251), 0, 0);
        *cursor_ms += 251;
    }

    /// Throughput levels (in total bits per segment) used to steer the estimate:
    /// "high" ≈ 25 Mbps, "low" ≈ 0.4 Mbps.
    const HIGH: u64 = 6_000_000;
    const LOW: u64 = 100_000;

    #[test]
    fn advertises_initial_parameters() {
        let mut c = controller();
        match c.control_payload(SimTime::ZERO) {
            ControlPayload::RandomReset { p0, stage } => {
                assert!(p0 > 0.5 && p0 <= 1.0, "initial probe {p0}");
                assert_eq!(stage, 0);
            }
            other => panic!("unexpected payload {other:?}"),
        }
    }

    #[test]
    fn good_plus_segment_raises_p0_estimate() {
        let mut c = controller();
        let before = c.estimate_p0();
        let mut ms = 0;
        feed_measurement(&mut c, &mut ms, HIGH); // plus side: high throughput
        feed_measurement(&mut c, &mut ms, LOW); // minus side: low throughput
        assert!(
            c.estimate_p0() > before,
            "{} -> {}",
            before,
            c.estimate_p0()
        );
    }

    #[test]
    fn saturation_at_zero_switches_to_higher_stage() {
        let phy = PhyParams::table1();
        let mut c = ToraController::new(ToraConfig::for_phy(&phy));
        // Repeatedly make the minus side look much better than the plus side, which
        // drives the estimate down towards 0 until the stage-switch rule fires.
        let mut ms = 0;
        for _ in 0..8 {
            feed_measurement(&mut c, &mut ms, LOW);
            feed_measurement(&mut c, &mut ms, HIGH);
            if c.stage() >= 1 {
                break;
            }
        }
        assert!(
            c.stage() >= 1,
            "stage should have increased, p0 = {}",
            c.estimate_p0()
        );
        // After the switch the estimate restarts at 0.5.
        assert!((c.estimate_p0() - 0.5).abs() < 0.45);
    }

    #[test]
    fn saturation_at_one_switches_to_lower_stage_but_not_below_zero() {
        let phy = PhyParams::table1();
        let mut cfg = ToraConfig::for_phy(&phy);
        cfg.initial_stage = 2;
        let mut c = ToraController::new(cfg);
        let mut ms = 0;
        for _ in 0..8 {
            feed_measurement(&mut c, &mut ms, HIGH);
            feed_measurement(&mut c, &mut ms, LOW);
            if c.stage() < 2 {
                break;
            }
        }
        assert!(
            c.stage() < 2,
            "stage should have decreased, p0 = {}",
            c.estimate_p0()
        );
        // Keep pushing: the stage must never underflow below 0.
        for _ in 0..20 {
            feed_measurement(&mut c, &mut ms, HIGH);
            feed_measurement(&mut c, &mut ms, LOW);
        }
        assert!(c.stage() <= 2);
    }

    #[test]
    fn stage_never_reaches_m() {
        let phy = PhyParams::table1();
        let mut c = ToraController::new(ToraConfig::for_phy(&phy));
        let mut ms = 0;
        // Drive p0 down relentlessly: the stage may only climb up to m - 1.
        for _ in 0..60 {
            feed_measurement(&mut c, &mut ms, LOW);
            feed_measurement(&mut c, &mut ms, HIGH);
        }
        assert!(c.stage() < phy.max_backoff_stage());
    }

    #[test]
    fn station_policy_starts_aggressive_and_follows_control() {
        let phy = PhyParams::table1();
        let mut policy = ToraController::station_policy(&phy);
        assert_eq!(policy.backoff_stage(), Some(0));
        policy.on_control(&ControlPayload::RandomReset { p0: 0.25, stage: 3 });
        // The policy itself is exercised in depth in wlan-sim's backoff tests; here we
        // only check the control path is wired.
        assert_eq!(policy.name(), "random-reset");
    }

    #[test]
    fn p0_trace_stays_bounded_by_the_cap() {
        let phy = PhyParams::table1();
        let mut cfg = ToraConfig::for_phy(&phy);
        cfg.trace_cap = 8;
        let mut c = ToraController::new(cfg);
        let mut ms = 0;
        for i in 0..200 {
            // Alternate outcomes so the estimate (and occasionally the
            // stage) keeps moving.
            let bits = if i % 2 == 0 { HIGH } else { LOW };
            feed_measurement(&mut c, &mut ms, bits);
        }
        assert!(c.control_trace().len() < 8, "{}", c.control_trace().len());
        assert!(!c.control_trace().is_empty());
        assert!(c.stage_trace().len() < 8);
    }

    #[test]
    fn controller_state_round_trips_through_the_snapshot_codec() {
        let mut c = controller();
        let mut ms = 0;
        // Drive the estimate towards zero far enough to record a stage switch.
        for _ in 0..8 {
            feed_measurement(&mut c, &mut ms, LOW);
            feed_measurement(&mut c, &mut ms, HIGH);
        }
        assert!(c.stage() >= 1, "setup should have switched stage");
        c.on_success(SimTime::from_millis(ms + 17), 0, 98_765);

        let mut w = StateWriter::new();
        c.save(&mut w);
        let bytes = w.finish();
        let mut twin = controller();
        let mut r = StateReader::new(&bytes).unwrap();
        twin.load(&mut r).unwrap();
        r.expect_end().unwrap();

        assert_eq!(c.estimate_p0().to_bits(), twin.estimate_p0().to_bits());
        assert_eq!(c.stage(), twin.stage());
        assert_eq!(c.stage_trace(), twin.stage_trace());
        assert_eq!(c.control_trace(), twin.control_trace());
        // Identical continuations stay identical.
        let (mut ma, mut mb) = (ms, ms);
        for i in 0..6 {
            let bits = if i % 2 == 0 { HIGH } else { LOW };
            feed_measurement(&mut c, &mut ma, bits);
            feed_measurement(&mut twin, &mut mb, bits);
        }
        assert_eq!(c.estimate_p0().to_bits(), twin.estimate_p0().to_bits());
        assert_eq!(c.stage(), twin.stage());
    }

    #[test]
    fn control_trace_is_recorded() {
        let mut c = controller();
        let mut ms = 0;
        feed_measurement(&mut c, &mut ms, HIGH);
        feed_measurement(&mut c, &mut ms, HIGH / 2);
        feed_measurement(&mut c, &mut ms, HIGH / 4);
        assert!(!c.control_trace().is_empty());
    }
}
