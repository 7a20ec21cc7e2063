//! The IdleSense baseline (Heusse, Rousseau, Guillier & Duda, SIGCOMM 2005).
//!
//! IdleSense is the strongest published baseline the paper compares against.
//! Every station measures the number of idle slots between consecutive
//! transmissions it senses and adapts its contention window so that the
//! long-run average matches a fixed target (≈ 3.1 idle slots for 802.11a/g-like
//! PHYs — the value the paper quotes). The control is a multiplicative-increase
//! / additive-decrease rule on the contention window, which corresponds to AIMD
//! on the attempt rate `1/CW`.
//!
//! The paper's point (Table III, Figs. 1, 6, 7) is that the *target itself* is a
//! model artefact: it is correct only in fully connected networks, so IdleSense
//! collapses once hidden terminals change the relationship between idle slots
//! and the optimal attempt rate. The implementation here follows the published
//! algorithm so that exactly this effect can be reproduced.

use crate::backoff::uniform_cw;
use crate::control::ChannelObservation;
use crate::phy::PhyParams;
use rand_chacha::ChaCha8Rng;

/// Configuration of the IdleSense station policy.
#[derive(Debug, Clone)]
pub struct IdleSenseConfig {
    /// Target average number of idle slots between transmissions
    /// (`n_target ≈ 3.1` for the PHY of Table I, as used in the paper).
    pub target_idle_slots: f64,
    /// Number of observed transmissions over which the average is computed before
    /// each contention-window adjustment.
    pub transmissions_per_update: u32,
    /// Multiplicative increase factor applied to CW when the medium is too busy
    /// (average idle slots below target).
    pub alpha: f64,
    /// Additive decrease (in slots) applied to CW when the medium is too idle.
    pub beta: f64,
    /// Lower bound on the contention window.
    pub cw_min: f64,
    /// Upper bound on the contention window.
    pub cw_max: f64,
    /// Initial contention window.
    pub initial_cw: f64,
}

impl Default for IdleSenseConfig {
    fn default() -> Self {
        IdleSenseConfig {
            target_idle_slots: 3.1,
            transmissions_per_update: 5,
            alpha: 1.0666,
            beta: 0.75,
            cw_min: 4.0,
            cw_max: 4096.0,
            initial_cw: 32.0,
        }
    }
}

impl IdleSenseConfig {
    /// Default configuration bounded by the PHY's CWmax.
    pub fn for_phy(phy: &PhyParams) -> Self {
        IdleSenseConfig {
            cw_max: (4 * phy.cw_max) as f64,
            ..Default::default()
        }
    }
}

/// The IdleSense adaptive contention-window policy (station side, fully
/// distributed: it needs no AP support).
#[derive(Debug, Clone)]
pub struct IdleSensePolicy {
    config: IdleSenseConfig,
    cw: f64,
    idle_slot_sum: u64,
    observed_transmissions: u32,
}

wlan_des::state!(struct IdleSensePolicy { cw, idle_slot_sum, observed_transmissions });

impl IdleSensePolicy {
    /// Create a policy with the given configuration.
    pub fn new(config: IdleSenseConfig) -> Self {
        assert!(config.cw_min >= 1.0 && config.cw_max >= config.cw_min);
        assert!(
            config.alpha > 1.0,
            "alpha must be a multiplicative increase"
        );
        assert!(config.beta > 0.0);
        assert!(config.transmissions_per_update >= 1);
        let cw = config.initial_cw.clamp(config.cw_min, config.cw_max);
        IdleSensePolicy {
            config,
            cw,
            idle_slot_sum: 0,
            observed_transmissions: 0,
        }
    }

    /// Create a policy with the defaults used in the paper's comparison.
    pub fn for_phy(phy: &PhyParams) -> Self {
        Self::new(IdleSenseConfig::for_phy(phy))
    }

    /// The current (continuous) contention window.
    pub fn cw(&self) -> f64 {
        self.cw
    }

    /// The configured idle-slot target.
    pub fn target(&self) -> f64 {
        self.config.target_idle_slots
    }

    fn adapt(&mut self) {
        let avg = self.idle_slot_sum as f64 / self.observed_transmissions as f64;
        if avg < self.config.target_idle_slots {
            // Medium too busy: back off multiplicatively.
            self.cw *= self.config.alpha;
        } else {
            // Medium too idle: become slightly more aggressive.
            self.cw -= self.config.beta;
        }
        self.cw = self.cw.clamp(self.config.cw_min, self.config.cw_max);
        self.idle_slot_sum = 0;
        self.observed_transmissions = 0;
    }

    /// Draw the backoff uniformly from the rounded current window.
    pub fn next_backoff(&mut self, rng: &mut ChaCha8Rng) -> u64 {
        uniform_cw(self.cw.round().max(1.0) as u64, rng)
    }

    /// Count the idle slots before a sensed busy period, adapting the window
    /// every `transmissions_per_update` observations.
    pub fn on_observation(&mut self, observation: &ChannelObservation) {
        self.idle_slot_sum += observation.idle_slots;
        self.observed_transmissions += 1;
        if self.observed_transmissions >= self.config.transmissions_per_update {
            self.adapt();
        }
    }

    /// Mean attempt rate: 2 / (CW + 1) per slot.
    pub fn attempt_probability(&self) -> f64 {
        2.0 / (self.cw + 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backoff::Policy;
    use crate::control::{BusyOutcome, ControlPayload};
    use rand::SeedableRng;

    fn obs(idle_slots: u64) -> ChannelObservation {
        ChannelObservation {
            idle_slots,
            own_transmission: false,
            outcome: BusyOutcome::Unknown,
        }
    }

    #[test]
    fn too_few_idle_slots_increase_cw() {
        let mut p = IdleSensePolicy::new(IdleSenseConfig::default());
        let before = p.cw();
        for _ in 0..5 {
            p.on_observation(&obs(0));
        }
        assert!(
            p.cw() > before,
            "CW should grow when the medium is congested"
        );
    }

    #[test]
    fn too_many_idle_slots_decrease_cw() {
        let mut p = IdleSensePolicy::new(IdleSenseConfig::default());
        let before = p.cw();
        for _ in 0..5 {
            p.on_observation(&obs(20));
        }
        assert!(p.cw() < before, "CW should shrink when the medium is idle");
    }

    #[test]
    fn adaptation_happens_only_every_n_transmissions() {
        let mut p = IdleSensePolicy::new(IdleSenseConfig::default());
        let before = p.cw();
        for _ in 0..4 {
            p.on_observation(&obs(0));
        }
        assert_eq!(p.cw(), before, "no update before the 5th observation");
        p.on_observation(&obs(0));
        assert!(p.cw() > before);
    }

    #[test]
    fn cw_respects_bounds() {
        let mut p = IdleSensePolicy::new(IdleSenseConfig::default());
        for _ in 0..20_000 {
            p.on_observation(&obs(0));
        }
        assert!(p.cw() <= 4096.0);
        for _ in 0..200_000 {
            p.on_observation(&obs(100));
        }
        assert!(p.cw() >= 4.0);
    }

    #[test]
    fn backoff_samples_respect_current_window() {
        let mut p = IdleSensePolicy::new(IdleSenseConfig::default());
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let cw = p.cw().round() as u64;
        for _ in 0..1000 {
            assert!(p.next_backoff(&mut rng) < cw);
        }
    }

    #[test]
    fn converges_to_an_equilibrium_in_a_synthetic_loop() {
        // Closed loop with a crude synthetic model: the average idle slots seen by a
        // station grow with CW (less contention -> more idle). The policy should
        // settle where the model yields the target.
        let mut p = IdleSensePolicy::new(IdleSenseConfig::default());
        let n = 10.0;
        for _ in 0..200_000 {
            let attempt = 2.0 / (p.cw() + 1.0);
            let pi = (1.0 - attempt).powf(n);
            let idle = if pi >= 1.0 { 1000.0 } else { pi / (1.0 - pi) };
            p.on_observation(&obs(idle.round() as u64));
        }
        let attempt = 2.0 / (p.cw() + 1.0);
        let pi = (1.0 - attempt).powf(n);
        let idle = pi / (1.0 - pi);
        assert!((idle - 3.1).abs() < 1.2, "equilibrium idle slots {idle}");
    }

    #[test]
    fn ignores_control_payloads() {
        let mut p: Policy = IdleSensePolicy::new(IdleSenseConfig::default()).into();
        let before = p.attempt_probability();
        p.on_control(&ControlPayload::AttemptProbability(0.9));
        assert_eq!(p.attempt_probability(), before);
    }
}
