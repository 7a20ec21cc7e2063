//! The catalogue of MAC schemes compared in the paper, and factories that
//! instantiate each one (station policies + AP controller) for the simulator.

use crate::tora::{ToraConfig, ToraController};
use crate::wtop::{WtopConfig, WtopController};
use serde::{Deserialize, Serialize};
use wlan_sim::backoff::{ExponentialBackoff, PPersistent, RandomReset};
use wlan_sim::idlesense::IdleSensePolicy;
use wlan_sim::{ApAlgorithm, NullController, PhyParams, Policy, SimDuration};

/// Every channel-access scheme exercised in the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Protocol {
    /// Standard IEEE 802.11 DCF (exponential backoff, no controller).
    Standard80211,
    /// The IdleSense baseline (distributed adaptive contention window).
    IdleSense,
    /// wTOP-CSMA: AP-driven Kiefer–Wolfowitz tuning of p-persistent CSMA.
    WTopCsma,
    /// TORA-CSMA: AP-driven Kiefer–Wolfowitz tuning of RandomReset backoff.
    ToraCsma,
    /// p-persistent CSMA with a fixed attempt probability (used for the static
    /// sweeps of Figs. 2 and 4).
    StaticPPersistent {
        /// The fixed per-slot attempt probability.
        p: f64,
    },
    /// RandomReset(j; p0) with fixed parameters (used for Figs. 5 and 13).
    StaticRandomReset {
        /// Reset stage `j`.
        stage: u8,
        /// Reset probability `p0`.
        p0: f64,
    },
}

impl Protocol {
    /// Short name used in tables and plot legends.
    pub fn label(&self) -> &'static str {
        match self {
            Protocol::Standard80211 => "Standard 802.11",
            Protocol::IdleSense => "IdleSense",
            Protocol::WTopCsma => "wTOP-CSMA",
            Protocol::ToraCsma => "TORA-CSMA",
            Protocol::StaticPPersistent { .. } => "p-persistent (static)",
            Protocol::StaticRandomReset { .. } => "RandomReset (static)",
        }
    }

    /// Whether the scheme is adaptive (needs a warm-up period to converge).
    pub fn is_adaptive(&self) -> bool {
        matches!(
            self,
            Protocol::IdleSense | Protocol::WTopCsma | Protocol::ToraCsma
        )
    }

    /// Check a static scheme's parameters: what
    /// [`station_policy`](Self::station_policy) would otherwise panic on.
    pub fn validate(&self, phy: &PhyParams) -> Result<(), String> {
        match *self {
            Protocol::StaticPPersistent { p } if !(0.0..=1.0).contains(&p) => {
                Err(format!("attempt probability p must lie in [0, 1], got {p}"))
            }
            Protocol::StaticRandomReset { stage, .. } if stage >= phy.max_backoff_stage() => {
                Err(format!(
                    "reset stage j must be below m = {}, got {stage}",
                    phy.max_backoff_stage()
                ))
            }
            Protocol::StaticRandomReset { p0, .. } if !(0.0..=1.0).contains(&p0) => {
                Err(format!("reset probability p0 must lie in [0, 1], got {p0}"))
            }
            _ => Ok(()),
        }
    }

    /// Build the station-side policy for station with the given weight.
    ///
    /// Every scheme of the paper maps to a closed [`Policy`] variant, so the
    /// simulator dispatches it statically on the hot path.
    ///
    /// Weights other than 1 are honoured only by wTOP-CSMA (the paper's only
    /// weighted scheme); for every other protocol they merely label the station.
    pub fn station_policy(&self, phy: &PhyParams, weight: f64) -> Policy {
        match self {
            Protocol::Standard80211 => ExponentialBackoff::new(phy).into(),
            Protocol::IdleSense => IdleSensePolicy::for_phy(phy).into(),
            Protocol::WTopCsma => WtopController::station_policy(weight),
            Protocol::ToraCsma => ToraController::station_policy(phy),
            Protocol::StaticPPersistent { p } => PPersistent::with_weight(*p, weight).into(),
            Protocol::StaticRandomReset { stage, p0 } => RandomReset::new(phy, *stage, *p0).into(),
        }
    }

    /// Build the AP-side controller, using `update_period` for the adaptive
    /// stochastic-approximation schemes (which live in this crate); every
    /// other scheme gets the no-op [`NullController`].
    pub fn ap_algorithm(
        &self,
        phy: &PhyParams,
        update_period: SimDuration,
    ) -> Box<dyn ApAlgorithm> {
        match self {
            Protocol::WTopCsma => {
                let mut cfg = WtopConfig::for_phy(phy);
                cfg.update_period = update_period;
                Box::new(WtopController::new(cfg))
            }
            Protocol::ToraCsma => {
                let mut cfg = ToraConfig::for_phy(phy);
                cfg.update_period = update_period;
                Box::new(ToraController::new(cfg))
            }
            _ => Box::new(NullController::new()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlan_sim::BackoffPolicy;

    #[test]
    fn labels_are_distinct() {
        let all = [
            Protocol::Standard80211,
            Protocol::IdleSense,
            Protocol::WTopCsma,
            Protocol::ToraCsma,
            Protocol::StaticPPersistent { p: 0.1 },
            Protocol::StaticRandomReset { stage: 0, p0: 0.5 },
        ];
        let mut labels: Vec<_> = all.iter().map(|p| p.label()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), all.len());
    }

    #[test]
    fn adaptivity_flags() {
        assert!(Protocol::WTopCsma.is_adaptive());
        assert!(Protocol::ToraCsma.is_adaptive());
        assert!(Protocol::IdleSense.is_adaptive());
        assert!(!Protocol::Standard80211.is_adaptive());
        assert!(!Protocol::StaticPPersistent { p: 0.1 }.is_adaptive());
    }

    #[test]
    fn factories_produce_matching_components() {
        let phy = PhyParams::table1();
        let period = SimDuration::from_millis(250);
        for proto in [
            Protocol::Standard80211,
            Protocol::IdleSense,
            Protocol::WTopCsma,
            Protocol::ToraCsma,
            Protocol::StaticPPersistent { p: 0.05 },
            Protocol::StaticRandomReset { stage: 1, p0: 0.3 },
        ] {
            let policy = proto.station_policy(&phy, 1.0);
            let ap = proto.ap_algorithm(&phy, period);
            assert!(!policy.name().is_empty());
            assert!(!ap.name().is_empty());
            match proto {
                Protocol::WTopCsma => assert_eq!(ap.name(), "wTOP-CSMA"),
                Protocol::ToraCsma => assert_eq!(ap.name(), "TORA-CSMA"),
                _ => assert_eq!(ap.name(), "null"),
            }
        }
    }

    #[test]
    fn serde_round_trip() {
        let p = Protocol::StaticRandomReset { stage: 2, p0: 0.4 };
        let json = serde_json::to_string(&p).unwrap();
        let back: Protocol = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }
}
