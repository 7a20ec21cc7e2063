//! Control messages piggy-backed on ACK frames, and channel observations
//! delivered to station-side policies.
//!
//! Both wTOP-CSMA and TORA-CSMA are centralised: the AP computes the control
//! variable (the attempt probability `p`, or the reset pair `(p0, j)`) and
//! broadcasts it in every ACK. Because every station can decode the AP, every
//! station overhears every ACK and can apply the update.

use serde::{Deserialize, Serialize};

/// The control information the AP embeds in an ACK frame.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum ControlPayload {
    /// No control information (standard 802.11, IdleSense, static policies).
    #[default]
    None,
    /// wTOP-CSMA: the common control variable `p`. Each station with weight `w`
    /// derives its own attempt probability `p_t = w p / (1 + (w - 1) p)` (Lemma 1).
    AttemptProbability(f64),
    /// TORA-CSMA: the RandomReset parameters. On a successful transmission a
    /// station resets to backoff stage `stage` with probability `p0`, and to a
    /// uniformly random stage in `(stage, m]` with probability `1 - p0`.
    RandomReset {
        /// Reset probability `p0 ∈ [0, 1]`.
        p0: f64,
        /// Preferred reset stage `j ∈ [0, m - 1]`.
        stage: u8,
    },
}

impl ControlPayload {
    /// Whether this payload carries any information.
    pub fn is_none(&self) -> bool {
        matches!(self, ControlPayload::None)
    }
}

wlan_des::state!(enum ControlPayload { None, AttemptProbability(p), RandomReset { p0, stage } });

/// What a station observed at the end of a busy period on the channel,
/// as perceived through its own carrier sensing.
///
/// Distributed schemes such as IdleSense consume these observations: each
/// station tracks the average number of idle slots between consecutive
/// transmissions it senses and adapts its contention window accordingly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChannelObservation {
    /// Number of whole idle slots the station counted between the end of the
    /// previous busy period and the start of the one that just ended.
    pub idle_slots: u64,
    /// Whether the busy period that just ended contained this station's own
    /// transmission.
    pub own_transmission: bool,
    /// Outcome of the busy period as far as the station can tell.
    pub outcome: BusyOutcome,
}

/// Outcome of a busy period from a station's local point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BusyOutcome {
    /// The busy period was followed by an ACK from the AP (a success somewhere).
    Success,
    /// The busy period was not followed by an ACK (collision or hidden-node loss).
    Failure,
    /// The station cannot tell (e.g. the busy period was an ACK itself).
    Unknown,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_payload_is_none() {
        assert!(ControlPayload::default().is_none());
        assert!(!ControlPayload::AttemptProbability(0.1).is_none());
        assert!(!ControlPayload::RandomReset { p0: 0.5, stage: 0 }.is_none());
    }

    #[test]
    fn payload_serde_round_trip() {
        let payloads = [
            ControlPayload::None,
            ControlPayload::AttemptProbability(0.05),
            ControlPayload::RandomReset { p0: 0.75, stage: 3 },
        ];
        for p in payloads {
            let json = serde_json::to_string(&p).unwrap();
            let back: ControlPayload = serde_json::from_str(&json).unwrap();
            assert_eq!(p, back);
        }
    }
}
