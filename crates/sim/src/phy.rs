//! PHY and MAC timing parameters.
//!
//! The defaults reproduce Table I of the paper: IEEE 802.11a/g OFDM PHY on a
//! 20 MHz channel — 54 Mbps data rate, 8000-bit payloads, CWmin = 8,
//! CWmax = 1024 — together with the standard 9 µs slot, 16 µs SIFS and 34 µs
//! DIFS used throughout the evaluation.
//!
//! The derived quantities [`PhyParams::ts`] and [`PhyParams::tc`] follow the
//! paper's system model exactly:
//!
//! ```text
//! Ts = (LH + EP)/R + SIFS + LACK/R + DIFS       (successful slot)
//! Tc = (LH + EP)/R + DIFS                        (collision slot)
//! ```

use serde::{Deserialize, Serialize};
use wlan_des::time::{SimDuration, SimTime};

/// Length of a MAC data header in bits (24-byte MAC header + 4-byte FCS + 6-byte LLC/SNAP).
pub const DEFAULT_MAC_HEADER_BITS: u64 = 34 * 8;

/// Length of an 802.11 ACK frame in bits (14 bytes).
pub const DEFAULT_ACK_BITS: u64 = 14 * 8;

/// PHY/MAC timing and contention-window parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhyParams {
    /// Idle slot duration σ (9 µs for the OFDM PHY on a 20 MHz channel).
    pub slot: SimDuration,
    /// Short inter-frame space (16 µs).
    pub sifs: SimDuration,
    /// Distributed inter-frame space (34 µs).
    pub difs: SimDuration,
    /// Data bit rate R in bits per second (54 Mbps).
    pub bit_rate_bps: u64,
    /// Bit rate used for ACK frames. The paper's model transmits ACKs at the data
    /// rate (`LACK/R`), so this defaults to `bit_rate_bps`.
    pub ack_rate_bps: u64,
    /// MAC payload size EP in bits (8000 bits in Table I).
    pub payload_bits: u64,
    /// MAC header length LH in bits.
    pub mac_header_bits: u64,
    /// ACK frame length LACK in bits.
    pub ack_bits: u64,
    /// PHY preamble + PLCP header airtime prepended to every frame. The paper's
    /// analytical model folds this into the header term, so the default is zero;
    /// set it to ~20 µs for a more literal OFDM PHY.
    pub phy_preamble: SimDuration,
    /// Minimum contention window CWmin (8 in Table I).
    pub cw_min: u32,
    /// Maximum contention window CWmax (1024 in Table I).
    pub cw_max: u32,
}

impl Default for PhyParams {
    fn default() -> Self {
        PhyParams {
            slot: SimDuration::from_micros(9),
            sifs: SimDuration::from_micros(16),
            difs: SimDuration::from_micros(34),
            bit_rate_bps: 54_000_000,
            ack_rate_bps: 54_000_000,
            payload_bits: 8_000,
            mac_header_bits: DEFAULT_MAC_HEADER_BITS,
            ack_bits: DEFAULT_ACK_BITS,
            phy_preamble: SimDuration::ZERO,
            cw_min: 8,
            cw_max: 1024,
        }
    }
}

impl PhyParams {
    /// Parameters of Table I of the paper (same as [`Default`]).
    pub fn table1() -> Self {
        Self::default()
    }

    /// Validate internal consistency. Returns a human-readable error description.
    pub fn validate(&self) -> Result<(), String> {
        if self.slot.is_zero() {
            return Err("slot duration must be positive".into());
        }
        if self.bit_rate_bps == 0 || self.ack_rate_bps == 0 {
            return Err("bit rates must be positive".into());
        }
        if self.payload_bits == 0 {
            return Err("payload must be non-empty".into());
        }
        if self.cw_min == 0 || !self.cw_min.is_power_of_two() {
            return Err("CWmin must be a positive power of two".into());
        }
        if self.cw_max < self.cw_min || !self.cw_max.is_power_of_two() {
            return Err("CWmax must be a power of two >= CWmin".into());
        }
        if self.difs < self.sifs {
            return Err("DIFS must be at least SIFS".into());
        }
        Ok(())
    }

    /// Number of backoff stages minus one: `m = log2(CWmax / CWmin)`.
    ///
    /// Stage `i` uses contention window `min(2^i * CWmin, CWmax)`, so stages run
    /// from `0` to `m` inclusive (the paper's `m + 1` stages).
    pub fn max_backoff_stage(&self) -> u8 {
        ((self.cw_max / self.cw_min) as f64).log2().round() as u8
    }

    /// Contention window at backoff stage `i`: `min(2^i * CWmin, CWmax)`.
    pub fn cw_at_stage(&self, stage: u8) -> u32 {
        let shifted = (self.cw_min as u64) << stage.min(31);
        shifted.min(self.cw_max as u64) as u32
    }

    /// When a backoff countdown of `slots` idle slots anchored at `start`
    /// expires. Saturating: a countdown that never ends
    /// ([`NEVER`](crate::backoff::NEVER)), or one too long to express, lies
    /// beyond any run instead of wrapping into the past.
    #[inline]
    pub(crate) fn backoff_end(&self, start: SimTime, slots: u64) -> SimTime {
        let wait = self.slot.as_nanos().saturating_mul(slots);
        SimTime::from_nanos(start.as_nanos().saturating_add(wait))
    }

    /// Airtime of a transmission carrying `bits` of MAC payload + header at the data rate.
    pub fn airtime(&self, bits: u64) -> SimDuration {
        self.phy_preamble + Self::tx_time(bits, self.bit_rate_bps)
    }

    /// Airtime of a data frame (header + default payload).
    pub fn data_airtime(&self) -> SimDuration {
        self.airtime(self.mac_header_bits + self.payload_bits)
    }

    /// Airtime of an ACK frame.
    pub fn ack_airtime(&self) -> SimDuration {
        self.phy_preamble + Self::tx_time(self.ack_bits, self.ack_rate_bps)
    }

    /// The paper's `Ts`: total channel time consumed by a successful transmission.
    pub fn ts(&self) -> SimDuration {
        self.data_airtime() + self.sifs + self.ack_airtime() + self.difs
    }

    /// The paper's `Tc`: total channel time consumed by a collision.
    pub fn tc(&self) -> SimDuration {
        self.data_airtime() + self.difs
    }

    /// `Ts*` — the successful-transmission duration measured in slot units.
    pub fn ts_star(&self) -> f64 {
        self.ts().as_nanos() as f64 / self.slot.as_nanos() as f64
    }

    /// `Tc*` — the collision duration measured in slot units.
    pub fn tc_star(&self) -> f64 {
        self.tc().as_nanos() as f64 / self.slot.as_nanos() as f64
    }

    /// How long the transmitter waits for an ACK before declaring a collision.
    ///
    /// The paper uses "ACK not received for DIFS duration after transmission"; we
    /// allow the full SIFS + ACK airtime plus one DIFS of margin so a correctly
    /// delivered ACK always beats the timeout.
    pub fn ack_timeout(&self) -> SimDuration {
        self.sifs + self.ack_airtime() + self.difs
    }

    /// Expected MAC-layer goodput (bits/s) if the channel carried back-to-back
    /// successful transmissions with zero backoff. Upper bound used in sanity tests.
    pub fn saturation_bound_bps(&self) -> f64 {
        self.payload_bits as f64 / self.ts().as_secs_f64()
    }

    fn tx_time(bits: u64, rate_bps: u64) -> SimDuration {
        // ceil(bits / rate) in nanoseconds
        let ns = (bits as u128 * 1_000_000_000u128).div_ceil(rate_bps as u128);
        SimDuration::from_nanos(ns as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table1() {
        let p = PhyParams::table1();
        assert_eq!(p.slot, SimDuration::from_micros(9));
        assert_eq!(p.sifs, SimDuration::from_micros(16));
        assert_eq!(p.difs, SimDuration::from_micros(34));
        assert_eq!(p.bit_rate_bps, 54_000_000);
        assert_eq!(p.payload_bits, 8_000);
        assert_eq!(p.cw_min, 8);
        assert_eq!(p.cw_max, 1024);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn backoff_stages() {
        let p = PhyParams::table1();
        // 1024 / 8 = 128 = 2^7
        assert_eq!(p.max_backoff_stage(), 7);
        assert_eq!(p.cw_at_stage(0), 8);
        assert_eq!(p.cw_at_stage(3), 64);
        assert_eq!(p.cw_at_stage(7), 1024);
        // saturates at CWmax
        assert_eq!(p.cw_at_stage(9), 1024);
    }

    #[test]
    fn airtimes() {
        let p = PhyParams::table1();
        // 8272 bits at 54 Mbps = 153.19 us
        let data = p.data_airtime();
        assert!((data.as_micros_f64() - 153.2).abs() < 0.2, "{data}");
        // 112 bits at 54 Mbps ~ 2.07 us
        let ack = p.ack_airtime();
        assert!((ack.as_micros_f64() - 2.07).abs() < 0.05, "{ack}");
    }

    #[test]
    fn ts_and_tc_follow_paper_model() {
        let p = PhyParams::table1();
        let expected_ts = p.data_airtime() + p.sifs + p.ack_airtime() + p.difs;
        let expected_tc = p.data_airtime() + p.difs;
        assert_eq!(p.ts(), expected_ts);
        assert_eq!(p.tc(), expected_tc);
        assert!(p.ts() > p.tc());
        assert!(p.ts_star() > p.tc_star());
        // Roughly 205 us / 9 us ≈ 22.8 slots for Ts
        assert!(p.ts_star() > 20.0 && p.ts_star() < 26.0);
    }

    #[test]
    fn ack_timeout_exceeds_ack_arrival() {
        let p = PhyParams::table1();
        assert!(p.ack_timeout() > p.sifs + p.ack_airtime());
    }

    #[test]
    fn saturation_bound_is_below_link_rate() {
        let p = PhyParams::table1();
        let bound = p.saturation_bound_bps();
        assert!(bound < p.bit_rate_bps as f64);
        // 8000 bits / ~205us ~ 39 Mbps
        assert!(bound > 30e6 && bound < 45e6, "{bound}");
    }

    #[test]
    fn validation_catches_bad_parameters() {
        let mut p = PhyParams::table1();
        p.cw_min = 6;
        assert!(p.validate().is_err());
        let mut p = PhyParams::table1();
        p.cw_max = 4;
        assert!(p.validate().is_err());
        let mut p = PhyParams::table1();
        p.difs = SimDuration::from_micros(10);
        assert!(p.validate().is_err());
        let mut p = PhyParams::table1();
        p.payload_bits = 0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn custom_payload_changes_airtime_linearly() {
        let mut p = PhyParams::table1();
        let base = p.data_airtime();
        p.payload_bits *= 2;
        let doubled = p.data_airtime();
        assert!(doubled > base);
        let diff = doubled - base;
        // extra 8000 bits at 54 Mbps ≈ 148.1 us
        assert!((diff.as_micros_f64() - 148.1).abs() < 0.2);
    }
}
