//! Dynamic-membership scenarios: stations joining and leaving at scheduled
//! times while an adaptive controller keeps tracking the optimum
//! (Figs. 8–11 of the paper).

use crate::scenario::Scenario;
use serde::{Deserialize, Serialize};
use wlan_sim::{SimDuration, SimTime};

/// A step change in the number of active stations at a given time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MembershipChange {
    /// When the change takes effect (seconds from the start of the run).
    pub at_secs: f64,
    /// Number of stations active from this time onward.
    pub active: usize,
}

/// A piecewise-constant schedule of the number of active stations.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MembershipSchedule {
    /// Number of stations active from time zero.
    pub initial_active: usize,
    /// Subsequent changes, in strictly increasing time order.
    pub changes: Vec<MembershipChange>,
}

impl MembershipSchedule {
    /// A constant-membership schedule.
    pub fn constant(active: usize) -> Self {
        MembershipSchedule {
            initial_active: active,
            changes: Vec::new(),
        }
    }

    /// The schedule used for the paper's dynamic experiments (Figs. 8–11), scaled
    /// to a total duration of `total_secs`: the network starts with 10 stations,
    /// grows to 30 and then 60, and shrinks back to 20.
    pub fn paper_default(total_secs: f64) -> Self {
        MembershipSchedule {
            initial_active: 10,
            changes: vec![
                MembershipChange {
                    at_secs: total_secs * 0.25,
                    active: 30,
                },
                MembershipChange {
                    at_secs: total_secs * 0.50,
                    active: 60,
                },
                MembershipChange {
                    at_secs: total_secs * 0.75,
                    active: 20,
                },
            ],
        }
    }

    /// Largest number of stations ever active (the topology must contain this many).
    pub fn max_active(&self) -> usize {
        self.changes
            .iter()
            .map(|c| c.active)
            .chain(std::iter::once(self.initial_active))
            .max()
            .unwrap_or(0)
    }

    /// Validate monotone times and non-zero membership.
    pub fn validate(&self) -> Result<(), String> {
        if self.initial_active == 0 {
            return Err("initial membership must be positive".into());
        }
        let mut prev = 0.0;
        for c in &self.changes {
            if c.at_secs <= prev {
                return Err(format!(
                    "change times must be strictly increasing (at {})",
                    c.at_secs
                ));
            }
            if c.active == 0 {
                return Err("membership must stay positive".into());
            }
            prev = c.at_secs;
        }
        Ok(())
    }
}

/// Result of a dynamic-membership run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DynamicResult {
    /// Protocol label.
    pub protocol: String,
    /// Throughput time series: (seconds, Mbps, active stations).
    pub throughput_series: Vec<(f64, f64, usize)>,
    /// Controller control-variable trace: (seconds, value).
    pub control_trace: Vec<(f64, f64)>,
    /// Whole-run average throughput in Mbps.
    pub mean_throughput_mbps: f64,
}

/// Run a protocol under a membership schedule and record the time series the
/// paper plots in Figs. 8–11.
///
/// The scenario's `n` must equal the schedule's maximum membership; stations
/// beyond the currently active count are held inactive.
pub fn run_dynamic(
    scenario: &Scenario,
    schedule: &MembershipSchedule,
    total: SimDuration,
) -> DynamicResult {
    schedule.validate().expect("invalid membership schedule");
    assert!(
        scenario.n >= schedule.max_active(),
        "scenario must allocate at least as many stations as the schedule activates"
    );
    let mut sim = scenario.build_simulator();
    // Start with only the initial membership active.
    for i in schedule.initial_active..scenario.n {
        sim.deactivate_station(i);
    }

    let mut boundaries: Vec<(SimTime, usize)> = schedule
        .changes
        .iter()
        .map(|c| (SimTime::from_nanos((c.at_secs * 1e9) as u64), c.active))
        .collect();
    boundaries.push((SimTime::ZERO + total, usize::MAX)); // sentinel: run to the end

    let mut current_active = schedule.initial_active;
    for (time, target) in boundaries {
        sim.run_until(time.min(SimTime::ZERO + total));
        if target == usize::MAX {
            break;
        }
        if target > current_active {
            for i in current_active..target.min(scenario.n) {
                sim.activate_station(i);
            }
        } else {
            for i in target..current_active {
                sim.deactivate_station(i);
            }
        }
        current_active = target.min(scenario.n);
    }

    let stats = sim.stats();
    DynamicResult {
        protocol: scenario.protocol.label().to_string(),
        throughput_series: stats
            .throughput_series
            .iter()
            .map(|s| (s.time.as_secs_f64(), s.bps / 1e6, s.active_nodes))
            .collect(),
        control_trace: crate::scenario::control_trace(&sim),
        mean_throughput_mbps: stats.system_throughput_mbps(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Protocol as P;
    use crate::scenario::TopologySpec;

    #[test]
    fn schedule_validation() {
        assert!(MembershipSchedule::constant(5).validate().is_ok());
        assert!(MembershipSchedule::paper_default(500.0).validate().is_ok());
        let bad = MembershipSchedule {
            initial_active: 5,
            changes: vec![
                MembershipChange {
                    at_secs: 10.0,
                    active: 8,
                },
                MembershipChange {
                    at_secs: 5.0,
                    active: 2,
                },
            ],
        };
        assert!(bad.validate().is_err());
        let zero = MembershipSchedule {
            initial_active: 0,
            changes: vec![],
        };
        assert!(zero.validate().is_err());
    }

    #[test]
    fn max_active_accounts_for_all_phases() {
        let s = MembershipSchedule::paper_default(500.0);
        assert_eq!(s.max_active(), 60);
        assert_eq!(MembershipSchedule::constant(7).max_active(), 7);
    }

    #[test]
    fn dynamic_run_tracks_membership_in_the_series() {
        let schedule = MembershipSchedule {
            initial_active: 2,
            changes: vec![MembershipChange {
                at_secs: 0.5,
                active: 6,
            }],
        };
        let scenario = Scenario::new(
            P::StaticPPersistent { p: 0.05 },
            TopologySpec::FullyConnected,
            6,
        )
        .durations(SimDuration::ZERO, SimDuration::from_secs(1))
        .seed(3);
        let mut s = scenario;
        s.throughput_bin = SimDuration::from_millis(100);
        let result = run_dynamic(&s, &schedule, SimDuration::from_secs(1));
        assert!(!result.throughput_series.is_empty());
        let early: Vec<_> = result
            .throughput_series
            .iter()
            .filter(|(t, _, _)| *t < 0.45)
            .collect();
        let late: Vec<_> = result
            .throughput_series
            .iter()
            .filter(|(t, _, _)| *t > 0.65)
            .collect();
        assert!(early.iter().all(|(_, _, n)| *n == 2), "{early:?}");
        assert!(late.iter().all(|(_, _, n)| *n == 6), "{late:?}");
        assert!(result.mean_throughput_mbps > 1.0);
    }

    #[test]
    #[should_panic]
    fn scenario_smaller_than_schedule_is_rejected() {
        let schedule = MembershipSchedule::paper_default(10.0);
        let scenario = Scenario::new(P::Standard80211, TopologySpec::FullyConnected, 10);
        let _ = run_dynamic(&scenario, &schedule, SimDuration::from_secs(1));
    }
}
