//! Bounded controller traces: a time series whose memory stays O(cap) over
//! arbitrarily long runs via stride-doubling decimation.
//!
//! The stochastic-approximation controllers record one trace point per
//! measurement segment, which is O(simulated time / update period) —
//! unbounded over long runs. [`BoundedTrace`] records every `stride`-th
//! sample; when the retained series reaches the cap it is decimated (every
//! second entry dropped, keeping the later of each pair) and the stride
//! doubles, so the trace keeps spanning the whole run at uniform resolution
//! in O(cap) memory. Runs shorter than `cap` segments are recorded exactly.
//!
//! This is only sound for *sampled signals*, such as the SA controllers'
//! epochs (the wTOP estimate and probe, the TORA `p0` estimate): dropping a
//! sample coarsens the curve. An event log, where dropping an entry would
//! erase a transition, must bound its memory another way.

use wlan_sim::snapshot::State;
use wlan_sim::SimTime;

/// A `(time, value)` series bounded by stride-doubling decimation.
#[derive(Debug, Clone)]
pub(crate) struct BoundedTrace<T> {
    entries: Vec<(SimTime, T)>,
    cap: usize,
    /// Record every `stride`-th sample; doubles at each decimation.
    stride: u32,
    /// Samples seen since the last recorded one.
    skip: u32,
}

// The cap is configuration, rebuilt from the scenario.
wlan_sim::state!(impl[T: State + Default] struct BoundedTrace<T> { entries, stride, skip });

impl<T: Copy> BoundedTrace<T> {
    /// Create a trace bounded to `cap` entries (`cap >= 2`). Pre-reserves
    /// room for up to 1024 entries — enough that figure-length runs never
    /// reallocate while recording; runs long enough to approach a larger cap
    /// grow the buffer organically (at most a couple of doublings, which is
    /// noise next to the simulation itself).
    pub(crate) fn new(cap: usize) -> Self {
        assert!(cap >= 2, "trace cap must be at least 2");
        BoundedTrace {
            entries: Vec::with_capacity(cap.min(1024)),
            cap,
            stride: 1,
            skip: 0,
        }
    }

    /// Offer one sample; it is recorded if the stride gate is due.
    pub(crate) fn push(&mut self, now: SimTime, value: T) {
        self.skip += 1;
        if self.skip < self.stride {
            return;
        }
        self.skip = 0;
        self.entries.push((now, value));
        if self.entries.len() >= self.cap {
            decimate(&mut self.entries);
            self.stride = self.stride.saturating_mul(2);
        }
    }

    /// The retained entries, oldest first.
    pub(crate) fn as_slice(&self) -> &[(SimTime, T)] {
        &self.entries
    }
}

/// Keep every second entry of a trace (the later of each pair, plus the final
/// entry of an odd-length trace, so the most recent point always survives).
pub(crate) fn decimate<T: Copy>(trace: &mut Vec<T>) {
    let n = trace.len();
    let mut keep = 0usize;
    for i in (1..n).step_by(2) {
        trace[keep] = trace[i];
        keep += 1;
    }
    if n % 2 == 1 && n > 0 {
        trace[keep] = trace[n - 1];
        keep += 1;
    }
    trace.truncate(keep);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decimate_keeps_later_of_each_pair_and_the_tail() {
        let mut even = vec![0, 1, 2, 3, 4, 5];
        decimate(&mut even);
        assert_eq!(even, vec![1, 3, 5]);
        let mut odd = vec![0, 1, 2, 3, 4];
        decimate(&mut odd);
        assert_eq!(odd, vec![1, 3, 4]);
        let mut single = vec![7];
        decimate(&mut single);
        assert_eq!(single, vec![7]);
        let mut empty: Vec<i32> = vec![];
        decimate(&mut empty);
        assert!(empty.is_empty());
    }

    #[test]
    fn short_series_recorded_exactly_then_bounded() {
        let mut t = BoundedTrace::new(8);
        for i in 0..6u64 {
            t.push(SimTime::from_millis(i), i);
        }
        assert_eq!(t.as_slice().len(), 6, "below the cap: every sample kept");
        for i in 6..500u64 {
            t.push(SimTime::from_millis(i), i);
        }
        assert!(t.as_slice().len() < 8);
        assert!(!t.as_slice().is_empty());
        // Chronological and spanning the recent end of the run.
        let s = t.as_slice();
        assert!(s.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(s.last().unwrap().0 >= SimTime::from_millis(400));
    }
}
