//! Measurement collection: per-station and system-wide throughput, collision
//! counts, idle-slot statistics, finite-load delay/queue metrics and time
//! series.
//!
//! Everything the paper's evaluation reports is derived from these counters:
//! system throughput in Mbps (Figs. 1, 3–8, 10, 13), per-station throughput and
//! normalised (weighted) throughput (Table II), average idle slots per
//! transmission (Table III), and throughput/control-variable time series
//! (Figs. 8–11). Finite-load runs (the traffic layer, beyond the paper)
//! additionally record per-frame delay, jitter, queue high-water marks and
//! drop counters in [`TrafficStats`].

use crate::topology::NodeId;
use serde::{Deserialize, Serialize};
use wlan_des::time::{SimDuration, SimTime};

/// Per-station counters.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct NodeStats {
    /// Number of transmission attempts started.
    pub attempts: u64,
    /// Number of transmissions acknowledged by the AP.
    pub successes: u64,
    /// Number of transmissions that timed out waiting for an ACK.
    pub failures: u64,
    /// Total MAC payload bits delivered to the AP.
    pub payload_bits_delivered: u64,
    /// Total time this station spent transmitting data frames (successful or
    /// not), accumulated per transmission from the slab's start timestamps.
    pub airtime: SimDuration,
    /// Finite-load traffic counters (arrivals, drops, delay, jitter, queue
    /// occupancy). All zero in saturated runs, which have no traffic layer.
    pub traffic: TrafficStats,
}

/// Number of exact low buckets in [`DelayHistogram`] (delays below 16 ns are
/// counted exactly; everything above lands in log-linear buckets).
const HIST_LINEAR: usize = 16;
/// Sub-buckets per power of two in the log-linear region.
const HIST_SUBBUCKETS: usize = 4;

/// A bounded log-linear histogram of per-frame delays.
///
/// Delays are recorded in nanoseconds into buckets with 4 sub-buckets per
/// power of two (relative quantile error ≤ 1/8), so the whole structure is a
/// fixed ≤ 256-slot table regardless of how many frames a run delivers —
/// O(1) memory, exactly like the engine's other long-run collections. The
/// bucket vector grows lazily to the largest delay seen, so an empty (or
/// saturated-run) histogram allocates nothing.
#[derive(Debug, Clone, Default, Serialize, Deserialize, PartialEq)]
pub struct DelayHistogram {
    /// Bucket counts, indexed by [`DelayHistogram::bucket_index`].
    counts: Vec<u64>,
    /// Total number of recorded delays.
    total: u64,
}

impl DelayHistogram {
    /// Bucket index for a delay of `ns` nanoseconds.
    fn bucket_index(ns: u64) -> usize {
        if ns < HIST_LINEAR as u64 {
            return ns as usize;
        }
        let log2 = 63 - ns.leading_zeros() as usize; // >= 4 here
        let sub = ((ns >> (log2 - 2)) & 3) as usize;
        HIST_LINEAR + (log2 - 4) * HIST_SUBBUCKETS + sub
    }

    /// Representative delay (midpoint of the bucket's range) for bucket `i`.
    fn bucket_value(i: usize) -> SimDuration {
        if i < HIST_LINEAR {
            return SimDuration::from_nanos(i as u64);
        }
        let log2 = 4 + (i - HIST_LINEAR) / HIST_SUBBUCKETS;
        let sub = ((i - HIST_LINEAR) % HIST_SUBBUCKETS) as u64;
        let width = 1u64 << (log2 - 2);
        let lower = (1u64 << log2) + sub * width;
        SimDuration::from_nanos(lower + width / 2)
    }

    /// Record one delay.
    pub fn record(&mut self, delay: SimDuration) {
        let i = Self::bucket_index(delay.as_nanos());
        if self.counts.len() <= i {
            self.counts.resize(i + 1, 0);
        }
        self.counts[i] += 1;
        self.total += 1;
    }

    /// Number of recorded delays.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &DelayHistogram) {
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// The `q`-quantile (`q ∈ [0, 1]`) of the recorded delays, to within the
    /// bucket resolution (≤ 12.5% relative error). Returns zero when the
    /// histogram is empty.
    pub fn quantile(&self, q: f64) -> SimDuration {
        if self.total == 0 {
            return SimDuration::ZERO;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_value(i);
            }
        }
        Self::bucket_value(self.counts.len().saturating_sub(1))
    }
}

/// Per-station finite-load traffic counters.
///
/// Maintained only when the simulator has a traffic layer; in saturated runs
/// every field stays at its zero default. The exact conservation invariant —
/// pinned by a property test — is
/// `queued_at_start + arrivals == delivered + drops + current queue length`
/// per station, with `drops` counting queue-overflow tail drops only (MAC
/// retry limits never drop frames under finite load; see the `traffic`
/// module docs).
#[derive(Debug, Clone, Default, Serialize, Deserialize, PartialEq)]
pub struct TrafficStats {
    /// Frames generated by the arrival process (measured interval only).
    pub arrivals: u64,
    /// Frames tail-dropped because the queue was full.
    pub drops: u64,
    /// Frames delivered to the AP (equals `NodeStats::successes` under
    /// finite load).
    pub delivered: u64,
    /// Queue length when the measurement interval began (frames that arrived
    /// before `reset_measurements` but were still queued).
    pub queued_at_start: u64,
    /// Largest queue length observed during the measurement interval
    /// (includes the head-of-line frame in service).
    pub queue_high_water: u64,
    /// Sum of per-frame delays (arrival → ACK delivered: queueing + access +
    /// transmission + ACK).
    pub delay_total: SimDuration,
    /// Sum of squared per-frame delays in seconds² (for the delay stddev).
    pub delay_sq_s2: f64,
    /// Largest per-frame delay.
    pub delay_max: SimDuration,
    /// Sum of |delay_i − delay_{i−1}| over consecutive deliveries (RFC
    /// 3550-style inter-frame delay variation numerator).
    pub jitter_total: SimDuration,
    /// Number of consecutive-delivery pairs in `jitter_total`.
    pub jitter_pairs: u64,
    /// Log-linear per-frame delay histogram (bounded; see [`DelayHistogram`]).
    pub delay_hist: DelayHistogram,
}

impl TrafficStats {
    /// Record one delivered frame. `prev_delay` is the delay of this
    /// station's previous delivery, if any (feeds the jitter accumulator).
    pub fn record_delivery(&mut self, delay: SimDuration, prev_delay: Option<SimDuration>) {
        self.delivered += 1;
        self.delay_total += delay;
        let s = delay.as_secs_f64();
        self.delay_sq_s2 += s * s;
        if delay > self.delay_max {
            self.delay_max = delay;
        }
        if let Some(prev) = prev_delay {
            let diff = if delay > prev {
                delay - prev
            } else {
                prev - delay
            };
            self.jitter_total += diff;
            self.jitter_pairs += 1;
        }
        self.delay_hist.record(delay);
    }

    /// Mean per-frame delay (zero if nothing was delivered).
    pub fn mean_delay(&self) -> SimDuration {
        if self.delivered == 0 {
            SimDuration::ZERO
        } else {
            self.delay_total / self.delivered
        }
    }

    /// Sample standard deviation of the per-frame delay in seconds.
    pub fn delay_stddev_secs(&self) -> f64 {
        if self.delivered < 2 {
            return 0.0;
        }
        let n = self.delivered as f64;
        let mean = self.delay_total.as_secs_f64() / n;
        ((self.delay_sq_s2 / n - mean * mean).max(0.0) * n / (n - 1.0)).sqrt()
    }

    /// Mean inter-frame delay variation (zero with fewer than two deliveries).
    pub fn mean_jitter(&self) -> SimDuration {
        if self.jitter_pairs == 0 {
            SimDuration::ZERO
        } else {
            self.jitter_total / self.jitter_pairs
        }
    }

    /// Fraction of arrivals that were tail-dropped (zero without arrivals).
    pub fn drop_fraction(&self) -> f64 {
        if self.arrivals == 0 {
            0.0
        } else {
            self.drops as f64 / self.arrivals as f64
        }
    }
}

impl NodeStats {
    /// Fraction of attempts that failed (0 if no attempts).
    pub fn collision_ratio(&self) -> f64 {
        if self.attempts == 0 {
            0.0
        } else {
            self.failures as f64 / self.attempts as f64
        }
    }
}

/// A sample of the system throughput over one reporting interval.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ThroughputSample {
    /// End of the interval.
    pub time: SimTime,
    /// Throughput over the interval in bits per second.
    pub bps: f64,
    /// Number of stations that were both active and **backlogged** (had at
    /// least one frame queued, including a frame in service) at the end of
    /// the interval. In saturated runs every active station is permanently
    /// backlogged, so this equals the active-station count — the historical
    /// semantics for dynamic-membership scenarios. Under finite load a
    /// station whose queue drained to empty does not contend and is not
    /// counted.
    pub active_nodes: usize,
}

/// Aggregate statistics of a simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimStats {
    /// Per-station counters, indexed by [`NodeId`].
    pub nodes: Vec<NodeStats>,
    /// Simulated time covered by the measurement (excludes any warm-up interval).
    pub measured_time: SimDuration,
    /// Total number of busy periods observed at the AP.
    pub busy_periods: u64,
    /// Busy periods that ended in a successful reception.
    pub successful_busy_periods: u64,
    /// Busy periods that ended in a collision.
    pub collided_busy_periods: u64,
    /// Total idle slots observed at the AP between busy periods.
    pub idle_slots: u64,
    /// Total time the AP-perceived channel was busy.
    pub busy_time: SimDuration,
    /// Per-interval system throughput samples.
    pub throughput_series: Vec<ThroughputSample>,
}

impl SimStats {
    /// Create an empty statistics block for `n` stations.
    pub fn new(n: usize) -> Self {
        SimStats {
            nodes: vec![NodeStats::default(); n],
            measured_time: SimDuration::ZERO,
            busy_periods: 0,
            successful_busy_periods: 0,
            collided_busy_periods: 0,
            idle_slots: 0,
            busy_time: SimDuration::ZERO,
            throughput_series: Vec::new(),
        }
    }

    /// Total MAC payload bits delivered to the AP by all stations.
    pub fn total_payload_bits(&self) -> u64 {
        self.nodes.iter().map(|n| n.payload_bits_delivered).sum()
    }

    /// System throughput in bits per second.
    pub fn system_throughput_bps(&self) -> f64 {
        if self.measured_time.is_zero() {
            return 0.0;
        }
        self.total_payload_bits() as f64 / self.measured_time.as_secs_f64()
    }

    /// System throughput in Mbps (the unit the paper plots).
    pub fn system_throughput_mbps(&self) -> f64 {
        self.system_throughput_bps() / 1e6
    }

    /// Throughput of one station in bits per second.
    pub fn node_throughput_bps(&self, node: NodeId) -> f64 {
        if self.measured_time.is_zero() {
            return 0.0;
        }
        self.nodes[node].payload_bits_delivered as f64 / self.measured_time.as_secs_f64()
    }

    /// Throughput of one station in Mbps.
    pub fn node_throughput_mbps(&self, node: NodeId) -> f64 {
        self.node_throughput_bps(node) / 1e6
    }

    /// Per-station throughputs in Mbps.
    pub fn per_node_throughput_mbps(&self) -> Vec<f64> {
        (0..self.nodes.len())
            .map(|i| self.node_throughput_mbps(i))
            .collect()
    }

    /// Average number of idle slots per busy period (the paper's "average idle
    /// slots per transmission", Table III).
    pub fn avg_idle_slots_per_transmission(&self) -> f64 {
        if self.busy_periods == 0 {
            return 0.0;
        }
        self.idle_slots as f64 / self.busy_periods as f64
    }

    /// Fraction of busy periods that were collisions.
    pub fn collision_fraction(&self) -> f64 {
        if self.busy_periods == 0 {
            return 0.0;
        }
        self.collided_busy_periods as f64 / self.busy_periods as f64
    }

    /// Channel utilisation: fraction of measured time the AP-perceived channel was busy.
    pub fn channel_utilisation(&self) -> f64 {
        if self.measured_time.is_zero() {
            return 0.0;
        }
        self.busy_time.as_secs_f64() / self.measured_time.as_secs_f64()
    }

    /// Jain's fairness index over per-station throughput:
    /// `(Σ x_i)² / (N Σ x_i²)`. Equals 1 when all stations obtain equal throughput.
    pub fn jain_fairness_index(&self) -> f64 {
        let xs = self.per_node_throughput_mbps();
        jain_index(&xs)
    }

    /// Jain's fairness index over *weight-normalised* throughput `x_i / w_i`
    /// (1 means perfectly weighted-fair allocation).
    pub fn weighted_jain_fairness_index(&self, weights: &[f64]) -> f64 {
        assert_eq!(weights.len(), self.nodes.len());
        let xs: Vec<f64> = self
            .per_node_throughput_mbps()
            .iter()
            .zip(weights)
            .map(|(x, w)| x / w)
            .collect();
        jain_index(&xs)
    }

    /// Total attempts across all stations.
    pub fn total_attempts(&self) -> u64 {
        self.nodes.iter().map(|n| n.attempts).sum()
    }

    /// Total successes across all stations.
    pub fn total_successes(&self) -> u64 {
        self.nodes.iter().map(|n| n.successes).sum()
    }

    /// Total failures across all stations.
    pub fn total_failures(&self) -> u64 {
        self.nodes.iter().map(|n| n.failures).sum()
    }

    /// Total data airtime across all stations.
    pub fn total_airtime(&self) -> SimDuration {
        self.nodes
            .iter()
            .fold(SimDuration::ZERO, |acc, n| acc + n.airtime)
    }

    /// Fraction of measured time one station spent transmitting data frames.
    pub fn node_airtime_share(&self, node: NodeId) -> f64 {
        if self.measured_time.is_zero() {
            return 0.0;
        }
        self.nodes[node].airtime.as_secs_f64() / self.measured_time.as_secs_f64()
    }

    // ------------------------------------------------------------------
    // Finite-load traffic aggregates (all zero in saturated runs)
    // ------------------------------------------------------------------

    /// Total frames generated by all arrival processes.
    pub fn total_frame_arrivals(&self) -> u64 {
        self.nodes.iter().map(|n| n.traffic.arrivals).sum()
    }

    /// Total frames tail-dropped at full queues.
    pub fn total_frame_drops(&self) -> u64 {
        self.nodes.iter().map(|n| n.traffic.drops).sum()
    }

    /// Total frames delivered through the traffic layer.
    pub fn total_frames_delivered(&self) -> u64 {
        self.nodes.iter().map(|n| n.traffic.delivered).sum()
    }

    /// System-wide mean per-frame delay (zero if nothing was delivered).
    pub fn mean_frame_delay(&self) -> SimDuration {
        let delivered: u64 = self.total_frames_delivered();
        if delivered == 0 {
            return SimDuration::ZERO;
        }
        let total = self
            .nodes
            .iter()
            .fold(SimDuration::ZERO, |acc, n| acc + n.traffic.delay_total);
        total / delivered
    }

    /// System-wide mean inter-frame delay variation.
    pub fn mean_frame_jitter(&self) -> SimDuration {
        let pairs: u64 = self.nodes.iter().map(|n| n.traffic.jitter_pairs).sum();
        if pairs == 0 {
            return SimDuration::ZERO;
        }
        let total = self
            .nodes
            .iter()
            .fold(SimDuration::ZERO, |acc, n| acc + n.traffic.jitter_total);
        total / pairs
    }

    /// Merged per-frame delay histogram across all stations (for system-wide
    /// percentiles).
    pub fn frame_delay_histogram(&self) -> DelayHistogram {
        let mut merged = DelayHistogram::default();
        for n in &self.nodes {
            merged.merge(&n.traffic.delay_hist);
        }
        merged
    }

    /// Largest per-station queue high-water mark.
    pub fn max_queue_high_water(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| n.traffic.queue_high_water)
            .max()
            .unwrap_or(0)
    }
}

/// Jain's fairness index of a slice of non-negative values.
pub fn jain_index(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    let sum: f64 = xs.iter().sum();
    let sum_sq: f64 = xs.iter().map(|x| x * x).sum();
    if sum_sq == 0.0 {
        return 1.0;
    }
    sum * sum / (xs.len() as f64 * sum_sq)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats_with_bits(bits: &[u64], secs: u64) -> SimStats {
        let mut s = SimStats::new(bits.len());
        for (i, b) in bits.iter().enumerate() {
            s.nodes[i].payload_bits_delivered = *b;
            s.nodes[i].successes = b / 8000;
            s.nodes[i].attempts = b / 8000 + 1;
            s.nodes[i].failures = 1;
        }
        s.measured_time = SimDuration::from_secs(secs);
        s
    }

    #[test]
    fn throughput_computation() {
        let s = stats_with_bits(&[10_000_000, 30_000_000], 2);
        assert!((s.system_throughput_bps() - 20_000_000.0).abs() < 1e-6);
        assert!((s.system_throughput_mbps() - 20.0).abs() < 1e-9);
        assert!((s.node_throughput_mbps(0) - 5.0).abs() < 1e-9);
        assert!((s.node_throughput_mbps(1) - 15.0).abs() < 1e-9);
    }

    #[test]
    fn zero_time_gives_zero_throughput() {
        let s = SimStats::new(3);
        assert_eq!(s.system_throughput_bps(), 0.0);
        assert_eq!(s.node_throughput_bps(0), 0.0);
    }

    #[test]
    fn jain_index_bounds_and_equality() {
        assert!((jain_index(&[1.0, 1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        let skewed = jain_index(&[1.0, 0.0, 0.0, 0.0]);
        assert!((skewed - 0.25).abs() < 1e-12);
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[0.0, 0.0]), 1.0);
    }

    #[test]
    fn weighted_fairness_normalisation() {
        // Throughputs exactly proportional to weights → weighted index 1, raw index < 1.
        let s = stats_with_bits(&[8_000_000, 16_000_000, 24_000_000], 1);
        let weights = [1.0, 2.0, 3.0];
        assert!((s.weighted_jain_fairness_index(&weights) - 1.0).abs() < 1e-12);
        assert!(s.jain_fairness_index() < 1.0);
    }

    #[test]
    fn idle_slot_and_collision_ratios() {
        let mut s = SimStats::new(2);
        s.busy_periods = 100;
        s.successful_busy_periods = 90;
        s.collided_busy_periods = 10;
        s.idle_slots = 310;
        assert!((s.avg_idle_slots_per_transmission() - 3.1).abs() < 1e-12);
        assert!((s.collision_fraction() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn node_collision_ratio() {
        let mut n = NodeStats::default();
        assert_eq!(n.collision_ratio(), 0.0);
        n.attempts = 10;
        n.failures = 4;
        assert!((n.collision_ratio() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn utilisation() {
        let mut s = SimStats::new(1);
        s.measured_time = SimDuration::from_secs(10);
        s.busy_time = SimDuration::from_secs(4);
        assert!((s.channel_utilisation() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn totals() {
        let s = stats_with_bits(&[8_000_000, 16_000_000], 1);
        assert_eq!(s.total_successes(), 1000 + 2000);
        assert_eq!(s.total_attempts(), 1000 + 2000 + 2);
        assert_eq!(s.total_failures(), 2);
        assert_eq!(s.total_payload_bits(), 24_000_000);
    }

    #[test]
    fn delay_histogram_quantiles_are_within_bucket_resolution() {
        let mut h = DelayHistogram::default();
        // 1..=1000 µs, one sample each: p50 ≈ 500 µs, p99 ≈ 990 µs.
        for us in 1..=1000u64 {
            h.record(SimDuration::from_micros(us));
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.quantile(0.5).as_micros_f64();
        let p99 = h.quantile(0.99).as_micros_f64();
        assert!((p50 - 500.0).abs() / 500.0 < 0.15, "p50 {p50}");
        assert!((p99 - 990.0).abs() / 990.0 < 0.15, "p99 {p99}");
        // Extremes stay within range.
        assert!(h.quantile(0.0) >= SimDuration::from_nanos(1000 - 125));
        assert!(h.quantile(1.0).as_micros_f64() <= 1125.0);
    }

    #[test]
    fn delay_histogram_merges_and_handles_empty() {
        let empty = DelayHistogram::default();
        assert_eq!(empty.quantile(0.5), SimDuration::ZERO);
        let mut a = DelayHistogram::default();
        let mut b = DelayHistogram::default();
        a.record(SimDuration::from_micros(10));
        b.record(SimDuration::from_micros(10_000));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!(a.quantile(1.0) > SimDuration::from_micros(9_000));
    }

    #[test]
    fn traffic_stats_delivery_accounting() {
        let mut t = TrafficStats::default();
        t.record_delivery(SimDuration::from_micros(100), None);
        t.record_delivery(
            SimDuration::from_micros(300),
            Some(SimDuration::from_micros(100)),
        );
        t.record_delivery(
            SimDuration::from_micros(200),
            Some(SimDuration::from_micros(300)),
        );
        assert_eq!(t.delivered, 3);
        assert_eq!(t.mean_delay(), SimDuration::from_micros(200));
        assert_eq!(t.delay_max, SimDuration::from_micros(300));
        // |300-100| + |200-300| = 300 µs over 2 pairs.
        assert_eq!(t.mean_jitter(), SimDuration::from_micros(150));
        assert!(t.delay_stddev_secs() > 0.0);
        t.arrivals = 10;
        t.drops = 1;
        assert!((t.drop_fraction() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn traffic_aggregates_over_stations() {
        let mut s = SimStats::new(2);
        s.nodes[0].traffic.arrivals = 5;
        s.nodes[0].traffic.queue_high_water = 3;
        s.nodes[0]
            .traffic
            .record_delivery(SimDuration::from_micros(100), None);
        s.nodes[1].traffic.arrivals = 7;
        s.nodes[1].traffic.drops = 2;
        s.nodes[1].traffic.queue_high_water = 9;
        s.nodes[1]
            .traffic
            .record_delivery(SimDuration::from_micros(300), None);
        assert_eq!(s.total_frame_arrivals(), 12);
        assert_eq!(s.total_frame_drops(), 2);
        assert_eq!(s.total_frames_delivered(), 2);
        assert_eq!(s.mean_frame_delay(), SimDuration::from_micros(200));
        assert_eq!(s.max_queue_high_water(), 9);
        assert_eq!(s.frame_delay_histogram().count(), 2);
        assert_eq!(s.mean_frame_jitter(), SimDuration::ZERO);
    }
}
