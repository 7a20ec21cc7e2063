//! Finite-load traffic generation: per-station arrival processes and the
//! specification of the bounded per-station frame queues they feed.
//!
//! The paper's system model (and every experiment in its evaluation) is
//! *saturated*: each station always has a frame queued for the AP. That is
//! the degenerate case here — [`ArrivalProcess::Saturated`] — and it costs
//! nothing: a simulator whose stations are all saturated builds no traffic
//! state, schedules no arrival events, and draws no traffic randomness, so
//! its event order and RNG streams are bit-identical to the pre-traffic
//! engine (pinned by the golden-trace suite).
//!
//! Under finite load each station owns
//!
//! * an **arrival process** ([`ArrivalProcess`]) sampled by an
//!   [`ArrivalSampler`] from a dedicated per-station traffic RNG stream
//!   (never the contention stream — see the RNG-stream-stability rule in
//!   `docs/ARCHITECTURE.md`), and
//! * a **bounded FIFO queue** of frames awaiting transmission. A frame
//!   arriving at a full queue is dropped (tail drop); the head-of-line frame
//!   stays queued until its ACK is delivered, so the queue length always
//!   includes the frame in service.
//!
//! A station whose queue is empty enters the `QueueEmpty` lifecycle state:
//! it keeps sensing the medium (its idle/busy bookkeeping continues) but
//! neither contends nor draws backoff until the next frame arrives.
//!
//! MAC-level retry limits are *not* translated into frame drops under finite
//! load: a policy that internally abandons a frame (e.g. 802.11 DCF after 7
//! retries) resets its contention window exactly as in the saturated model,
//! and the engine retries the head-of-line frame with that fresh window.
//! Frame losses are therefore exactly the queue-overflow drops, which is
//! what makes per-station frame conservation
//! (`queued_at_start + arrivals == delivered + drops + queued_now`) an exact
//! invariant, not an approximation.

use rand::{Rng, RngCore};
use serde::{Deserialize, Serialize};
use wlan_des::time::SimDuration;

/// A per-station frame arrival process.
///
/// Rates are in frames per second; every frame carries the PHY's configured
/// payload (`PhyParams::payload_bits`), so an offered load of `L` bits/s per
/// station corresponds to `L / payload_bits` frames/s.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum ArrivalProcess {
    /// The paper's saturated source: the station always has a frame to send.
    /// No arrival events are scheduled and no traffic randomness is drawn —
    /// the degenerate case is free.
    #[default]
    Saturated,
    /// Constant bit rate: deterministic inter-arrival time `1 / rate_fps`,
    /// with a uniformly random initial phase so CBR stations do not arrive
    /// in lockstep.
    Cbr {
        /// Arrival rate in frames per second (must be positive).
        rate_fps: f64,
    },
    /// Poisson arrivals: exponential inter-arrival times with mean
    /// `1 / rate_fps`.
    Poisson {
        /// Mean arrival rate in frames per second (must be positive).
        rate_fps: f64,
    },
    /// Bursty on/off traffic (a two-state MMPP): the source alternates
    /// between exponentially distributed ON periods, during which it emits
    /// Poisson arrivals at `rate_fps`, and silent exponentially distributed
    /// OFF periods. The long-run mean rate is
    /// `rate_fps * mean_on / (mean_on + mean_off)`.
    OnOff {
        /// Arrival rate in frames per second while the source is ON.
        rate_fps: f64,
        /// Mean duration of an ON period.
        mean_on: SimDuration,
        /// Mean duration of an OFF period.
        mean_off: SimDuration,
    },
}

impl ArrivalProcess {
    /// Whether this is the saturated degenerate case.
    pub fn is_saturated(&self) -> bool {
        matches!(self, ArrivalProcess::Saturated)
    }

    /// Long-run mean arrival rate in frames per second (`f64::INFINITY` for
    /// the saturated source).
    pub fn mean_rate_fps(&self) -> f64 {
        match self {
            ArrivalProcess::Saturated => f64::INFINITY,
            ArrivalProcess::Cbr { rate_fps } | ArrivalProcess::Poisson { rate_fps } => *rate_fps,
            ArrivalProcess::OnOff {
                rate_fps,
                mean_on,
                mean_off,
            } => {
                let on = mean_on.as_secs_f64();
                rate_fps * on / (on + mean_off.as_secs_f64())
            }
        }
    }

    /// Validate the process parameters; returns a human-readable error.
    pub fn validate(&self) -> Result<(), String> {
        let positive_rate = |r: f64| {
            if r.is_finite() && r > 0.0 {
                Ok(())
            } else {
                Err(format!("arrival rate must be positive and finite, got {r}"))
            }
        };
        match self {
            ArrivalProcess::Saturated => Ok(()),
            ArrivalProcess::Cbr { rate_fps } | ArrivalProcess::Poisson { rate_fps } => {
                positive_rate(*rate_fps)
            }
            ArrivalProcess::OnOff {
                rate_fps,
                mean_on,
                mean_off,
            } => {
                positive_rate(*rate_fps)?;
                if mean_on.is_zero() || mean_off.is_zero() {
                    return Err("on/off mean durations must be positive".into());
                }
                Ok(())
            }
        }
    }
}

/// The traffic configuration of a simulation: one arrival process applied to
/// every station (per-station overrides go through
/// `SimulatorBuilder::station_arrival`) plus the per-station queue bound.
///
/// The default is the paper's saturated model with no queues at all.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct TrafficSpec {
    /// The arrival process installed on every station.
    pub arrival: ArrivalProcess,
    /// Per-station queue capacity in frames (`None` = unbounded). The bound
    /// counts the head-of-line frame in service; arrivals to a full queue
    /// are tail-dropped.
    pub queue_frames: Option<usize>,
}

impl TrafficSpec {
    /// The saturated default (no traffic layer at all).
    pub fn saturated() -> Self {
        TrafficSpec::default()
    }

    /// Uniform Poisson load with an unbounded queue.
    pub fn poisson(rate_fps: f64) -> Self {
        TrafficSpec {
            arrival: ArrivalProcess::Poisson { rate_fps },
            queue_frames: None,
        }
    }

    /// Replace the queue bound.
    pub fn with_queue_frames(mut self, frames: usize) -> Self {
        assert!(frames >= 1, "queue must hold at least one frame");
        self.queue_frames = Some(frames);
        self
    }

    /// Whether the spec is the saturated degenerate case.
    pub fn is_saturated(&self) -> bool {
        self.arrival.is_saturated()
    }

    /// Validate the spec; returns a human-readable error.
    pub fn validate(&self) -> Result<(), String> {
        self.arrival.validate()?;
        if self.queue_frames == Some(0) {
            return Err("queue capacity must be at least one frame".into());
        }
        Ok(())
    }
}

/// The MMPP source phase: emitting (ON) or silent (OFF), with the remaining
/// sojourn time in the current phase.
#[derive(Debug, Clone, Copy)]
enum Burst {
    On { remaining: SimDuration },
    Off { remaining: SimDuration },
}

/// The value a checkpoint's burst phase is decoded into.
impl Default for Burst {
    fn default() -> Self {
        Burst::On {
            remaining: SimDuration::ZERO,
        }
    }
}

wlan_des::state!(enum Burst { On { remaining }, Off { remaining } });

/// Samples inter-arrival delays for one station's [`ArrivalProcess`].
///
/// All randomness comes from the RNG the caller passes in — the engine hands
/// every sampler its station's dedicated traffic stream, so traffic draws
/// never perturb contention draws.
#[derive(Debug, Clone)]
pub struct ArrivalSampler {
    process: ArrivalProcess,
    burst: Option<Burst>,
    started: bool,
}

// The arrival process itself is build-time configuration.
wlan_des::state!(struct ArrivalSampler { started, burst });

/// Draw an exponential duration with the given mean.
fn exp_duration(mean: f64, rng: &mut dyn RngCore) -> SimDuration {
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    SimDuration::from_secs_f64(-u.ln() * mean)
}

impl ArrivalSampler {
    /// Create a sampler for `process`; `None` for the saturated source,
    /// which generates no arrivals.
    pub fn new(process: ArrivalProcess) -> Option<Self> {
        if process.is_saturated() {
            return None;
        }
        process.validate().expect("invalid arrival process");
        Some(ArrivalSampler {
            process,
            burst: None,
            started: false,
        })
    }

    /// Delay until the next frame arrival.
    ///
    /// The first call establishes the initial phase: CBR draws a uniform
    /// phase in `[0, interval)`, the on/off source draws its initial
    /// ON/OFF state from the stationary distribution, and Poisson needs no
    /// special casing (exponential gaps are memoryless).
    pub fn next_delay(&mut self, rng: &mut dyn RngCore) -> SimDuration {
        let first = !self.started;
        self.started = true;
        match self.process {
            ArrivalProcess::Saturated => unreachable!("saturated sources have no sampler"),
            ArrivalProcess::Cbr { rate_fps } => {
                let interval = 1.0 / rate_fps;
                if first {
                    SimDuration::from_secs_f64(rng.gen_range(0.0..interval))
                } else {
                    SimDuration::from_secs_f64(interval)
                }
            }
            ArrivalProcess::Poisson { rate_fps } => exp_duration(1.0 / rate_fps, rng),
            ArrivalProcess::OnOff {
                rate_fps,
                mean_on,
                mean_off,
            } => {
                if first {
                    // Stationary initial phase: ON with probability
                    // mean_on / (mean_on + mean_off).
                    let on = mean_on.as_secs_f64();
                    let p_on = on / (on + mean_off.as_secs_f64());
                    self.burst = Some(if rng.gen::<f64>() < p_on {
                        Burst::On {
                            remaining: exp_duration(mean_on.as_secs_f64(), rng),
                        }
                    } else {
                        Burst::Off {
                            remaining: exp_duration(mean_off.as_secs_f64(), rng),
                        }
                    });
                }
                // Walk ON/OFF sojourns until an arrival lands inside an ON
                // period; the accumulated silence is added to the delay.
                let mut delay = SimDuration::ZERO;
                loop {
                    match self.burst.expect("burst state initialised above") {
                        Burst::On { remaining } => {
                            let gap = exp_duration(1.0 / rate_fps, rng);
                            if gap < remaining {
                                self.burst = Some(Burst::On {
                                    remaining: remaining - gap,
                                });
                                return delay + gap;
                            }
                            delay += remaining;
                            self.burst = Some(Burst::Off {
                                remaining: exp_duration(mean_off.as_secs_f64(), rng),
                            });
                        }
                        Burst::Off { remaining } => {
                            delay += remaining;
                            self.burst = Some(Burst::On {
                                remaining: exp_duration(mean_on.as_secs_f64(), rng),
                            });
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(99)
    }

    fn mean_rate_of(process: ArrivalProcess, samples: usize) -> f64 {
        let mut sampler = ArrivalSampler::new(process).unwrap();
        let mut r = rng();
        let mut total = SimDuration::ZERO;
        for _ in 0..samples {
            total += sampler.next_delay(&mut r);
        }
        samples as f64 / total.as_secs_f64()
    }

    #[test]
    fn saturated_has_no_sampler_and_infinite_rate() {
        assert!(ArrivalSampler::new(ArrivalProcess::Saturated).is_none());
        assert_eq!(ArrivalProcess::Saturated.mean_rate_fps(), f64::INFINITY);
        assert!(TrafficSpec::default().is_saturated());
    }

    #[test]
    fn cbr_is_periodic_after_a_random_phase() {
        let mut sampler = ArrivalSampler::new(ArrivalProcess::Cbr { rate_fps: 100.0 }).unwrap();
        let mut r = rng();
        let phase = sampler.next_delay(&mut r);
        assert!(phase < SimDuration::from_millis(10), "phase {phase}");
        for _ in 0..50 {
            assert_eq!(sampler.next_delay(&mut r), SimDuration::from_millis(10));
        }
    }

    #[test]
    fn poisson_mean_rate_matches() {
        let rate = mean_rate_of(ArrivalProcess::Poisson { rate_fps: 250.0 }, 50_000);
        assert!((rate - 250.0).abs() < 10.0, "measured {rate}");
    }

    #[test]
    fn onoff_long_run_rate_matches_duty_cycle() {
        let process = ArrivalProcess::OnOff {
            rate_fps: 400.0,
            mean_on: SimDuration::from_millis(50),
            mean_off: SimDuration::from_millis(150),
        };
        // 25% duty cycle: long-run mean 100 fps.
        assert!((process.mean_rate_fps() - 100.0).abs() < 1e-9);
        let rate = mean_rate_of(process, 50_000);
        assert!((rate - 100.0).abs() < 10.0, "measured {rate}");
    }

    #[test]
    fn onoff_produces_bursts() {
        // With long OFF periods relative to the arrival gap, some
        // inter-arrival delays must dwarf the in-burst gaps.
        let process = ArrivalProcess::OnOff {
            rate_fps: 1000.0,
            mean_on: SimDuration::from_millis(10),
            mean_off: SimDuration::from_millis(200),
        };
        let mut sampler = ArrivalSampler::new(process).unwrap();
        let mut r = rng();
        let delays: Vec<SimDuration> = (0..2000).map(|_| sampler.next_delay(&mut r)).collect();
        let long = delays
            .iter()
            .filter(|d| **d > SimDuration::from_millis(50))
            .count();
        let short = delays
            .iter()
            .filter(|d| **d < SimDuration::from_millis(5))
            .count();
        assert!(long > 10, "expected silent gaps, got {long}");
        assert!(short > 1000, "expected in-burst arrivals, got {short}");
    }

    #[test]
    fn validation_catches_bad_parameters() {
        assert!(ArrivalProcess::Poisson { rate_fps: 0.0 }
            .validate()
            .is_err());
        assert!(ArrivalProcess::Cbr { rate_fps: -1.0 }.validate().is_err());
        assert!(ArrivalProcess::OnOff {
            rate_fps: 10.0,
            mean_on: SimDuration::ZERO,
            mean_off: SimDuration::from_millis(1),
        }
        .validate()
        .is_err());
        assert!(TrafficSpec {
            arrival: ArrivalProcess::Poisson { rate_fps: 10.0 },
            queue_frames: Some(0),
        }
        .validate()
        .is_err());
        assert!(TrafficSpec::poisson(10.0)
            .with_queue_frames(5)
            .validate()
            .is_ok());
    }

    #[test]
    fn spec_round_trips_through_serde() {
        let specs = [
            TrafficSpec::saturated(),
            TrafficSpec::poisson(120.0).with_queue_frames(64),
            TrafficSpec {
                arrival: ArrivalProcess::OnOff {
                    rate_fps: 10.0,
                    mean_on: SimDuration::from_millis(20),
                    mean_off: SimDuration::from_millis(80),
                },
                queue_frames: None,
            },
        ];
        for spec in specs {
            let json = serde_json::to_string(&spec).unwrap();
            let back: TrafficSpec = serde_json::from_str(&json).unwrap();
            assert_eq!(spec, back);
        }
    }

    #[test]
    fn samplers_are_deterministic_per_seed() {
        let process = ArrivalProcess::Poisson { rate_fps: 50.0 };
        let run = || {
            let mut sampler = ArrivalSampler::new(process).unwrap();
            let mut r = rng();
            (0..100)
                .map(|_| sampler.next_delay(&mut r))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
