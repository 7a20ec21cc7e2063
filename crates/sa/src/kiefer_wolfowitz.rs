//! The Kiefer–Wolfowitz stochastic-approximation maximiser.
//!
//! Given only noisy measurements `y` with `E[y | x] = S(x)` of an unknown
//! quasi-concave function `S`, the algorithm alternates measurements at
//! `x_k + b_k` and `x_k - b_k` and moves the iterate along the estimated
//! finite-difference gradient:
//!
//! ```text
//! x_{k+1} = x_k + a_k (y(x_k + b_k) - y(x_k - b_k)) / b_k        (eq. 5)
//! ```
//!
//! This is exactly the update the paper's Algorithm 1 (wTOP-CSMA) and
//! Algorithm 2 (TORA-CSMA) run at the access point, with `x` being the attempt
//! probability `p` (resp. the reset probability `p0`) and `y` the throughput
//! measured over one `UPDATE_PERIOD`.
//!
//! The driver here is measurement-oriented: the caller asks for the next probe
//! point ([`KieferWolfowitz::probe`]), measures the system there for a while,
//! and feeds the measurement back ([`KieferWolfowitz::record`]). One `+`/`-`
//! pair forms a full iteration.

use crate::gain::PowerLawGains;

/// Which half of the two-sided finite difference is being measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeSide {
    /// Measuring at `x_k + b_k`.
    Plus,
    /// Measuring at `x_k - b_k`.
    Minus,
}

wlan_des::state!(
    enum ProbeSide {
        Plus,
        Minus,
    }
);

/// Outcome of feeding one measurement into the optimiser.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KwStep {
    /// The first (plus-side) measurement of the iteration was stored; the caller
    /// should now measure at the minus-side probe.
    AwaitingMinus,
    /// A full iteration completed and the estimate moved by `delta`.
    Updated {
        /// Change applied to the estimate.
        delta: f64,
        /// The new estimate of the maximiser.
        estimate: f64,
    },
}

/// Kiefer–Wolfowitz maximiser over a scalar control variable confined to a box.
#[derive(Debug, Clone)]
pub struct KieferWolfowitz {
    gains: PowerLawGains,
    /// Iteration counter `k`. The paper starts it at 2 so the very first
    /// perturbation width is below 1.
    k: u64,
    estimate: f64,
    /// Hard bounds for the estimate itself.
    bounds: (f64, f64),
    /// Bounds applied to probe points (Algorithm 1 clamps probes to `[0, 0.9]`).
    probe_bounds: (f64, f64),
    side: ProbeSide,
    y_plus: Option<f64>,
    /// History of `(k, estimate)` after every completed iteration.
    trace: Vec<(u64, f64)>,
}

// The gains and bounds are configuration; a checkpoint restores the
// iterate into an optimiser built with the same ones.
wlan_des::state!(struct KieferWolfowitz { k, estimate, side, y_plus, trace });

impl KieferWolfowitz {
    /// Create an optimiser starting from `initial`, with the paper's gains and
    /// estimate/probe bounds `bounds`.
    pub fn new(initial: f64, bounds: (f64, f64)) -> Self {
        Self::with_gains(initial, bounds, bounds, PowerLawGains::paper_defaults())
    }

    /// Create an optimiser with explicit probe bounds and gain sequences.
    pub fn with_gains(
        initial: f64,
        bounds: (f64, f64),
        probe_bounds: (f64, f64),
        gains: PowerLawGains,
    ) -> Self {
        assert!(bounds.0 < bounds.1, "invalid bounds");
        assert!(probe_bounds.0 < probe_bounds.1, "invalid probe bounds");
        let estimate = initial.clamp(bounds.0, bounds.1);
        KieferWolfowitz {
            gains,
            k: 2,
            estimate,
            bounds,
            probe_bounds,
            side: ProbeSide::Plus,
            y_plus: None,
            trace: vec![(1, estimate)],
        }
    }

    /// The paper's configuration for a control variable that is a probability:
    /// start at 0.5, probes clamped to `[lo, hi]`.
    pub fn for_probability(probe_lo: f64, probe_hi: f64) -> Self {
        Self::with_gains(
            0.5,
            (0.0, 1.0),
            (probe_lo, probe_hi),
            PowerLawGains::paper_defaults(),
        )
    }

    /// Current iteration counter `k`.
    pub fn iteration(&self) -> u64 {
        self.k
    }

    /// Current estimate of the maximiser (the paper's `pval`).
    pub fn estimate(&self) -> f64 {
        self.estimate
    }

    /// Overwrite the estimate (used by TORA-CSMA when it switches backoff stage
    /// and resets `p0` to 0.5).
    pub fn reset_estimate(&mut self, value: f64) {
        self.estimate = value.clamp(self.bounds.0, self.bounds.1);
        self.side = ProbeSide::Plus;
        self.y_plus = None;
    }

    /// Restart the gain sequences from `k = 2` (optionally combined with
    /// [`reset_estimate`](Self::reset_estimate) when the environment changed).
    pub fn reset_iteration(&mut self) {
        self.k = 2;
        self.side = ProbeSide::Plus;
        self.y_plus = None;
    }

    /// Which side the next measurement should be taken on.
    pub fn side(&self) -> ProbeSide {
        self.side
    }

    /// Current perturbation width `b_k`.
    pub fn perturbation(&self) -> f64 {
        self.gains.b(self.k)
    }

    /// Current step gain `a_k` (the factor the next finite-difference
    /// gradient will be scaled by). Exposed for telemetry: the controller
    /// trajectory is only interpretable alongside the gains it was driven by.
    pub fn gain(&self) -> f64 {
        self.gains.a(self.k)
    }

    /// The control-variable value the system should be operated at for the next
    /// measurement: `x_k + b_k` or `x_k - b_k`, clamped to the probe bounds.
    pub fn probe(&self) -> f64 {
        let b = self.perturbation();
        let raw = match self.side {
            ProbeSide::Plus => self.estimate + b,
            ProbeSide::Minus => self.estimate - b,
        };
        raw.clamp(self.probe_bounds.0, self.probe_bounds.1)
    }

    /// Feed back the measurement taken at the probe point returned by
    /// [`probe`](Self::probe).
    pub fn record(&mut self, measurement: f64) -> KwStep {
        assert!(measurement.is_finite(), "measurements must be finite");
        match self.side {
            ProbeSide::Plus => {
                self.y_plus = Some(measurement);
                self.side = ProbeSide::Minus;
                KwStep::AwaitingMinus
            }
            ProbeSide::Minus => {
                let y_plus = self.y_plus.take().expect("plus-side measurement missing");
                let y_minus = measurement;
                let a = self.gains.a(self.k);
                let b = self.gains.b(self.k);
                let delta = a * (y_plus - y_minus) / b;
                let new = (self.estimate + delta).clamp(self.bounds.0, self.bounds.1);
                let applied = new - self.estimate;
                self.estimate = new;
                self.k += 1;
                self.side = ProbeSide::Plus;
                self.trace.push((self.k, self.estimate));
                KwStep::Updated {
                    delta: applied,
                    estimate: self.estimate,
                }
            }
        }
    }

    /// History of the estimate after each completed iteration.
    pub fn trace(&self) -> &[(u64, f64)] {
        &self.trace
    }

    /// Convenience driver: run `iterations` full KW iterations against a noisy
    /// oracle `measure(x)` and return the final estimate.
    pub fn maximize<F: FnMut(f64) -> f64>(&mut self, mut measure: F, iterations: usize) -> f64 {
        for _ in 0..iterations {
            let m1 = measure(self.probe());
            self.record(m1);
            let m2 = measure(self.probe());
            self.record(m2);
        }
        self.estimate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn probe_alternates_sides_and_respects_bounds() {
        let mut kw = KieferWolfowitz::for_probability(0.0, 0.9);
        assert_eq!(kw.side(), ProbeSide::Plus);
        let plus = kw.probe();
        assert!(plus > 0.5 && plus <= 0.9);
        assert_eq!(kw.record(1.0), KwStep::AwaitingMinus);
        assert_eq!(kw.side(), ProbeSide::Minus);
        let minus = kw.probe();
        assert!((0.0..0.5).contains(&minus));
        match kw.record(0.0) {
            KwStep::Updated { delta, estimate } => {
                assert!(delta > 0.0, "positive gradient should push the estimate up");
                assert!(estimate > 0.5);
            }
            other => panic!("unexpected step {other:?}"),
        }
        assert_eq!(kw.iteration(), 3);
    }

    #[test]
    fn estimate_stays_within_bounds() {
        let mut kw = KieferWolfowitz::new(0.5, (0.0, 1.0));
        for _ in 0..50 {
            kw.record(1e9);
            kw.record(-1e9);
        }
        assert!(kw.estimate() <= 1.0);
        let mut kw = KieferWolfowitz::new(0.5, (0.0, 1.0));
        for _ in 0..50 {
            kw.record(-1e9);
            kw.record(1e9);
        }
        assert!(kw.estimate() >= 0.0);
    }

    #[test]
    fn converges_on_noiseless_quadratic() {
        let target = 0.3;
        let mut kw = KieferWolfowitz::new(0.8, (0.0, 1.0));
        let f = |x: f64| -(x - target).powi(2);
        let est = kw.maximize(f, 400);
        assert!((est - target).abs() < 0.05, "estimate {est}");
    }

    #[test]
    fn converges_on_noisy_quasi_concave_function() {
        // A bell-shaped function similar to the throughput curve, with additive noise.
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let target = 0.12f64;
        let mut measure = |x: f64| {
            let clean = 1.0 / (1.0 + 50.0 * (x - target).powi(2));
            clean + rng.gen_range(-0.02..0.02)
        };
        let mut kw = KieferWolfowitz::new(0.5, (0.0, 1.0));
        let est = kw.maximize(&mut measure, 3000);
        assert!((est - target).abs() < 0.06, "estimate {est}");
    }

    #[test]
    fn converges_from_both_sides() {
        for start in [0.05, 0.95] {
            let mut kw = KieferWolfowitz::new(start, (0.0, 1.0));
            let est = kw.maximize(|x| -(x - 0.5).powi(2), 500);
            assert!((est - 0.5).abs() < 0.05, "start {start} → estimate {est}");
        }
    }

    #[test]
    fn trace_records_every_iteration() {
        let mut kw = KieferWolfowitz::new(0.5, (0.0, 1.0));
        kw.maximize(|x| -x * x, 10);
        assert_eq!(kw.trace().len(), 11); // initial point + 10 iterations
                                          // k values strictly increase.
        for w in kw.trace().windows(2) {
            assert!(w[1].0 > w[0].0);
        }
    }

    #[test]
    fn reset_estimate_and_iteration() {
        let mut kw = KieferWolfowitz::new(0.5, (0.0, 1.0));
        kw.maximize(|x| -(x - 0.9).powi(2), 20);
        assert!(kw.iteration() > 20);
        kw.reset_estimate(0.5);
        assert_eq!(kw.estimate(), 0.5);
        assert_eq!(kw.side(), ProbeSide::Plus);
        kw.reset_iteration();
        assert_eq!(kw.iteration(), 2);
    }

    #[test]
    fn monotone_function_drives_estimate_to_boundary() {
        // If the objective is monotone increasing on [0, 1], the estimate should be
        // pushed to the upper boundary — this is exactly the situation TORA-CSMA
        // detects (p0 ≈ 1) to decide it must decrement the backoff stage.
        let mut kw = KieferWolfowitz::new(0.5, (0.0, 1.0));
        let est = kw.maximize(|x| 3.0 * x, 300);
        assert!(est > 0.9, "estimate {est}");
    }

    #[test]
    #[should_panic]
    fn non_finite_measurements_are_rejected() {
        let mut kw = KieferWolfowitz::new(0.5, (0.0, 1.0));
        kw.record(f64::NAN);
    }
}
