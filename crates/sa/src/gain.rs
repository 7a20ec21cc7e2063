//! Gain (step-size) sequences for stochastic approximation.
//!
//! Kiefer–Wolfowitz requires two vanishing sequences `{a_k}` (step sizes) and
//! `{b_k}` (finite-difference widths) satisfying
//!
//! ```text
//! b_k → 0,   Σ a_k = ∞,   Σ a_k b_k < ∞,   Σ (a_k / b_k)² < ∞.
//! ```
//!
//! The paper uses the classic power-law choice `a_k = 1/k`, `b_k = 1/k^(1/3)`
//! (Algorithm 1, line 1). [`PowerLawGains`] generalises this to
//! `a_k = a0 / k^α`, `b_k = b0 / k^γ` and can verify the convergence conditions
//! symbolically for the power-law family.

/// Power-law gain sequences `a_k = a0 / k^alpha`, `b_k = b0 / k^gamma`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerLawGains {
    /// Numerator of the step-size sequence.
    pub a0: f64,
    /// Exponent of the step-size sequence.
    pub alpha: f64,
    /// Numerator of the perturbation-width sequence.
    pub b0: f64,
    /// Exponent of the perturbation-width sequence.
    pub gamma: f64,
}

impl PowerLawGains {
    /// The paper's gains: `a_k = 1/k`, `b_k = 1/k^(1/3)`.
    pub fn paper_defaults() -> Self {
        PowerLawGains {
            a0: 1.0,
            alpha: 1.0,
            b0: 1.0,
            gamma: 1.0 / 3.0,
        }
    }

    /// Construct custom power-law gains (all parameters must be positive).
    pub fn new(a0: f64, alpha: f64, b0: f64, gamma: f64) -> Self {
        assert!(a0 > 0.0 && b0 > 0.0, "gain numerators must be positive");
        assert!(
            alpha > 0.0 && gamma > 0.0,
            "gain exponents must be positive"
        );
        PowerLawGains {
            a0,
            alpha,
            b0,
            gamma,
        }
    }

    /// Step size `a_k` for iteration `k >= 1`.
    pub fn a(&self, k: u64) -> f64 {
        assert!(k >= 1);
        self.a0 / (k as f64).powf(self.alpha)
    }

    /// Perturbation width `b_k` for iteration `k >= 1`.
    pub fn b(&self, k: u64) -> f64 {
        assert!(k >= 1);
        self.b0 / (k as f64).powf(self.gamma)
    }

    /// Check the Kiefer–Wolfowitz convergence conditions for the power-law family:
    ///
    /// * `b_k → 0`                — requires `gamma > 0` (guaranteed by construction);
    /// * `Σ a_k = ∞`              — requires `alpha <= 1`;
    /// * `Σ a_k b_k < ∞`          — requires `alpha + gamma > 1`;
    /// * `Σ (a_k/b_k)² < ∞`       — requires `2 (alpha - gamma) > 1`.
    pub fn satisfies_kw_conditions(&self) -> bool {
        self.violated_kw_conditions().is_empty()
    }

    /// Human-readable list of violated Kiefer–Wolfowitz conditions (empty when valid).
    pub fn violated_kw_conditions(&self) -> Vec<&'static str> {
        let mut v = Vec::new();
        if self.alpha > 1.0 {
            v.push("sum a_k diverges requires alpha <= 1");
        }
        if self.alpha + self.gamma <= 1.0 {
            v.push("sum a_k b_k < infinity requires alpha + gamma > 1");
        }
        if 2.0 * (self.alpha - self.gamma) <= 1.0 {
            v.push("sum (a_k/b_k)^2 < infinity requires 2 (alpha - gamma) > 1");
        }
        v
    }
}

impl Default for PowerLawGains {
    fn default() -> Self {
        Self::paper_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_satisfy_all_conditions() {
        let g = PowerLawGains::paper_defaults();
        assert!(
            g.satisfies_kw_conditions(),
            "{:?}",
            g.violated_kw_conditions()
        );
        assert!((g.a(1) - 1.0).abs() < 1e-15);
        assert!((g.a(4) - 0.25).abs() < 1e-15);
        assert!((g.b(8) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sequences_are_decreasing() {
        let g = PowerLawGains::paper_defaults();
        for k in 1..100u64 {
            assert!(g.a(k + 1) < g.a(k));
            assert!(g.b(k + 1) < g.b(k));
        }
    }

    #[test]
    fn bad_exponents_are_detected() {
        // alpha too large: steps shrink so fast the iterate can stall short of p*.
        assert!(!PowerLawGains::new(1.0, 1.5, 1.0, 0.3).satisfies_kw_conditions());
        // gamma too close to alpha: the gradient noise variance does not vanish.
        assert!(!PowerLawGains::new(1.0, 1.0, 1.0, 0.9).satisfies_kw_conditions());
        // alpha + gamma too small.
        assert!(!PowerLawGains::new(1.0, 0.5, 1.0, 0.2).satisfies_kw_conditions());
    }

    #[test]
    fn violation_messages_are_specific() {
        // alpha > 1 (divergence condition) and 2(alpha - gamma) <= 1 (noise condition).
        let v = PowerLawGains::new(1.0, 1.5, 1.0, 1.4).violated_kw_conditions();
        assert_eq!(v.len(), 2);
        // Only the divergence condition fails here.
        let v = PowerLawGains::new(1.0, 1.5, 1.0, 0.9).violated_kw_conditions();
        assert_eq!(v.len(), 1);
    }

    #[test]
    #[should_panic]
    fn k_zero_is_rejected() {
        let _ = PowerLawGains::paper_defaults().a(0);
    }

    #[test]
    #[should_panic]
    fn nonpositive_gains_are_rejected() {
        let _ = PowerLawGains::new(0.0, 1.0, 1.0, 0.3);
    }
}
