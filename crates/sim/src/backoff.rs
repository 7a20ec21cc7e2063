//! Station-side contention-resolution policies.
//!
//! The paper studies three classes of contention resolution (Section II):
//!
//! 1. **Standard exponential backoff** — the IEEE 802.11 DCF rule: the
//!    contention window doubles on every failure up to `CWmax` and resets to
//!    `CWmin` after a success ([`ExponentialBackoff`]).
//! 2. **p-persistent CSMA** — the backoff counter is geometrically distributed
//!    with parameter `p`, independent of past successes or failures
//!    ([`PPersistent`]). This is the access mechanism tuned by wTOP-CSMA.
//! 3. **RandomReset(j; p0)** — exponential backoff on failure, but on success the
//!    station returns to stage `j` with probability `p0` and to a uniformly random
//!    higher stage otherwise ([`RandomReset`]). This is the mechanism tuned by
//!    TORA-CSMA.
//!
//! Every station stores its policy as the closed [`Policy`] enum, the
//! interface the simulator's station state machine drives.

use crate::control::{ChannelObservation, ControlPayload};
use crate::idlesense::IdleSensePolicy;
use crate::phy::PhyParams;
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use wlan_des::snapshot::{SnapshotError, State, StateReader, StateWriter};

/// The station's contention resolution: decides how many idle slots to wait
/// before each transmission attempt and how to react to successes,
/// failures, control updates and channel observations.
///
/// The set is closed (the paper's three classes plus the IdleSense
/// baseline), so the policy is stored inline in the station state
/// and every call dispatches statically. Every draw comes from the
/// station's own ChaCha8 stream.
///
/// Construct it with `From`/`Into` from any concrete policy — the
/// [`SimulatorBuilder`](crate::SimulatorBuilder) accepts `impl Into<Policy>`:
///
/// ```
/// use wlan_sim::backoff::{PPersistent, Policy};
/// let policy: Policy = PPersistent::new(0.05).into();
/// assert_eq!(policy.name(), "p-persistent");
/// ```
pub enum Policy {
    /// IEEE 802.11 DCF exponential backoff ([`ExponentialBackoff`]).
    Dcf(ExponentialBackoff),
    /// p-persistent CSMA ([`PPersistent`]), the mechanism tuned by wTOP-CSMA.
    PPersistent(PPersistent),
    /// RandomReset(j; p0) ([`RandomReset`]), the mechanism tuned by TORA-CSMA.
    RandomReset(RandomReset),
    /// The IdleSense adaptive contention window ([`IdleSensePolicy`]).
    IdleSense(IdleSensePolicy),
}

/// Call a method every concrete policy has on the variant `self` holds.
macro_rules! dispatch {
    ($self:ident, $p:pat => $body:expr) => {
        match $self {
            Policy::Dcf($p) => $body,
            Policy::PPersistent($p) => $body,
            Policy::RandomReset($p) => $body,
            Policy::IdleSense($p) => $body,
        }
    };
}

impl Policy {
    /// Draw the number of idle backoff slots to wait before the next
    /// attempt: once per attempt, after the outcome of the previous one (if
    /// any) was reported.
    // Always inlined, with the window draws out of line in `uniform_cw`:
    // the p-persistent draw, made for every contending station at every
    // resume, then runs inline in the resume walks.
    #[inline(always)]
    pub fn next_backoff(&mut self, rng: &mut ChaCha8Rng) -> u64 {
        dispatch!(self, p => p.next_backoff(rng))
    }

    /// The station's transmission was acknowledged by the AP.
    pub fn on_success(&mut self, rng: &mut ChaCha8Rng) {
        match self {
            Policy::Dcf(p) => p.on_success(),
            Policy::RandomReset(p) => p.on_success(rng),
            Policy::PPersistent(_) | Policy::IdleSense(_) => {}
        }
    }

    /// The station's transmission was not acknowledged (collision).
    pub fn on_failure(&mut self) {
        match self {
            Policy::Dcf(p) => p.on_failure(),
            Policy::RandomReset(p) => p.on_failure(),
            Policy::PPersistent(_) | Policy::IdleSense(_) => {}
        }
    }

    /// A control payload was overheard on an ACK from the AP.
    pub fn on_control(&mut self, payload: &ControlPayload) {
        match self {
            Policy::PPersistent(p) => p.on_control(payload),
            Policy::RandomReset(p) => p.on_control(payload),
            Policy::Dcf(_) | Policy::IdleSense(_) => {}
        }
    }

    /// A busy period the station sensed has ended.
    pub fn on_observation(&mut self, observation: &ChannelObservation) {
        if let Policy::IdleSense(p) = self {
            p.on_observation(observation);
        }
    }

    /// Whether [`on_observation`](Self::on_observation) does anything: only
    /// IdleSense counts idle slots, so the engine skips the per-busy-period
    /// idle-slot accounting (a division on the hot path) for every other
    /// policy.
    pub fn wants_observations(&self) -> bool {
        matches!(self, Policy::IdleSense(_))
    }

    /// Whether the backoff is memoryless per slot, so a frozen counter must
    /// be *redrawn*, not resumed, when the medium goes idle again.
    ///
    /// Slotted p-persistent CSMA attempts transmission independently with
    /// probability `p` in every idle slot; carrying a partially elapsed
    /// counter across a busy period would condition the next attempt on
    /// "did not expire during the previous contention round" and bias it
    /// away from the first new slot (the paper's eq. 2-3 and the idle-slot
    /// counts of Table III assume no such memory). The counter-freezing
    /// policies, such as IEEE 802.11 exponential backoff, resume.
    pub fn redraw_on_resume(&self) -> bool {
        matches!(self, Policy::PPersistent(_))
    }

    /// The per-slot attempt probability the policy currently targets (used
    /// for traces and analysis, never for control).
    pub fn attempt_probability(&self) -> Option<f64> {
        Some(match self {
            Policy::Dcf(p) => p.attempt_probability(),
            Policy::PPersistent(p) => p.p(),
            Policy::RandomReset(p) => p.attempt_probability(),
            Policy::IdleSense(p) => p.attempt_probability(),
        })
    }

    /// Current backoff stage, for the policies that have stages.
    pub fn backoff_stage(&self) -> Option<u8> {
        match self {
            Policy::Dcf(p) => Some(p.backoff_stage()),
            Policy::RandomReset(p) => Some(p.backoff_stage()),
            Policy::PPersistent(_) | Policy::IdleSense(_) => None,
        }
    }

    /// Short human-readable policy name.
    pub fn name(&self) -> &'static str {
        match self {
            Policy::Dcf(_) => "802.11-DCF",
            Policy::PPersistent(_) => "p-persistent",
            Policy::RandomReset(_) => "random-reset",
            Policy::IdleSense(_) => "idle-sense",
        }
    }

    /// Whether [`next_backoff`](Self::next_backoff) would return zero, with
    /// the same effect on the policy and the stream. For a caller that will
    /// redraw before the value is read, only a zero-slot draw matters: it
    /// arms a timer at once. The p-persistent case skips the `ln` for
    /// samples clear of the zero threshold (see [`geometric_is_zero`]).
    #[inline]
    pub(crate) fn draws_zero(&mut self, rng: &mut ChaCha8Rng) -> bool {
        match self {
            Policy::PPersistent(p) => geometric_is_zero(p.p, p.ln_q, rng),
            other => other.next_backoff(rng) == 0,
        }
    }

    /// `Some(ln_q)` when [`next_backoff`](Self::next_backoff) is
    /// `geometric_from_uniform(geometric_uniform(rng), ln_q)` and nothing
    /// else: a p-persistent policy with `0 < 1 - p < 1`. A caller may then
    /// draw the uniform now and evaluate the geometric later, or never.
    #[inline]
    pub(crate) fn geometric_ln_q(&self) -> Option<f64> {
        match self {
            Policy::PPersistent(p) if p.p < 1.0 && p.ln_q < 0.0 => Some(p.ln_q),
            _ => None,
        }
    }

    /// The checkpoint tag of the variant. Tag 3 belonged to a removed
    /// fixed-window policy; IdleSense keeps 4, so checkpoints keep their
    /// bytes.
    fn variant(&self) -> u8 {
        match self {
            Policy::Dcf(_) => 0,
            Policy::PPersistent(_) => 1,
            Policy::RandomReset(_) => 2,
            Policy::IdleSense(_) => 4,
        }
    }
}

/// A policy's variant is fixed when the scenario is built: the checkpoint
/// writes it only to reject a snapshot of a different policy.
impl State for Policy {
    fn save(&self, w: &mut StateWriter) {
        self.variant().save(w);
        dispatch!(self, p => p.save(w))
    }

    fn load(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        let variant: u8 = r.read()?;
        if variant != self.variant() {
            return Err(SnapshotError::custom(format!(
                "checkpoint policy variant {variant} does not match the built {} policy",
                self.name()
            )));
        }
        dispatch!(self, p => p.load(r))
    }
}

impl From<ExponentialBackoff> for Policy {
    fn from(p: ExponentialBackoff) -> Self {
        Policy::Dcf(p)
    }
}

impl From<PPersistent> for Policy {
    fn from(p: PPersistent) -> Self {
        Policy::PPersistent(p)
    }
}

impl From<RandomReset> for Policy {
    fn from(p: RandomReset) -> Self {
        Policy::RandomReset(p)
    }
}

impl From<IdleSensePolicy> for Policy {
    fn from(p: IdleSensePolicy) -> Self {
        Policy::IdleSense(p)
    }
}

/// Draw a sample uniformly from `[0, cw - 1]`.
#[inline(never)]
pub(crate) fn uniform_cw(cw: u64, rng: &mut ChaCha8Rng) -> u64 {
    if cw <= 1 {
        0
    } else {
        rng.gen_range(0..cw)
    }
}

/// The backoff of a station that never transmits (`p = 0`, or a `p` so
/// small that `1 - p` rounds to 1): far beyond any run. Fire times built
/// from it saturate ([`PhyParams::backoff_end`]), so its timer never fires.
pub(crate) const NEVER: u64 = u64::MAX / 2;

/// Draw a geometric number of idle slots so that the station transmits in each
/// slot with probability `p` (support `{0, 1, 2, ...}`, `P(K = k) = (1-p)^k p`).
///
/// `ln_q` must be `(1.0 - p).ln()`; [`PPersistent`] caches it so the hot path
/// pays one `ln` per draw instead of two. It is a divisor (not a reciprocal
/// factor) so the result stays bit-identical to computing it inline.
fn geometric_slots(p: f64, ln_q: f64, rng: &mut ChaCha8Rng) -> u64 {
    debug_assert!((0.0..=1.0).contains(&p));
    debug_assert!(p >= 1.0 || p <= 0.0 || ln_q == (1.0 - p).ln());
    if p >= 1.0 {
        return 0;
    }
    if 1.0 - p >= 1.0 {
        // "Never transmit": `ln_q` is 0 and every ratio would be -inf.
        return NEVER;
    }
    geometric_from_uniform(geometric_uniform(rng), ln_q)
}

/// The uniform sample behind one geometric draw.
#[inline]
pub(crate) fn geometric_uniform(rng: &mut ChaCha8Rng) -> f64 {
    rng.gen_range(f64::MIN_POSITIVE..1.0)
}

/// The geometric draw of [`geometric_slots`] for the uniform sample `u`:
/// `floor(ln u / ln_q)`. The ratio is truncated, which equals the floor on
/// every value the `k >= 0` test admits; `f64::floor` is a library call on
/// baseline x86-64.
#[inline]
pub(crate) fn geometric_from_uniform(u: f64, ln_q: f64) -> u64 {
    let k = u.ln() / ln_q;
    if k.is_finite() && k >= 0.0 {
        k as u64
    } else {
        0
    }
}

/// Whether [`geometric_slots`] would draw zero slots, consuming exactly the
/// generator words it would. The draw is zero iff `ln(u) / ln_q < 1`, i.e.
/// iff `u > 1 - p`; the `ln` is evaluated only for a sample within a
/// relative 1e-9 of that threshold, far wider than the rounding of `ln`
/// and of the division, so the answer always equals the full draw's.
fn geometric_is_zero(p: f64, ln_q: f64, rng: &mut ChaCha8Rng) -> bool {
    if p >= 1.0 {
        return true;
    }
    if 1.0 - p >= 1.0 {
        return false;
    }
    let u = geometric_uniform(rng);
    let q = 1.0 - p;
    if u > q * (1.0 + 1e-9) {
        return true;
    }
    if u < q * (1.0 - 1e-9) {
        return false;
    }
    geometric_from_uniform(u, ln_q) == 0
}

// ---------------------------------------------------------------------------
// Standard IEEE 802.11 exponential backoff
// ---------------------------------------------------------------------------

/// The IEEE 802.11 DCF contention-resolution rule.
///
/// After `i` consecutive failures the contention window is
/// `CW_i = min(2^i CWmin, CWmax)`; a success resets the stage to 0. As in the
/// standard (and in the ns-3 implementation the paper evaluates against), a
/// frame is abandoned after `retry_limit` consecutive failures and the window
/// returns to `CWmin` for the next frame; set the limit to `None` for the
/// idealised infinite-retry chain of Bianchi's model.
#[derive(Debug, Clone)]
pub struct ExponentialBackoff {
    cw_min: u32,
    cw_max: u32,
    stage: u8,
    max_stage: u8,
    retry_limit: Option<u32>,
    retries: u32,
}

wlan_des::state!(struct ExponentialBackoff { stage, retries });

/// The default long-retry limit of IEEE 802.11 (dot11LongRetryLimit is 4, the
/// short limit is 7; ns-3 uses 7 for data frames in basic access mode).
pub const DEFAULT_RETRY_LIMIT: u32 = 7;

impl ExponentialBackoff {
    /// Create a DCF backoff policy with the PHY's CWmin/CWmax and the standard
    /// retry limit of 7.
    pub fn new(phy: &PhyParams) -> Self {
        Self::with_retry_limit(phy, Some(DEFAULT_RETRY_LIMIT))
    }

    /// Create a DCF backoff policy with an explicit retry limit (`None` retries
    /// forever).
    pub fn with_retry_limit(phy: &PhyParams, retry_limit: Option<u32>) -> Self {
        ExponentialBackoff {
            cw_min: phy.cw_min,
            cw_max: phy.cw_max,
            stage: 0,
            max_stage: phy.max_backoff_stage(),
            retry_limit,
            retries: 0,
        }
    }

    fn current_cw(&self) -> u32 {
        ((self.cw_min as u64) << self.stage).min(self.cw_max as u64) as u32
    }

    /// Draw the backoff uniformly from the current window.
    pub fn next_backoff(&mut self, rng: &mut ChaCha8Rng) -> u64 {
        uniform_cw(self.current_cw().into(), rng)
    }

    /// A success resets the stage and the retry count.
    pub fn on_success(&mut self) {
        self.stage = 0;
        self.retries = 0;
    }

    /// A failure doubles the window, or abandons the frame at the retry
    /// limit.
    pub fn on_failure(&mut self) {
        self.retries += 1;
        if let Some(limit) = self.retry_limit {
            if self.retries >= limit {
                // Abandon the frame; contention restarts fresh for the next one.
                self.retries = 0;
                self.stage = 0;
                return;
            }
        }
        self.stage = (self.stage + 1).min(self.max_stage);
    }

    /// Mean attempt rate in the current stage: 2 / (CW + 1) per slot.
    pub fn attempt_probability(&self) -> f64 {
        2.0 / (self.current_cw() as f64 + 1.0)
    }

    /// Current backoff stage.
    pub fn backoff_stage(&self) -> u8 {
        self.stage
    }
}

// ---------------------------------------------------------------------------
// p-persistent CSMA
// ---------------------------------------------------------------------------

/// p-persistent CSMA: in every idle slot the station attempts transmission with
/// probability `p`, independent of history. Equivalently the backoff counter is
/// geometric.
#[derive(Debug, Clone)]
pub struct PPersistent {
    p: f64,
    /// Station weight used by wTOP-CSMA's Lemma-1 mapping when a global control
    /// variable is received. Weight 1 reproduces the unweighted scheme.
    weight: f64,
    /// Cached `(1 - p).ln()` for the geometric draw (kept in sync with `p`).
    ln_q: f64,
    /// The last global control value applied via `on_control`. The AP
    /// advertises the same probe value on every ACK within a measurement
    /// segment, and every ACK broadcasts it to all N stations — without this
    /// cache each broadcast paid N Lemma-1 mappings plus N `ln` calls for a
    /// value that changes only once per segment. Reset by `set_p` (a direct
    /// set invalidates it).
    last_control_p: Option<f64>,
}

wlan_des::state!(struct PPersistent { p, ln_q, last_control_p });

impl PPersistent {
    /// Create a p-persistent policy with attempt probability `p` and weight 1.
    pub fn new(p: f64) -> Self {
        Self::with_weight(p, 1.0)
    }

    /// Create a p-persistent policy with an explicit weight.
    ///
    /// When a [`ControlPayload::AttemptProbability`] carrying the global control
    /// variable `p` is overheard, the station sets its own attempt probability to
    /// `w p / (1 + (w - 1) p)` (Lemma 1 of the paper), which makes its throughput
    /// proportional to `w`.
    pub fn with_weight(p: f64, weight: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "attempt probability must be in [0, 1]"
        );
        assert!(weight > 0.0, "weight must be positive");
        PPersistent {
            p,
            weight,
            ln_q: (1.0 - p).ln(),
            last_control_p: None,
        }
    }

    /// The current per-slot attempt probability.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// The station weight.
    pub fn weight(&self) -> f64 {
        self.weight
    }

    /// Directly set the attempt probability (clamped to `[0, 1]`).
    pub fn set_p(&mut self, p: f64) {
        self.p = p.clamp(0.0, 1.0);
        self.ln_q = (1.0 - self.p).ln();
        self.last_control_p = None;
    }

    /// The Lemma-1 weighted mapping from a global control variable to this
    /// station's attempt probability.
    pub fn weighted_probability(global_p: f64, weight: f64) -> f64 {
        let p = global_p.clamp(0.0, 1.0);
        (weight * p / (1.0 + (weight - 1.0) * p)).clamp(0.0, 1.0)
    }

    /// Draw the geometric backoff of attempt probability `p`.
    pub fn next_backoff(&mut self, rng: &mut ChaCha8Rng) -> u64 {
        geometric_slots(self.p, self.ln_q, rng)
    }

    /// Apply an overheard global attempt probability through the Lemma-1
    /// mapping (see [`with_weight`](Self::with_weight)).
    pub fn on_control(&mut self, payload: &ControlPayload) {
        if let ControlPayload::AttemptProbability(p) = payload {
            // Re-applying the value already in effect would recompute the
            // identical `p`/`ln_q` state; skip it (bit-for-bit equivalent).
            if self.last_control_p == Some(*p) {
                return;
            }
            self.set_p(Self::weighted_probability(*p, self.weight));
            self.last_control_p = Some(*p);
        }
    }
}

// ---------------------------------------------------------------------------
// RandomReset(j; p0)
// ---------------------------------------------------------------------------

/// The paper's RandomReset(j; p0) exponential-backoff policy (Definition 4).
///
/// Failures double the contention window exactly as in DCF. After a success the
/// station moves to stage `j` with probability `p0`, and to a stage drawn
/// uniformly from `{j+1, ..., m}` with probability `1 - p0`.
#[derive(Debug, Clone)]
pub struct RandomReset {
    cw_min: u32,
    cw_max: u32,
    max_stage: u8,
    stage: u8,
    reset_stage: u8,
    p0: f64,
}

wlan_des::state!(struct RandomReset { stage, reset_stage, p0 });

impl RandomReset {
    /// Create a RandomReset policy from the PHY parameters.
    pub fn new(phy: &PhyParams, reset_stage: u8, p0: f64) -> Self {
        let max_stage = phy.max_backoff_stage();
        assert!(
            reset_stage < max_stage,
            "reset stage j must lie in [0, m - 1] (m = {max_stage})"
        );
        assert!((0.0..=1.0).contains(&p0), "p0 must be in [0, 1]");
        RandomReset {
            cw_min: phy.cw_min,
            cw_max: phy.cw_max,
            max_stage,
            stage: reset_stage,
            reset_stage,
            p0,
        }
    }

    /// Current reset probability `p0`.
    pub fn p0(&self) -> f64 {
        self.p0
    }

    /// Current preferred reset stage `j`.
    pub fn reset_stage(&self) -> u8 {
        self.reset_stage
    }

    /// Maximum backoff stage `m`.
    pub fn max_stage(&self) -> u8 {
        self.max_stage
    }

    /// Set the reset parameters directly (used by TORA-CSMA's control updates).
    pub fn set_reset(&mut self, reset_stage: u8, p0: f64) {
        self.reset_stage = reset_stage.min(self.max_stage.saturating_sub(1));
        self.p0 = p0.clamp(0.0, 1.0);
    }

    fn current_cw(&self) -> u32 {
        ((self.cw_min as u64) << self.stage).min(self.cw_max as u64) as u32
    }

    /// Draw the backoff uniformly from the current window.
    pub fn next_backoff(&mut self, rng: &mut ChaCha8Rng) -> u64 {
        uniform_cw(self.current_cw().into(), rng)
    }

    /// A success resets to stage `j` with probability `p0`, else to a
    /// uniformly drawn higher stage.
    pub fn on_success(&mut self, rng: &mut ChaCha8Rng) {
        if rng.gen::<f64>() < self.p0 || self.reset_stage >= self.max_stage {
            self.stage = self.reset_stage;
        } else {
            // Uniform over {j+1, ..., m}.
            self.stage = rng.gen_range(self.reset_stage + 1..=self.max_stage);
        }
    }

    /// A failure doubles the window, as in DCF.
    pub fn on_failure(&mut self) {
        self.stage = (self.stage + 1).min(self.max_stage);
    }

    /// Apply overheard reset parameters (TORA-CSMA's control updates).
    pub fn on_control(&mut self, payload: &ControlPayload) {
        if let ControlPayload::RandomReset { p0, stage } = payload {
            self.set_reset(*stage, *p0);
        }
    }

    /// Mean attempt rate in the current stage: 2 / (CW + 1) per slot.
    pub fn attempt_probability(&self) -> f64 {
        2.0 / (self.current_cw() as f64 + 1.0)
    }

    /// Current backoff stage.
    pub fn backoff_stage(&self) -> u8 {
        self.stage
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(42)
    }

    #[test]
    fn zero_test_agrees_with_the_full_geometric_draw() {
        // Probabilities across the range, including ones whose `1 - p`
        // rounds to 1 (ln_q == 0) and the 0 / 1 edges that draw nothing.
        for p in [
            0.0f64,
            1e-17,
            1e-9,
            0.001,
            0.08,
            0.5,
            0.999,
            1.0 - 1e-12,
            1.0,
        ] {
            let ln_q = (1.0 - p).ln();
            let (mut full, mut lazy) = (rng(), rng());
            for _ in 0..20_000 {
                let zero = geometric_is_zero(p, ln_q, &mut lazy);
                assert_eq!(geometric_slots(p, ln_q, &mut full) == 0, zero, "p = {p}");
            }
            assert_eq!(
                full.gen::<u64>(),
                lazy.gen::<u64>(),
                "p = {p}: streams diverged"
            );
        }
        // Samples straddling the threshold take the exact branch.
        let ln_q = 0.75f64.ln();
        for u in [0.75 * (1.0 - 1e-12), 0.75, 0.75 * (1.0 + 1e-12)] {
            assert_eq!(geometric_from_uniform(u, ln_q) == 0, u > 0.75, "u = {u}");
        }
    }

    #[test]
    fn truncation_equals_floor_on_edge_inputs() {
        // The draw as it was written before truncation replaced the floor.
        fn floored(u: f64, ln_q: f64) -> u64 {
            let k = (u.ln() / ln_q).floor();
            if k.is_finite() && k >= 0.0 {
                k as u64
            } else {
                0
            }
        }
        let below_one = 1.0 - f64::EPSILON / 2.0;
        let ln_qs = [
            0.5f64.ln(),
            0.92f64.ln(),
            0.999f64.ln(),
            (1.0 - 1e-12f64).ln(),
            (1.0 - f64::EPSILON).ln(),
            f64::EPSILON.ln(),
            // Non-finite and zero divisors: ratios of -inf, +inf and NaN.
            0.0,
            -0.0,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        let mut us = vec![
            f64::MIN_POSITIVE,
            1e-300,
            1e-9,
            0.25,
            0.5,
            0.92,
            below_one,
            1.0,
        ];
        us.extend([0.5f64, 0.92, 0.999].iter().flat_map(|q| {
            // The thresholds q^k and their neighbours.
            (1..40).flat_map(move |k| {
                let edge = q.powi(k);
                [edge, edge.next_down(), edge.next_up()]
            })
        }));
        let mut r = rng();
        us.extend((0..10_000).map(|_| geometric_uniform(&mut r)));
        for &ln_q in &ln_qs {
            for &u in &us {
                assert_eq!(
                    geometric_from_uniform(u, ln_q),
                    floored(u, ln_q),
                    "u = {u:e}, ln_q = {ln_q:e}"
                );
            }
        }
    }

    #[test]
    fn policy_state_round_trips_through_the_snapshot_codec() {
        let phy = PhyParams::table1();
        let mut r = rng();

        // Drive every stateful policy away from its initial state, save it,
        // load into a freshly built twin, and check future draws agree.
        let mut policies: Vec<(Policy, Policy)> = vec![
            (
                ExponentialBackoff::new(&phy).into(),
                ExponentialBackoff::new(&phy).into(),
            ),
            (PPersistent::new(0.05).into(), PPersistent::new(0.05).into()),
            (
                RandomReset::new(&phy, 2, 0.3).into(),
                RandomReset::new(&phy, 2, 0.3).into(),
            ),
            (
                IdleSensePolicy::for_phy(&phy).into(),
                IdleSensePolicy::for_phy(&phy).into(),
            ),
        ];
        for (original, twin) in &mut policies {
            original.on_failure();
            original.on_failure();
            original.on_success(&mut r);
            original.on_control(&ControlPayload::AttemptProbability(0.07));
            original.on_observation(&ChannelObservation {
                idle_slots: 2,
                own_transmission: false,
                outcome: crate::control::BusyOutcome::Unknown,
            });

            let mut writer = StateWriter::new();
            original.save(&mut writer);
            let bytes = writer.finish();
            let mut reader = StateReader::new(&bytes).unwrap();
            twin.load(&mut reader).unwrap();
            reader.expect_end().unwrap();

            let mut ra = rng();
            let mut rb = rng();
            for _ in 0..100 {
                assert_eq!(
                    original.next_backoff(&mut ra),
                    twin.next_backoff(&mut rb),
                    "policy {} diverged after restore",
                    original.name()
                );
            }
            assert_eq!(original.attempt_probability(), twin.attempt_probability());
            assert_eq!(original.backoff_stage(), twin.backoff_stage());
        }
    }

    #[test]
    fn exponential_backoff_window_progression() {
        let phy = PhyParams::table1();
        let mut eb = ExponentialBackoff::with_retry_limit(&phy, None);
        assert_eq!(eb.current_cw(), 8);
        for expected in [16, 32, 64, 128, 256, 512, 1024, 1024, 1024] {
            eb.on_failure();
            assert_eq!(eb.current_cw(), expected);
        }
        eb.on_success();
        assert_eq!(eb.current_cw(), 8);
        assert_eq!(eb.backoff_stage(), 0);
    }

    #[test]
    fn exponential_backoff_retry_limit_abandons_the_frame() {
        let phy = PhyParams::table1();
        let mut eb = ExponentialBackoff::new(&phy);
        // Six failures climb the stages normally...
        for expected in [16, 32, 64, 128, 256, 512] {
            eb.on_failure();
            assert_eq!(eb.current_cw(), expected);
        }
        // ...the seventh hits the retry limit: the frame is dropped and the window
        // resets to CWmin for the next frame.
        eb.on_failure();
        assert_eq!(eb.current_cw(), 8);
        // A success also clears the retry counter.
        for _ in 0..3 {
            eb.on_failure();
        }
        eb.on_success();
        assert_eq!(eb.current_cw(), 8);
        for _ in 0..6 {
            eb.on_failure();
        }
        assert_eq!(
            eb.current_cw(),
            512,
            "only six failures since the last success: the frame is kept"
        );
        eb.on_failure();
        assert_eq!(eb.current_cw(), 8, "the seventh abandons it");
    }

    #[test]
    fn exponential_backoff_samples_within_window() {
        let phy = PhyParams::table1();
        let mut eb = ExponentialBackoff::new(&phy);
        let mut r = rng();
        for _ in 0..3 {
            eb.on_failure();
        }
        let cw = eb.current_cw() as u64;
        for _ in 0..1000 {
            let s = eb.next_backoff(&mut r);
            assert!(s < cw, "sample {s} outside window {cw}");
        }
    }

    #[test]
    fn ppersistent_geometric_mean_matches_p() {
        let mut pp = PPersistent::new(0.05);
        let mut r = rng();
        let n = 200_000;
        let total: u64 = (0..n).map(|_| pp.next_backoff(&mut r)).sum();
        let mean = total as f64 / n as f64;
        let expected = (1.0 - 0.05) / 0.05; // 19
        assert!(
            (mean - expected).abs() < 0.3,
            "mean {mean} vs expected {expected}"
        );
    }

    #[test]
    fn ppersistent_extremes() {
        let mut r = rng();
        let mut always = PPersistent::new(1.0);
        assert_eq!(always.next_backoff(&mut r), 0);
        let mut never = PPersistent::new(0.0);
        assert!(never.next_backoff(&mut r) > 1_000_000_000);
    }

    #[test]
    fn ppersistent_weighted_mapping_matches_lemma1() {
        // pj = w pi / (1 + (w - 1) pi)  ⇒  pj/(1-pj) = w * pi/(1-pi)
        for &(p, w) in &[(0.1, 2.0), (0.03, 3.0), (0.4, 0.5), (0.2, 1.0)] {
            let pj = PPersistent::weighted_probability(p, w);
            let lhs = pj / (1.0 - pj);
            let rhs = w * p / (1.0 - p);
            assert!((lhs - rhs).abs() < 1e-12, "p={p} w={w}");
        }
    }

    #[test]
    fn ppersistent_applies_control_updates_with_weight() {
        let mut pp = PPersistent::with_weight(0.1, 3.0);
        pp.on_control(&ControlPayload::AttemptProbability(0.2));
        let expected = PPersistent::weighted_probability(0.2, 3.0);
        assert!((pp.p() - expected).abs() < 1e-12);
        // Irrelevant payloads are ignored.
        pp.on_control(&ControlPayload::RandomReset { p0: 0.3, stage: 1 });
        assert!((pp.p() - expected).abs() < 1e-12);
    }

    #[test]
    fn random_reset_success_distribution() {
        let phy = PhyParams::table1();
        let mut rr = RandomReset::new(&phy, 2, 0.7);
        let mut r = rng();
        // Drive it to a high stage first.
        for _ in 0..5 {
            rr.on_failure();
        }
        let mut at_reset = 0usize;
        let mut above_reset = 0usize;
        let trials = 100_000;
        for _ in 0..trials {
            rr.on_success(&mut r);
            let s = rr.backoff_stage();
            assert!(s >= 2 && s <= rr.max_stage());
            if s == 2 {
                at_reset += 1;
            } else {
                above_reset += 1;
            }
        }
        let frac = at_reset as f64 / trials as f64;
        assert!((frac - 0.7).abs() < 0.01, "reset fraction {frac}");
        assert!(above_reset > 0);
    }

    #[test]
    fn random_reset_failure_is_exponential() {
        let phy = PhyParams::table1();
        let mut rr = RandomReset::new(&phy, 0, 1.0);
        assert_eq!(rr.backoff_stage(), 0);
        for i in 1..=9u8 {
            rr.on_failure();
            assert_eq!(rr.backoff_stage(), i.min(7));
        }
    }

    #[test]
    fn random_reset_p0_one_always_resets_to_j() {
        let phy = PhyParams::table1();
        let mut rr = RandomReset::new(&phy, 3, 1.0);
        let mut r = rng();
        for _ in 0..4 {
            rr.on_failure();
        }
        for _ in 0..100 {
            rr.on_success(&mut r);
            assert_eq!(rr.backoff_stage(), 3);
        }
    }

    #[test]
    fn random_reset_control_update() {
        let phy = PhyParams::table1();
        let mut rr = RandomReset::new(&phy, 0, 0.5);
        rr.on_control(&ControlPayload::RandomReset { p0: 0.9, stage: 4 });
        assert!((rr.p0() - 0.9).abs() < 1e-12);
        assert_eq!(rr.reset_stage(), 4);
        // Stage clamp: j must stay below m.
        rr.on_control(&ControlPayload::RandomReset {
            p0: 0.2,
            stage: 200,
        });
        assert_eq!(rr.reset_stage(), rr.max_stage() - 1);
    }

    #[test]
    #[should_panic]
    fn random_reset_rejects_stage_at_m() {
        let phy = PhyParams::table1();
        let m = phy.max_backoff_stage();
        let _ = RandomReset::new(&phy, m, 0.5);
    }

    #[test]
    fn policy_enum_forwards_to_concrete_variants() {
        let phy = PhyParams::table1();
        let mut dcf: Policy = ExponentialBackoff::new(&phy).into();
        assert_eq!(dcf.name(), "802.11-DCF");
        assert!(!dcf.redraw_on_resume() && !dcf.wants_observations());
        dcf.on_failure();
        assert_eq!(dcf.backoff_stage(), Some(1));

        let mut pp: Policy = PPersistent::new(0.25).into();
        assert!(pp.redraw_on_resume() && !pp.wants_observations());
        assert_eq!(pp.backoff_stage(), None);
        assert_eq!(pp.attempt_probability(), Some(0.25));
        pp.on_control(&ControlPayload::AttemptProbability(0.5));
        assert_eq!(pp.attempt_probability(), Some(0.5));

        let rr: Policy = RandomReset::new(&phy, 1, 0.5).into();
        assert_eq!(rr.name(), "random-reset");
        let is: Policy = IdleSensePolicy::for_phy(&phy).into();
        assert_eq!(is.name(), "idle-sense");
        assert!(is.wants_observations() && !is.redraw_on_resume());
    }

    #[test]
    fn policy_enum_draws_match_concrete_policy() {
        // Static dispatch must not change the RNG stream: the enum draws the
        // same samples as the bare policy from the same seed.
        let phy = PhyParams::table1();
        let mut bare = ExponentialBackoff::new(&phy);
        let mut wrapped: Policy = ExponentialBackoff::new(&phy).into();
        let mut r1 = rng();
        let mut r2 = rng();
        for _ in 0..100 {
            assert_eq!(bare.next_backoff(&mut r1), wrapped.next_backoff(&mut r2));
            bare.on_failure();
            wrapped.on_failure();
        }
    }

    #[test]
    fn attempt_probability_reporting() {
        let phy = PhyParams::table1();
        assert!(ExponentialBackoff::new(&phy).attempt_probability() > 0.0);
        let pp: Policy = PPersistent::new(0.25).into();
        assert_eq!(pp.attempt_probability(), Some(0.25));
    }
}
