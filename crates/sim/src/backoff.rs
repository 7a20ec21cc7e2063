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
//! A fourth, [`FixedWindow`], keeps a constant contention window and is used as a
//! building block for baselines (IdleSense adapts such a window) and in tests.
//!
//! All policies implement [`BackoffPolicy`], the interface the simulator's
//! station state machine drives.

use crate::control::{ChannelObservation, ControlPayload};
use crate::idlesense::IdleSensePolicy;
use crate::phy::PhyParams;
use rand::Rng;
use rand::RngCore;
use rand_chacha::ChaCha8Rng;
use wlan_des::snapshot::{SnapshotError, State, StateReader, StateWriter};

/// Station-side contention resolution: decides how many idle slots to wait
/// before each transmission attempt and how to react to successes, failures,
/// control updates and channel observations.
pub trait BackoffPolicy: Send {
    /// Draw the number of idle backoff slots to wait before the next attempt.
    ///
    /// Called once per transmission attempt, after the outcome of the previous
    /// attempt (if any) has been reported via [`on_success`](Self::on_success) or
    /// [`on_failure`](Self::on_failure).
    fn next_backoff(&mut self, rng: &mut dyn RngCore) -> u64;

    /// The station's transmission was acknowledged by the AP.
    fn on_success(&mut self, rng: &mut dyn RngCore);

    /// The station's transmission was not acknowledged (collision).
    fn on_failure(&mut self, rng: &mut dyn RngCore);

    /// Whether the policy's backoff is memoryless per slot, so a frozen counter
    /// must be *redrawn* — not resumed — when the medium goes idle again.
    ///
    /// Slotted p-persistent CSMA attempts transmission independently with
    /// probability `p` in every idle slot; carrying a partially elapsed counter
    /// across a busy period would condition the next attempt on "did not expire
    /// during the previous contention round" and bias it away from the first
    /// new slot (the paper's eq. 2-3 and the idle-slot counts of Table III
    /// assume no such memory). Counter-freezing policies such as IEEE 802.11
    /// exponential backoff keep the default `false`.
    ///
    /// The answer must be **constant for the lifetime of the policy**: like
    /// [`wants_observations`](Self::wants_observations), the engine samples
    /// it once per station at build time and caches it on the resume hot
    /// path, so a policy that changed its answer mid-run would keep its
    /// build-time behaviour. Every built-in policy is constant here.
    fn redraw_on_resume(&self) -> bool {
        false
    }

    /// A control payload was overheard on an ACK from the AP.
    fn on_control(&mut self, payload: &ControlPayload) {
        let _ = payload;
    }

    /// A busy period the station sensed has ended.
    fn on_observation(&mut self, observation: &ChannelObservation) {
        let _ = observation;
    }

    /// Whether the policy consumes [`on_observation`](Self::on_observation)
    /// calls. The engine checks this once per station at build time and skips
    /// the per-busy-period idle-slot accounting (a division on the hot path)
    /// for policies that ignore observations. The default is `true` — safe for
    /// any external policy; built-in policies that ignore observations
    /// override it to `false`.
    fn wants_observations(&self) -> bool {
        true
    }

    /// The per-slot attempt probability currently targeted by the policy, if it has
    /// a meaningful notion of one (used for traces and analysis, never for control).
    fn attempt_probability(&self) -> Option<f64> {
        None
    }

    /// Current backoff stage, for policies that have stages.
    fn backoff_stage(&self) -> Option<u8> {
        None
    }

    /// Short human-readable policy name.
    fn name(&self) -> &'static str;
}

/// The closed set of station policies, dispatched statically on the
/// simulator's hot path.
///
/// Every station used to own a `Box<dyn BackoffPolicy>`, which put a virtual
/// call (and a pointer chase to a separate allocation) on every backoff draw,
/// outcome notification and control update. This enum stores the concrete
/// policy inline in the station state and dispatches with a jump table the
/// optimiser can see through.
///
/// Construct it with `From`/`Into` from any concrete policy — the
/// [`SimulatorBuilder`](crate::SimulatorBuilder) accepts `impl Into<Policy>`:
///
/// ```
/// use wlan_sim::backoff::{BackoffPolicy, PPersistent, Policy};
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
    /// Constant contention window ([`FixedWindow`]).
    FixedWindow(FixedWindow),
    /// The IdleSense adaptive contention window ([`IdleSensePolicy`]).
    IdleSense(IdleSensePolicy),
}

impl Policy {
    /// [`next_backoff`](BackoffPolicy::next_backoff) from a station's own
    /// stream: the same draw, with the p-persistent one (made for every
    /// contending station at every resume) calling the generator directly
    /// instead of through `dyn RngCore`.
    #[inline]
    pub(crate) fn draw_backoff(&mut self, rng: &mut ChaCha8Rng) -> u64 {
        match self {
            Policy::PPersistent(p) => geometric_slots(p.p, p.ln_q, rng),
            other => other.next_backoff(rng),
        }
    }

    /// Whether [`draw_backoff`](Self::draw_backoff) would return zero, with
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

    /// `Some(ln_q)` when [`draw_backoff`](Self::draw_backoff) is
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

    fn variant(&self) -> u8 {
        match self {
            Policy::Dcf(_) => 0,
            Policy::PPersistent(_) => 1,
            Policy::RandomReset(_) => 2,
            Policy::FixedWindow(_) => 3,
            Policy::IdleSense(_) => 4,
        }
    }
}

/// Forward every [`BackoffPolicy`] method to the concrete variant. The match
/// is resolved per call site; the callee is a direct (inlinable) call rather
/// than a vtable lookup.
macro_rules! dispatch {
    ($self:ident, $p:pat => $body:expr) => {
        match $self {
            Policy::Dcf($p) => $body,
            Policy::PPersistent($p) => $body,
            Policy::RandomReset($p) => $body,
            Policy::FixedWindow($p) => $body,
            Policy::IdleSense($p) => $body,
        }
    };
}

impl BackoffPolicy for Policy {
    fn next_backoff(&mut self, rng: &mut dyn RngCore) -> u64 {
        dispatch!(self, p => p.next_backoff(rng))
    }

    fn on_success(&mut self, rng: &mut dyn RngCore) {
        dispatch!(self, p => p.on_success(rng))
    }

    fn on_failure(&mut self, rng: &mut dyn RngCore) {
        dispatch!(self, p => p.on_failure(rng))
    }

    fn redraw_on_resume(&self) -> bool {
        dispatch!(self, p => p.redraw_on_resume())
    }

    fn on_control(&mut self, payload: &ControlPayload) {
        dispatch!(self, p => p.on_control(payload))
    }

    fn on_observation(&mut self, observation: &ChannelObservation) {
        dispatch!(self, p => p.on_observation(observation))
    }

    fn wants_observations(&self) -> bool {
        dispatch!(self, p => p.wants_observations())
    }

    fn attempt_probability(&self) -> Option<f64> {
        dispatch!(self, p => p.attempt_probability())
    }

    fn backoff_stage(&self) -> Option<u8> {
        dispatch!(self, p => p.backoff_stage())
    }

    fn name(&self) -> &'static str {
        dispatch!(self, p => p.name())
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

impl From<FixedWindow> for Policy {
    fn from(p: FixedWindow) -> Self {
        Policy::FixedWindow(p)
    }
}

impl From<IdleSensePolicy> for Policy {
    fn from(p: IdleSensePolicy) -> Self {
        Policy::IdleSense(p)
    }
}

/// Draw a sample uniformly from `[0, cw - 1]`.
fn uniform_cw(cw: u32, rng: &mut dyn RngCore) -> u64 {
    if cw <= 1 {
        0
    } else {
        rng.gen_range(0..cw as u64)
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
fn geometric_slots<R: RngCore + ?Sized>(p: f64, ln_q: f64, rng: &mut R) -> u64 {
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
pub(crate) fn geometric_uniform<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
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
fn geometric_is_zero<R: RngCore + ?Sized>(p: f64, ln_q: f64, rng: &mut R) -> bool {
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
    dropped_frames: u64,
}

wlan_des::state!(struct ExponentialBackoff { stage, retries, dropped_frames });

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
            dropped_frames: 0,
        }
    }

    /// Create with explicit window bounds (both must be powers of two) and no
    /// retry limit.
    pub fn with_windows(cw_min: u32, cw_max: u32) -> Self {
        assert!(cw_min.is_power_of_two() && cw_max.is_power_of_two() && cw_max >= cw_min);
        ExponentialBackoff {
            cw_min,
            cw_max,
            stage: 0,
            max_stage: ((cw_max / cw_min) as f64).log2().round() as u8,
            retry_limit: None,
            retries: 0,
            dropped_frames: 0,
        }
    }

    /// Number of frames abandoned because the retry limit was reached.
    pub fn dropped_frames(&self) -> u64 {
        self.dropped_frames
    }

    fn current_cw(&self) -> u32 {
        ((self.cw_min as u64) << self.stage).min(self.cw_max as u64) as u32
    }
}

impl BackoffPolicy for ExponentialBackoff {
    fn next_backoff(&mut self, rng: &mut dyn RngCore) -> u64 {
        uniform_cw(self.current_cw(), rng)
    }

    fn on_success(&mut self, _rng: &mut dyn RngCore) {
        self.stage = 0;
        self.retries = 0;
    }

    fn on_failure(&mut self, _rng: &mut dyn RngCore) {
        self.retries += 1;
        if let Some(limit) = self.retry_limit {
            if self.retries >= limit {
                // Abandon the frame; contention restarts fresh for the next one.
                self.dropped_frames += 1;
                self.retries = 0;
                self.stage = 0;
                return;
            }
        }
        self.stage = (self.stage + 1).min(self.max_stage);
    }

    fn wants_observations(&self) -> bool {
        false
    }

    fn attempt_probability(&self) -> Option<f64> {
        // Mean attempt rate in the current stage: 2 / (CW + 1) per slot.
        Some(2.0 / (self.current_cw() as f64 + 1.0))
    }

    fn backoff_stage(&self) -> Option<u8> {
        Some(self.stage)
    }

    fn name(&self) -> &'static str {
        "802.11-DCF"
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
}

impl BackoffPolicy for PPersistent {
    fn next_backoff(&mut self, rng: &mut dyn RngCore) -> u64 {
        geometric_slots(self.p, self.ln_q, rng)
    }

    fn on_success(&mut self, _rng: &mut dyn RngCore) {}

    fn on_failure(&mut self, _rng: &mut dyn RngCore) {}

    fn redraw_on_resume(&self) -> bool {
        true
    }

    fn wants_observations(&self) -> bool {
        false
    }

    fn on_control(&mut self, payload: &ControlPayload) {
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

    fn attempt_probability(&self) -> Option<f64> {
        Some(self.p)
    }

    fn name(&self) -> &'static str {
        "p-persistent"
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
}

impl BackoffPolicy for RandomReset {
    fn next_backoff(&mut self, rng: &mut dyn RngCore) -> u64 {
        uniform_cw(self.current_cw(), rng)
    }

    fn on_success(&mut self, rng: &mut dyn RngCore) {
        if rng.gen::<f64>() < self.p0 || self.reset_stage >= self.max_stage {
            self.stage = self.reset_stage;
        } else {
            // Uniform over {j+1, ..., m}.
            self.stage = rng.gen_range(self.reset_stage + 1..=self.max_stage);
        }
    }

    fn on_failure(&mut self, _rng: &mut dyn RngCore) {
        self.stage = (self.stage + 1).min(self.max_stage);
    }

    fn wants_observations(&self) -> bool {
        false
    }

    fn on_control(&mut self, payload: &ControlPayload) {
        if let ControlPayload::RandomReset { p0, stage } = payload {
            self.set_reset(*stage, *p0);
        }
    }

    fn attempt_probability(&self) -> Option<f64> {
        Some(2.0 / (self.current_cw() as f64 + 1.0))
    }

    fn backoff_stage(&self) -> Option<u8> {
        Some(self.stage)
    }

    fn name(&self) -> &'static str {
        "random-reset"
    }
}

// ---------------------------------------------------------------------------
// Fixed contention window
// ---------------------------------------------------------------------------

/// A constant contention window: every backoff is drawn uniformly from
/// `[0, cw - 1]` regardless of history. IdleSense adapts such a window; the
/// policy is also useful as a deterministic-ish baseline in tests.
#[derive(Debug, Clone)]
pub struct FixedWindow {
    cw: u32,
}

wlan_des::state!(struct FixedWindow { cw });

impl FixedWindow {
    /// Create a fixed-window policy.
    pub fn new(cw: u32) -> Self {
        assert!(cw >= 1, "contention window must be at least 1");
        FixedWindow { cw }
    }

    /// Current window.
    pub fn cw(&self) -> u32 {
        self.cw
    }

    /// Replace the window (used by adaptive schemes layered on top).
    pub fn set_cw(&mut self, cw: u32) {
        self.cw = cw.max(1);
    }
}

impl BackoffPolicy for FixedWindow {
    fn next_backoff(&mut self, rng: &mut dyn RngCore) -> u64 {
        uniform_cw(self.cw, rng)
    }

    fn on_success(&mut self, _rng: &mut dyn RngCore) {}

    fn on_failure(&mut self, _rng: &mut dyn RngCore) {}

    fn wants_observations(&self) -> bool {
        false
    }

    fn attempt_probability(&self) -> Option<f64> {
        Some(2.0 / (self.cw as f64 + 1.0))
    }

    fn name(&self) -> &'static str {
        "fixed-window"
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
                full.next_u64(),
                lazy.next_u64(),
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
            (FixedWindow::new(32).into(), FixedWindow::new(32).into()),
            (
                IdleSensePolicy::for_phy(&phy).into(),
                IdleSensePolicy::for_phy(&phy).into(),
            ),
        ];
        for (original, twin) in &mut policies {
            original.on_failure(&mut r);
            original.on_failure(&mut r);
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
        let mut r = rng();
        assert_eq!(eb.current_cw(), 8);
        for expected in [16, 32, 64, 128, 256, 512, 1024, 1024, 1024] {
            eb.on_failure(&mut r);
            assert_eq!(eb.current_cw(), expected);
        }
        eb.on_success(&mut r);
        assert_eq!(eb.current_cw(), 8);
        assert_eq!(eb.backoff_stage(), Some(0));
        assert_eq!(eb.dropped_frames(), 0);
    }

    #[test]
    fn exponential_backoff_retry_limit_abandons_the_frame() {
        let phy = PhyParams::table1();
        let mut eb = ExponentialBackoff::new(&phy);
        let mut r = rng();
        // Six failures climb the stages normally...
        for expected in [16, 32, 64, 128, 256, 512] {
            eb.on_failure(&mut r);
            assert_eq!(eb.current_cw(), expected);
        }
        // ...the seventh hits the retry limit: the frame is dropped and the window
        // resets to CWmin for the next frame.
        eb.on_failure(&mut r);
        assert_eq!(eb.current_cw(), 8);
        assert_eq!(eb.dropped_frames(), 1);
        // A success also clears the retry counter.
        for _ in 0..3 {
            eb.on_failure(&mut r);
        }
        eb.on_success(&mut r);
        assert_eq!(eb.current_cw(), 8);
        for _ in 0..6 {
            eb.on_failure(&mut r);
        }
        assert_eq!(
            eb.dropped_frames(),
            1,
            "only six failures since the last success"
        );
    }

    #[test]
    fn exponential_backoff_samples_within_window() {
        let phy = PhyParams::table1();
        let mut eb = ExponentialBackoff::new(&phy);
        let mut r = rng();
        for _ in 0..3 {
            eb.on_failure(&mut r);
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
            rr.on_failure(&mut r);
        }
        let mut at_reset = 0usize;
        let mut above_reset = 0usize;
        let trials = 100_000;
        for _ in 0..trials {
            rr.on_success(&mut r);
            let s = rr.backoff_stage().unwrap();
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
        let mut r = rng();
        assert_eq!(rr.backoff_stage(), Some(0));
        for i in 1..=9 {
            rr.on_failure(&mut r);
            assert_eq!(rr.backoff_stage(), Some((i).min(7) as u8));
        }
    }

    #[test]
    fn random_reset_p0_one_always_resets_to_j() {
        let phy = PhyParams::table1();
        let mut rr = RandomReset::new(&phy, 3, 1.0);
        let mut r = rng();
        for _ in 0..4 {
            rr.on_failure(&mut r);
        }
        for _ in 0..100 {
            rr.on_success(&mut r);
            assert_eq!(rr.backoff_stage(), Some(3));
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
    fn fixed_window_samples_and_updates() {
        let mut fw = FixedWindow::new(16);
        let mut r = rng();
        for _ in 0..1000 {
            assert!(fw.next_backoff(&mut r) < 16);
        }
        fw.set_cw(4);
        assert_eq!(fw.cw(), 4);
        for _ in 0..1000 {
            assert!(fw.next_backoff(&mut r) < 4);
        }
        fw.set_cw(0);
        assert_eq!(fw.cw(), 1);
        assert_eq!(fw.next_backoff(&mut r), 0);
    }

    #[test]
    fn policy_enum_forwards_to_concrete_variants() {
        let phy = PhyParams::table1();
        let mut r = rng();
        let mut dcf: Policy = ExponentialBackoff::new(&phy).into();
        assert_eq!(dcf.name(), "802.11-DCF");
        assert!(!dcf.redraw_on_resume());
        dcf.on_failure(&mut r);
        assert_eq!(dcf.backoff_stage(), Some(1));

        let mut pp: Policy = PPersistent::new(0.25).into();
        assert!(pp.redraw_on_resume());
        assert_eq!(pp.attempt_probability(), Some(0.25));
        pp.on_control(&ControlPayload::AttemptProbability(0.5));
        assert_eq!(pp.attempt_probability(), Some(0.5));

        let rr: Policy = RandomReset::new(&phy, 1, 0.5).into();
        assert_eq!(rr.name(), "random-reset");
        let fw: Policy = FixedWindow::new(16).into();
        assert_eq!(fw.attempt_probability(), Some(2.0 / 17.0));
        let is: Policy = IdleSensePolicy::for_phy(&phy).into();
        assert_eq!(is.name(), "idle-sense");
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
            bare.on_failure(&mut r1);
            wrapped.on_failure(&mut r2);
        }
    }

    #[test]
    fn attempt_probability_reporting() {
        let phy = PhyParams::table1();
        assert!(ExponentialBackoff::new(&phy).attempt_probability().unwrap() > 0.0);
        assert_eq!(PPersistent::new(0.25).attempt_probability(), Some(0.25));
        assert_eq!(FixedWindow::new(15).attempt_probability(), Some(0.125));
    }
}
