//! The station-MAC component: per-station DCF state in a cache-conscious
//! hot/cold struct-of-arrays layout, plus the component handlers for the two
//! station-addressed events (`TxStart`, `AckTimeout`).
//!
//! On the per-station sensing path every transmission start/end walks the
//! transmitter's sensing neighbours and touches, per neighbour, only a
//! handful of small fields: the busy counter, the countdown (freeze/resume)
//! state, the generation counters and two flag bits. (On the clique path,
//! [`Clique`], only the few detached stations run these rules per event;
//! the rest follow the cell's shared view.) The old layout stored one big
//! struct per station,
//! interleaving those few bytes with the two *large* cold fields — the
//! [`Policy`] enum and the per-station ChaCha RNG (hundreds of bytes
//! together) — so each neighbour update pulled cache lines that were mostly
//! dead weight, and at N = 1000+ the sensing loops streamed hundreds of
//! kilobytes per busy period.
//!
//! [`Stations`] splits the state into parallel arrays: one packed
//! [`HotState`] record (56 bytes — under a cache line) per station for
//! everything the medium-transition loops touch, and separate `policy` /
//! `rng` / `weight` arrays for the cold data referenced only on actual
//! backoff draws and outcome notifications. The hot loops therefore perform
//! exactly one indexed access per neighbour (like the old layout) while
//! streaming ~7× fewer bytes. Keeping the hot record packed — rather than
//! one array per field — also keeps the per-access cost flat at small N,
//! where a field-per-array layout pays eight bounds-checked pointer chases
//! for state that fits in L1 anyway.
//!
//! Backoff timers live in the kernel's indexed timer tier owned by this
//! component ([`StationMac::tier`]): at most one pending `TxStart` per
//! station. The sensing rules arm and cancel them through
//! [`BackoffTimers`]: directly in the tier on the per-station path (one
//! physical cancel per carrier-sense freeze), or as virtual timers of which
//! the clique path arms only the earliest.

use super::apctl::ApControl;
use super::arrivals::TrafficSources;
use super::channel::{Channel, Transmission};
use super::clique::Clique;
use super::event::Event;
use super::{Ctx, EnginePeers, World, CHANNEL_ID};
use crate::backoff::{BackoffPolicy, Policy};
use crate::control::{BusyOutcome, ChannelObservation};
use crate::phy::PhyParams;
use crate::topology::NodeId;
use rand::RngCore;
use rand_chacha::ChaCha8Rng;
use wlan_des::snapshot::{SnapshotError, StateReader, StateWriter};
use wlan_des::time::SimTime;
use wlan_des::{Component, Handle, TierId};

/// What a station is currently doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    /// The station is not participating (dynamic-membership scenarios).
    Inactive,
    /// The station is active but its frame queue is empty (finite-load
    /// traffic only — saturated stations never enter this state). It keeps
    /// sensing the medium (`sensed_busy` / `idle_since` bookkeeping
    /// continues, and IdleSense-style observation policies keep observing)
    /// but neither contends nor draws backoff until a frame arrives.
    QueueEmpty,
    /// The station is counting down its backoff (possibly frozen by carrier sensing).
    Contending,
    /// The station is transmitting a data frame.
    Transmitting,
    /// The station finished its data frame and is waiting for the ACK.
    AwaitingAck,
}

/// Sentinel for "no countdown anchored" in [`HotState::countdown_start`]
/// (`Option<SimTime>` would cost 8 more bytes per station; the sentinel value
/// is unreachable — it is ~584 years of simulated time).
const COUNTDOWN_NONE: SimTime = SimTime::from_nanos(u64::MAX);

/// Flag bit: the station's policy consumes channel observations (cached
/// [`BackoffPolicy::wants_observations`] — see that method's docs).
const FLAG_WANTS_OBS: u8 = 1 << 0;
/// Flag bit: the busy period currently being sensed contains a data frame.
const FLAG_BUSY_HAS_DATA: u8 = 1 << 1;
/// Flag bit: cached [`BackoffPolicy::redraw_on_resume`]. Like
/// `wants_observations`, this is sampled once at build time: every built-in
/// policy answers it constantly, and custom policies are documented to do the
/// same.
const FLAG_REDRAW_ON_RESUME: u8 = 1 << 2;

/// Where the station-level sensing code arms and cancels backoff timers.
///
/// The per-station path hands it the kernel's backoff tier directly
/// ([`TierId`] implements this trait); the clique path hands it a view of its
/// virtual timer set (`clique::VirtualTimers`), which arms only the earliest
/// entry in the kernel. Both see the identical sequence of calls, so the
/// sensing rules are written once.
pub(crate) trait BackoffTimers {
    /// Cancel `node`'s armed timer, if any.
    fn cancel(&mut self, ctx: &mut Ctx<'_>, node: NodeId);
    /// Arm `node`'s timer (its previous one is already cancelled).
    fn arm(&mut self, ctx: &mut Ctx<'_>, node: NodeId, gen: u64, fire: SimTime);
}

impl BackoffTimers for TierId {
    #[inline]
    fn cancel(&mut self, ctx: &mut Ctx<'_>, node: NodeId) {
        ctx.cancel_timer(*self, node);
    }

    #[inline]
    fn arm(&mut self, ctx: &mut Ctx<'_>, node: NodeId, gen: u64, fire: SimTime) {
        ctx.arm_timer(*self, node, gen, fire);
    }
}

/// The per-station fields touched on every medium transition, packed into
/// one sub-cache-line record.
#[derive(Debug, Clone)]
pub(crate) struct HotState {
    /// The per-station state machine.
    pub phase: Phase,
    /// Cached policy capabilities plus the busy-has-data bit.
    flags: u8,
    /// Number of in-flight transmissions this station currently senses
    /// (other stations within sensing range, plus the AP).
    pub sensed_busy: u32,
    /// Backoff slots still to be counted down.
    pub remaining_slots: u64,
    /// When this station's perceived medium last became idle. Only
    /// meaningful while `sensed_busy == 0`.
    pub idle_since: SimTime,
    /// When the current backoff countdown (re)starts: `idle_since + DIFS`,
    /// possibly in the future. [`COUNTDOWN_NONE`] while the medium is sensed
    /// busy or the station is not contending.
    countdown_start: SimTime,
    /// Generation counter lazily invalidating scheduled `TxStart` events.
    pub timer_gen: u64,
    /// Generation counter lazily invalidating scheduled `AckTimeout` events.
    pub ack_gen: u64,
    /// Idle slots counted immediately before the busy period currently being
    /// sensed.
    pub pending_idle_slots: u64,
}

impl HotState {
    /// The station's countdown anchor, if one is armed.
    #[inline]
    pub(crate) fn countdown(&self) -> Option<SimTime> {
        if self.countdown_start == COUNTDOWN_NONE {
            None
        } else {
            Some(self.countdown_start)
        }
    }

    /// Anchor the countdown at `start`.
    #[inline]
    pub(crate) fn set_countdown(&mut self, start: SimTime) {
        self.countdown_start = start;
    }

    /// Clear the countdown anchor.
    #[inline]
    pub(crate) fn clear_countdown(&mut self) {
        self.countdown_start = COUNTDOWN_NONE;
    }

    /// Whether the station is participating in the network.
    #[inline]
    pub(crate) fn is_active(&self) -> bool {
        self.phase != Phase::Inactive
    }

    #[inline]
    pub(crate) fn wants_obs(&self) -> bool {
        self.flags & FLAG_WANTS_OBS != 0
    }

    #[inline]
    pub(crate) fn redraw_on_resume(&self) -> bool {
        self.flags & FLAG_REDRAW_ON_RESUME != 0
    }

    #[inline]
    pub(crate) fn busy_has_data(&self) -> bool {
        self.flags & FLAG_BUSY_HAS_DATA != 0
    }

    #[inline]
    pub(crate) fn set_busy_has_data(&mut self, value: bool) {
        if value {
            self.flags |= FLAG_BUSY_HAS_DATA;
        } else {
            self.flags &= !FLAG_BUSY_HAS_DATA;
        }
    }

    /// A transmission this station can sense has started: freeze the
    /// countdown and cancel the armed backoff timer (if any). This is the
    /// inner loop of every `TxStart`/`AckStart`; it reads and writes only
    /// this hot record (never the policy), so callers index the hot array
    /// exactly once per neighbour.
    #[inline]
    pub(crate) fn busy_start(
        &mut self,
        phy: &PhyParams,
        ctx: &mut Ctx<'_>,
        timers: &mut impl BackoffTimers,
        now: SimTime,
        node: NodeId,
        is_data: bool,
    ) {
        let slot = phy.slot;
        let difs = phy.difs;
        self.sensed_busy += 1;
        if self.sensed_busy > 1 {
            if is_data {
                self.flags |= FLAG_BUSY_HAS_DATA;
            }
            return;
        }
        // Medium transition idle -> busy. Idle-slot accounting feeds only
        // `on_observation`; skip the division for policies that ignore it.
        self.set_busy_has_data(is_data);
        if self.wants_obs() {
            let idle_start = self.idle_since + difs;
            self.pending_idle_slots = if now > idle_start {
                now.duration_since(idle_start).div_duration(slot)
            } else {
                0
            };
        }

        if self.phase == Phase::Contending {
            if let Some(anchor) = self.countdown() {
                let elapsed = if now > anchor {
                    now.duration_since(anchor).div_duration(slot)
                } else {
                    0
                };
                if elapsed >= self.remaining_slots {
                    // The station's own TxStart is due at exactly this instant and is
                    // still armed in the queue; leave it valid so simultaneous
                    // transmissions (collisions) can happen.
                } else {
                    self.remaining_slots -= elapsed;
                    self.clear_countdown();
                    self.timer_gen += 1;
                    timers.cancel(ctx, node);
                }
            }
        }
    }

    /// Arm the countdown after a busy period ended (`remaining_slots` is
    /// already final): the resume half of `busy_end`, shared between its
    /// hot-only and policy-touching paths.
    #[inline]
    fn resume_countdown(
        &mut self,
        phy: &PhyParams,
        ctx: &mut Ctx<'_>,
        timers: &mut impl BackoffTimers,
        now: SimTime,
        node: NodeId,
        ack_follows: bool,
    ) {
        let start = now + phy.difs;
        self.set_countdown(start);
        if ack_follows && self.remaining_slots > 0 {
            // Dead-on-arrival event elided; the AckStart freeze at
            // now + SIFS finds the armed countdown with elapsed == 0 and
            // re-freezes it, exactly as it would have invalidated the
            // scheduled event.
        } else {
            self.timer_gen += 1;
            let gen = self.timer_gen;
            let fire = start + phy.slot * self.remaining_slots;
            // The station can still be armed here: a zero-slot timer left
            // valid by the same-instant rule whose busy period ended
            // before it fired (e.g. an ACK shorter than DIFS). The old
            // engine invalidated that event with the `timer_gen` bump
            // above and pushed a replacement; with physical cancellation
            // the replacement is explicit.
            timers.cancel(ctx, node);
            timers.arm(ctx, node, gen, fire);
        }
    }

    /// Append this record to a checkpoint. The flags byte and the countdown
    /// sentinel are written raw — both are plain state here, even though the
    /// flag capabilities are derived from the policy at build time.
    fn save(&self, writer: &mut StateWriter) {
        writer.put_u8(match self.phase {
            Phase::Inactive => 0,
            Phase::QueueEmpty => 1,
            Phase::Contending => 2,
            Phase::Transmitting => 3,
            Phase::AwaitingAck => 4,
        });
        writer.put_u8(self.flags);
        writer.put_u32(self.sensed_busy);
        writer.put_u64(self.remaining_slots);
        writer.put_time(self.idle_since);
        writer.put_time(self.countdown_start);
        writer.put_u64(self.timer_gen);
        writer.put_u64(self.ack_gen);
        writer.put_u64(self.pending_idle_slots);
    }

    /// Restore a record written by [`save`](Self::save).
    fn load(&mut self, reader: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        self.phase = match reader.get_u8()? {
            0 => Phase::Inactive,
            1 => Phase::QueueEmpty,
            2 => Phase::Contending,
            3 => Phase::Transmitting,
            4 => Phase::AwaitingAck,
            tag => return Err(SnapshotError::custom(format!("unknown Phase tag {tag}"))),
        };
        self.flags = reader.get_u8()?;
        self.sensed_busy = reader.get_u32()?;
        self.remaining_slots = reader.get_u64()?;
        self.idle_since = reader.get_time()?;
        self.countdown_start = reader.get_time()?;
        self.timer_gen = reader.get_u64()?;
        self.ack_gen = reader.get_u64()?;
        self.pending_idle_slots = reader.get_u64()?;
        Ok(())
    }
}

/// MAC state for all stations: the hot records in one packed array, the cold
/// per-station data (policy, RNG stream, reporting weight) in parallel
/// arrays, all indexed by [`NodeId`]. Stations are only ever appended at
/// build time, so the arrays stay index-aligned by construction.
pub(crate) struct Stations {
    pub hot: Vec<HotState>,
    pub policy: Vec<Policy>,
    pub rng: Vec<ChaCha8Rng>,
    pub weight: Vec<f64>,
}

impl Stations {
    pub(crate) fn with_capacity(n: usize) -> Self {
        Stations {
            hot: Vec::with_capacity(n),
            policy: Vec::with_capacity(n),
            rng: Vec::with_capacity(n),
            weight: Vec::with_capacity(n),
        }
    }

    /// Append one station (build time only).
    pub(crate) fn push(&mut self, policy: Policy, rng: ChaCha8Rng, weight: f64) {
        let mut flags = 0u8;
        if policy.wants_observations() {
            flags |= FLAG_WANTS_OBS;
        }
        if policy.redraw_on_resume() {
            flags |= FLAG_REDRAW_ON_RESUME;
        }
        self.hot.push(HotState {
            phase: Phase::Inactive,
            flags,
            sensed_busy: 0,
            remaining_slots: 0,
            idle_since: SimTime::ZERO,
            countdown_start: COUNTDOWN_NONE,
            timer_gen: 0,
            ack_gen: 0,
            pending_idle_slots: 0,
        });
        self.policy.push(policy);
        self.rng.push(rng);
        self.weight.push(weight);
    }

    /// Number of stations.
    pub(crate) fn len(&self) -> usize {
        self.hot.len()
    }

    /// Append all mutable per-station state — hot record, policy state and
    /// RNG stream position — to a checkpoint. The policy's name string is
    /// written alongside its state so a resume against a scenario that built
    /// different policies fails loudly instead of misinterpreting bytes.
    pub(crate) fn save(&self, writer: &mut StateWriter) {
        writer.put_usize(self.len());
        for node in 0..self.len() {
            self.hot[node].save(writer);
            writer.put_str(self.policy[node].name());
            self.policy[node].save_state(writer);
            writer.put_rng(&self.rng[node]);
        }
    }

    /// Restore state written by [`save`](Self::save) into freshly built
    /// stations (same scenario, so counts, weights and policy types match).
    pub(crate) fn load(&mut self, reader: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        let n = reader.get_usize()?;
        if n != self.len() {
            return Err(SnapshotError::custom(format!(
                "checkpoint has {n} stations, scenario built {}",
                self.len()
            )));
        }
        for node in 0..n {
            self.hot[node].load(reader)?;
            let name = reader.get_str()?;
            if name != self.policy[node].name() {
                return Err(SnapshotError::custom(format!(
                    "station {node}: checkpoint policy {name:?} does not match built policy {:?}",
                    self.policy[node].name()
                )));
            }
            self.policy[node].load_state(reader)?;
            self.rng[node] = reader.get_rng()?;
        }
        Ok(())
    }

    /// Whether the station is participating in the network.
    #[inline]
    pub(crate) fn is_active(&self, node: NodeId) -> bool {
        self.hot[node].is_active()
    }

    /// A transmission station `node` was sensing has ended: deliver the
    /// channel observation and, if the station is contending, resume (or
    /// redraw) its countdown and schedule the next `TxStart`. Inactive
    /// stations return immediately (they do not track the medium; activation
    /// recomputes `sensed_busy` from scratch).
    ///
    /// `ack_follows` is the hot-path event-elision flag: when the caller knows
    /// the AP will start an ACK at `now + SIFS`, every station resumed here is
    /// guaranteed to be re-frozen before a countdown of one or more slots can
    /// expire (the earliest expiry is `now + DIFS + slot > now + SIFS`), so the
    /// `TxStart` it would schedule is dead on arrival. In that case the
    /// countdown is armed (`countdown_start` set, backoff redrawn exactly as
    /// usual — the RNG stream must not change) but the timer arm is skipped.
    /// A zero-slot countdown still schedules: its expiry at `now + DIFS` is
    /// covered by the same-instant rule in `busy_start` (`elapsed >=
    /// remaining_slots` leaves the timer valid), so that event genuinely fires.
    ///
    /// Structured so the common case — a policy that neither consumes
    /// observations nor redraws on resume, i.e. plain 802.11 — runs entirely
    /// on one borrow of the hot record; only observation/redraw policies take
    /// the slower path that touches the cold `policy`/`rng` arrays.
    #[inline]
    pub(crate) fn busy_end(
        &mut self,
        phy: &PhyParams,
        ctx: &mut Ctx<'_>,
        timers: &mut impl BackoffTimers,
        now: SimTime,
        node: NodeId,
        ack_follows: bool,
    ) {
        let h = &mut self.hot[node];
        if !h.is_active() {
            return;
        }
        debug_assert!(h.sensed_busy > 0);
        h.sensed_busy = h.sensed_busy.saturating_sub(1);
        if h.sensed_busy > 0 {
            return;
        }
        // Medium transition busy -> idle.
        h.idle_since = now;
        let contending = h.phase == Phase::Contending;
        let needs_obs = h.busy_has_data() && h.wants_obs();
        let redraw = contending && h.redraw_on_resume();
        if !(needs_obs || redraw) {
            if contending {
                h.resume_countdown(phy, ctx, timers, now, node, ack_follows);
            }
            return;
        }
        if needs_obs {
            let obs = ChannelObservation {
                idle_slots: h.pending_idle_slots,
                own_transmission: false,
                outcome: BusyOutcome::Unknown,
            };
            self.policy[node].on_observation(&obs);
        }
        if redraw {
            // Memoryless (p-persistent) policies attempt independently in
            // every idle slot; resuming the frozen counter would bias the
            // first post-busy slot (see `BackoffPolicy::redraw_on_resume`).
            self.hot[node].remaining_slots = self.policy[node].draw_backoff(&mut self.rng[node]);
        }
        if contending {
            self.hot[node].resume_countdown(phy, ctx, timers, now, node, ack_follows);
        }
    }
    /// Enter the contention phase: draw a fresh backoff and, if the medium is
    /// idle, arm the transmission timer. Under finite load a station with an
    /// empty queue parks in `QueueEmpty` instead — no backoff is drawn and
    /// no timer armed until the next frame arrival restarts contention.
    pub(crate) fn begin_contention(
        &mut self,
        phy: &PhyParams,
        ctx: &mut Ctx<'_>,
        timers: &mut impl BackoffTimers,
        node: NodeId,
        has_frame: bool,
    ) {
        let now = ctx.now();
        let difs = phy.difs;
        if !self.is_active(node) {
            return;
        }
        if !has_frame {
            let h = &mut self.hot[node];
            h.phase = Phase::QueueEmpty;
            h.clear_countdown();
            return;
        }
        let drawn = self.policy[node].draw_backoff(&mut self.rng[node]);
        let h = &mut self.hot[node];
        h.phase = Phase::Contending;
        h.remaining_slots = drawn;
        h.clear_countdown();
        if h.sensed_busy == 0 {
            let start = if h.idle_since + difs > now {
                h.idle_since + difs
            } else {
                now
            };
            h.set_countdown(start);
            h.timer_gen += 1;
            let gen = h.timer_gen;
            let fire = start + phy.slot * h.remaining_slots;
            timers.arm(ctx, node, gen, fire);
        }
    }
}

/// The station-MAC component: all per-station DCF state plus the sorted
/// active-station list. Owns the backoff timer tier; receives `TxStart`
/// (from that tier) and `AckTimeout` (from the general tier).
pub(crate) struct StationMac {
    pub(crate) stations: Stations,
    /// Ids of active stations, **sorted ascending**. ACK events notify exactly
    /// this set (every station senses the AP); keeping it sorted preserves the
    /// engine's ascending-id notification order.
    pub(crate) active: Vec<NodeId>,
    /// The backoff timer tier this component owns.
    pub(crate) tier: TierId,
    /// The shared medium view and lazy countdowns of a fully connected cell
    /// (`None` when some pair of stations is hidden: every transition then
    /// walks the transmitter's sensing neighbours).
    pub(crate) clique: Option<Box<Clique>>,
    pub(crate) channel: Handle<Channel>,
    pub(crate) ap: Handle<ApControl>,
    pub(crate) traffic: Handle<TrafficSources>,
}

impl StationMac {
    /// Enter the contention phase (see [`Stations::begin_contention`]).
    ///
    /// `has_frame` is the caller-supplied answer to "does `node` have a frame
    /// to send?" (always true without a traffic layer; queried from the
    /// traffic component otherwise) — passed in because the traffic state
    /// lives in a peer component.
    pub(crate) fn begin_contention(
        &mut self,
        phy: &PhyParams,
        ctx: &mut Ctx<'_>,
        node: NodeId,
        has_frame: bool,
    ) {
        self.contend(phy, ctx, node, has_frame);
        self.settle(phy, ctx);
    }

    /// [`begin_contention`](Self::begin_contention) without the final
    /// [`settle`](Self::settle), for callers that start several stations.
    pub(crate) fn contend(
        &mut self,
        phy: &PhyParams,
        ctx: &mut Ctx<'_>,
        node: NodeId,
        has_frame: bool,
    ) {
        match self.clique.as_deref_mut() {
            None => {
                let mut tier = self.tier;
                self.stations
                    .begin_contention(phy, ctx, &mut tier, node, has_frame)
            }
            Some(clique) => {
                clique.detach(&mut self.stations, phy, node);
                self.stations.begin_contention(
                    phy,
                    ctx,
                    &mut clique.individual_timers(),
                    node,
                    has_frame,
                );
            }
        }
    }

    /// A transmission `source` does not sense goes on the air: `source`'s
    /// data frame (`is_data`; its sensing neighbours sense it) or the AP's
    /// ACK to `source` (every active station senses the AP). Sensors are
    /// notified in ascending id order on the per-station path.
    pub(crate) fn medium_busy(
        &mut self,
        world: &World,
        ctx: &mut Ctx<'_>,
        now: SimTime,
        source: NodeId,
        is_data: bool,
    ) {
        let StationMac {
            stations,
            active,
            tier,
            clique,
            ..
        } = self;
        match clique.as_deref_mut() {
            Some(clique) => {
                clique.busy_start(stations, &world.phy, ctx, now, source, is_data);
                if is_data {
                    clique.went_on_air(stations, source);
                }
                clique.settle(stations, &world.phy, ctx, *tier);
            }
            None => {
                let sensors = if is_data {
                    world.topology.neighbors(source)
                } else {
                    active
                };
                for &node in sensors {
                    let h = &mut stations.hot[node];
                    if node != source && h.is_active() {
                        h.busy_start(&world.phy, ctx, tier, now, node, is_data);
                    }
                }
            }
        }
    }

    /// The transmission of [`medium_busy`](Self::medium_busy) leaves the
    /// air. `ack_follows` is the event-elision flag of
    /// [`Stations::busy_end`]. On the clique path the caller finishes with
    /// [`settle`](Self::settle) once it has updated `source` itself.
    pub(crate) fn medium_idle(
        &mut self,
        world: &World,
        ctx: &mut Ctx<'_>,
        now: SimTime,
        source: NodeId,
        is_data: bool,
        ack_follows: bool,
    ) {
        let StationMac {
            stations,
            active,
            tier,
            clique,
            ..
        } = self;
        match clique.as_deref_mut() {
            Some(clique) => {
                clique.busy_end(stations, &world.phy, ctx, active, now, source, ack_follows)
            }
            None => {
                let sensors = if is_data {
                    world.topology.neighbors(source)
                } else {
                    active
                };
                for &node in sensors {
                    if node != source {
                        stations.busy_end(&world.phy, ctx, tier, now, node, ack_follows);
                    }
                }
            }
        }
    }

    /// Make `node`'s per-station record authoritative before code outside
    /// the sensing layer reads or writes its medium fields (no-op on the
    /// per-station path, where it always is).
    #[inline]
    pub(crate) fn detach(&mut self, phy: &PhyParams, node: NodeId) {
        if let Some(clique) = self.clique.as_deref_mut() {
            clique.detach(&mut self.stations, phy, node);
        }
    }

    /// Re-arm the kernel's backoff timer after a clique-path handler (no-op
    /// on the per-station path).
    #[inline]
    pub(crate) fn settle(&mut self, phy: &PhyParams, ctx: &mut Ctx<'_>) {
        if let Some(clique) = self.clique.as_deref_mut() {
            clique.settle(&mut self.stations, phy, ctx, self.tier);
        }
    }

    /// A station's backoff timer fired: start transmitting (unless the timer
    /// is stale).
    fn handle_tx_start(
        &mut self,
        world: &mut World,
        peers: &mut EnginePeers<'_>,
        ctx: &mut Ctx<'_>,
        node: NodeId,
        gen: u64,
    ) {
        if let Some(clique) = self.clique.as_deref_mut() {
            clique.fired(&mut self.stations, &world.phy, node);
        }
        {
            let h = &self.stations.hot[node];
            // A timer is valid iff it is the most recently scheduled one and the
            // station is still counting down. Note that `sensed_busy` may be non-zero
            // here: if another station started transmitting at exactly this instant,
            // this station's counter still legitimately reached zero in the same slot
            // and both transmit (that is precisely how same-slot collisions happen).
            // Timers that were frozen strictly before their expiry are invalidated by
            // bumping `timer_gen` in `busy_start`.
            if h.phase != Phase::Contending || h.timer_gen != gen || h.countdown().is_none() {
                self.settle(&world.phy, ctx);
                return; // stale timer
            }
        }
        let now = ctx.now();
        let airtime = world.phy.data_airtime();
        let end = now + airtime;
        let payload_bits = world.phy.payload_bits;

        // Reception bookkeeping: each pair of overlapping frames interferes with the
        // other; a frame overlapping an AP transmission is lost outright. Whether an
        // interfered frame is still decodable is decided at TxEnd by the capture
        // model (without one, any interference is fatal — the paper's model).
        let rx_power = match &world.capture {
            Some(c) => c.received_power(world.topology.distance_to_ap(node)),
            None => 1.0,
        };
        let tx = {
            let channel = peers.get_mut(self.channel);
            let collided = channel.ap_transmitting;
            let mut interference = 0.0;
            for &id in &channel.active_tx {
                let other = channel.txs.get_mut(id);
                interference += other.rx_power;
                other.interference += rx_power;
            }
            let tx = channel.txs.insert(Transmission {
                source: node,
                start: now,
                payload_bits,
                rx_power,
                interference,
                collided,
            });
            channel.active_tx.push(tx);
            tx
        };
        world.stats.nodes[node].attempts += 1;

        {
            let h = &mut self.stations.hot[node];
            h.phase = Phase::Transmitting;
            h.clear_countdown();
            h.timer_gen += 1;
        }

        ctx.schedule(end, CHANNEL_ID, Event::TxEnd { tx });

        // Stations within sensing range of the transmitter see the medium go busy
        // (ascending id order — the RNG-stream-stability rule).
        self.medium_busy(world, ctx, now, node, true);
        peers
            .get_mut(self.ap)
            .channel_busy_start(&world.phy, &mut world.stats, now, true);
    }

    /// A station gave up waiting for its ACK (unless the timeout is stale).
    fn handle_ack_timeout(
        &mut self,
        world: &mut World,
        peers: &mut EnginePeers<'_>,
        ctx: &mut Ctx<'_>,
        node: NodeId,
        gen: u64,
    ) {
        {
            let h = &self.stations.hot[node];
            if h.phase != Phase::AwaitingAck || h.ack_gen != gen {
                return; // stale timeout (the ACK arrived)
            }
        }
        world.stats.nodes[node].failures += 1;
        {
            let st = &mut self.stations;
            let rng: &mut dyn RngCore = &mut st.rng[node];
            st.policy[node].on_failure(rng);
        }
        let has_frame = peers.get(self.traffic).has_frame(node);
        self.begin_contention(&world.phy, ctx, node, has_frame);
    }
}

impl Component<World, Event> for StationMac {
    fn handle(
        &mut self,
        world: &mut World,
        peers: &mut EnginePeers<'_>,
        ctx: &mut Ctx<'_>,
        event: Event,
    ) {
        match event {
            Event::TxStart { station, gen } => {
                self.handle_tx_start(world, peers, ctx, station, gen)
            }
            Event::AckTimeout { station, gen } => {
                self.handle_ack_timeout(world, peers, ctx, station, gen)
            }
            other => unreachable!("station MAC received {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hot_state_fits_one_cache_line() {
        // The whole point of the hot/cold split: the sensing loops must touch
        // at most one cache line per neighbour.
        assert!(
            std::mem::size_of::<HotState>() <= 56,
            "HotState is {} bytes (documented budget: 56, hard ceiling: one 64-byte line)",
            std::mem::size_of::<HotState>()
        );
    }
}
