//! The station-MAC component: per-station DCF state in a hot/cold
//! struct-of-arrays layout, plus the component handlers for the two
//! station-addressed events (`TxStart`, `AckTimeout`).
//!
//! Carrier sensing is word-parallel. Every station's count of the
//! transmissions it senses lives in [`BusyCounts`], 64 stations to a word,
//! beside the active-station bitset. On the per-station sensing path a data
//! frame's start or end adds or subtracts the transmitter's sensing row
//! ([`Topology::sensing_row`](crate::topology::Topology::sensing_row)), and
//! an ACK's the active set minus the ACK's addressee: O(⌈N/64⌉ · log k)
//! word operations for k transmissions on the air. Only the stations whose
//! count crosses zero see their medium change, so only they run the
//! freeze ([`HotState::freeze`]) or resume ([`Stations::resume`]) rule,
//! visited by set-bit iteration in ascending id order — the order the
//! determinism contract requires. On the clique path ([`Clique`]) the few
//! detached stations update the same counters one station at a time
//! ([`Stations::busy_start`], [`Stations::busy_end`]); the rest follow the
//! cell's shared view.
//!
//! The rules read and write one packed [`HotState`] record per station
//! (countdown, generations, idle bookkeeping), kept apart from the large
//! cold fields — the [`Policy`] enum and the per-station ChaCha RNG, which
//! only backoff draws and outcome notifications touch.
//!
//! Backoff timers live in this component's timer table
//! ([`StationMac::timers`], see [`Timers`]) on both sensing paths: a freeze
//! cancels a station's timer there and a resume re-arms it, numbered from
//! the walk's reserved range. At the end of every handler
//! [`StationMac::settle`] arms the earliest timer — of the table, or on a
//! clique of the table and the cell's synced countdowns — in the kernel's
//! backoff tier ([`StationMac::tier`]), which never holds more than one.

use super::apctl::ApControl;
use super::arrivals::TrafficSources;
use super::busy::BusyCounts;
use super::channel::{Channel, Transmission};
use super::clique::Clique;
use super::event::Event;
use super::timers::Timers;
use super::{Ctx, EnginePeers, World, CHANNEL_ID};
use crate::backoff::{BackoffPolicy, Policy};
use crate::control::{BusyOutcome, ChannelObservation};
use crate::phy::PhyParams;
use crate::topology::NodeId;
use rand::RngCore;
use rand_chacha::ChaCha8Rng;
use wlan_des::time::SimTime;
use wlan_des::{Component, Handle, TierId};

/// What a station is currently doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    /// The station is not participating (dynamic-membership scenarios).
    Inactive,
    /// The station is active but its frame queue is empty (finite-load
    /// traffic only — saturated stations never enter this state). It keeps
    /// sensing the medium (busy-count / `idle_since` bookkeeping
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

wlan_des::state!(
    enum Phase {
        Inactive,
        QueueEmpty,
        Contending,
        Transmitting,
        AwaitingAck,
    }
);

/// Sentinel for "no countdown anchored" in [`HotState::countdown_start`]
/// (`Option<SimTime>` would cost 8 more bytes per station; the sentinel value
/// is unreachable — it is ~584 years of simulated time).
const COUNTDOWN_NONE: SimTime = SimTime::from_nanos(u64::MAX);

/// Flag bit: the station's policy consumes channel observations (cached
/// [`BackoffPolicy::wants_observations`] — see that method's docs).
const FLAG_WANTS_OBS: u8 = 1 << 0;
/// Flag bit: cached [`BackoffPolicy::redraw_on_resume`]. Like
/// `wants_observations`, this is sampled once at build time: every built-in
/// policy answers it constantly, and custom policies are documented to do the
/// same.
const FLAG_REDRAW_ON_RESUME: u8 = 1 << 1;

/// The per-station fields the sensing rules read and write, packed into
/// one sub-cache-line record.
#[derive(Debug, Clone)]
pub(crate) struct HotState {
    /// The per-station state machine.
    pub phase: Phase,
    /// Cached policy capabilities.
    flags: u8,
    /// Backoff slots still to be counted down.
    pub remaining_slots: u64,
    /// When this station's perceived medium last became idle. Only
    /// meaningful while its busy count is zero.
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

// The flags byte and the countdown sentinel are checkpointed as they are:
// both are plain state here, even though the flag capabilities are derived
// from the policy at build time.
wlan_des::state!(struct HotState {
    phase, flags, remaining_slots, idle_since, countdown_start, timer_gen, ack_gen,
    pending_idle_slots
});

impl HotState {
    /// The record of an inactive station running `policy`.
    fn new(policy: &Policy) -> Self {
        let mut flags = 0u8;
        if policy.wants_observations() {
            flags |= FLAG_WANTS_OBS;
        }
        if policy.redraw_on_resume() {
            flags |= FLAG_REDRAW_ON_RESUME;
        }
        HotState {
            phase: Phase::Inactive,
            flags,
            remaining_slots: 0,
            idle_since: SimTime::ZERO,
            countdown_start: COUNTDOWN_NONE,
            timer_gen: 0,
            ack_gen: 0,
            pending_idle_slots: 0,
        }
    }

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

    /// The medium this station senses went from idle to busy: account the
    /// idle slots before it and freeze the countdown, cancelling the armed
    /// backoff timer (if any). Reads and writes only this hot record (never
    /// the policy).
    #[inline]
    pub(crate) fn freeze(
        &mut self,
        phy: &PhyParams,
        timers: &mut Timers,
        now: SimTime,
        node: NodeId,
    ) {
        let slot = phy.slot;
        // Idle-slot accounting feeds only `on_observation`; skip the
        // division for policies that ignore it.
        if self.wants_obs() {
            let idle_start = self.idle_since + phy.difs;
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
                    timers.cancel(node);
                }
            }
        }
    }

    /// Arm the countdown after a busy period ended (`remaining_slots` is
    /// already final): the last step of [`Stations::resume`], shared
    /// between its hot-only and policy-touching paths. The timer takes
    /// sequence number `walk + node` from the resume walk's reserved range.
    #[inline]
    fn resume_countdown(
        &mut self,
        phy: &PhyParams,
        timers: &mut Timers,
        walk: u64,
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
            let fire = phy.backoff_end(start, self.remaining_slots);
            // The station can still be armed here: a zero-slot timer left
            // valid by the same-instant rule whose busy period ended
            // before it fired (e.g. an ACK shorter than DIFS). Arming
            // replaces it, as the `timer_gen` bump above invalidates it.
            timers.arm(node, self.timer_gen, fire, walk + node as u64);
        }
    }
}

/// Word `w` of the `active` stations that sense a transmission of `source`:
/// those in its sensing `row` (every station for an ACK, `row == None`),
/// never `source` itself.
#[inline]
fn sensor_mask(active: &[u64], row: Option<&[u64]>, source: NodeId, w: usize) -> u64 {
    let mut mask = active[w] & row.map_or(!0, |row| row[w]);
    if w == source / 64 {
        mask &= !(1 << (source % 64));
    }
    mask
}

/// MAC state for all stations: the hot records in one packed array, the cold
/// per-station data (policy, RNG stream, reporting weight) in parallel
/// arrays, and the busy counts and active set as station bitsets, all
/// indexed by [`NodeId`] and sized once, at build time.
pub(crate) struct Stations {
    pub hot: Box<[HotState]>,
    pub policy: Box<[Policy]>,
    pub rng: Box<[ChaCha8Rng]>,
    pub weight: Vec<f64>,
    /// How many transmissions each station senses (the AP's ACK included),
    /// with the busy and busy-has-data bits. Exact for active stations; an
    /// inactive station's count is recounted when it is activated.
    pub sensed: BusyCounts,
    /// The active stations: bit `i % 64` of word `i / 64` is set iff
    /// station `i` is not [`Phase::Inactive`].
    pub active: Box<[u64]>,
}

// Each station's policy state carries its variant, so a resume against a
// scenario that built different policies fails loudly; the weights are
// configuration, and the active set is derived from the phases.
wlan_des::state!(struct Stations { hot, policy, rng, sensed } then Self::reindex);

impl Stations {
    /// The inactive stations running `policy`, drawing from `rng`.
    pub(crate) fn new(policy: Vec<Policy>, rng: Vec<ChaCha8Rng>, weight: Vec<f64>) -> Self {
        let n = policy.len();
        Stations {
            hot: policy.iter().map(HotState::new).collect(),
            policy: policy.into(),
            rng: rng.into(),
            weight,
            sensed: BusyCounts::new(n),
            active: vec![0; n.div_ceil(64)].into(),
        }
    }

    /// Derive the active set from loaded phases.
    fn reindex(&mut self) -> Result<(), wlan_des::snapshot::SnapshotError> {
        self.active.fill(0);
        for (node, h) in self.hot.iter().enumerate() {
            if h.is_active() {
                self.active[node / 64] |= 1 << (node % 64);
            }
        }
        Ok(())
    }

    /// Number of stations.
    pub(crate) fn len(&self) -> usize {
        self.hot.len()
    }

    /// Whether the station is participating in the network.
    #[inline]
    pub(crate) fn is_active(&self, node: NodeId) -> bool {
        self.hot[node].is_active()
    }

    /// Number of active stations.
    pub(crate) fn active_count(&self) -> usize {
        self.active.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Bring inactive `node` into the network, contending on a medium that
    /// it senses as going idle now (the caller sets its busy count).
    pub(crate) fn activate(&mut self, node: NodeId, now: SimTime) {
        self.active[node / 64] |= 1 << (node % 64);
        let h = &mut self.hot[node];
        h.phase = Phase::Contending;
        h.idle_since = now;
        h.clear_countdown();
    }

    /// Take active `node` out of the network, invalidating its pending
    /// backoff timer and ACK timeout.
    pub(crate) fn deactivate(&mut self, node: NodeId) {
        self.active[node / 64] &= !(1 << (node % 64));
        let h = &mut self.hot[node];
        h.phase = Phase::Inactive;
        h.clear_countdown();
        h.timer_gen += 1;
        h.ack_gen += 1;
    }

    /// Visit, in ascending id order, the stations whose busy count crossed
    /// zero in the last bulk update.
    #[inline]
    fn visit_crossed(&mut self, mut visit: impl FnMut(&mut Self, NodeId)) {
        for w in 0..self.sensed.words() {
            let mut crossed = self.sensed.crossed(w);
            while crossed != 0 {
                visit(self, w * 64 + crossed.trailing_zeros() as usize);
                crossed &= crossed - 1;
            }
        }
    }

    /// A transmission by `source` went on the air: every active station in
    /// `row` (see [`sensor_mask`]) senses one more, and those whose
    /// medium was idle [`freeze`](HotState::freeze), in ascending id order.
    pub(crate) fn sense_start(
        &mut self,
        phy: &PhyParams,
        timers: &mut Timers,
        now: SimTime,
        row: Option<&[u64]>,
        source: NodeId,
        is_data: bool,
    ) {
        let active = &self.active;
        self.sensed
            .add(|w| sensor_mask(active, row, source, w), is_data);
        self.visit_crossed(|st, node| st.hot[node].freeze(phy, timers, now, node));
    }

    /// The transmission of [`sense_start`](Self::sense_start) left the air:
    /// its sensors sense one fewer, and those whose medium went idle
    /// [`resume`](Self::resume), in ascending id order, arming from the
    /// reserved range starting at `walk`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn sense_end(
        &mut self,
        phy: &PhyParams,
        timers: &mut Timers,
        walk: u64,
        now: SimTime,
        row: Option<&[u64]>,
        source: NodeId,
        ack_follows: bool,
    ) {
        let active = &self.active;
        self.sensed.sub(|w| sensor_mask(active, row, source, w));
        self.visit_crossed(|st, node| st.resume(phy, timers, walk, now, node, ack_follows));
    }

    /// One more transmission for active station `node` to sense (the
    /// clique path's detached stations): it freezes if its medium was idle.
    #[inline]
    pub(crate) fn busy_start(
        &mut self,
        phy: &PhyParams,
        timers: &mut Timers,
        now: SimTime,
        node: NodeId,
        is_data: bool,
    ) {
        if self.sensed.inc(node, is_data) {
            self.hot[node].freeze(phy, timers, now, node);
        }
    }

    /// One transmission fewer for `node` to sense: it resumes if its medium
    /// went idle, arming from the walk's range. Inactive stations return at
    /// once (activation recounts).
    #[inline]
    pub(crate) fn busy_end(
        &mut self,
        phy: &PhyParams,
        timers: &mut Timers,
        walk: u64,
        now: SimTime,
        node: NodeId,
        ack_follows: bool,
    ) {
        if self.hot[node].is_active() && self.sensed.dec(node) {
            self.resume(phy, timers, walk, now, node, ack_follows);
        }
    }

    /// The medium station `node` senses went from busy to idle: deliver the
    /// channel observation and, if the station is contending, resume (or
    /// redraw) its countdown and arm its timer at `walk + node`. Resumes
    /// happen only inside a walk that reserved N sequence numbers at
    /// `walk` (see [`Timers`]).
    ///
    /// `ack_follows` is the hot-path event-elision flag: when the caller knows
    /// the AP will start an ACK at `now + SIFS`, every station resumed here is
    /// guaranteed to be re-frozen before a countdown of one or more slots can
    /// expire (the earliest expiry is `now + DIFS + slot > now + SIFS`), so the
    /// `TxStart` it would schedule is dead on arrival. In that case the
    /// countdown is armed (`countdown_start` set, backoff redrawn exactly as
    /// usual — the RNG stream must not change) but the timer arm is skipped.
    /// A zero-slot countdown still schedules: its expiry at `now + DIFS` is
    /// covered by the same-instant rule in [`HotState::freeze`] (`elapsed >=
    /// remaining_slots` leaves the timer valid), so that event genuinely fires.
    ///
    /// Structured so the common case — a policy that neither consumes
    /// observations nor redraws on resume, i.e. plain 802.11 — runs entirely
    /// on one borrow of the hot record; only observation/redraw policies take
    /// the slower path that touches the cold `policy`/`rng` arrays.
    #[inline]
    pub(crate) fn resume(
        &mut self,
        phy: &PhyParams,
        timers: &mut Timers,
        walk: u64,
        now: SimTime,
        node: NodeId,
        ack_follows: bool,
    ) {
        let has_data = self.sensed.has_data(node);
        let h = &mut self.hot[node];
        h.idle_since = now;
        let contending = h.phase == Phase::Contending;
        let needs_obs = has_data && h.wants_obs();
        let redraw = contending && h.redraw_on_resume();
        if !(needs_obs || redraw) {
            if contending {
                h.resume_countdown(phy, timers, walk, now, node, ack_follows);
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
            self.hot[node].resume_countdown(phy, timers, walk, now, node, ack_follows);
        }
    }

    /// Enter the contention phase: draw a fresh backoff and, if the medium is
    /// idle, arm the transmission timer with a fresh sequence number. Under
    /// finite load a station with an empty queue parks in `QueueEmpty`
    /// instead — no backoff is drawn and no timer armed until the next frame
    /// arrival restarts contention.
    pub(crate) fn begin_contention(
        &mut self,
        phy: &PhyParams,
        ctx: &mut Ctx<'_>,
        timers: &mut Timers,
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
        let idle = !self.sensed.is_busy(node);
        let h = &mut self.hot[node];
        h.phase = Phase::Contending;
        h.remaining_slots = drawn;
        h.clear_countdown();
        if idle {
            let start = if h.idle_since + difs > now {
                h.idle_since + difs
            } else {
                now
            };
            h.set_countdown(start);
            h.timer_gen += 1;
            let fire = phy.backoff_end(start, h.remaining_slots);
            timers.arm(node, h.timer_gen, fire, ctx.reserve_seqs(1));
        }
    }
}

/// The station-MAC component: all per-station DCF state. Owns the backoff
/// timer table and the kernel tier its earliest timer is armed in; receives
/// `TxStart` (from that tier) and `AckTimeout` (from the general tier).
pub(crate) struct StationMac {
    pub(crate) stations: Stations,
    /// Every station's backoff timer (see [`Timers`]).
    pub(crate) timers: Timers,
    /// The backoff timer tier this component owns: it holds the earliest
    /// timer of `timers` (and of the clique's synced countdowns) only.
    pub(crate) tier: TierId,
    /// The shared medium view and lazy countdowns of a fully connected cell
    /// (`None` when some pair of stations is hidden: every transition then
    /// adds or subtracts its sensing row from every station's count).
    pub(crate) clique: Option<Box<Clique>>,
    pub(crate) channel: Handle<Channel>,
    pub(crate) ap: Handle<ApControl>,
    pub(crate) traffic: Handle<TrafficSources>,
}

// The clique's presence is fixed by the topology; the engine checkpoints it
// after this component when the scenario built one.
wlan_des::state!(struct StationMac { stations, timers });

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
        self.detach(phy, node);
        self.stations
            .begin_contention(phy, ctx, &mut self.timers, node, has_frame);
    }

    /// A transmission `source` does not sense goes on the air: `source`'s
    /// data frame (`is_data`; its sensing neighbours sense it) or the AP's
    /// ACK to `source` (every other active station senses the AP).
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
            timers,
            clique,
            ..
        } = self;
        match clique.as_deref_mut() {
            Some(clique) => {
                clique.busy_start(stations, timers, &world.phy, now, source, is_data);
                if is_data {
                    clique.went_on_air(stations, source);
                }
            }
            None => {
                let row = is_data.then(|| world.topology.sensing_row(source));
                stations.sense_start(&world.phy, timers, now, row, source, is_data);
            }
        }
        self.settle(&world.phy, ctx);
    }

    /// The transmission of [`medium_busy`](Self::medium_busy) leaves the
    /// air. `ack_follows` is the event-elision flag of
    /// [`Stations::resume`]. The caller finishes with
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
            timers,
            clique,
            ..
        } = self;
        let walk = ctx.reserve_seqs(stations.len() as u64);
        match clique.as_deref_mut() {
            Some(clique) => {
                clique.busy_end(stations, timers, walk, &world.phy, now, source, ack_follows)
            }
            None => {
                let row = is_data.then(|| world.topology.sensing_row(source));
                stations.sense_end(&world.phy, timers, walk, now, row, source, ack_follows);
            }
        }
    }

    /// Make `node`'s per-station record authoritative before code outside
    /// the sensing layer reads or writes its medium fields (no-op on the
    /// per-station path, where it always is).
    #[inline]
    pub(crate) fn detach(&mut self, phy: &PhyParams, node: NodeId) {
        if let Some(clique) = self.clique.as_deref_mut() {
            clique.detach(&mut self.stations, &mut self.timers, phy, node);
        }
    }

    /// Finish a handler: on a clique re-sync what can be, then arm the
    /// earliest backoff timer in the kernel's tier.
    #[inline]
    pub(crate) fn settle(&mut self, phy: &PhyParams, ctx: &mut Ctx<'_>) {
        let implicit = match self.clique.as_deref_mut() {
            Some(clique) => clique.settle(&mut self.stations, &mut self.timers, phy),
            None => None,
        };
        self.timers.settle(ctx, self.tier, implicit);
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
        // A synced station's timer was implicit: materialise it, then
        // consume it.
        self.detach(&world.phy, node);
        self.timers.fired(node);
        {
            let h = &self.stations.hot[node];
            // A timer is valid iff it is the most recently scheduled one and the
            // station is still counting down. Note that its busy count may be non-zero
            // here: if another station started transmitting at exactly this instant,
            // this station's counter still legitimately reached zero in the same slot
            // and both transmit (that is precisely how same-slot collisions happen).
            // Timers that were frozen strictly before their expiry are invalidated by
            // bumping `timer_gen` in `HotState::freeze`.
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
            let collided = !channel.acks.is_empty();
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
                ack_gen: self.stations.hot[node].ack_gen,
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
        // The whole point of the hot/cold split: the sensing rules must
        // touch at most one cache line per station they visit.
        assert!(
            std::mem::size_of::<HotState>() <= 56,
            "HotState is {} bytes (documented budget: 56, hard ceiling: one 64-byte line)",
            std::mem::size_of::<HotState>()
        );
    }
}
