//! The clique path of the sensing layer: one shared medium view for a fully
//! connected cell, with backoff countdowns kept lazily on an idle-slot epoch.
//!
//! In a clique every station senses every transmission but its own, so all
//! stations that are neither on the air nor otherwise special see the same
//! medium. [`Clique`] keeps that view once per cell — the busy count, when
//! the medium last went idle, whether the busy period carries data, and the
//! idle slots before it — and every active station is in one of two states:
//!
//! * **synced** — the station's sensing fields equal the cell's, and its
//!   backoff countdown (if it is contending) is a *target* on the cell's
//!   idle-slot epoch: `remaining = target - epoch`. Freezing or resuming
//!   every synced countdown is then O(1): a freeze advances the epoch by the
//!   idle slots that elapsed, a resume moves the anchor. Countdowns that
//!   expire at the very instant the medium goes busy keep their timers (the
//!   same-instant rule) and stay synced as *due* countdowns. The
//!   per-station record ([`HotState`](super::station::HotState)) of a
//!   synced station is stale and is never read.
//! * **detached** — the per-station record is authoritative and the station
//!   goes through exactly the per-station rules (`HotState::busy_start`,
//!   `Stations::busy_end`, `Stations::begin_contention`). Stations on the
//!   air, the addressee of the ACK on the air, countdowns started off the
//!   cell's slot grid and a few transients are detached. Stations on the
//!   air follow the cell at an offset of one (they sense everything but
//!   their own frame), so their records are brought up to date only when
//!   the cell goes from one transmission to two or back.
//!
//! [`Clique::detach`] materialises a synced station's record from the cell
//! before anything outside the sensing layer touches it; [`Clique::settle`]
//! re-syncs a detached station once its record equals what the cell would
//! give it. Both are exact, so a station may switch at any time; a missed
//! re-sync only keeps a station on the exact per-station rules longer.
//!
//! ## Timers
//!
//! Every armed backoff timer of the per-station path exists here as a
//! *virtual* timer with the same `(time, seq)` key: explicit entries for
//! detached stations ([`Armed`]), and implicit ones for the synced stations a
//! resume armed. Only the earliest is armed in the kernel's backoff tier, so
//! a busy period costs O(1) timer operations instead of O(N).
//!
//! Sequence numbers keep the per-station tie order. A walk that resumes
//! stations (`TxEnd`, `AckEnd`) reserves one range of N sequence numbers
//! from the kernel and gives station `i` the number `base + i`: ascending id
//! within the walk, after everything scheduled before it and before
//! everything scheduled after it — exactly where the eager arms in ascending
//! id order would have landed. A station arming on its own (a new backoff
//! after an ACK, an ACK timeout, a frame arrival, activation) takes one fresh
//! number, as before.
//!
//! ## RNG draws
//!
//! Resumes still draw p-persistent backoffs (redraw-on-resume) and call
//! IdleSense `on_observation` for every synced station, in one eager loop per
//! medium transition in ascending id order, so every station's ChaCha8
//! stream and policy state evolve exactly as on the per-station path. When
//! an ACK follows the resume, the ACK freezes every countdown before it can
//! expire and the next resume redraws it, so the loop only asks whether each
//! draw is zero ([`Policy::draws_zero`](crate::backoff::Policy::draws_zero)),
//! which consumes the same stream words.

use super::station::{BackoffTimers, Phase, Stations};
use super::Ctx;
use crate::backoff::BackoffPolicy;
use crate::control::{BusyOutcome, ChannelObservation};
use crate::phy::PhyParams;
use crate::topology::NodeId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use wlan_des::snapshot::SnapshotError;
use wlan_des::time::SimTime;
use wlan_des::TierId;

/// `target` value of a station without a synced countdown.
const NO_TARGET: u64 = u64::MAX;

/// One virtual backoff timer: the key and payload the per-station path
/// would have armed in the kernel tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct Armed {
    time: SimTime,
    seq: u64,
    node: NodeId,
    gen: u64,
}

wlan_des::state!(struct Armed { time, seq, node, gen });

impl Armed {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

/// The explicit virtual timers of detached stations: at most one per
/// station, with a lazily pruned min-heap over their keys.
struct ExplicitTimers {
    timer: Box<[Option<Armed>]>,
    heap: BinaryHeap<Reverse<(SimTime, u64, NodeId)>>,
    len: usize,
}

// The heap and the count are derived from the timers.
wlan_des::state!(struct ExplicitTimers { timer } then Self::reindex);

impl ExplicitTimers {
    fn new(n: usize) -> Self {
        ExplicitTimers {
            timer: vec![None; n].into(),
            heap: BinaryHeap::with_capacity(n),
            len: 0,
        }
    }

    /// Recount loaded timers and rebuild the heap over their keys,
    /// rejecting a timer filed under another station.
    fn reindex(&mut self) -> Result<(), SnapshotError> {
        self.heap.clear();
        self.len = 0;
        for (node, armed) in self.timer.iter().enumerate() {
            if let Some(armed) = armed {
                if armed.node != node {
                    return Err(SnapshotError::custom(format!(
                        "virtual timer of station {} filed under {node}",
                        armed.node
                    )));
                }
                self.len += 1;
                self.heap.push(Reverse((armed.time, armed.seq, node)));
            }
        }
        Ok(())
    }

    fn insert(&mut self, armed: Armed) {
        if self.timer[armed.node].replace(armed).is_none() {
            self.len += 1;
        }
        self.heap.push(Reverse((armed.time, armed.seq, armed.node)));
    }

    fn remove(&mut self, node: NodeId) -> Option<Armed> {
        let removed = self.timer[node].take();
        if removed.is_some() {
            self.len -= 1;
            if self.len == 0 {
                self.heap.clear();
            }
        }
        removed
    }

    /// The earliest timer (heap entries of cancelled timers are dropped).
    fn first(&mut self) -> Option<Armed> {
        while let Some(&Reverse((time, seq, node))) = self.heap.peek() {
            match self.timer[node] {
                Some(armed) if armed.key() == (time, seq) => return Some(armed),
                _ => {
                    self.heap.pop();
                }
            }
        }
        None
    }
}

/// The synced countdown targets in blocks of `BLOCK` stations, each with
/// its cached earliest `(target, id)`: the earliest overall is a scan of
/// the block minima, one station's change rescans at most its block, and a
/// resume that redraws every target writes them in bulk and rebuilds the
/// blocks once, on the next query.
struct Targets {
    target: Box<[u64]>,
    block_min: Vec<(u64, NodeId)>,
    dirty: bool,
}

// Loaded targets rebuild the block minima on the next query.
wlan_des::state!(struct Targets { target } then Self::mark_dirty);

const BLOCK: usize = 64;

impl Targets {
    fn new(n: usize) -> Self {
        Targets {
            target: vec![NO_TARGET; n].into(),
            block_min: vec![(NO_TARGET, 0); n.div_ceil(BLOCK)],
            dirty: false,
        }
    }

    #[inline]
    fn get(&self, node: NodeId) -> u64 {
        self.target[node]
    }

    fn scan_block(&mut self, block: usize) {
        let first = block * BLOCK;
        let slice = &self.target[first..(first + BLOCK).min(self.target.len())];
        let mut best = (NO_TARGET, first);
        for (i, &t) in slice.iter().enumerate() {
            if t < best.0 {
                best = (t, first + i);
            }
        }
        self.block_min[block] = best;
    }

    /// Set one target, keeping its block's minimum current.
    fn set(&mut self, node: NodeId, target: u64) {
        self.target[node] = target;
        if self.dirty {
            return;
        }
        let block = node / BLOCK;
        let min = self.block_min[block];
        if (target, node) < min {
            self.block_min[block] = (target, node);
        } else if min.1 == node {
            self.scan_block(block);
        }
    }

    /// Set one target of a bulk update (the blocks are rebuilt on demand).
    #[inline]
    fn set_bulk(&mut self, node: NodeId, target: u64) {
        self.target[node] = target;
        self.dirty = true;
    }

    fn mark_dirty(&mut self) -> Result<(), SnapshotError> {
        self.dirty = true;
        Ok(())
    }

    fn rebuild(&mut self) {
        if self.dirty {
            for block in 0..self.block_min.len() {
                self.scan_block(block);
            }
            self.dirty = false;
        }
    }

    /// The earliest `(target, id)`, lowest id first among equals.
    fn min(&mut self) -> Option<(u64, NodeId)> {
        self.rebuild();
        let min = self.block_min.iter().copied().min()?;
        (min.0 != NO_TARGET).then_some(min)
    }

    /// Append every station whose target is at most `limit` to `out`.
    fn collect_until(&mut self, limit: u64, out: &mut Vec<NodeId>) {
        self.rebuild();
        for (block, &(min, _)) in self.block_min.iter().enumerate() {
            if min <= limit {
                let first = block * BLOCK;
                let slice = &self.target[first..(first + BLOCK).min(self.target.len())];
                out.extend(
                    slice
                        .iter()
                        .enumerate()
                        .filter(|&(_, &t)| t <= limit)
                        .map(|(i, _)| first + i),
                );
            }
        }
    }
}

/// The timer sink detached stations arm into: explicit virtual timers,
/// numbered from the walk's reserved range or, outside a walk, from a fresh
/// sequence number each.
pub(crate) struct VirtualTimers<'a> {
    timers: &'a mut ExplicitTimers,
    walk: Option<u64>,
}

impl BackoffTimers for VirtualTimers<'_> {
    #[inline]
    fn cancel(&mut self, _ctx: &mut Ctx<'_>, node: NodeId) {
        self.timers.remove(node);
    }

    #[inline]
    fn arm(&mut self, ctx: &mut Ctx<'_>, node: NodeId, gen: u64, fire: SimTime) {
        let seq = match self.walk {
            Some(base) => base + node as u64,
            None => ctx.reserve_seqs(1),
        };
        self.timers.insert(Armed {
            time: fire,
            seq,
            node,
            gen,
        });
    }
}

/// The shared medium view of a fully connected cell (see the module docs).
pub(crate) struct Clique {
    /// Transmissions on the air: data frames plus the AP's ACK.
    busy: u32,
    /// When `busy` last dropped to zero.
    idle_since: SimTime,
    /// Whether the current (or, while idle, the last) busy period carries a
    /// data frame.
    busy_has_data: bool,
    /// Idle slots counted before the current (or last) busy period.
    pending_idle_slots: u64,
    /// Idle slots elapsed on the cell's slot grid over the whole run.
    epoch: u64,
    /// First sequence number of the last walk that resumed the cell.
    walk: u64,
    /// That walk knew an ACK follows, so synced countdowns with slots left
    /// were not armed (the ACK freezes them first).
    elided: bool,
    /// Per station: the epoch at which a synced countdown expires, or
    /// `NO_TARGET`.
    targets: Targets,
    /// Synced countdowns that expired at the instant the medium went busy:
    /// their timers stay armed through the busy period (the same-instant
    /// rule) with the keys of the idle period before it, whose anchor,
    /// epoch and walk are kept in `due_*`. Sorted so the earliest is last.
    due: Vec<NodeId>,
    is_due: Vec<bool>,
    due_anchor: SimTime,
    due_epoch: u64,
    due_walk: u64,
    /// Detached stations, ascending.
    detached: Vec<NodeId>,
    is_detached: Vec<bool>,
    /// Detached stations the current handler touched one by one, and
    /// whether the whole detached set moved with the cell (a transition
    /// between idle and busy): the candidates `settle` tries to re-sync.
    touched: Vec<NodeId>,
    transition: bool,
    /// Detached stations on the air, kept out of `detached` and updated
    /// lazily: each senses every transmission but its own, so its busy
    /// count is the cell's minus one and it needs the per-station rules
    /// only when that count crosses zero (the cell going from one
    /// transmission to two, or back).
    on_air: Vec<NodeId>,
    is_on_air: Vec<bool>,
    /// Data frames started so far, and per on-air station the count when
    /// its record was last brought up to date: a data frame started since
    /// then sets its busy-has-data bit.
    data_starts: u64,
    data_mark: Box<[u64]>,
    /// Explicit virtual timers of detached stations.
    timers: ExplicitTimers,
    /// The virtual timer currently armed in the kernel's backoff tier.
    real: Option<Armed>,
    /// Per station: whether its policy consumes observations / redraws on
    /// resume (both fixed at build time), and whether any does (the eager
    /// loops are skipped otherwise).
    observer: Vec<bool>,
    redrawer: Vec<bool>,
    observers: bool,
    redraws: bool,
}

// The per-station records are checkpointed by `Stations` as they are; the
// membership flags and the touched list are derived from the station lists,
// and the policy capabilities are fixed at build time.
wlan_des::state!(struct Clique {
    busy, idle_since, busy_has_data, pending_idle_slots, epoch, walk, elided, targets, due,
    due_anchor, due_epoch, due_walk, detached, on_air, data_starts, data_mark, timers, real
} then Self::rebuild);

impl Clique {
    /// The view of an idle cell at time zero with every station inactive.
    pub(crate) fn new(stations: &Stations) -> Self {
        let n = stations.len();
        Clique {
            busy: 0,
            idle_since: SimTime::ZERO,
            busy_has_data: false,
            pending_idle_slots: 0,
            epoch: 0,
            walk: 0,
            elided: false,
            targets: Targets::new(n),
            due: Vec::new(),
            is_due: vec![false; n],
            due_anchor: SimTime::ZERO,
            due_epoch: 0,
            due_walk: 0,
            // Every station starts detached (activation writes its record),
            // so size these for all of them at once.
            detached: Vec::with_capacity(n),
            is_detached: vec![false; n],
            touched: Vec::with_capacity(2 * n),
            transition: false,
            on_air: Vec::new(),
            is_on_air: vec![false; n],
            data_starts: 0,
            data_mark: vec![0; n].into(),
            timers: ExplicitTimers::new(n),
            real: None,
            observer: stations.hot.iter().map(|h| h.wants_obs()).collect(),
            redrawer: stations.hot.iter().map(|h| h.redraw_on_resume()).collect(),
            observers: stations.hot.iter().any(|h| h.wants_obs()),
            redraws: stations.hot.iter().any(|h| h.redraw_on_resume()),
        }
    }

    /// The timer sink for a detached station arming outside a walk.
    pub(crate) fn individual_timers(&mut self) -> VirtualTimers<'_> {
        VirtualTimers {
            timers: &mut self.timers,
            walk: None,
        }
    }

    fn insert_detached(&mut self, node: NodeId) {
        self.is_detached[node] = true;
        self.touched.push(node);
        if let Err(pos) = self.detached.binary_search(&node) {
            self.detached.insert(pos, node);
        }
    }

    /// A station was just activated: its record is authoritative already.
    pub(crate) fn adopt(&mut self, node: NodeId) {
        self.insert_detached(node);
    }

    /// A station was just deactivated: drop it and its virtual timer.
    pub(crate) fn forget(&mut self, node: NodeId) {
        debug_assert_eq!(self.targets.get(node), NO_TARGET, "forget a synced station");
        debug_assert!(!self.is_on_air[node], "forget an on-air station");
        self.timers.remove(node);
        self.is_detached[node] = false;
        self.detached.retain(|&d| d != node);
    }

    /// `node` just started transmitting: if its record follows the cell at
    /// an offset of one, move it to the lazily updated on-air set.
    pub(crate) fn went_on_air(&mut self, st: &Stations, node: NodeId) {
        let h = &st.hot[node];
        if !self.is_detached[node]
            || h.phase != Phase::Transmitting
            || h.sensed_busy + 1 != self.busy
        {
            return;
        }
        if let Ok(pos) = self.detached.binary_search(&node) {
            self.detached.remove(pos);
        }
        self.is_on_air[node] = true;
        self.data_mark[node] = self.data_starts;
        self.on_air.push(node);
    }

    /// Bring on-air station `node`'s record up to date with a busy count of
    /// `sensed`.
    fn catch_up(&mut self, st: &mut Stations, node: NodeId, sensed: u32) {
        let h = &mut st.hot[node];
        h.sensed_busy = sensed;
        if self.data_mark[node] != self.data_starts {
            h.set_busy_has_data(true);
            self.data_mark[node] = self.data_starts;
        }
    }

    /// The implicit timer of due station `node`.
    fn due_timer(&self, st: &Stations, phy: &PhyParams, node: NodeId) -> Armed {
        Armed {
            time: self.due_anchor + phy.slot * (self.targets.get(node) - self.due_epoch),
            seq: self.due_walk + node as u64,
            node,
            gen: st.hot[node].timer_gen,
        }
    }

    /// Make `node`'s per-station record authoritative: write the cell's view
    /// (and its countdown and virtual timer) into it. No-op for detached and
    /// inactive stations.
    pub(crate) fn detach(&mut self, st: &mut Stations, phy: &PhyParams, node: NodeId) {
        if self.is_on_air[node] {
            self.catch_up(st, node, self.busy - 1);
            self.is_on_air[node] = false;
            if let Some(i) = self.on_air.iter().position(|&d| d == node) {
                self.on_air.swap_remove(i);
            }
            self.insert_detached(node);
            return;
        }
        if self.is_detached[node] {
            // The caller is about to change this record: re-check it.
            self.touched.push(node);
            return;
        }
        if !st.hot[node].is_active() {
            return;
        }
        let target = self.targets.get(node);
        if target != NO_TARGET {
            debug_assert_eq!(st.hot[node].phase, Phase::Contending);
            if self.busy == 0 {
                let anchor = self.idle_since + phy.difs;
                let remaining = target - self.epoch;
                let h = &mut st.hot[node];
                h.remaining_slots = remaining;
                h.set_countdown(anchor);
                if !self.elided || remaining == 0 {
                    self.timers.insert(Armed {
                        time: anchor + phy.slot * remaining,
                        seq: self.walk + node as u64,
                        node,
                        gen: h.timer_gen,
                    });
                }
            } else if self.is_due[node] {
                let timer = self.due_timer(st, phy, node);
                let h = &mut st.hot[node];
                h.remaining_slots = target - self.due_epoch;
                h.set_countdown(self.due_anchor);
                self.timers.insert(timer);
                self.is_due[node] = false;
                if let Some(i) = self.due.iter().rposition(|&d| d == node) {
                    self.due.remove(i);
                }
            } else {
                let h = &mut st.hot[node];
                h.remaining_slots = target - self.epoch;
                h.clear_countdown();
            }
            self.targets.set(node, NO_TARGET);
        }
        let h = &mut st.hot[node];
        h.sensed_busy = self.busy;
        h.idle_since = self.idle_since;
        h.set_busy_has_data(self.busy_has_data);
        if h.wants_obs() {
            h.pending_idle_slots = self.pending_idle_slots;
        }
        self.insert_detached(node);
    }

    /// `node`'s timer fired (it was the one armed in the kernel): consume it
    /// and detach the station, which is about to transmit.
    pub(crate) fn fired(&mut self, st: &mut Stations, phy: &PhyParams, node: NodeId) {
        let fired = self.real.take();
        debug_assert_eq!(
            fired.map(|a| a.node),
            Some(node),
            "fired timer was not armed"
        );
        self.detach(st, phy, node);
        if self.timers.timer[node] == fired {
            self.timers.remove(node);
        }
    }

    /// The medium gains a transmission: `source`'s data frame, or the AP's
    /// ACK to `source` (which `source` does not sense).
    pub(crate) fn busy_start(
        &mut self,
        st: &mut Stations,
        phy: &PhyParams,
        ctx: &mut Ctx<'_>,
        now: SimTime,
        source: NodeId,
        is_data: bool,
    ) {
        self.detach(st, phy, source);
        if self.busy == 0 {
            // Idle -> busy for every synced station: freeze all countdowns at
            // once by advancing the epoch. Countdowns expiring at this very
            // instant keep their timers (the same-instant rule): they become
            // due, keyed by the idle period that armed them.
            let anchor = self.idle_since + phy.difs;
            let elapsed = if now > anchor {
                now.duration_since(anchor).div_duration(phy.slot)
            } else {
                0
            };
            let frozen = self.epoch + elapsed;
            self.targets.collect_until(frozen, &mut self.due);
            // An elided walk armed only the zero-slot countdowns.
            let (targets, epoch) = (&self.targets, self.epoch);
            self.due
                .retain(|&node| !self.elided || targets.get(node) == epoch);
            self.due
                .sort_unstable_by_key(|&node| std::cmp::Reverse((targets.get(node), node)));
            for &node in &self.due {
                self.is_due[node] = true;
            }
            self.due_anchor = anchor;
            self.due_epoch = self.epoch;
            self.due_walk = self.walk;
            self.epoch = frozen;
            self.busy_has_data = is_data;
            self.pending_idle_slots = elapsed;
            self.transition = true;
        } else {
            self.busy_has_data |= is_data;
        }
        let before = self.busy;
        self.busy += 1;
        self.data_starts += u64::from(is_data);
        let mut timers = VirtualTimers {
            timers: &mut self.timers,
            walk: None,
        };
        for &node in &self.detached {
            if node != source {
                st.hot[node].busy_start(phy, ctx, &mut timers, now, node, is_data);
            }
        }
        if before == 1 {
            // On-air stations sensed nothing until now.
            for i in 0..self.on_air.len() {
                let node = self.on_air[i];
                st.hot[node].sensed_busy = 0;
                st.hot[node].busy_start(phy, ctx, &mut timers, now, node, is_data);
                self.data_mark[node] = self.data_starts;
            }
        }
    }

    /// The medium loses a transmission (`source`'s frame, or the ACK to
    /// `source`). `active` is the sorted active list; `ack_follows` is the
    /// per-station path's elision flag.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn busy_end(
        &mut self,
        st: &mut Stations,
        phy: &PhyParams,
        ctx: &mut Ctx<'_>,
        active: &[NodeId],
        now: SimTime,
        source: NodeId,
        ack_follows: bool,
    ) {
        self.detach(st, phy, source);
        let walk = ctx.reserve_seqs(st.len() as u64);
        self.busy -= 1;
        if self.busy == 1 {
            // On-air stations now sense nothing: the per-station rules
            // close their busy period (an observation, for IdleSense).
            for i in 0..self.on_air.len() {
                let node = self.on_air[i];
                self.catch_up(st, node, 1);
                let mut timers = VirtualTimers {
                    timers: &mut self.timers,
                    walk: Some(walk),
                };
                st.busy_end(phy, ctx, &mut timers, now, node, ack_follows);
            }
        }
        let mut timers = VirtualTimers {
            timers: &mut self.timers,
            walk: Some(walk),
        };
        for &node in &self.detached {
            if node != source {
                st.busy_end(phy, ctx, &mut timers, now, node, ack_follows);
            }
        }
        if self.busy > 0 {
            return;
        }
        // Busy -> idle for every synced station: their countdowns resume
        // from the new anchor with the walk's sequence numbers. A due
        // countdown that never fired kept its slots through the freeze.
        for &node in &self.due {
            self.is_due[node] = false;
            let target = self.targets.get(node);
            self.targets
                .set_bulk(node, target - self.due_epoch + self.epoch);
        }
        self.due.clear();
        self.idle_since = now;
        self.walk = walk;
        self.elided = ack_follows;
        self.transition = true;
        let observe = self.observers && self.busy_has_data;
        if !(observe || self.redraws) {
            return;
        }
        let obs = ChannelObservation {
            idle_slots: self.pending_idle_slots,
            own_transmission: false,
            outcome: BusyOutcome::Unknown,
        };
        for &node in active {
            if self.is_detached[node] {
                continue;
            }
            if observe && self.observer[node] {
                st.policy[node].on_observation(&obs);
            }
            if self.redrawer[node] && self.targets.get(node) != NO_TARGET {
                // Memoryless policies redraw instead of resuming (see
                // `BackoffPolicy::redraw_on_resume`).
                let drawn = if ack_follows {
                    // The ACK freezes this countdown SIFS from now, and the
                    // next resume redraws it before anything reads it: only
                    // a zero-slot draw, armed at once and due at the freeze,
                    // is observable. Any other draw stands in as one slot.
                    u64::from(!st.policy[node].draws_zero(&mut st.rng[node]))
                } else {
                    st.policy[node].draw_backoff(&mut st.rng[node])
                };
                self.targets.set_bulk(node, self.epoch + drawn);
            }
        }
    }

    /// If detached `node`'s record equals what the cell would give it,
    /// the countdown target it would have as a synced station.
    fn resync_target(&self, st: &Stations, phy: &PhyParams, node: NodeId) -> Option<u64> {
        let h = &st.hot[node];
        if h.phase == Phase::Transmitting
            || !h.is_active()
            || h.sensed_busy != self.busy
            || h.busy_has_data() != self.busy_has_data
            || (h.wants_obs() && h.pending_idle_slots != self.pending_idle_slots)
            || (self.busy == 0 && h.idle_since != self.idle_since)
        {
            return None;
        }
        let timer = self.timers.timer[node];
        if h.phase != Phase::Contending || self.busy > 0 {
            // Synced countdowns are frozen while the medium is busy.
            let frozen = h.countdown().is_none() && timer.is_none();
            return frozen.then(|| match h.phase {
                Phase::Contending => self.epoch + h.remaining_slots,
                _ => NO_TARGET,
            });
        }
        let anchor = self.idle_since + phy.difs;
        if h.countdown() != Some(anchor) {
            return None;
        }
        let remaining = h.remaining_slots;
        let implicit = (!self.elided || remaining == 0).then(|| Armed {
            time: anchor + phy.slot * remaining,
            seq: self.walk + node as u64,
            node,
            gen: h.timer_gen,
        });
        (timer == implicit).then(|| self.epoch + remaining)
    }

    /// Finish a handler: re-sync every detached station that can be, and
    /// make the kernel's backoff tier hold exactly the earliest virtual
    /// timer.
    pub(crate) fn settle(
        &mut self,
        st: &mut Stations,
        phy: &PhyParams,
        ctx: &mut Ctx<'_>,
        tier: TierId,
    ) {
        // Between transitions a walk moves a detached record in step with
        // the cell, so only the stations handled one by one can have come
        // to match it; a transition can match any of them. (A missed match
        // only keeps a station detached, which is always exact.)
        let resynced = |clique: &mut Self, node: NodeId| match clique.resync_target(st, phy, node) {
            Some(target) => {
                clique.is_detached[node] = false;
                clique.timers.remove(node);
                if target != NO_TARGET {
                    clique.targets.set(node, target);
                }
                true
            }
            None => false,
        };
        if self.transition {
            let mut kept = 0;
            for i in 0..self.detached.len() {
                let node = self.detached[i];
                if !resynced(self, node) {
                    self.detached[kept] = node;
                    kept += 1;
                }
            }
            self.detached.truncate(kept);
        } else {
            let mut any = false;
            for i in 0..self.touched.len() {
                let node = self.touched[i];
                any |= self.is_detached[node] && !self.is_on_air[node] && resynced(self, node);
            }
            if any {
                let is_detached = &self.is_detached;
                self.detached.retain(|&node| is_detached[node]);
            }
        }
        self.touched.clear();
        self.transition = false;

        let explicit = self.timers.first();
        let implicit = if self.busy > 0 {
            self.due.last().map(|&node| self.due_timer(st, phy, node))
        } else {
            self.targets.min().and_then(|(target, node)| {
                let remaining = target - self.epoch;
                (!self.elided || remaining == 0).then(|| Armed {
                    time: self.idle_since + phy.difs + phy.slot * remaining,
                    seq: self.walk + node as u64,
                    node,
                    gen: st.hot[node].timer_gen,
                })
            })
        };
        let best = match (explicit, implicit) {
            (Some(a), Some(b)) => Some(if a.key() < b.key() { a } else { b }),
            (a, b) => a.or(b),
        };
        if best != self.real {
            if let Some(old) = self.real {
                ctx.cancel_timer(tier, old.node);
            }
            if let Some(new) = best {
                ctx.arm_timer_at_seq(tier, new.node, new.gen, new.time, new.seq);
            }
            self.real = best;
        }
    }

    /// Rebuild the membership flags from loaded station lists, rejecting a
    /// station the cell does not have.
    fn rebuild(&mut self) -> Result<(), SnapshotError> {
        let n = self.is_due.len();
        let listed = self.due.iter().chain(&self.detached).chain(&self.on_air);
        if let Some(node) = listed.copied().find(|&node| node >= n) {
            return Err(SnapshotError::custom(format!(
                "clique station {node} out of range"
            )));
        }
        self.is_due.fill(false);
        self.is_detached.fill(false);
        self.is_on_air.fill(false);
        for &node in &self.due {
            self.is_due[node] = true;
        }
        for &node in self.detached.iter().chain(&self.on_air) {
            self.is_detached[node] = true;
        }
        for &node in &self.on_air {
            self.is_on_air[node] = true;
        }
        self.touched.clear();
        Ok(())
    }
}
