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
//!   per-station record ([`HotState`](super::station::HotState)) and busy
//!   count of a synced station are stale and are never read.
//! * **detached** — the per-station record is authoritative and the station
//!   goes through exactly the per-station rules, one station at a time
//!   (`Stations::busy_start`, `Stations::busy_end`,
//!   `Stations::begin_contention`), on the same bit-sliced busy counts the
//!   per-station path updates in bulk. Stations on the
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
//! Detached stations arm and cancel their backoff timers in the MAC's timer
//! table ([`Timers`]), exactly as on the per-station path. A synced station's
//! timer is *implicit*: its key follows from the cell's anchor, its target
//! and the walk that resumed the cell, with the same `(time, seq)` the
//! per-station path would have given it — station `i` resumed by a walk
//! takes `base + i` from the walk's reserved range of N sequence numbers.
//! [`Clique::settle`] reports the earliest implicit timer, and the MAC arms
//! the earlier of it and the table's earliest in the kernel, so a busy
//! period costs O(1) timer operations instead of O(N).
//!
//! ## RNG draws
//!
//! Resumes still draw p-persistent backoffs (redraw-on-resume) and call
//! IdleSense `on_observation` for every synced station, in one loop per
//! medium transition in ascending id order over the word mask of active,
//! synced stations that redraw or observe, so every station's ChaCha8
//! stream and policy state evolve exactly as on the per-station path. When
//! an ACK follows the resume, the ACK freezes every countdown before it can
//! expire and the next resume redraws it, so the loop only asks whether each
//! draw is zero ([`Policy::draws_zero`](crate::backoff::Policy::draws_zero)),
//! which consumes the same stream words.
//!
//! Otherwise each redraw draws only its uniform: the countdowns of one
//! `ln q` class are kept *lazily* ([`Targets`]). Before the next resume the
//! cell reads only the earliest target or two, and with equal `q` the
//! earliest belongs to the largest uniform, so a resume evaluates that one
//! geometric, plus the few others its guard band cannot rule out, and bounds
//! the rest. The next resume overwrites the leftovers unread.

use super::station::{Phase, Stations};
use super::timers::{Armed, Timers};
use crate::backoff::{geometric_from_uniform, geometric_uniform, BackoffPolicy};
use crate::control::{BusyOutcome, ChannelObservation};
use crate::phy::PhyParams;
use crate::topology::NodeId;
use wlan_des::snapshot::{SnapshotError, State, StateReader, StateWriter};
use wlan_des::time::SimTime;

/// `target` value of a station without a synced countdown.
const NO_TARGET: u64 = u64::MAX;
/// `target` value of a lazy countdown (see [`Targets`]).
const LAZY: u64 = u64::MAX - 1;

/// Whether `node`'s bit is set in a station bitset (64 stations to a word).
#[inline]
fn bit(set: &[u64], node: NodeId) -> bool {
    set[node / 64] >> (node % 64) & 1 != 0
}

/// Set or clear `node`'s bit in a station bitset.
#[inline]
fn put(set: &mut [u64], node: NodeId, on: bool) {
    let mask = 1 << (node % 64);
    if on {
        set[node / 64] |= mask;
    } else {
        set[node / 64] &= !mask;
    }
}

/// The station bitset of `n` stations holding those `pick` selects.
fn bitset(n: usize, pick: impl Fn(NodeId) -> bool) -> Box<[u64]> {
    let mut set = vec![0; n.div_ceil(64)].into_boxed_slice();
    (0..n)
        .filter(|&node| pick(node))
        .for_each(|node| put(&mut set, node, true));
    set
}

/// The synced countdown targets in blocks of `BLOCK` stations, each with
/// its cached earliest `(target, id)`: the earliest overall is a scan of
/// the block minima, one station's change rescans at most its block, and a
/// resume that redraws every target rebuilds the blocks once, as it
/// finishes.
///
/// A p-persistent countdown a resume redrew may be *lazy* (`LAZY`): the
/// resume drew its uniform `u` from the station's stream, and its target is
/// `epoch + floor(ln u / ln q)` with the `ln q` and epoch of that resume
/// (one `ln q` class per resume; stored, because the `on_control` broadcast
/// may change `q` before the target is read). For equal `q` the smallest
/// geometric belongs to the largest uniform `u*`; a sample below
/// `q^(k*+1)` draws more than `k*` slots. So [`resumed`](Self::resumed)
/// evaluates `k*` and every sample within a relative 1e-9 of that
/// threshold exactly (the guard band of `draws_zero`, far wider than the
/// rounding of the `ln`, the division and the one `exp`) and bounds the
/// rest below by `epoch + k* + 1`. The block minima hold that bound for a
/// lazy target. Every read is exact: [`get`](Self::get) evaluates a lazy
/// target, [`collect_until`](Self::collect_until) and [`min`](Self::min)
/// evaluate the ones their answer depends on, and a checkpoint saves exact
/// targets.
struct Targets {
    target: Box<[u64]>,
    block_min: Vec<(u64, NodeId)>,
    dirty: bool,
    /// Per station: the uniform of its lazy countdown (empty in a cell
    /// without redrawers).
    uniform: Box<[f64]>,
    /// The `ln q` and the epoch of the resume that drew the lazy targets,
    /// and the lower bound it gave them.
    lazy_ln_q: f64,
    lazy_epoch: u64,
    bound: u64,
    /// While a resume redraws: its lazy class's `ln q` and largest uniform.
    class: Option<(f64, f64)>,
}

/// Only exact targets are checkpointed; loaded targets rebuild the block
/// minima on the next query.
impl State for Targets {
    fn save(&self, w: &mut StateWriter) {
        let exact: Vec<u64> = (0..self.target.len()).map(|node| self.get(node)).collect();
        exact.save(w);
    }

    fn load(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        self.target.load(r)?;
        if self.target.contains(&LAZY) {
            return Err(SnapshotError::custom(
                "clique countdown target out of range",
            ));
        }
        self.dirty = true;
        Ok(())
    }
}

const BLOCK: usize = 64;

impl Targets {
    fn new(n: usize, redraws: bool) -> Self {
        Targets {
            target: vec![NO_TARGET; n].into(),
            block_min: vec![(NO_TARGET, 0); n.div_ceil(BLOCK)],
            dirty: false,
            uniform: vec![0.0; if redraws { n } else { 0 }].into(),
            lazy_ln_q: 0.0,
            lazy_epoch: 0,
            bound: 0,
            class: None,
        }
    }

    /// Whether `node` has a synced countdown (without evaluating it).
    #[inline]
    fn has(&self, node: NodeId) -> bool {
        self.target[node] != NO_TARGET
    }

    /// `node`'s exact target.
    #[inline]
    fn get(&self, node: NodeId) -> u64 {
        match self.target[node] {
            LAZY => self.lazy_epoch + geometric_from_uniform(self.uniform[node], self.lazy_ln_q),
            target => target,
        }
    }

    /// What the block minima hold for a stored target: a lazy one's bound.
    #[inline]
    fn key(&self, target: u64) -> u64 {
        if target == LAZY {
            self.bound
        } else {
            target
        }
    }

    fn scan_block(&mut self, block: usize) {
        let first = block * BLOCK;
        let slice = &self.target[first..(first + BLOCK).min(self.target.len())];
        let mut best = (NO_TARGET, first);
        for (i, &t) in slice.iter().enumerate() {
            let t = self.key(t);
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

    /// Redraw `node`'s geometric countdown at a resume at `epoch` from the
    /// uniform `u` (a bulk update, finished by [`resumed`](Self::resumed)):
    /// lazily if `ln_q` is the resume's lazy class (the first one
    /// redrawn), exactly otherwise.
    #[inline]
    fn redraw(&mut self, node: NodeId, epoch: u64, ln_q: f64, u: f64) {
        let u_max = match self.class {
            None => u,
            Some((class, u_max)) if class == ln_q => u_max.max(u),
            Some(_) => {
                self.set_bulk(node, epoch + geometric_from_uniform(u, ln_q));
                return;
            }
        };
        self.class = Some((ln_q, u_max));
        self.target[node] = LAZY;
        self.uniform[node] = u;
    }

    /// Finish a resume at `epoch` that redrew targets in bulk: evaluate the
    /// lazy class's `k*` and its guard band, bound the other lazy targets,
    /// and rebuild every block.
    fn resumed(&mut self, epoch: u64) {
        let lazy = self.class.take();
        let mut band = f64::INFINITY;
        if let Some((ln_q, u_max)) = lazy {
            let k = geometric_from_uniform(u_max, ln_q);
            self.lazy_ln_q = ln_q;
            self.lazy_epoch = epoch;
            self.bound = epoch + k + 1;
            band = (ln_q * (k + 1) as f64).exp() * (1.0 - 1e-9);
        }
        debug_assert!(
            lazy.is_some() || !self.target.contains(&LAZY),
            "a lazy target outlived its resume"
        );
        for block in 0..self.block_min.len() {
            let first = block * BLOCK;
            let mut best = (NO_TARGET, first);
            for node in first..(first + BLOCK).min(self.target.len()) {
                if self.target[node] == LAZY && self.uniform[node] >= band {
                    self.target[node] = self.get(node);
                }
                let t = self.key(self.target[node]);
                if t < best.0 {
                    best = (t, node);
                }
            }
            self.block_min[block] = best;
        }
        self.dirty = false;
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
        let mut min = self.block_min.iter().copied().min()?;
        if self.target[min.1] == LAZY {
            // A lazy target reached the front (the ones evaluated at the
            // resume were detached): which is earliest needs them all.
            for node in 0..self.target.len() {
                self.target[node] = self.get(node);
            }
            self.dirty = true;
            self.rebuild();
            min = self.block_min.iter().copied().min()?;
        }
        (min.0 != NO_TARGET).then_some(min)
    }

    /// Append every station whose target is at most `limit` to `out`,
    /// evaluating the lazy targets whose bound does not rule them out.
    fn collect_until(&mut self, limit: u64, out: &mut Vec<NodeId>) {
        self.rebuild();
        for block in 0..self.block_min.len() {
            if self.block_min[block].0 > limit {
                continue;
            }
            let first = block * BLOCK;
            let mut evaluated = false;
            for node in first..(first + BLOCK).min(self.target.len()) {
                let mut t = self.target[node];
                if t == LAZY {
                    if self.bound > limit {
                        continue;
                    }
                    t = self.get(node);
                    self.target[node] = t;
                    evaluated = true;
                }
                if t <= limit {
                    out.push(node);
                }
            }
            if evaluated {
                self.scan_block(block);
            }
        }
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
    /// Detached stations, ascending, and as a bitset (which also holds the
    /// on-air ones).
    detached: Vec<NodeId>,
    is_detached: Box<[u64]>,
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
    /// The stations whose policy consumes observations / redraws on resume
    /// (both fixed at build time), and whether any does (the resume loop is
    /// skipped otherwise).
    observer: Box<[u64]>,
    redrawer: Box<[u64]>,
    observers: bool,
    redraws: bool,
}

// The per-station records are checkpointed by `Stations` as they are; the
// membership flags and the touched list are derived from the station lists,
// and the policy capabilities are fixed at build time.
wlan_des::state!(struct Clique {
    busy, idle_since, busy_has_data, pending_idle_slots, epoch, walk, elided, targets, due,
    due_anchor, due_epoch, due_walk, detached, on_air, data_starts, data_mark
} then Self::rebuild);

impl Clique {
    /// The view of an idle cell at time zero with every station inactive.
    pub(crate) fn new(stations: &Stations) -> Self {
        let n = stations.len();
        let hot = &stations.hot;
        let redraws = hot.iter().any(|h| h.redraw_on_resume());
        Clique {
            busy: 0,
            idle_since: SimTime::ZERO,
            busy_has_data: false,
            pending_idle_slots: 0,
            epoch: 0,
            walk: 0,
            elided: false,
            targets: Targets::new(n, redraws),
            due: Vec::new(),
            is_due: vec![false; n],
            due_anchor: SimTime::ZERO,
            due_epoch: 0,
            due_walk: 0,
            // Every station starts detached (activation writes its record),
            // so size these for all of them at once.
            detached: Vec::with_capacity(n),
            is_detached: vec![0; n.div_ceil(64)].into(),
            touched: Vec::with_capacity(2 * n),
            transition: false,
            on_air: Vec::new(),
            is_on_air: vec![false; n],
            data_starts: 0,
            data_mark: vec![0; n].into(),
            observer: bitset(n, |node| hot[node].wants_obs()),
            redrawer: bitset(n, |node| hot[node].redraw_on_resume()),
            observers: hot.iter().any(|h| h.wants_obs()),
            redraws,
        }
    }

    fn insert_detached(&mut self, node: NodeId) {
        put(&mut self.is_detached, node, true);
        self.touched.push(node);
        if let Err(pos) = self.detached.binary_search(&node) {
            self.detached.insert(pos, node);
        }
    }

    /// A station was just activated: its record is authoritative already.
    pub(crate) fn adopt(&mut self, node: NodeId) {
        self.insert_detached(node);
    }

    /// A station was just deactivated (and its timer cancelled): drop it.
    pub(crate) fn forget(&mut self, node: NodeId) {
        debug_assert_eq!(self.targets.get(node), NO_TARGET, "forget a synced station");
        debug_assert!(!self.is_on_air[node], "forget an on-air station");
        put(&mut self.is_detached, node, false);
        self.detached.retain(|&d| d != node);
    }

    /// `node` just started transmitting: if its record follows the cell at
    /// an offset of one, move it to the lazily updated on-air set.
    pub(crate) fn went_on_air(&mut self, st: &Stations, node: NodeId) {
        if !bit(&self.is_detached, node)
            || st.hot[node].phase != Phase::Transmitting
            || st.sensed.count(node) + 1 != self.busy
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
        st.sensed.set(node, sensed);
        if self.data_mark[node] != self.data_starts {
            st.sensed.set_has_data(node, true);
            self.data_mark[node] = self.data_starts;
        }
    }

    /// The implicit timer of due station `node`.
    fn due_timer(&self, st: &Stations, phy: &PhyParams, node: NodeId) -> Armed {
        Armed {
            time: phy.backoff_end(self.due_anchor, self.targets.get(node) - self.due_epoch),
            seq: self.due_walk + node as u64,
            node,
            gen: st.hot[node].timer_gen,
        }
    }

    /// Make `node`'s per-station record authoritative: write the cell's view
    /// (and its countdown and implicit timer) into it and the timer table.
    /// No-op for detached and inactive stations.
    pub(crate) fn detach(
        &mut self,
        st: &mut Stations,
        timers: &mut Timers,
        phy: &PhyParams,
        node: NodeId,
    ) {
        if self.is_on_air[node] {
            self.catch_up(st, node, self.busy - 1);
            self.is_on_air[node] = false;
            if let Some(i) = self.on_air.iter().position(|&d| d == node) {
                self.on_air.swap_remove(i);
            }
            self.insert_detached(node);
            return;
        }
        if bit(&self.is_detached, node) {
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
                    let time = phy.backoff_end(anchor, remaining);
                    timers.arm(node, h.timer_gen, time, self.walk + node as u64);
                }
            } else if self.is_due[node] {
                let timer = self.due_timer(st, phy, node);
                let h = &mut st.hot[node];
                h.remaining_slots = target - self.due_epoch;
                h.set_countdown(self.due_anchor);
                timers.arm(node, timer.gen, timer.time, timer.seq);
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
        st.sensed.set(node, self.busy);
        st.sensed.set_has_data(node, self.busy_has_data);
        let h = &mut st.hot[node];
        h.idle_since = self.idle_since;
        if h.wants_obs() {
            h.pending_idle_slots = self.pending_idle_slots;
        }
        self.insert_detached(node);
    }

    /// The medium gains a transmission: `source`'s data frame, or the AP's
    /// ACK to `source` (which `source` does not sense).
    pub(crate) fn busy_start(
        &mut self,
        st: &mut Stations,
        timers: &mut Timers,
        phy: &PhyParams,
        now: SimTime,
        source: NodeId,
        is_data: bool,
    ) {
        self.detach(st, timers, phy, source);
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
        for &node in &self.detached {
            if node != source {
                st.busy_start(phy, timers, now, node, is_data);
            }
        }
        if before == 1 {
            // On-air stations sensed nothing until now.
            for i in 0..self.on_air.len() {
                let node = self.on_air[i];
                st.sensed.set(node, 0);
                st.busy_start(phy, timers, now, node, is_data);
                self.data_mark[node] = self.data_starts;
            }
        }
    }

    /// The medium loses a transmission (`source`'s frame, or the ACK to
    /// `source`). `walk` is the first of the N sequence numbers the caller
    /// reserved for the stations this resumes; `ack_follows` is the
    /// per-station path's elision flag.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn busy_end(
        &mut self,
        st: &mut Stations,
        timers: &mut Timers,
        walk: u64,
        phy: &PhyParams,
        now: SimTime,
        source: NodeId,
        ack_follows: bool,
    ) {
        self.detach(st, timers, phy, source);
        self.busy -= 1;
        if self.busy == 1 {
            // On-air stations now sense nothing: the per-station rules
            // close their busy period (an observation, for IdleSense).
            for i in 0..self.on_air.len() {
                let node = self.on_air[i];
                self.catch_up(st, node, 1);
                st.busy_end(phy, timers, walk, now, node, ack_follows);
            }
        }
        for &node in &self.detached {
            if node != source {
                st.busy_end(phy, timers, walk, now, node, ack_follows);
            }
        }
        if self.busy > 0 {
            return;
        }
        // Nothing is on the air, so every active station's count is zero.
        // Clearing them all drops the stale counts of synced stations too,
        // which would otherwise keep the bit planes as deep as the busiest
        // period so far.
        st.sensed.clear();
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
        let Stations {
            active,
            policy,
            rng,
            ..
        } = st;
        for w in 0..active.len() {
            let observing = if observe { self.observer[w] } else { 0 };
            let mut bits = active[w] & !self.is_detached[w] & (self.redrawer[w] | observing);
            while bits != 0 {
                let b = bits.trailing_zeros();
                bits &= bits - 1;
                let node = w * 64 + b as usize;
                if observing >> b & 1 != 0 {
                    policy[node].on_observation(&obs);
                }
                if self.redrawer[w] >> b & 1 == 0 || !self.targets.has(node) {
                    continue;
                }
                // Memoryless policies redraw instead of resuming (see
                // `BackoffPolicy::redraw_on_resume`).
                let (policy, rng) = (&mut policy[node], &mut rng[node]);
                let drawn = if ack_follows {
                    // The ACK freezes this countdown SIFS from now, and the
                    // next resume redraws it before anything reads it: only
                    // a zero-slot draw, armed at once and due at the freeze,
                    // is observable. Any other draw stands in as one slot.
                    u64::from(!policy.draws_zero(rng))
                } else if let Some(ln_q) = policy.geometric_ln_q() {
                    let u = geometric_uniform(rng);
                    self.targets.redraw(node, self.epoch, ln_q, u);
                    continue;
                } else {
                    policy.draw_backoff(rng)
                };
                self.targets.set_bulk(node, self.epoch + drawn);
            }
        }
        if self.redraws {
            self.targets.resumed(self.epoch);
        }
    }

    /// If detached `node`'s record equals what the cell would give it,
    /// the countdown target it would have as a synced station.
    fn resync_target(
        &self,
        st: &Stations,
        timers: &Timers,
        phy: &PhyParams,
        node: NodeId,
    ) -> Option<u64> {
        let h = &st.hot[node];
        if h.phase == Phase::Transmitting
            || !h.is_active()
            || st.sensed.count(node) != self.busy
            || st.sensed.has_data(node) != self.busy_has_data
            || (h.wants_obs() && h.pending_idle_slots != self.pending_idle_slots)
            || (self.busy == 0 && h.idle_since != self.idle_since)
        {
            return None;
        }
        let timer = timers.get(node);
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
            time: phy.backoff_end(anchor, remaining),
            seq: self.walk + node as u64,
            node,
            gen: h.timer_gen,
        });
        (timer == implicit).then(|| self.epoch + remaining)
    }

    /// Finish a handler: re-sync every detached station that can be
    /// (cancelling its timer in the table, which the implicit one replaces),
    /// and return the earliest implicit timer of the synced stations.
    pub(crate) fn settle(
        &mut self,
        st: &mut Stations,
        timers: &mut Timers,
        phy: &PhyParams,
    ) -> Option<Armed> {
        // Between transitions a walk moves a detached record in step with
        // the cell, so only the stations handled one by one can have come
        // to match it; a transition can match any of them. (A missed match
        // only keeps a station detached, which is always exact.)
        let mut resynced =
            |clique: &mut Self, node: NodeId| match clique.resync_target(st, timers, phy, node) {
                Some(target) => {
                    put(&mut clique.is_detached, node, false);
                    timers.cancel(node);
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
                any |=
                    bit(&self.is_detached, node) && !self.is_on_air[node] && resynced(self, node);
            }
            if any {
                let is_detached = &self.is_detached;
                self.detached.retain(|&node| bit(is_detached, node));
            }
        }
        self.touched.clear();
        self.transition = false;

        if self.busy > 0 {
            self.due.last().map(|&node| self.due_timer(st, phy, node))
        } else {
            self.targets.min().and_then(|(target, node)| {
                let remaining = target - self.epoch;
                (!self.elided || remaining == 0).then(|| Armed {
                    time: phy.backoff_end(self.idle_since + phy.difs, remaining),
                    seq: self.walk + node as u64,
                    node,
                    gen: st.hot[node].timer_gen,
                })
            })
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
        self.is_detached.fill(0);
        self.is_on_air.fill(false);
        for &node in &self.due {
            self.is_due[node] = true;
        }
        for &node in self.detached.iter().chain(&self.on_air) {
            put(&mut self.is_detached, node, true);
        }
        for &node in &self.on_air {
            self.is_on_air[node] = true;
        }
        self.touched.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// The attempt probabilities of the `ln q` classes, near 0 and 1 among
    /// them; a station of class `None` does not redraw.
    const P: [Option<f64>; 6] = [
        Some(0.08),
        Some(1e-12),
        Some(0.5),
        Some(1.0 - 1e-12),
        Some(0.001),
        None,
    ];

    /// A uniform for a station with `ln q`: a fresh sample, or one within
    /// a few guard bands of `q^k`, where the resume's earliest geometric
    /// `k*` places its threshold (`k` near `k*` + 1).
    fn uniform(rng: &mut ChaCha8Rng, ln_q: f64, k: u64) -> f64 {
        if rng.gen_bool(0.5) {
            return geometric_uniform(rng);
        }
        let k = k + rng.gen_range(0..3);
        let rel = [-3e-9, -1e-9, -1e-12, 0.0, 1e-12, 1e-9, 3e-9][rng.gen_range(0..7)];
        ((ln_q * k as f64).exp() * (1.0 + rel)).clamp(f64::MIN_POSITIVE, 1.0 - f64::EPSILON / 2.0)
    }

    /// The targets in `targets`, and the exact ones an eager model holds,
    /// must agree on every read.
    fn agree(targets: &mut Targets, model: &[u64]) {
        for (node, &exact) in model.iter().enumerate() {
            assert_eq!(targets.get(node), exact, "station {node}");
            assert_eq!(targets.has(node), exact != NO_TARGET, "station {node}");
        }
    }

    fn save(targets: &Targets) -> Vec<u8> {
        let mut w = StateWriter::new();
        targets.save(&mut w);
        w.finish()
    }

    /// Drive lazy `Targets` and an eager model through resumes and the
    /// reads between them: `detach` (`get`, then clear), re-syncs,
    /// `collect_until`, `min` and checkpoints.
    fn check(n: usize, classes: &[usize], seed: u64, steps: &[(u8, u16)]) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let class = |node: NodeId| P[classes[node % classes.len()]];
        let mut targets = Targets::new(n, true);
        let mut model = vec![NO_TARGET; n];
        let mut epoch = 0u64;
        for &(op, arg) in steps {
            let node = arg as usize % n;
            match op % 7 {
                // A resume: every station with a countdown that redraws
                // draws again, lazily or (after an ACK) as a zero test.
                // Most redrawers contend, as in a saturated cell.
                0 | 1 => {
                    for (node, target) in model.iter_mut().enumerate() {
                        if class(node).is_some() && *target == NO_TARGET && rng.gen_bool(0.75) {
                            *target = epoch;
                            targets.set(node, epoch);
                        }
                    }
                    let first =
                        (0..n).find_map(|node| class(node).filter(|_| model[node] != NO_TARGET));
                    let k = first.map_or(0, |p| {
                        geometric_from_uniform(geometric_uniform(&mut rng), (1.0 - p).ln())
                    });
                    for (node, target) in model.iter_mut().enumerate() {
                        let Some(p) = class(node) else { continue };
                        if *target == NO_TARGET {
                            continue;
                        }
                        let ln_q = (1.0 - p).ln();
                        let u = uniform(&mut rng, ln_q, k);
                        let exact = epoch + geometric_from_uniform(u, ln_q);
                        if op % 7 == 0 {
                            targets.redraw(node, epoch, ln_q, u);
                            *target = exact;
                        } else {
                            *target = epoch + u64::from(exact != epoch);
                            targets.set_bulk(node, *target);
                        }
                    }
                    targets.resumed(epoch);
                }
                // A detach reads the exact target, then clears it; half of
                // them detach the earliest station, as its timer firing does.
                2 => {
                    let earliest = (0..n).min_by_key(|&i| (model[i], i)).unwrap();
                    let node = if arg % 2 == 1 { earliest } else { node };
                    assert_eq!(targets.get(node), model[node]);
                    targets.set(node, NO_TARGET);
                    model[node] = NO_TARGET;
                }
                // A re-sync (or a non-redrawer's countdown) sets one.
                3 => {
                    let target = epoch + u64::from(arg) % 40;
                    targets.set(node, target);
                    model[node] = target;
                }
                // A freeze collects the countdowns due by the frozen epoch,
                // mostly within a few slots, where the lazy bound lies.
                4 => {
                    let span = if arg % 3 == 0 { 64 } else { 4 };
                    let limit = epoch + u64::from(arg / 3) % span;
                    let mut due = Vec::new();
                    targets.collect_until(limit, &mut due);
                    let expected: Vec<NodeId> = (0..n).filter(|&i| model[i] <= limit).collect();
                    assert_eq!(due, expected, "collect_until({limit})");
                    epoch = limit;
                }
                5 => {
                    let expected = (0..n)
                        .map(|i| (model[i], i))
                        .min()
                        .filter(|&(t, _)| t != NO_TARGET);
                    assert_eq!(targets.min(), expected);
                }
                // A checkpoint saves exact targets, and resumes from them.
                _ => {
                    let mut eager = Targets::new(n, false);
                    eager.target.copy_from_slice(&model);
                    let bytes = save(&targets);
                    assert_eq!(bytes, save(&eager), "checkpoint bytes");
                    if arg % 2 == 0 {
                        let mut loaded = Targets::new(n, true);
                        let mut r = StateReader::new(&bytes).unwrap();
                        loaded.load(&mut r).unwrap();
                        r.expect_end().unwrap();
                        targets = loaded;
                    }
                }
            }
            agree(&mut targets, &model);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn lazy_targets_read_exactly_like_eager_ones(
            n_idx in 0usize..4,
            classes in proptest::collection::vec(0usize..6, 1..4),
            seed in any::<u64>(),
            steps in proptest::collection::vec((0u8..7, 0u16..1000), 1..60),
        ) {
            check([1, 5, 64, 130][n_idx], &classes, seed, &steps);
        }
    }

    /// What makes the lazy path pay: a resume evaluates only the earliest
    /// targets, reading the earliest and freezing at it evaluate nothing
    /// more, and the next resume overwrites the rest unread.
    #[test]
    fn a_resume_evaluates_only_the_earliest_countdowns() {
        // About the attempt probability wTOP settles at for N = 1000.
        let (n, ln_q) = (1000, 0.998f64.ln());
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut targets = Targets::new(n, true);
        (0..n).for_each(|node| targets.set(node, 0));
        let lazy = |targets: &Targets| targets.target.iter().filter(|&&t| t == LAZY).count();
        for epoch in [0, 30] {
            for node in 0..n {
                assert!(targets.has(node));
                targets.redraw(node, epoch, ln_q, geometric_uniform(&mut rng));
            }
            targets.resumed(epoch);
            let evaluated = n - lazy(&targets);
            assert!(
                (1..=10).contains(&evaluated),
                "{evaluated} evaluated at the resume"
            );
            let (first, _) = targets.min().unwrap();
            let mut due = Vec::new();
            targets.collect_until(first, &mut due);
            assert!(!due.is_empty());
            assert_eq!(
                n - lazy(&targets),
                evaluated,
                "reads evaluated lazy targets"
            );
        }
    }

    #[test]
    fn a_checkpoint_holding_a_lazy_marker_is_rejected() {
        let mut w = StateWriter::new();
        vec![0, LAZY, NO_TARGET].save(&mut w);
        let bytes = w.finish();
        let mut targets = Targets::new(3, true);
        let mut r = StateReader::new(&bytes).unwrap();
        assert!(targets.load(&mut r).is_err());
    }
}
