//! The kernel's multi-tier discrete-event queue.
//!
//! Events are ordered by timestamp with FIFO tie-breaking (a monotonically
//! increasing sequence number), which makes every run exactly reproducible
//! for a given seed.
//!
//! The queue is **multi-tier**. General events live in a binary heap
//! (`std::collections::BinaryHeap`, O(log n) push and pop) ordered by
//! reversed `(time, seq)`. On top of that, a model can register any number
//! of *indexed timer tiers* ([`EventQueue::add_tier`]) for event classes
//! with the shape "at most one pending per index, cancelled by naming the
//! index" — per-source arrival clocks in a MAC model, retry timers in a
//! protocol stack. Keeping such timers in the shared heap would leave
//! every cancelled one as a stale entry that still has to be pushed,
//! sifted and popped. A tier's indexed `TimerSet` instead gives O(1) arm and
//! *physical* cancel (plus an O(indices) cached-minimum recomputation
//! amortised over bursts).
//!
//! A model whose timers churn far faster than they fire can keep them
//! itself and arm only its earliest in a tier, with the sequence number the
//! timer would have drawn ([`EventQueue::reserve_seqs`],
//! [`EventQueue::arm_timer_at_seq`]). The WLAN engine does this with its
//! backoff timers, almost all of which a carrier-sense freeze cancels
//! before they fire: its backoff tier holds one timer, and its arrival tier
//! is the only one with a timer per station.
//!
//! All tiers draw sequence numbers from one shared counter, so the merged pop
//! order is exactly the `(time, seq)` total order a single-queue
//! implementation would produce — which is what lets a model split its event
//! classes across tiers without perturbing a golden trace. Sequence numbers
//! are unique, so the pop order is a pure function of the pending
//! `(time, seq)` multiset, whatever the heap's internal layout. An unused
//! tier costs one empty-peek per pop and nothing else.
//!
//! A timer tier is declared with an owning component and a constructor
//! function `fn(index, gen) -> E`: when an armed timer fires, the queue
//! synthesizes the event payload from the timer's index and generation and
//! routes it to the owner. The generation is opaque to the queue — models use
//! it to lazily invalidate timers that were left armed on purpose (see the
//! same-instant rule in MAC-style models), while `cancel_timer` removes a
//! timer physically.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::metrics::{QueueCounters, SchedulerStats, TierCounters};
use crate::simulation::ComponentId;
use crate::snapshot::{SnapshotError, State};
use crate::time::SimTime;

/// Identifier of a timer tier, returned by [`EventQueue::add_tier`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierId(usize);

#[cfg(test)]
impl TierId {
    /// A placeholder id for tests that overwrite it before use.
    pub(crate) fn default_for_test() -> Self {
        TierId(0)
    }
}

/// One general event, ordered by reversed `(time, seq)`: `BinaryHeap` is a
/// max-heap, so the earliest entry is the greatest and pops first.
#[derive(Debug, Default)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    target: ComponentId,
    event: E,
}

crate::state!(impl[E: State + Default] struct Entry<E> { time, seq, target, event });

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.seq) == (other.time, other.seq)
    }
}
impl<E> Eq for Entry<E> {}
impl<E> Ord for Entry<E> {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}
impl<E> PartialOrd for Entry<E> {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// One armed timer.
#[derive(Debug, Clone, Copy, Default)]
struct Timer {
    time: SimTime,
    seq: u64,
    index: usize,
    /// The arming generation, carried into the synthesized event (a
    /// belt-and-braces validity check for the handler).
    gen: u64,
}

crate::state!(struct Timer { time, seq, index, gen });

/// Sentinel for "index has no armed timer" in the position map.
const NOT_ARMED: u32 = u32::MAX;

/// The cached-minimum state of a timer set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum MinState {
    /// No timers armed.
    #[default]
    Empty,
    /// Minimum unknown (last known minimum was removed); recompute on demand.
    Dirty,
    /// Index of the minimum entry in `armed`.
    At(usize),
}

/// An unordered set of at-most-one-timer-per-index with O(1) arm/cancel and
/// a lazily recomputed cached minimum.
///
/// The set optimises for arms and cancels (push / swap-remove, no ordering
/// maintained) and pays a linear scan only when the cached minimum is
/// invalidated — at most once per extraction or min-cancellation. A model
/// whose cancel-and-rearm churn is far heavier than its fires (carrier-sense
/// freezes and resumes) is better served keeping those timers itself and
/// arming only the earliest here (see the module docs): the WLAN engine's
/// backoff tier never holds more than one timer, and its arrival tier, one
/// pending arrival per station, is the only tier with many.
#[derive(Debug, Default)]
struct TimerSet {
    armed: Vec<Timer>,
    /// `pos[index]` is the timer's position in `armed`, or `NOT_ARMED`.
    pos: Vec<u32>,
    min: MinState,
}

// The position map and the cached minimum are derived from the armed timers.
crate::state!(struct TimerSet { armed } then Self::reindex);

impl TimerSet {
    fn with_capacity(n: usize) -> Self {
        TimerSet {
            armed: Vec::with_capacity(n),
            pos: vec![NOT_ARMED; n],
            min: MinState::Empty,
        }
    }

    /// Arm `timer.index`'s timer. The index must not already be armed
    /// (callers cancel before re-arming).
    #[inline]
    fn arm(&mut self, timer: Timer) {
        if timer.index >= self.pos.len() {
            self.pos.resize(timer.index + 1, NOT_ARMED);
        }
        debug_assert_eq!(self.pos[timer.index], NOT_ARMED, "double arm");
        let i = self.armed.len();
        self.pos[timer.index] = i as u32;
        self.armed.push(timer);
        self.min = match self.min {
            MinState::Empty => MinState::At(i),
            MinState::Dirty => MinState::Dirty,
            MinState::At(m) => {
                let cur = &self.armed[m];
                if (timer.time, timer.seq) < (cur.time, cur.seq) {
                    MinState::At(i)
                } else {
                    MinState::At(m)
                }
            }
        };
    }

    /// Cancel `index`'s timer if armed (no-op otherwise); reports whether a
    /// timer was actually removed so the tier's cancel tally counts physical
    /// removals only.
    #[inline]
    fn cancel(&mut self, index: usize) -> bool {
        let Some(&i) = self.pos.get(index) else {
            return false;
        };
        if i == NOT_ARMED {
            return false;
        }
        self.remove_at(i as usize);
        true
    }

    /// Remove the entry at position `i` (swap-remove, patching the position
    /// map and the cached minimum).
    #[inline]
    fn remove_at(&mut self, i: usize) {
        let removed = self.armed.swap_remove(i);
        self.pos[removed.index] = NOT_ARMED;
        if let Some(moved) = self.armed.get(i) {
            self.pos[moved.index] = i as u32;
        }
        let last = self.armed.len(); // position the moved entry came from
        self.min = if self.armed.is_empty() {
            MinState::Empty
        } else {
            match self.min {
                MinState::Empty => unreachable!("removed from an empty set"),
                MinState::Dirty => MinState::Dirty,
                MinState::At(m) if m == i => MinState::Dirty,
                MinState::At(m) if m == last => MinState::At(i),
                MinState::At(m) => MinState::At(m),
            }
        };
    }

    /// Position of the earliest timer, recomputing the cached minimum if dirty.
    #[inline]
    fn min_index(&mut self) -> Option<usize> {
        match self.min {
            MinState::Empty => None,
            MinState::At(m) => Some(m),
            MinState::Dirty => {
                let mut best = 0usize;
                for (i, t) in self.armed.iter().enumerate().skip(1) {
                    let b = &self.armed[best];
                    if (t.time, t.seq) < (b.time, b.seq) {
                        best = i;
                    }
                }
                self.min = MinState::At(best);
                Some(best)
            }
        }
    }

    /// The earliest timer, if any.
    #[inline]
    fn peek(&mut self) -> Option<Timer> {
        self.min_index().map(|i| self.armed[i])
    }

    /// Remove and return the earliest timer.
    #[inline]
    fn extract_min(&mut self) -> Option<Timer> {
        let i = self.min_index()?;
        let timer = self.armed[i];
        self.remove_at(i);
        Some(timer)
    }

    fn len(&self) -> usize {
        self.armed.len()
    }

    /// Rebuild the position map and the cached minimum from freshly loaded
    /// timers, rejecting an index outside the set's range or armed twice.
    fn reindex(&mut self) -> Result<(), SnapshotError> {
        self.pos.fill(NOT_ARMED);
        for (i, timer) in self.armed.iter().enumerate() {
            match self.pos.get_mut(timer.index) {
                Some(pos) if *pos == NOT_ARMED => *pos = i as u32,
                _ => {
                    return Err(SnapshotError::custom(format!(
                        "timer index {} out of range or armed twice",
                        timer.index
                    )))
                }
            }
        }
        self.min = if self.armed.is_empty() {
            MinState::Empty
        } else {
            MinState::Dirty
        };
        Ok(())
    }
}

/// One registered timer tier: the set itself, the component every fired
/// timer is routed to, and the payload constructor.
struct TimerTier<E> {
    set: TimerSet,
    owner: ComponentId,
    make: fn(usize, u64) -> E,
    counters: TierCounters,
}

crate::state!(impl[E] struct TimerTier<E> { set } then Self::restart_counters);

impl<E> TimerTier<E> {
    /// A loaded tier's history restarts at its contents: every armed timer
    /// counts as one arm, keeping the reconciliation identity intact.
    fn restart_counters(&mut self) -> Result<(), SnapshotError> {
        self.counters = TierCounters {
            arms: self.set.len() as u64,
            ..TierCounters::default()
        };
        Ok(())
    }
}

impl<E> std::fmt::Debug for TimerTier<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimerTier")
            .field("set", &self.set)
            .field("owner", &self.owner)
            .finish_non_exhaustive()
    }
}

/// A deterministic time-ordered event queue: a binary heap for general
/// events plus any number of [`TierId`]-addressed timer tiers, merged at pop
/// time by the shared `(time, seq)` total order.
///
/// Its checkpoint state is every pending entry — general events and armed
/// timers, each with its original `(time, seq)` key — plus the shared
/// sequence counter. Pop order is a pure function of the `(time, seq)` entry
/// multiset, so loading into a queue with the same tier layout (count and
/// registration order; tiers carry owner and payload-constructor functions a
/// checkpoint cannot) reproduces the identical pop sequence, and no heap
/// layout or cached minimum needs to round-trip. Loading replaces every
/// pending entry, including the setup events of a freshly built model.
#[derive(Debug)]
pub struct EventQueue<E> {
    general: BinaryHeap<Entry<E>>,
    /// Growths of the general heap's backing storage.
    resizes: u64,
    tiers: Box<[TimerTier<E>]>,
    next_seq: u64,
    counters: QueueCounters,
}

crate::state!(impl[E: State + Default] struct EventQueue<E> {
    general, tiers, next_seq
} then Self::restart_counters);

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue with no timer tiers.
    pub fn new() -> Self {
        EventQueue {
            general: BinaryHeap::new(),
            resizes: 0,
            tiers: Box::default(),
            next_seq: 0,
            counters: QueueCounters::default(),
        }
    }

    /// Register a timer tier able to hold one pending timer for each of
    /// `capacity` indices (the capacity is a pre-allocation hint; arming a
    /// larger index grows the tier). A fired timer at `index` with arming
    /// generation `gen` is delivered to `owner` as `make(index, gen)`.
    pub fn add_tier(
        &mut self,
        owner: ComponentId,
        capacity: usize,
        make: fn(usize, u64) -> E,
    ) -> TierId {
        let mut tiers = std::mem::take(&mut self.tiers).into_vec();
        tiers.push(TimerTier {
            set: TimerSet::with_capacity(capacity),
            owner,
            make,
            counters: TierCounters::default(),
        });
        self.tiers = tiers.into_boxed_slice();
        TierId(self.tiers.len() - 1)
    }

    /// Schedule `event` for `target` at absolute time `time` (general tier).
    #[inline]
    pub fn schedule(&mut self, time: SimTime, target: ComponentId, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.counters.schedules += 1;
        if self.general.len() == self.general.capacity() {
            self.resizes += 1;
        }
        self.general.push(Entry {
            time,
            seq,
            target,
            event,
        });
    }

    /// Arm `index`'s timer in `tier` to fire at `time`, synthesizing
    /// `make(index, gen)` for the tier's owner. The timer draws its sequence
    /// number from the same counter as [`schedule`](Self::schedule), so it
    /// pops exactly where the equivalent `schedule` call would have placed
    /// it. The index must not already be armed in this tier (cancel first —
    /// the cancellation token is the index itself).
    #[inline]
    pub fn arm_timer(&mut self, tier: TierId, index: usize, gen: u64, time: SimTime) {
        let seq = self.reserve_seqs(1);
        self.arm_timer_at_seq(tier, index, gen, time, seq);
    }

    /// Reserve `count` consecutive sequence numbers from the shared counter
    /// and return the first. Nothing is scheduled; the range is the model's
    /// to hand out through [`arm_timer_at_seq`](Self::arm_timer_at_seq).
    ///
    /// This lets a model defer timer arms without changing the pop order: a
    /// loop that would arm timers for indices in ascending order can instead
    /// reserve one range up front and later arm index `i` at `base + i`. No
    /// other entry ever falls inside the range, so every such timer sorts
    /// against every other entry exactly where the eager arm would have.
    #[inline]
    pub fn reserve_seqs(&mut self, count: u64) -> u64 {
        let base = self.next_seq;
        self.next_seq += count;
        base
    }

    /// Arm `index`'s timer like [`arm_timer`](Self::arm_timer), but with a
    /// sequence number the caller took from a range returned by
    /// [`reserve_seqs`](Self::reserve_seqs) instead of a fresh one. Each
    /// reserved number may be used by at most one pending entry.
    #[inline]
    pub fn arm_timer_at_seq(
        &mut self,
        tier: TierId,
        index: usize,
        gen: u64,
        time: SimTime,
        seq: u64,
    ) {
        debug_assert!(seq < self.next_seq, "sequence number was never reserved");
        self.counters.timer_arms += 1;
        let tier = &mut self.tiers[tier.0];
        tier.counters.arms += 1;
        tier.set.arm(Timer {
            time,
            seq,
            index,
            gen,
        });
    }

    /// Cancel `index`'s armed timer in `tier` (no-op if not armed). Unlike
    /// lazy generation-bump invalidation, the timer is physically removed
    /// and never surfaces as a stale pop.
    #[inline]
    pub fn cancel_timer(&mut self, tier: TierId, index: usize) {
        let tier = &mut self.tiers[tier.0];
        if tier.set.cancel(index) {
            self.counters.timer_cancels += 1;
            tier.counters.cancels += 1;
        } else {
            tier.counters.noop_cancels += 1;
        }
    }

    /// Key of the earliest pending event across all tiers.
    #[inline]
    fn peek_key(&mut self) -> Option<(SimTime, u64, Source)> {
        let mut best: Option<(SimTime, u64, Source)> = self
            .general
            .peek()
            .map(|e| (e.time, e.seq, Source::General));
        for (i, tier) in self.tiers.iter_mut().enumerate() {
            if let Some(t) = tier.set.peek() {
                if best.is_none_or(|(bt, bs, _)| (t.time, t.seq) < (bt, bs)) {
                    best = Some((t.time, t.seq, Source::Tier(i)));
                }
            }
        }
        best
    }

    /// Timestamp of the earliest pending event in any tier.
    #[inline]
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.peek_key().map(|(t, _, _)| t)
    }

    /// Pop the earliest pending event from any tier, with the component it
    /// is addressed to.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, ComponentId, E)> {
        match self.peek_key()? {
            (_, _, Source::Tier(i)) => {
                let tier = &mut self.tiers[i];
                let timer = tier.set.extract_min().expect("peeked timer vanished");
                self.counters.timer_fires += 1;
                tier.counters.fires += 1;
                Some((timer.time, tier.owner, (tier.make)(timer.index, timer.gen)))
            }
            (_, _, Source::General) => {
                let e = self.general.pop().expect("peeked event vanished");
                self.counters.general_pops += 1;
                Some((e.time, e.target, e.event))
            }
        }
    }

    /// Number of pending events (all tiers).
    pub fn len(&self) -> usize {
        self.general.len() + self.tiers.iter().map(|t| t.set.len()).sum::<usize>()
    }

    /// Whether no events are pending in any tier.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The components the pending general events are addressed to.
    pub(crate) fn targets(&self) -> impl Iterator<Item = ComponentId> + '_ {
        self.general.iter().map(|e| e.target)
    }

    /// A loaded queue's history restarts at its contents: every pending
    /// entry counts as one push, and the heap's growth count restarts at
    /// zero.
    fn restart_counters(&mut self) -> Result<(), SnapshotError> {
        self.resizes = 0;
        self.counters = QueueCounters {
            schedules: self.general.len() as u64,
            timer_arms: self.tiers.iter().map(|t| t.set.len() as u64).sum(),
            ..QueueCounters::default()
        };
        Ok(())
    }

    /// Lifetime operation tallies (see [`QueueCounters`] for the
    /// reconciliation identity they satisfy).
    pub fn counters(&self) -> QueueCounters {
        self.counters
    }

    /// Per-tier timer tallies, in tier registration order, with the current
    /// armed count filled in.
    pub fn tier_counters(&self) -> Vec<TierCounters> {
        self.tiers
            .iter()
            .map(|t| TierCounters {
                armed: t.set.len() as u64,
                ..t.counters
            })
            .collect()
    }

    /// The general heap's pending count and growth tally.
    pub fn scheduler_stats(&self) -> SchedulerStats {
        SchedulerStats {
            len: self.general.len() as u64,
            resizes: self.resizes,
        }
    }
}

/// Which tier holds the earliest pending event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Source {
    General,
    Tier(usize),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{StateReader, StateWriter};

    /// A miniature event vocabulary standing in for a real model's enum.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    enum Ev {
        #[default]
        Tick,
        Timer {
            index: usize,
            gen: u64,
        },
        Arrival {
            index: usize,
        },
    }

    crate::state!(enum Ev { Tick, Timer { index, gen }, Arrival { index } });

    /// Checkpoint `q` and load the bytes into `into`.
    fn transfer(q: &EventQueue<Ev>, into: &mut EventQueue<Ev>) -> Result<(), SnapshotError> {
        let mut w = StateWriter::new();
        q.save(&mut w);
        let bytes = w.finish();
        into.load(&mut StateReader::new(&bytes)?)
    }

    fn make_timer(index: usize, gen: u64) -> Ev {
        Ev::Timer { index, gen }
    }

    fn make_arrival(index: usize, _gen: u64) -> Ev {
        Ev::Arrival { index }
    }

    /// A queue with a backoff-style tier (owner 0) and an arrival-style tier
    /// (owner 1), mirroring the WLAN engine's layout.
    fn two_tier_queue() -> (EventQueue<Ev>, TierId, TierId) {
        let mut q = EventQueue::new();
        let timers = q.add_tier(0, 8, make_timer);
        let arrivals = q.add_tier(1, 8, make_arrival);
        (q, timers, arrivals)
    }

    #[test]
    fn events_pop_in_time_order() {
        let (mut q, _, _) = two_tier_queue();
        q.schedule(SimTime::from_micros(30), 2, Ev::Tick);
        q.schedule(SimTime::from_micros(10), 2, Ev::Tick);
        q.schedule(SimTime::from_micros(20), 2, Ev::Tick);
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop().unwrap().0, SimTime::from_micros(10));
        assert_eq!(q.pop().unwrap().0, SimTime::from_micros(20));
        assert_eq!(q.pop().unwrap().0, SimTime::from_micros(30));
        assert!(q.pop().is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn ties_break_in_fifo_order_and_route_to_targets() {
        let (mut q, _, _) = two_tier_queue();
        let t = SimTime::from_micros(5);
        for target in [7, 3, 9] {
            q.schedule(t, target, Ev::Tick);
        }
        for expected in [7, 3, 9] {
            let (_, target, ev) = q.pop().unwrap();
            assert_eq!(target, expected);
            assert_eq!(ev, Ev::Tick);
        }
    }

    #[test]
    fn timer_tiers_merge_into_the_total_order() {
        let (mut q, timers, arrivals) = two_tier_queue();
        q.schedule(SimTime::from_micros(20), 5, Ev::Tick);
        q.arm_timer(timers, 3, 7, SimTime::from_micros(10));
        q.arm_timer(arrivals, 5, 0, SimTime::from_micros(15));
        q.arm_timer(arrivals, 6, 0, SimTime::from_micros(15)); // FIFO tie
        assert_eq!(q.len(), 4);
        assert_eq!(
            q.pop().unwrap(),
            (SimTime::from_micros(10), 0, Ev::Timer { index: 3, gen: 7 })
        );
        assert_eq!(
            q.pop().unwrap(),
            (SimTime::from_micros(15), 1, Ev::Arrival { index: 5 })
        );
        assert_eq!(
            q.pop().unwrap(),
            (SimTime::from_micros(15), 1, Ev::Arrival { index: 6 })
        );
        assert_eq!(q.pop().unwrap(), (SimTime::from_micros(20), 5, Ev::Tick));
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancel_is_physical_and_rearm_works() {
        let (mut q, timers, _) = two_tier_queue();
        q.arm_timer(timers, 2, 1, SimTime::from_micros(5));
        q.cancel_timer(timers, 2);
        q.cancel_timer(timers, 2); // no-op when not armed
        assert_eq!(q.len(), 0);
        assert!(q.pop().is_none());
        // Re-arming after a cancel works (freeze/resume cycle).
        q.arm_timer(timers, 2, 2, SimTime::from_micros(9));
        assert_eq!(
            q.pop().unwrap(),
            (SimTime::from_micros(9), 0, Ev::Timer { index: 2, gen: 2 })
        );
    }

    #[test]
    fn reserved_seqs_sort_where_eager_arms_would() {
        // Eager: schedule, arm 4 then 1 in a loop, schedule. Deferred: the
        // same, with the loop's range reserved first and filled later.
        let t = SimTime::from_micros(5);
        let (mut eager, timers, _) = two_tier_queue();
        eager.schedule(t, 7, Ev::Tick);
        eager.arm_timer(timers, 1, 0, t);
        eager.arm_timer(timers, 4, 0, t);
        eager.schedule(t, 8, Ev::Tick);
        let (mut deferred, timers, _) = two_tier_queue();
        deferred.schedule(t, 7, Ev::Tick);
        let base = deferred.reserve_seqs(6);
        deferred.schedule(t, 8, Ev::Tick);
        deferred.arm_timer_at_seq(timers, 4, 0, t, base + 4);
        deferred.arm_timer_at_seq(timers, 1, 0, t, base + 1);
        loop {
            let (a, b) = (eager.pop(), deferred.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn tiers_grow_past_their_capacity_hint() {
        let (mut q, timers, _) = two_tier_queue();
        q.arm_timer(timers, 100, 1, SimTime::from_micros(1));
        q.cancel_timer(timers, 200); // beyond the map: no-op, not a panic
        assert_eq!(
            q.pop().unwrap(),
            (SimTime::from_micros(1), 0, Ev::Timer { index: 100, gen: 1 })
        );
    }

    #[test]
    fn snapshot_restore_reproduces_pop_order_and_seq_counter() {
        let (mut q, timers, arrivals) = two_tier_queue();
        q.schedule(SimTime::from_micros(20), 5, Ev::Tick);
        q.schedule(SimTime::from_micros(10), 6, Ev::Tick);
        q.arm_timer(timers, 3, 7, SimTime::from_micros(10)); // ties with above
        q.arm_timer(arrivals, 1, 0, SimTime::from_micros(15));
        q.pop(); // consume the earliest so the snapshot is mid-flight

        // Restore into a fresh queue polluted with unrelated events: restore
        // must replace everything, not merge.
        let (mut restored, _, _) = two_tier_queue();
        restored.schedule(SimTime::from_micros(1), 9, Ev::Tick);
        restored.arm_timer(timers, 2, 2, SimTime::from_micros(2));
        transfer(&q, &mut restored).unwrap();
        assert_eq!(restored.len(), q.len());

        // Identical pops, and identical seq continuation: an event scheduled
        // after restore lands at the same (time, seq) in both queues.
        q.schedule(SimTime::from_micros(12), 8, Ev::Tick);
        restored.schedule(SimTime::from_micros(12), 8, Ev::Tick);
        loop {
            let a = q.pop();
            let b = restored.pop();
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn restore_rejects_mismatched_tier_layout() {
        let (q, _, _) = two_tier_queue();
        let mut other: EventQueue<Ev> = EventQueue::new();
        other.add_tier(0, 8, make_timer);
        let err = transfer(&q, &mut other).unwrap_err();
        assert!(
            err.to_string().contains("2 entries where 1 were built"),
            "{err}"
        );
    }

    #[test]
    fn restore_rejects_timer_indices_beyond_the_built_tier() {
        let (mut q, timers, _) = two_tier_queue();
        q.arm_timer(timers, 50, 0, SimTime::from_micros(1)); // grown past 8
        let (mut other, _, _) = two_tier_queue();
        let err = transfer(&q, &mut other).unwrap_err();
        assert!(err.to_string().contains("timer index 50"), "{err}");
    }

    #[test]
    fn peek_does_not_remove() {
        let (mut q, _, _) = two_tier_queue();
        q.schedule(SimTime::from_micros(1), 0, Ev::Tick);
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(1)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn interleaved_schedule_pop_matches_reference_order() {
        // Drive the general tier through a pseudo-random interleaving of
        // pushes and pops and check every pop against a sorted reference of
        // (time, insertion index) — the total order determinism rests on.
        // Each event's target carries its insertion index so FIFO tie-breaks
        // are verified exactly, not just times.
        let mut q: EventQueue<Ev> = EventQueue::new();
        let mut reference: Vec<(u64, usize)> = Vec::new(); // (time_us, insertion index)
        let mut inserted = 0usize;
        let mut state = 0x853c_49e6_748f_ea9bu64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let check_pop = |q: &mut EventQueue<Ev>, reference: &mut Vec<(u64, usize)>| {
            let (t, target, _) = q.pop().expect("reference says non-empty");
            let min_pos = reference
                .iter()
                .enumerate()
                .min_by_key(|(_, &entry)| entry)
                .map(|(pos, _)| pos)
                .expect("non-empty");
            let (expect_t, expect_idx) = reference.swap_remove(min_pos);
            assert_eq!(t, SimTime::from_micros(expect_t));
            assert_eq!(target, expect_idx);
        };
        for _ in 0..5000 {
            if reference.is_empty() || rng() % 3 != 0 {
                let t = rng() % 500; // dense times force plenty of ties
                q.schedule(SimTime::from_micros(t), inserted, Ev::Tick);
                reference.push((t, inserted));
                inserted += 1;
            } else {
                check_pop(&mut q, &mut reference);
            }
        }
        while !reference.is_empty() {
            check_pop(&mut q, &mut reference);
        }
        assert!(q.pop().is_none());
    }

    mod properties {
        //! Property tests of the full multi-tier queue (binary-heap general
        //! tier + indexed timer sets) against a naive sorted-vector
        //! model, over arbitrary interleavings of general pushes, timer
        //! arms, timer cancels (including cancel-and-rearm patterns) and
        //! pops.
        use super::*;
        use proptest::prelude::*;

        /// The model: a flat list of `(time, seq, target)` plus at most one
        /// armed timer per index, popped by scanning for the minimum key.
        #[derive(Default)]
        struct Model {
            general: Vec<(SimTime, u64, usize)>,
            timers: Vec<Option<(SimTime, u64, u64)>>, // (time, seq, gen)
        }

        impl Model {
            fn with_indices(n: usize) -> Self {
                Model {
                    general: Vec::new(),
                    timers: vec![None; n],
                }
            }

            fn pop(&mut self) -> Option<(SimTime, usize, Ev)> {
                let gmin = self
                    .general
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, &(t, s, _))| (t, s))
                    .map(|(i, &(t, s, _))| (t, s, i));
                let tmin = self
                    .timers
                    .iter()
                    .enumerate()
                    .filter_map(|(idx, slot)| slot.map(|(t, s, g)| ((t, s), idx, g)))
                    .min();
                match (gmin, tmin) {
                    (None, None) => None,
                    (Some((_, _, i)), None) => {
                        let (t, _, target) = self.general.swap_remove(i);
                        Some((t, target, Ev::Tick))
                    }
                    (None, Some(((t, _), idx, g))) => {
                        self.timers[idx] = None;
                        Some((t, 0, Ev::Timer { index: idx, gen: g }))
                    }
                    (Some((gt, gs, i)), Some(((tt, ts), idx, g))) => {
                        if (tt, ts) < (gt, gs) {
                            self.timers[idx] = None;
                            Some((tt, 0, Ev::Timer { index: idx, gen: g }))
                        } else {
                            let (t, _, target) = self.general.swap_remove(i);
                            Some((t, target, Ev::Tick))
                        }
                    }
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// The multi-tier queue pops the identical `(time, target,
            /// event)` sequence as the naive model for arbitrary
            /// interleavings of schedule / arm / cancel / pop. Times are
            /// dense (0..80 slots of 9 µs plus jitter) so ties and same-slot
            /// races are exercised constantly, and indices rearm freely
            /// after cancels.
            #[test]
            fn multi_tier_queue_matches_naive_model(
                ops in proptest::collection::vec(
                    (0u64..4, 0u64..8, 0u64..80, 0u64..9_000), 1..500),
            ) {
                const INDICES: usize = 8;
                let mut q: EventQueue<Ev> = EventQueue::new();
                let timers = q.add_tier(0, INDICES, make_timer);
                let mut model = Model::with_indices(INDICES);
                let mut floor = SimTime::ZERO; // schedules never precede pops
                let mut gen = 0u64;
                let mut target = 0usize;
                for (op, index, slots, jitter_ns) in ops {
                    let index = index as usize;
                    let time = floor
                        + crate::time::SimDuration::from_micros(9) * slots
                        + crate::time::SimDuration::from_nanos(jitter_ns);
                    match op {
                        // General-tier push (the payload is irrelevant to
                        // ordering; the target doubles as an identity check).
                        0 => {
                            let seq = q.next_seq;
                            q.schedule(time, target, Ev::Tick);
                            model.general.push((time, seq, target));
                            target += 1;
                        }
                        // Arm (cancel-and-rearm when already armed — the
                        // freeze/resume pattern).
                        1 => {
                            gen += 1;
                            q.cancel_timer(timers, index);
                            model.timers[index] = None;
                            let seq = q.next_seq;
                            q.arm_timer(timers, index, gen, time);
                            model.timers[index] = Some((time, seq, gen));
                        }
                        // Cancel (no-op when not armed).
                        2 => {
                            q.cancel_timer(timers, index);
                            model.timers[index] = None;
                        }
                        // Pop.
                        _ => {
                            let got = q.pop();
                            let want = model.pop();
                            prop_assert_eq!(got, want);
                            if let Some((t, _, _)) = got {
                                prop_assert!(q.peek_time().is_none_or(|p| p >= t));
                                floor = t;
                            }
                        }
                    }
                }
                // Drain: the remaining sequences must match exactly.
                loop {
                    let got = q.pop();
                    let want = model.pop();
                    prop_assert_eq!(got, want);
                    if got.is_none() {
                        break;
                    }
                }
                prop_assert_eq!(q.len(), 0);
            }

            /// The queue's lifetime tallies reconcile after any interleaving
            /// of schedule / arm / cancel / pop: every entry ever admitted
            /// is accounted for as popped, physically cancelled, or still
            /// pending — and the per-tier tallies close the same books.
            #[test]
            fn counters_reconcile_pushes_pops_cancels_remaining(
                ops in proptest::collection::vec(
                    (0u64..4, 0u64..8, 0u64..80, 0u64..9_000), 1..400),
            ) {
                const INDICES: usize = 8;
                let mut q: EventQueue<Ev> = EventQueue::new();
                let timers = q.add_tier(0, INDICES, make_timer);
                let mut floor = SimTime::ZERO;
                let mut gen = 0u64;
                let mut target = 0usize;
                for (op, index, slots, jitter_ns) in ops {
                    let index = index as usize;
                    let time = floor
                        + crate::time::SimDuration::from_micros(9) * slots
                        + crate::time::SimDuration::from_nanos(jitter_ns);
                    match op {
                        0 => {
                            q.schedule(time, target, Ev::Tick);
                            target += 1;
                        }
                        1 => {
                            gen += 1;
                            q.cancel_timer(timers, index);
                            q.arm_timer(timers, index, gen, time);
                        }
                        2 => q.cancel_timer(timers, index),
                        _ => {
                            if let Some((t, _, _)) = q.pop() {
                                floor = t;
                            }
                        }
                    }
                    let c = q.counters();
                    prop_assert_eq!(
                        c.pushes(),
                        c.pops() + c.timer_cancels + q.len() as u64,
                        "queue tallies must reconcile after every op"
                    );
                    prop_assert_eq!(
                        q.scheduler_stats().len,
                        c.schedules - c.general_pops
                    );
                    let t = &q.tier_counters()[0];
                    prop_assert_eq!(t.arms, t.fires + t.cancels + t.armed);
                }
                // Drain and close the books completely.
                while q.pop().is_some() {}
                let c = q.counters();
                prop_assert_eq!(c.pushes(), c.pops() + c.timer_cancels);
                prop_assert_eq!(q.len(), 0);
            }

            /// Snapshot/restore taken after an arbitrary interleaving of
            /// schedule / arm / cancel / pop is pop-order identical to the
            /// original queue, including sequence-counter continuation
            /// (events scheduled *after* the restore still tie-break
            /// identically).
            #[test]
            fn snapshot_restore_is_pop_order_identical(
                ops in proptest::collection::vec(
                    (0u64..4, 0u64..8, 0u64..80, 0u64..9_000), 1..300),
            ) {
                const INDICES: usize = 8;
                let mut q: EventQueue<Ev> = EventQueue::new();
                let timers = q.add_tier(0, INDICES, make_timer);
                let mut floor = SimTime::ZERO;
                let mut gen = 0u64;
                let mut target = 0usize;
                for (op, index, slots, jitter_ns) in ops {
                    let index = index as usize;
                    let time = floor
                        + crate::time::SimDuration::from_micros(9) * slots
                        + crate::time::SimDuration::from_nanos(jitter_ns);
                    match op {
                        0 => {
                            q.schedule(time, target, Ev::Tick);
                            target += 1;
                        }
                        1 => {
                            gen += 1;
                            q.cancel_timer(timers, index);
                            q.arm_timer(timers, index, gen, time);
                        }
                        2 => q.cancel_timer(timers, index),
                        _ => {
                            if let Some((t, _, _)) = q.pop() {
                                floor = t;
                            }
                        }
                    }
                }
                let mut restored: EventQueue<Ev> = EventQueue::new();
                restored.add_tier(0, INDICES, make_timer);
                transfer(&q, &mut restored).unwrap();
                prop_assert_eq!(restored.len(), q.len());
                // Restore resets the tallies to a fresh history in which the
                // restored entries count as the pushes.
                let rc = restored.counters();
                prop_assert_eq!(rc.pops() + rc.timer_cancels, 0);
                prop_assert_eq!(rc.pushes(), restored.len() as u64);
                // Post-restore scheduling draws the same sequence numbers.
                q.schedule(floor, target, Ev::Tick);
                restored.schedule(floor, target, Ev::Tick);
                loop {
                    let a = q.pop();
                    let b = restored.pop();
                    prop_assert_eq!(a, b);
                    if a.is_none() {
                        break;
                    }
                }
            }
        }
    }
}
