//! The kernel's event queue: a binary heap of general events plus one-event
//! alarms, merged by one `(time, seq)` total order.
//!
//! Events are ordered by timestamp with FIFO tie-breaking (a monotonically
//! increasing sequence number), which makes every run exactly reproducible
//! for a given seed.
//!
//! General events live in a binary heap (`std::collections::BinaryHeap`,
//! O(log n) push and pop) ordered by reversed `(time, seq)`. An *alarm*
//! ([`EventQueue::add_alarm`]) holds at most one pending event, which its
//! owner sets, replaces or clears in O(1) ([`EventQueue::set_alarm`],
//! [`EventQueue::clear_alarm`]); a cleared or replaced event never fires.
//! Alarms serve timers that are cancelled far more often than they fire: the
//! model keeps such timers itself, each with the sequence number it took when
//! it was armed ([`EventQueue::reserve_seqs`]), and sets one alarm to the
//! earliest. The cancel-and-rearm churn then never reaches the queue, and
//! every timer still pops exactly where a heap holding all of them would have
//! put it. The WLAN engine keeps its backoff timers (almost all of which a
//! carrier-sense freeze cancels before they fire) and its frame arrivals
//! this way, one alarm each.
//!
//! The heap and the alarms draw sequence numbers from one shared counter, so
//! the merged pop order is exactly the `(time, seq)` total order a single
//! heap would produce. Sequence numbers are unique, so the pop order is a
//! pure function of the pending `(time, seq)` multiset, whatever the heap's
//! internal layout. An empty alarm costs one check per pop.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::metrics::{QueueCounters, SchedulerStats};
use crate::simulation::ComponentId;
use crate::snapshot::{SnapshotError, State};
use crate::time::SimTime;

/// Identifier of an alarm, returned by [`EventQueue::add_alarm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AlarmId(usize);

/// One pending event, ordered by reversed `(time, seq)`: `BinaryHeap` is a
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

/// A deterministic time-ordered event queue: a binary heap for general
/// events plus any number of [`AlarmId`]-addressed alarms, merged at pop
/// time by the shared `(time, seq)` total order.
///
/// Its checkpoint state is every pending entry — general events and alarm
/// events, each with its original `(time, seq)` key and target — plus the
/// shared sequence counter. Pop order is a pure function of the `(time,
/// seq)` entry multiset, so loading into a queue with the same number of
/// alarms reproduces the identical pop sequence, and no heap layout needs to
/// round-trip. Loading replaces every pending entry, including the setup
/// events of a freshly built model.
#[derive(Debug)]
pub struct EventQueue<E> {
    general: BinaryHeap<Entry<E>>,
    /// Growths of the general heap's backing storage.
    resizes: u64,
    /// Each alarm's pending event, if any.
    alarms: Box<[Option<Entry<E>>]>,
    next_seq: u64,
    counters: QueueCounters,
}

crate::state!(impl[E: State + Default] struct EventQueue<E> {
    general, alarms, next_seq
} then Self::restart_counters);

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue with no alarms.
    pub fn new() -> Self {
        EventQueue {
            general: BinaryHeap::new(),
            resizes: 0,
            alarms: Box::default(),
            next_seq: 0,
            counters: QueueCounters::default(),
        }
    }

    /// Register an alarm, empty.
    pub fn add_alarm(&mut self) -> AlarmId {
        let mut alarms = std::mem::take(&mut self.alarms).into_vec();
        alarms.push(None);
        self.alarms = alarms.into_boxed_slice();
        AlarmId(self.alarms.len() - 1)
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

    /// Reserve `count` consecutive sequence numbers from the shared counter
    /// and return the first. Nothing is scheduled; the range is the model's
    /// to hand out through [`set_alarm`](Self::set_alarm).
    ///
    /// A model that keeps its own timers takes one number when it arms a
    /// timer, at the point where it would have scheduled it, so the timer
    /// sorts exactly where the scheduled event would have. A loop that would
    /// arm timers for indices in ascending order can instead reserve one
    /// range up front and give index `i` the number `base + i`: no other
    /// entry ever falls inside the range, so every such timer sorts against
    /// every other entry exactly where the eager arm would have.
    #[inline]
    pub fn reserve_seqs(&mut self, count: u64) -> u64 {
        let base = self.next_seq;
        self.next_seq += count;
        base
    }

    /// Make `alarm` hold `event` for `target` at `time`, replacing the event
    /// it holds, if any. `seq` is a number from a range returned by
    /// [`reserve_seqs`](Self::reserve_seqs); each reserved number may be used
    /// by at most one pending entry.
    #[inline]
    pub fn set_alarm(
        &mut self,
        alarm: AlarmId,
        time: SimTime,
        seq: u64,
        target: ComponentId,
        event: E,
    ) {
        debug_assert!(seq < self.next_seq, "sequence number was never reserved");
        self.counters.timer_arms += 1;
        let replaced = self.alarms[alarm.0].replace(Entry {
            time,
            seq,
            target,
            event,
        });
        self.counters.timer_cancels += u64::from(replaced.is_some());
    }

    /// Empty `alarm`: the event it held, if any, never fires.
    #[inline]
    pub fn clear_alarm(&mut self, alarm: AlarmId) {
        let cleared = self.alarms[alarm.0].take();
        self.counters.timer_cancels += u64::from(cleared.is_some());
    }

    /// The event `alarm` holds, with its `(time, seq)` key.
    #[inline]
    pub fn alarm(&self, alarm: AlarmId) -> Option<(SimTime, u64, &E)> {
        self.alarms[alarm.0]
            .as_ref()
            .map(|e| (e.time, e.seq, &e.event))
    }

    /// Key of the earliest pending event, with where it is held.
    #[inline]
    fn peek_key(&self) -> Option<(SimTime, u64, Source)> {
        let mut best: Option<(SimTime, u64, Source)> = self
            .general
            .peek()
            .map(|e| (e.time, e.seq, Source::General));
        for (i, alarm) in self.alarms.iter().enumerate() {
            if let Some(e) = alarm {
                if best.is_none_or(|(bt, bs, _)| (e.time, e.seq) < (bt, bs)) {
                    best = Some((e.time, e.seq, Source::Alarm(i)));
                }
            }
        }
        best
    }

    /// Pop the earliest pending event, with the component it is addressed
    /// to, if it is due at or before `horizon`; a later one stays pending.
    #[inline]
    pub fn pop_until(&mut self, horizon: SimTime) -> Option<(SimTime, ComponentId, E)> {
        let e = match self.peek_key()? {
            (time, _, _) if time > horizon => return None,
            (_, _, Source::Alarm(i)) => {
                self.counters.timer_fires += 1;
                self.alarms[i].take().expect("peeked alarm vanished")
            }
            (_, _, Source::General) => {
                self.counters.general_pops += 1;
                self.general.pop().expect("peeked event vanished")
            }
        };
        Some((e.time, e.target, e.event))
    }

    /// Number of pending events (general and alarm).
    pub fn len(&self) -> usize {
        self.general.len() + self.alarms.iter().flatten().count()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every pending event with its time and the component it is addressed
    /// to, in no particular order.
    pub fn pending(&self) -> impl Iterator<Item = (SimTime, ComponentId, &E)> + '_ {
        self.general
            .iter()
            .chain(self.alarms.iter().flatten())
            .map(|e| (e.time, e.target, &e.event))
    }

    /// A loaded queue's history restarts at its contents: every pending
    /// entry counts as one push, and the heap's growth count restarts at
    /// zero.
    fn restart_counters(&mut self) -> Result<(), SnapshotError> {
        self.resizes = 0;
        self.counters = QueueCounters {
            schedules: self.general.len() as u64,
            timer_arms: self.alarms.iter().flatten().count() as u64,
            ..QueueCounters::default()
        };
        Ok(())
    }

    /// Lifetime operation tallies (see [`QueueCounters`] for the
    /// reconciliation identity they satisfy).
    pub fn counters(&self) -> QueueCounters {
        self.counters
    }

    /// The general heap's pending count and growth tally.
    pub fn scheduler_stats(&self) -> SchedulerStats {
        SchedulerStats {
            len: self.general.len() as u64,
            resizes: self.resizes,
        }
    }
}

/// Where the earliest pending event is held.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Source {
    General,
    Alarm(usize),
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

    /// Set `alarm` to fire `event` for `target` at `time`, with a fresh
    /// sequence number (a model arming a timer where it would schedule it).
    fn arm(q: &mut EventQueue<Ev>, alarm: AlarmId, time: SimTime, target: usize, event: Ev) {
        let seq = q.reserve_seqs(1);
        q.set_alarm(alarm, time, seq, target, event);
    }

    impl EventQueue<Ev> {
        /// Pop the earliest pending event, however late.
        fn pop(&mut self) -> Option<(SimTime, ComponentId, Ev)> {
            self.pop_until(SimTime::from_nanos(u64::MAX))
        }
    }

    /// A queue with `n` alarms.
    fn queue_with_alarms(n: usize) -> (EventQueue<Ev>, Vec<AlarmId>) {
        let mut q = EventQueue::new();
        let alarms = (0..n).map(|_| q.add_alarm()).collect();
        (q, alarms)
    }

    #[test]
    fn events_pop_in_time_order() {
        let (mut q, _) = queue_with_alarms(2);
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
        let (mut q, _) = queue_with_alarms(2);
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

    /// Alarm events merge into the general heap's `(time, seq)` order.
    #[test]
    fn timer_tiers_merge_into_the_total_order() {
        let (mut q, a) = queue_with_alarms(3);
        let t = SimTime::from_micros;
        q.schedule(t(20), 5, Ev::Tick);
        arm(&mut q, a[0], t(10), 0, Ev::Timer { index: 3, gen: 7 });
        arm(&mut q, a[1], t(15), 1, Ev::Arrival { index: 5 });
        arm(&mut q, a[2], t(15), 1, Ev::Arrival { index: 6 }); // FIFO tie
        q.schedule(t(15), 4, Ev::Tick); // ties after both
        assert_eq!(q.len(), 5);
        assert_eq!(q.pop().unwrap(), (t(10), 0, Ev::Timer { index: 3, gen: 7 }));
        assert_eq!(q.pop().unwrap(), (t(15), 1, Ev::Arrival { index: 5 }));
        assert_eq!(q.pop().unwrap(), (t(15), 1, Ev::Arrival { index: 6 }));
        assert_eq!(q.pop().unwrap(), (t(15), 4, Ev::Tick));
        assert_eq!(q.pop().unwrap(), (t(20), 5, Ev::Tick));
        assert!(q.pop().is_none());
    }

    /// A cleared or replaced alarm event is gone; an alarm can be set again.
    #[test]
    fn cancel_is_physical_and_rearm_works() {
        let (mut q, a) = queue_with_alarms(1);
        let timer = |gen| Ev::Timer { index: 2, gen };
        arm(&mut q, a[0], SimTime::from_micros(5), 0, timer(1));
        q.clear_alarm(a[0]);
        q.clear_alarm(a[0]); // no-op when empty
        assert_eq!(q.len(), 0);
        assert!(q.pop().is_none());
        // Setting again after a clear works (freeze/resume cycle), and
        // setting a held alarm replaces its event.
        arm(&mut q, a[0], SimTime::from_micros(3), 0, timer(2));
        arm(&mut q, a[0], SimTime::from_micros(9), 0, timer(3));
        assert_eq!(q.alarm(a[0]), Some((SimTime::from_micros(9), 2, &timer(3))));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap(), (SimTime::from_micros(9), 0, timer(3)));
        assert!(q.pop().is_none());
        let c = q.counters();
        assert_eq!((c.timer_arms, c.timer_cancels, c.timer_fires), (3, 2, 1));
    }

    #[test]
    fn reserved_seqs_sort_where_eager_arms_would() {
        // Eager: schedule, arm 1 then 4 in a loop, schedule. Deferred: the
        // same, with the loop's range reserved first and filled later, in
        // the other order.
        let t = SimTime::from_micros(5);
        let timer = |index| Ev::Timer { index, gen: 0 };
        let (mut eager, a) = queue_with_alarms(2);
        eager.schedule(t, 7, Ev::Tick);
        arm(&mut eager, a[0], t, 0, timer(1));
        eager.reserve_seqs(2);
        arm(&mut eager, a[1], t, 0, timer(4));
        eager.reserve_seqs(1);
        eager.schedule(t, 8, Ev::Tick);
        let (mut deferred, a) = queue_with_alarms(2);
        deferred.schedule(t, 7, Ev::Tick);
        let base = deferred.reserve_seqs(5);
        deferred.schedule(t, 8, Ev::Tick);
        deferred.set_alarm(a[1], t, base + 3, 0, timer(4));
        deferred.set_alarm(a[0], t, base, 0, timer(1));
        loop {
            let (x, y) = (eager.pop(), deferred.pop());
            assert_eq!(x, y);
            if x.is_none() {
                break;
            }
        }
    }

    #[test]
    fn snapshot_restore_reproduces_pop_order_and_seq_counter() {
        let (mut q, a) = queue_with_alarms(2);
        q.schedule(SimTime::from_micros(20), 5, Ev::Tick);
        q.schedule(SimTime::from_micros(10), 6, Ev::Tick);
        let timer = Ev::Timer { index: 3, gen: 7 };
        arm(&mut q, a[0], SimTime::from_micros(10), 0, timer); // ties with above
        arm(
            &mut q,
            a[1],
            SimTime::from_micros(15),
            1,
            Ev::Arrival { index: 1 },
        );
        q.pop(); // consume the earliest so the snapshot is mid-flight

        // Restore into a fresh queue polluted with unrelated events: restore
        // must replace everything, not merge.
        let (mut restored, b) = queue_with_alarms(2);
        restored.schedule(SimTime::from_micros(1), 9, Ev::Tick);
        arm(&mut restored, b[1], SimTime::from_micros(2), 1, Ev::Tick);
        transfer(&q, &mut restored).unwrap();
        assert_eq!(restored.len(), q.len());
        assert_eq!(restored.alarm(b[0]), q.alarm(a[0]));

        // Identical pops, and identical seq continuation: an event scheduled
        // after restore lands at the same (time, seq) in both queues.
        q.schedule(SimTime::from_micros(12), 8, Ev::Tick);
        restored.schedule(SimTime::from_micros(12), 8, Ev::Tick);
        loop {
            let x = q.pop();
            let y = restored.pop();
            assert_eq!(x, y);
            if x.is_none() {
                break;
            }
        }
    }

    /// A checkpoint loads only into a queue with as many alarms.
    #[test]
    fn restore_rejects_mismatched_tier_layout() {
        let (q, _) = queue_with_alarms(2);
        let (mut other, _) = queue_with_alarms(1);
        let err = transfer(&q, &mut other).unwrap_err();
        assert!(
            err.to_string().contains("2 entries where 1 were built"),
            "{err}"
        );
    }

    #[test]
    fn pop_until_pops_at_the_horizon_and_leaves_later_events() {
        let (mut q, a) = queue_with_alarms(1);
        q.schedule(SimTime::from_micros(2), 0, Ev::Tick);
        arm(
            &mut q,
            a[0],
            SimTime::from_micros(1),
            1,
            Ev::Arrival { index: 0 },
        );
        let just_before = SimTime::from_nanos(999);
        assert_eq!(q.pop_until(just_before), None, "the alarm is later");
        assert_eq!(q.len(), 2, "a bounded miss removes nothing");
        let at = SimTime::from_micros(1);
        assert_eq!(q.pop_until(at), Some((at, 1, Ev::Arrival { index: 0 })));
        assert_eq!(q.pop_until(at), None, "the general event is later");
        assert_eq!(q.pop_until(SimTime::from_micros(2)).map(|e| e.1), Some(0));
        assert!(q.is_empty());
        let c = q.counters();
        assert_eq!(
            (c.timer_fires, c.general_pops),
            (1, 1),
            "misses are not pops"
        );
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
        //! Property tests of the whole queue (binary-heap general tier plus
        //! alarms) against a naive sorted-vector model, over arbitrary
        //! interleavings of general pushes, alarm sets (replacing what the
        //! alarm holds), alarm clears and pops.
        use super::*;
        use proptest::prelude::*;

        const ALARMS: usize = 8;

        /// What one pop returned.
        type Popped = Option<(SimTime, usize, Ev)>;

        /// The model: a flat list of `(time, seq, target)` plus at most one
        /// `(time, seq, gen)` per alarm, popped by scanning for the minimum
        /// key.
        #[derive(Default)]
        struct Model {
            general: Vec<(SimTime, u64, usize)>,
            alarms: Vec<Option<(SimTime, u64, u64)>>,
        }

        impl Model {
            fn new() -> Self {
                Model {
                    general: Vec::new(),
                    alarms: vec![None; ALARMS],
                }
            }

            /// Pop the minimum key if it is due by `horizon`.
            fn pop(&mut self, horizon: SimTime) -> Popped {
                let gmin = self
                    .general
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, &(t, s, _))| (t, s))
                    .map(|(i, &(t, s, _))| ((t, s), i));
                let amin = self
                    .alarms
                    .iter()
                    .enumerate()
                    .filter_map(|(i, slot)| slot.map(|(t, s, g)| ((t, s), i, g)))
                    .min();
                let earliest = gmin.map(|(k, _)| k).into_iter().chain(amin.map(|a| a.0));
                if earliest.min().is_none_or(|(t, _)| t > horizon) {
                    return None;
                }
                match (gmin, amin) {
                    (None, None) => None,
                    (Some((gk, i)), a) if a.is_none_or(|(ak, _, _)| gk < ak) => {
                        let (t, _, target) = self.general.swap_remove(i);
                        Some((t, target, Ev::Tick))
                    }
                    (_, Some(((t, _), i, g))) => {
                        self.alarms[i] = None;
                        Some((t, 0, Ev::Timer { index: i, gen: g }))
                    }
                    (Some(_), None) => unreachable!("matched above"),
                }
            }
        }

        /// One operation: schedule, set an alarm, clear an alarm or pop,
        /// applied to the queue and the model; a pop returns what both
        /// popped. Times are dense (0..80 slots of 9 µs plus 0–2 ns of
        /// jitter), so equal times, ordered by sequence number alone, are
        /// exercised constantly. A pop is bounded by a horizon drawn like a
        /// time, so it often meets an event due exactly then.
        fn apply(
            q: &mut EventQueue<Ev>,
            alarms: &[AlarmId],
            model: Option<&mut Model>,
            (op, index, slots, jitter_ns): (u64, u64, u64, u64),
            floor: &mut SimTime,
            count: &mut u64,
        ) -> Option<(Popped, Popped)> {
            let index = index as usize;
            let time = *floor
                + crate::time::SimDuration::from_micros(9) * slots
                + crate::time::SimDuration::from_nanos(jitter_ns);
            *count += 1;
            match op {
                // General-tier push (the target doubles as an identity check).
                0 => {
                    let seq = q.next_seq;
                    q.schedule(time, *count as usize, Ev::Tick);
                    if let Some(m) = model {
                        m.general.push((time, seq, *count as usize));
                    }
                }
                // Set, replacing what the alarm holds (the freeze/resume
                // pattern).
                1 => {
                    let seq = q.reserve_seqs(1);
                    let timer = Ev::Timer { index, gen: *count };
                    q.set_alarm(alarms[index], time, seq, 0, timer);
                    if let Some(m) = model {
                        m.alarms[index] = Some((time, seq, *count));
                    }
                }
                // Clear (a no-op when empty).
                2 => {
                    q.clear_alarm(alarms[index]);
                    if let Some(m) = model {
                        m.alarms[index] = None;
                    }
                }
                _ => {
                    let got = q.pop_until(time);
                    if let Some((t, _, _)) = got {
                        *floor = t;
                    }
                    return Some((got, model.and_then(|m| m.pop(time))));
                }
            }
            None
        }

        fn ops() -> impl Strategy<Value = Vec<(u64, u64, u64, u64)>> {
            proptest::collection::vec((0u64..4, 0u64..ALARMS as u64, 0u64..80, 0u64..3), 1..400)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// The queue pops the identical `(time, target, event)` sequence
            /// as the naive model for arbitrary interleavings of schedule /
            /// set / clear / pop.
            #[test]
            fn multi_tier_queue_matches_naive_model(ops in ops()) {
                let (mut q, alarms) = queue_with_alarms(ALARMS);
                let mut model = Model::new();
                let (mut floor, mut count) = (SimTime::ZERO, 0);
                for op in ops {
                    if let Some((got, want)) =
                        apply(&mut q, &alarms, Some(&mut model), op, &mut floor, &mut count)
                    {
                        prop_assert_eq!(got, want);
                    }
                }
                // Drain: the remaining sequences must match exactly.
                loop {
                    let got = q.pop();
                    prop_assert_eq!(got, model.pop(SimTime::from_nanos(u64::MAX)));
                    if got.is_none() {
                        break;
                    }
                }
                prop_assert_eq!(q.len(), 0);
            }

            /// The queue's lifetime tallies reconcile after any interleaving
            /// of schedule / set / clear / pop: every entry ever admitted is
            /// accounted for as popped, cleared or replaced, or still
            /// pending.
            #[test]
            fn counters_reconcile_pushes_pops_cancels_remaining(ops in ops()) {
                let (mut q, alarms) = queue_with_alarms(ALARMS);
                let (mut floor, mut count) = (SimTime::ZERO, 0);
                for op in ops {
                    apply(&mut q, &alarms, None, op, &mut floor, &mut count);
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
                }
                // Drain and close the books completely.
                while q.pop().is_some() {}
                let c = q.counters();
                prop_assert_eq!(c.pushes(), c.pops() + c.timer_cancels);
                prop_assert_eq!(q.len(), 0);
            }

            /// Snapshot/restore taken after an arbitrary interleaving of
            /// schedule / set / clear / pop is pop-order identical to the
            /// original queue, including sequence-counter continuation
            /// (events scheduled *after* the restore still tie-break
            /// identically).
            #[test]
            fn snapshot_restore_is_pop_order_identical(ops in ops()) {
                let (mut q, alarms) = queue_with_alarms(ALARMS);
                let (mut floor, mut count) = (SimTime::ZERO, 0);
                for op in ops {
                    apply(&mut q, &alarms, None, op, &mut floor, &mut count);
                }
                let (mut restored, _) = queue_with_alarms(ALARMS);
                transfer(&q, &mut restored).unwrap();
                prop_assert_eq!(restored.len(), q.len());
                // Restore resets the tallies to a fresh history in which the
                // restored entries count as the pushes.
                let rc = restored.counters();
                prop_assert_eq!(rc.pops() + rc.timer_cancels, 0);
                prop_assert_eq!(rc.pushes(), restored.len() as u64);
                // Post-restore scheduling draws the same sequence numbers.
                q.schedule(floor, 0, Ev::Tick);
                restored.schedule(floor, 0, Ev::Tick);
                loop {
                    let x = q.pop();
                    prop_assert_eq!(x, restored.pop());
                    if x.is_none() {
                        break;
                    }
                }
            }
        }
    }
}
