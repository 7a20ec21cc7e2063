//! The engine's timer table: at most one timer per station, of which only
//! the earliest is pending in the kernel, in one of its alarms.
//!
//! Two tables exist. The MAC's holds the backoff timers: a carrier-sense
//! freeze cancels a station's backoff timer and the resume that ends the
//! busy period re-arms it, so on a busy medium nearly every timer is
//! cancelled long before it fires. The traffic layer's holds each
//! finite-load station's next frame arrival, cancelled when the station is
//! deactivated. [`Timers`] keeps the timers as `(time, seq)` keys, and its
//! owner arms and cancels them in place: a timer is live exactly while its
//! table holds it, so a cancel is final and a timer carries no generation.
//! [`Timers::settle`] then makes the owner's alarm hold exactly the earliest
//! of the table or, on the clique path's backoff table, the earliest of the
//! table and the synced countdowns the cell keeps implicitly. The
//! cancel-and-rearm churn never reaches the kernel; only a change of the
//! earliest timer does.
//!
//! Every timer keeps the sequence number the kernel would have given it, so
//! the pop order is the one a heap holding every timer would produce. A
//! timer armed on its own takes one fresh number from the kernel; a walk
//! that resumes stations reserves one range of N numbers up front and gives
//! station `i` the number `base + i`, which sorts exactly where eager arms
//! in ascending id order would have.
//!
//! An arm or cancel is a store and a bit flip, plus one comparison with the
//! cached earliest timer, which is found again by a scan of the armed set
//! only once it is lost. On the 20 m disc at N = 1000 it is lost about once
//! per fire (a third of all events) and almost never to a freeze, and a
//! scan visits the 70–130 armed timers. Per-block minima or a sorted list
//! of runners-up made the scans cheaper but every arm dearer, and the resume
//! walks arm 3–110 timers per event: both were slower overall.

use super::event::Event;
use super::Ctx;
use crate::topology::NodeId;
use wlan_des::snapshot::{SnapshotError, State, StateReader, StateWriter};
use wlan_des::time::SimTime;
use wlan_des::{AlarmId, ComponentId};

/// One timer: the key and payload its table's alarm holds when this timer
/// is the earliest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct Armed {
    pub(crate) time: SimTime,
    pub(crate) seq: u64,
    pub(crate) node: NodeId,
}

wlan_des::state!(struct Armed { time, seq, node });

impl Armed {
    /// The `(time, seq)` pop-order key, packed into one integer.
    #[inline]
    pub(crate) fn key(&self) -> u128 {
        key(self.time, self.seq)
    }
}

#[inline]
fn key(time: SimTime, seq: u64) -> u128 {
    u128::from(time.as_nanos()) << 64 | u128::from(seq)
}

/// The earlier of two optional timers.
#[inline]
fn earlier(a: Option<Armed>, b: Option<Armed>) -> Option<Armed> {
    match (a, b) {
        (Some(a), Some(b)) => Some(if a.key() < b.key() { a } else { b }),
        (a, b) => a.or(b),
    }
}

/// `best` while the earliest timer is unknown (or nothing is armed).
const UNKNOWN: u32 = u32::MAX;

/// A timer table of all stations (see the module docs).
pub(crate) struct Timers {
    /// Per station: its timer's `(time, seq)` key, meaningful while armed.
    key: Box<[u128]>,
    /// The stations with an armed timer, 64 to a word.
    armed: Box<[u64]>,
    /// How many stations have an armed timer.
    len: u32,
    /// The station with the earliest timer, or [`UNKNOWN`].
    best: u32,
    /// Its key, while `best` is known.
    best_key: u128,
}

impl Timers {
    /// The table of `n` stations, nothing armed.
    pub(crate) fn new(n: usize) -> Self {
        Timers {
            key: vec![0; n].into(),
            armed: vec![0; n.div_ceil(64)].into(),
            len: 0,
            best: UNKNOWN,
            best_key: 0,
        }
    }

    /// Whether `node` has an armed timer.
    #[inline]
    fn is_armed(&self, node: NodeId) -> bool {
        self.armed[node / 64] & 1 << (node % 64) != 0
    }

    /// `node`'s armed timer, if any.
    #[inline]
    pub(crate) fn get(&self, node: NodeId) -> Option<Armed> {
        self.is_armed(node).then(|| {
            let key = self.key[node];
            Armed {
                time: SimTime::from_nanos((key >> 64) as u64),
                seq: key as u64,
                node,
            }
        })
    }

    /// Arm `node`'s timer, replacing the one it has, if any.
    #[inline]
    pub(crate) fn arm(&mut self, node: NodeId, time: SimTime, seq: u64) {
        let (word, bit, id) = (node / 64, 1 << (node % 64), node as u32);
        let key = key(time, seq);
        self.key[node] = key;
        if self.len == 0 {
            // The only timer is the earliest.
            (self.best, self.best_key) = (id, key);
        } else if self.best != UNKNOWN {
            if key < self.best_key {
                (self.best, self.best_key) = (id, key);
            } else if self.best == id {
                self.best = UNKNOWN;
            }
        }
        self.len += u32::from(self.armed[word] & bit == 0);
        self.armed[word] |= bit;
    }

    /// Cancel `node`'s timer, if it has one.
    #[inline]
    pub(crate) fn cancel(&mut self, node: NodeId) {
        let (word, bit) = (node / 64, 1 << (node % 64));
        self.len -= u32::from(self.armed[word] & bit != 0);
        self.armed[word] &= !bit;
        if self.best == node as u32 {
            self.best = UNKNOWN;
        }
    }

    /// The earliest armed timer, found by a scan of the armed set when the
    /// last one known was cancelled, fired or re-armed later.
    pub(crate) fn earliest(&mut self) -> Option<Armed> {
        if self.len == 0 {
            return None;
        }
        if self.best == UNKNOWN {
            let (mut best, mut best_key) = (UNKNOWN, u128::MAX);
            for (word, &bits) in self.armed.iter().enumerate() {
                let mut bits = bits;
                while bits != 0 {
                    let node = word * 64 + bits.trailing_zeros() as usize;
                    let key = self.key[node];
                    let earlier = key < best_key;
                    best_key = if earlier { key } else { best_key };
                    best = if earlier { node as u32 } else { best };
                    bits &= bits - 1;
                }
            }
            (self.best, self.best_key) = (best, best_key);
        }
        self.get(self.best as usize)
    }

    /// Make `alarm` hold exactly the earliest of this table's timers and
    /// `implicit` (the clique path's earliest synced countdown), as the
    /// event `fire` makes of it for `target`. The alarm is written only
    /// when its timer changes, and only here. A sequence number names one
    /// pending timer, so an alarm holding the earliest timer's `(time,
    /// seq)` holds that timer.
    #[inline]
    pub(crate) fn settle(
        &mut self,
        ctx: &mut Ctx<'_>,
        alarm: AlarmId,
        target: ComponentId,
        implicit: Option<Armed>,
        fire: impl Fn(Armed) -> Event,
    ) {
        let best = earlier(self.earliest(), implicit);
        let held = ctx.alarm(alarm).map(|(time, seq, _)| key(time, seq));
        if best.map(|t| t.key()) != held {
            match best {
                Some(t) => ctx.set_alarm(alarm, t.time, t.seq, target, fire(t)),
                None => ctx.clear_alarm(alarm),
            }
        }
        debug_assert_eq!(
            ctx.alarm(alarm).map(|(_, _, &event)| event),
            best.map(fire),
            "two timers share a sequence number"
        );
    }

    /// The kernel fired a timer of `node` at `now`: whether the table held
    /// `node`'s timer due at `now`, which is then consumed. A timer the
    /// table does not hold is stale.
    pub(crate) fn fired(&mut self, node: NodeId, now: SimTime) -> bool {
        let held = self.get(node).is_some_and(|t| t.time == now);
        if held {
            self.cancel(node);
        }
        held
    }

    /// The armed timers in ascending station order.
    fn iter(&self) -> impl Iterator<Item = Armed> + '_ {
        crate::topology::ones(&self.armed).filter_map(|node| self.get(node))
    }
}

/// Only the armed timers are checkpointed; the count and the cached
/// earliest are rebuilt on load. The one the alarm holds is the kernel's to
/// checkpoint.
impl State for Timers {
    fn save(&self, w: &mut StateWriter) {
        self.iter().collect::<Vec<_>>().save(w);
    }

    fn load(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        let armed: Vec<Armed> = r.read()?;
        self.armed.fill(0);
        self.len = 0;
        self.best = UNKNOWN;
        for timer in armed {
            if timer.node >= self.key.len() || self.is_armed(timer.node) {
                return Err(SnapshotError::custom(format!(
                    "timer of station {} out of range or armed twice",
                    timer.node
                )));
            }
            self.arm(timer.node, timer.time, timer.seq);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The naive model: at most one key per station, the earliest found by
    /// a full scan.
    struct Model {
        timer: Vec<Option<u128>>,
    }

    impl Model {
        fn earliest(&self) -> Option<(NodeId, u128)> {
            self.timer
                .iter()
                .enumerate()
                .filter_map(|(node, t)| t.map(|key| (node, key)))
                .min_by_key(|&(_, key)| key)
        }
    }

    fn check(timers: &mut Timers, model: &Model) {
        let want = model.earliest();
        let got = timers.earliest().map(|a| (a.node, a.key()));
        assert_eq!(got, want);
        for (node, t) in model.timer.iter().enumerate() {
            assert_eq!(timers.get(node).map(|a| a.key()), *t, "station {node}");
        }
    }

    /// Drive the table and the model through `ops`:
    ///
    /// * arm one station outside a walk, with a fresh sequence number;
    /// * a walk: reserve N numbers, then arm (cancel-and-rearm) a run of
    ///   stations in ascending order at `base + node`, cancelling others;
    /// * cancel one station (a freeze or a deactivation; a no-op when
    ///   nothing is armed);
    /// * fire: the earliest timer leaves the table, and a fire at another
    ///   instant finds no timer held.
    ///
    /// Times are dense, so equal times tie-break on the sequence number.
    fn run(n: usize, ops: &[(u8, u16, u16, u8)]) {
        let mut timers = Timers::new(n);
        let mut model = Model {
            timer: vec![None; n],
        };
        let mut next_seq = 0u64;
        let mut now = 0u64;
        for &(op, a, b, slots) in ops {
            let node = a as usize % n;
            let time = now + 9_000 * u64::from(slots % 12);
            match op % 4 {
                0 => {
                    let seq = next_seq;
                    next_seq += 1;
                    timers.arm(node, SimTime::from_nanos(time), seq);
                    model.timer[node] = Some(key(SimTime::from_nanos(time), seq));
                }
                1 => {
                    let base = next_seq;
                    next_seq += n as u64;
                    let stride = 1 + b as usize % 7;
                    for node in (node..n).step_by(stride) {
                        if (node + b as usize).is_multiple_of(3) {
                            timers.cancel(node);
                            model.timer[node] = None;
                            continue;
                        }
                        let at = time + 9_000 * (node as u64 % 5);
                        let seq = base + node as u64;
                        // Cancel-and-rearm, as a resume after a freeze.
                        timers.cancel(node);
                        timers.arm(node, SimTime::from_nanos(at), seq);
                        model.timer[node] = Some(key(SimTime::from_nanos(at), seq));
                    }
                }
                2 => {
                    timers.cancel(node);
                    model.timer[node] = None;
                }
                _ => {
                    if let Some(first) = timers.earliest() {
                        // The table holds no timer of that station 1 ns
                        // later; it consumes the one due at its instant.
                        let later = SimTime::from_nanos(first.time.as_nanos() + 1);
                        assert!(!timers.fired(first.node, later));
                        assert!(timers.fired(first.node, first.time));
                        model.timer[first.node] = None;
                        now = first.time.as_nanos();
                    }
                }
            }
            check(&mut timers, &model);
        }
        // A checkpoint round trip keeps every armed timer.
        let mut w = StateWriter::new();
        timers.save(&mut w);
        let bytes = w.finish();
        let mut loaded = Timers::new(n);
        loaded.arm(0, SimTime::from_nanos(1), 1);
        loaded.load(&mut StateReader::new(&bytes).unwrap()).unwrap();
        check(&mut loaded, &model);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn timer_table_matches_a_naive_model(
            n_idx in 0usize..5,
            ops in proptest::collection::vec(
                (0u8..4, 0u16..2000, 0u16..2000, 0u8..255), 1..120),
        ) {
            run([1, 5, 64, 65, 300][n_idx], &ops);
        }
    }

    #[test]
    fn a_loaded_table_rejects_a_station_armed_twice() {
        let mut w = StateWriter::new();
        let twice = vec![Armed::default(), Armed::default()];
        twice.save(&mut w);
        let bytes = w.finish();
        let err = Timers::new(4)
            .load(&mut StateReader::new(&bytes).unwrap())
            .unwrap_err();
        assert!(err.to_string().contains("armed twice"), "{err}");
    }
}
