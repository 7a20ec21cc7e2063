//! Kernel observability: dispatch counters, queue tallies, an event-stream
//! digest, and a sampled self-profiler.
//!
//! # The zero-cost-when-off contract
//!
//! Telemetry must never change what a simulation computes, and must cost
//! (essentially) nothing when nobody asked for it. The kernel keeps that
//! contract in two ways, by instrumentation class:
//!
//! * **Structural tallies** (queue push/pop/cancel counts, general-heap
//!   growths, slab high-water) are *free
//!   introspection*: either a single integer add or compare on an operation
//!   that already sifts a heap or writes an alarm (immeasurable next to
//!   the memory traffic it rides on), or derived on demand from state the
//!   kernel keeps anyway. These are always available.
//! * **Classified work** (per-component/per-event-kind dispatch counters via
//!   [`Metrics`], per-event wall-clock timing via [`Profiler`]) costs real
//!   cycles per event, so it hides behind an `Option` on
//!   [`Simulation`](crate::Simulation): disabled — the default — the hot
//!   dispatch loop pays one never-taken branch and the profiler rewires
//!   nothing at all (the run loop checks once per `run_until`, not per
//!   event).
//!
//! Both classes share one hard rule: **no telemetry path ever draws from an
//! RNG stream, schedules an event, or consumes a sequence number.** Pop
//! order is a pure function of the `(time, seq)` entry multiset and the
//! kernel holds no RNG stream (components own theirs), so a run with
//! telemetry at full verbosity is byte-identical to one with telemetry off.
//! The golden-trace suite pins this.
//!
//! # Event-stream digest
//!
//! The enabled registry also folds every dispatched event's time, target
//! component, kind label and payload identity (a model-chosen integer such
//! as the entity the event concerns) into one 64-bit digest
//! ([`MetricsReport::event_digest`]). The identity orders ties the other
//! fields cannot: two same-instant events of one kind at one component,
//! such as the ends of two colliding frames, swap without changing time,
//! target or kind. Sequence numbers stay out of it: a model may renumber
//! them (reserved ranges, elided entries) without changing which events
//! run, in which order, at which instants. Two runs with equal digests
//! dispatched the same event stream; a reorder, a missing or an extra
//! event, or a shifted timestamp changes it. A registry enabled after a
//! checkpoint resume covers the events dispatched since.

use serde::Serialize;

use crate::simulation::ComponentId;
use crate::time::SimTime;

/// Lifetime operation tallies of an [`EventQueue`](crate::EventQueue),
/// reconciling by construction: every entry ever pushed is either still
/// pending, was popped, or was cleared or replaced in its alarm —
/// `pushes() == pops() + timer_cancels + len()`.
///
/// Loading a checkpoint into a queue resets the tallies, counting the
/// restored entries as the pushes of a fresh history, so the identity holds
/// across checkpoint round-trips too.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct QueueCounters {
    /// General-tier events scheduled.
    pub schedules: u64,
    /// Events set in an alarm (every alarm counts as one timer).
    pub timer_arms: u64,
    /// Alarm events cleared or replaced before they fired (clearing an
    /// empty alarm excluded).
    pub timer_cancels: u64,
    /// General-tier events popped.
    pub general_pops: u64,
    /// Alarm events popped.
    pub timer_fires: u64,
}

impl QueueCounters {
    /// Total entries ever admitted: schedules plus alarm sets.
    pub fn pushes(&self) -> u64 {
        self.schedules + self.timer_arms
    }

    /// Total entries ever popped: general pops plus alarm fires.
    pub fn pops(&self) -> u64 {
        self.general_pops + self.timer_fires
    }
}

/// The general tier's pending count plus the growths of its heap's backing
/// storage (one compare per schedule; restore starts a fresh count).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct SchedulerStats {
    /// General events pending right now.
    pub len: u64,
    /// Growths of the general heap's backing storage.
    pub resizes: u64,
}

/// Per-component, per-event-kind dispatch counters: the enable-gated half of
/// the kernel registry (see the module docs for the cost model).
///
/// Event kinds are the `&'static str` labels of
/// [`Model::kind`](crate::Model::kind); the registry interns them in
/// first-seen order. Recording never allocates after the first sighting of
/// a (component, kind) pair and never draws RNG.
#[derive(Debug)]
pub struct Metrics {
    kinds: Vec<&'static str>,
    /// A hash of each interned label, index-aligned with `kinds`.
    kind_hashes: Vec<u64>,
    /// The event-stream digest so far (see the module docs).
    digest: u64,
    /// The last kind resolved, memoised by fat-pointer identity: models
    /// label kinds with `&'static str` literals, so consecutive events of
    /// the same kind (the common case — the event stream runs in bursts)
    /// skip the intern scan entirely. A content-equal label at a different address merely
    /// misses the memo; the scan below still dedupes by content.
    last: Option<(&'static str, usize)>,
    /// `counts[component][kind index]`.
    counts: Vec<Vec<u64>>,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            kinds: Vec::new(),
            kind_hashes: Vec::new(),
            digest: DIGEST_SEED,
            last: None,
            counts: Vec::new(),
        }
    }
}

impl Metrics {
    /// Count one dispatch of an event of `kind` to `target` at `time`, and
    /// fold it with its payload `identity` into the digest.
    #[inline]
    pub(crate) fn record(
        &mut self,
        time: SimTime,
        target: ComponentId,
        kind: &'static str,
        identity: u64,
    ) {
        let k = match self.last {
            Some((memo, k)) if std::ptr::eq(memo, kind) => k,
            _ => {
                let k = self.intern(kind);
                self.last = Some((kind, k));
                k
            }
        };
        if target >= self.counts.len() {
            self.counts.resize_with(target + 1, Vec::new);
        }
        let row = &mut self.counts[target];
        if k >= row.len() {
            row.resize(k + 1, 0);
        }
        row[k] += 1;
        let tag = self.kind_hashes[k] ^ (target as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.digest = fold(fold(fold(self.digest, time.as_nanos()), tag), identity);
    }

    /// Resolve `kind` to its interned index (pointer identity first — the
    /// usual case for literals — then content, allocating only on first
    /// sighting).
    fn intern(&mut self, kind: &'static str) -> usize {
        match self
            .kinds
            .iter()
            .position(|&n| std::ptr::eq(n, kind) || n == kind)
        {
            Some(k) => k,
            None => {
                self.kinds.push(kind);
                self.kind_hashes
                    .push(kind.bytes().fold(DIGEST_SEED, |h, b| fold(h, u64::from(b))));
                self.kinds.len() - 1
            }
        }
    }

    pub(crate) fn kinds(&self) -> &[&'static str] {
        &self.kinds
    }

    pub(crate) fn counts(&self) -> &[Vec<u64>] {
        &self.counts
    }

    pub(crate) fn digest(&self) -> u64 {
        self.digest
    }
}

/// The digest of an empty event stream.
const DIGEST_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// One FNV-style step: for a fixed `word` a bijection of `digest`, and for a
/// fixed `digest` injective in `word`, so changing any one folded word
/// always changes the result.
#[inline]
fn fold(digest: u64, word: u64) -> u64 {
    (digest ^ word).wrapping_mul(0x0000_0100_0000_01b3)
}

/// Dispatch counts for one component, in the report's shared kind order
/// (rows are padded so `by_kind.len() == kinds.len()`).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct ComponentDispatch {
    /// The component id events to it are addressed to.
    pub component: usize,
    /// Total events dispatched to this component.
    pub total: u64,
    /// Events per kind, indexed like [`MetricsReport::kinds`].
    pub by_kind: Vec<u64>,
}

/// Everything the kernel can report about one simulation, assembled by
/// [`Simulation::metrics_report`](crate::Simulation::metrics_report).
#[derive(Debug, Clone, Default, Serialize)]
pub struct MetricsReport {
    /// Total events dispatched.
    pub events_processed: u64,
    /// Interned event-kind labels, in first-seen order.
    pub kinds: Vec<String>,
    /// Per-component dispatch counts (one row per component of the model).
    pub dispatch: Vec<ComponentDispatch>,
    /// Digest of the time, target component, kind and payload identity of
    /// every dispatched event, in dispatch order (see the module docs).
    pub event_digest: u64,
    /// Event-queue operation tallies.
    pub queue: QueueCounters,
    /// General-tier size and heap growths.
    pub scheduler: SchedulerStats,
}

/// One wall-clock timing sample emitted by the profiler.
#[derive(Debug, Clone, Copy)]
pub struct ProfileSample {
    /// The component whose handler was timed, or `None` for a kernel
    /// scheduler operation.
    pub component: Option<ComponentId>,
    /// Event-kind label ([`Model::kind`](crate::Model::kind)), or a
    /// `"sched.*"` label for kernel operations.
    pub kind: &'static str,
    /// Elapsed wall-clock nanoseconds.
    pub nanos: u64,
}

/// The sampled self-profiler: every `sample_every`-th event, the run loop
/// times the scheduler pop and the component handler separately and hands
/// both measurements to the sink.
///
/// Sampling is a deterministic countdown — no RNG — and timing observes the
/// dispatch without reordering it, so a profiled run still produces
/// byte-identical results. The sink typically feeds per-(component, kind)
/// histograms owned by the caller.
pub struct Profiler {
    sample_every: u32,
    countdown: u32,
    pub(crate) sink: Box<dyn FnMut(ProfileSample) + Send>,
}

impl std::fmt::Debug for Profiler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Profiler")
            .field("sample_every", &self.sample_every)
            .field("countdown", &self.countdown)
            .finish_non_exhaustive()
    }
}

impl Profiler {
    pub(crate) fn new(sample_every: u32, sink: Box<dyn FnMut(ProfileSample) + Send>) -> Self {
        let sample_every = sample_every.max(1);
        Profiler {
            sample_every,
            countdown: sample_every,
            sink,
        }
    }

    /// Advance the countdown; `true` means "time this event".
    #[inline]
    pub(crate) fn tick(&mut self) -> bool {
        self.countdown -= 1;
        if self.countdown == 0 {
            self.countdown = self.sample_every;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_interns_kinds_and_counts_per_component() {
        let mut m = Metrics::default();
        let t = SimTime::from_micros(3);
        m.record(t, 1, "zero", 0);
        m.record(t, 1, "other", 0);
        m.record(t, 1, "other", 0);
        m.record(t, 0, "zero", 0);
        assert_eq!(m.kinds(), &["zero", "other"]);
        assert_eq!(m.counts()[1], vec![1, 2]);
        assert_eq!(m.counts()[0], vec![1]);
    }

    #[test]
    fn digest_covers_time_target_kind_identity_and_order() {
        // The event is its own identity; its parity is its kind.
        fn classify(e: &u8) -> &'static str {
            if e.is_multiple_of(2) {
                "even"
            } else {
                "odd"
            }
        }
        let digest = |events: &[(u64, ComponentId, u8)]| {
            let mut m = Metrics::default();
            for &(t, target, e) in events {
                m.record(SimTime::from_nanos(t), target, classify(&e), u64::from(e));
            }
            m.digest()
        };
        let base = digest(&[(5, 0, 1), (5, 1, 2), (9, 0, 3)]);
        assert_eq!(base, digest(&[(5, 0, 1), (5, 1, 2), (9, 0, 3)]));
        for changed in [
            [(5, 0, 1), (5, 1, 2), (10, 0, 3)], // a timestamp
            [(5, 0, 1), (5, 0, 2), (9, 0, 3)],  // a target
            [(5, 0, 1), (5, 1, 3), (9, 0, 3)],  // a kind
            [(5, 0, 1), (5, 1, 4), (9, 0, 3)],  // an identity
            [(5, 1, 2), (5, 0, 1), (9, 0, 3)],  // the order of a tie
        ] {
            assert_ne!(base, digest(&changed), "{changed:?}");
        }
        assert_ne!(base, digest(&[(5, 0, 1), (5, 1, 2)]));
        // Two same-instant events of one kind at one component, such as
        // the ends of two colliding frames, differ only in identity: the
        // digest still orders them.
        assert_ne!(
            digest(&[(5, 0, 1), (5, 0, 3)]),
            digest(&[(5, 0, 3), (5, 0, 1)])
        );
    }

    #[test]
    fn profiler_samples_every_nth_tick() {
        let mut p = Profiler::new(3, Box::new(|_| {}));
        let pattern: Vec<bool> = (0..9).map(|_| p.tick()).collect();
        assert_eq!(
            pattern,
            vec![false, false, true, false, false, true, false, false, true]
        );
        // sample_every 0 clamps to 1: every event sampled.
        let mut every = Profiler::new(0, Box::new(|_| {}));
        assert!(every.tick() && every.tick());
    }
}
