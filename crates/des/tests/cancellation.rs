//! Kernel alarm semantics, driven through the public `SimulationContext`
//! API (one layer above the queue proptests).
//!
//! Two properties, checked against a naive model over arbitrary
//! interleavings of set / clear / run on one-event alarms:
//!
//! 1. **A cancelled token never fires.** `clear_alarm(alarm)` is the
//!    cancellation, and setting a held alarm replaces its event; every set
//!    carries a globally unique generation, so a generation whose event was
//!    cleared (or displaced by a later set) must never appear in the fired
//!    log.
//! 2. **Clear-then-set interleavings match a naive model** — the fired log
//!    (times, alarm indices, generations, order) equals what a flat
//!    one-slot-per-alarm model predicts, including FIFO tie-breaks.

use proptest::prelude::*;
use wlan_des::{AlarmId, ComponentId, Model, SimDuration, SimTime, Simulation, SimulationContext};

/// Fired-timer log: `(fire time, index, arming generation)`.
type World = Vec<(SimTime, usize, u64)>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    Timer { index: usize, gen: u64 },
}

/// Records every fire; component 0, the only one.
struct Recorder {
    fired: World,
}

impl Model for Recorder {
    type Event = Ev;
    const COMPONENTS: usize = 1;

    fn handle(&mut self, ctx: &mut SimulationContext<'_, Ev>, _: ComponentId, event: Ev) {
        let Ev::Timer { index, gen } = event;
        self.fired.push((ctx.now(), index, gen));
    }

    fn kind(_: &Ev) -> &'static str {
        "timer"
    }
}

/// The naive model: one optional `(time, seq, gen)` slot per alarm, fired
/// by scanning for the `(time, seq)` minimum.
struct Naive {
    slots: Vec<Option<(SimTime, u64, u64)>>,
    /// Mirror of the kernel's sequence counter. Only `arm` consumes
    /// sequence numbers in this test, so counting arms reproduces it.
    next_seq: u64,
    fired: World,
}

impl Naive {
    fn new(indices: usize) -> Self {
        Naive {
            slots: vec![None; indices],
            next_seq: 0,
            fired: Vec::new(),
        }
    }

    fn arm(&mut self, index: usize, gen: u64, time: SimTime) {
        self.slots[index] = Some((time, self.next_seq, gen));
        self.next_seq += 1;
    }

    fn cancel(&mut self, index: usize) {
        self.slots[index] = None;
    }

    fn run_until(&mut self, t_end: SimTime) {
        loop {
            let next = self
                .slots
                .iter()
                .enumerate()
                .filter_map(|(i, slot)| slot.map(|(t, s, g)| ((t, s), i, g)))
                .min();
            match next {
                Some(((t, _), index, gen)) if t <= t_end => {
                    self.slots[index] = None;
                    self.fired.push((t, index, gen));
                }
                _ => break,
            }
        }
    }
}

/// A simulation whose one component records every fire, with `indices`
/// alarms.
fn setup(indices: usize) -> (Simulation<Recorder>, Vec<AlarmId>) {
    let mut alarms = Vec::new();
    let sim = Simulation::new(|queue| {
        alarms = (0..indices).map(|_| queue.add_alarm()).collect();
        Recorder { fired: Vec::new() }
    });
    (sim, alarms)
}

/// Set alarm `index` to fire at `time` with generation `gen`, taking a fresh
/// sequence number.
fn arm(
    ctx: &mut SimulationContext<'_, Ev>,
    alarms: &[AlarmId],
    index: usize,
    gen: u64,
    time: SimTime,
) {
    let seq = ctx.reserve_seqs(1);
    ctx.set_alarm(alarms[index], time, seq, 0, Ev::Timer { index, gen });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary set / clear / advance interleavings through the
    /// `SimulationContext` API produce exactly the model's fired log, and no
    /// cleared or replaced generation ever fires. Times fall on 40 slots of
    /// 9 µs plus 0–2 ns, so alarms often tie and fire in sequence order.
    #[test]
    fn cancelled_tokens_never_fire_and_rearm_matches_model(
        ops in proptest::collection::vec(
            (0u64..3, 0u64..6, 0u64..40, 0u64..3), 1..300),
    ) {
        const INDICES: usize = 6;
        let (mut sim, alarms) = setup(INDICES);
        let mut model = Naive::new(INDICES);
        let mut gen = 0u64;
        let mut cancelled: Vec<u64> = Vec::new();
        // Generations currently armed, so displaced/cancelled ones are known.
        let mut live: Vec<Option<u64>> = vec![None; INDICES];
        for (op, index, slots, jitter_ns) in ops {
            let index = index as usize;
            let time = sim.now()
                + SimDuration::from_micros(9) * slots
                + SimDuration::from_nanos(jitter_ns);
            match op {
                // Set (replacing the event of a held alarm).
                0 => {
                    gen += 1;
                    if let Some(old) = live[index].replace(gen) {
                        cancelled.push(old);
                    }
                    sim.access(|_, ctx| arm(ctx, &alarms, index, gen, time));
                    model.arm(index, gen, time);
                }
                // Clear.
                1 => {
                    if let Some(old) = live[index].take() {
                        cancelled.push(old);
                    }
                    sim.access(|_, ctx| ctx.clear_alarm(alarms[index]));
                    model.cancel(index);
                }
                // Advance the clock, firing due timers.
                _ => {
                    sim.run_until(time);
                    let already_fired = model.fired.len();
                    model.run_until(time);
                    // A generation that fired is consumed, not cancellable.
                    for &(_, index, g) in &model.fired[already_fired..] {
                        if live[index] == Some(g) {
                            live[index] = None;
                        }
                    }
                }
            }
        }
        // Drain everything still pending.
        let horizon = sim.now() + SimDuration::from_secs(1);
        sim.run_until(horizon);
        model.run_until(horizon);

        // Property 2: exact match with the naive model (order, times, gens).
        let fired = &sim.model().fired;
        prop_assert_eq!(fired, &model.fired);

        // Property 1: no cancelled generation ever fired.
        for &(_, _, g) in fired {
            prop_assert!(
                !cancelled.contains(&g),
                "cancelled generation {} fired", g
            );
        }
        prop_assert_eq!(sim.events_processed() as usize, fired.len());
    }
}

/// Directed (non-property) check of the core guarantee: a clear is
/// physical, so a cleared event is gone even when its fire time has already
/// passed by the next run.
#[test]
fn cancel_after_due_time_still_suppresses_fire() {
    let (mut sim, alarms) = setup(2);
    sim.access(|_, ctx| {
        arm(ctx, &alarms, 0, 1, SimTime::from_micros(10));
        arm(ctx, &alarms, 1, 2, SimTime::from_micros(20));
    });
    // Clear alarm 0 before running past both deadlines.
    sim.access(|_, ctx| ctx.clear_alarm(alarms[0]));
    sim.run_until(SimTime::from_millis(1));
    assert_eq!(sim.model().fired, vec![(SimTime::from_micros(20), 1, 2)]);
}
