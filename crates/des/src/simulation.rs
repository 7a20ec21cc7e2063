//! The model and the event loop.
//!
//! A [`Simulation`] owns one [`Model`] value (the whole simulated system,
//! whatever components it is made of), the clock and the [`EventQueue`]
//! with its alarms. The event loop pops events in `(time, seq)` order and
//! hands each to [`Model::handle`] with the [`ComponentId`] it is
//! addressed to and a [`SimulationContext`]: the clock and the queue
//! (schedule general events, set and clear alarms).
//!
//! The model routes the event itself, typically with a `match` on the id
//! that borrows its fields one by one and passes each component's handler
//! exactly the peers it calls. A cross-component call is then a plain
//! method call that the borrow checker verifies: no registry, no downcast
//! and no interior mutability, so a simulation of a [`Send`] model is
//! [`Send`].
//!
//! The kernel draws no randomness: a component that needs some owns its
//! RNG streams and checkpoints them with the rest of its state.

use crate::metrics::{ComponentDispatch, Metrics, MetricsReport, ProfileSample, Profiler};
use crate::queue::{AlarmId, EventQueue};
use crate::snapshot::{SnapshotError, State};
use crate::time::{SimDuration, SimTime};

/// The address an event carries: which of the model's components it is
/// for, in `0..M::COMPONENTS`.
pub type ComponentId = usize;

/// A simulation model: the simulated system's state and the handler the
/// event loop hands every event to.
pub trait Model {
    /// The event vocabulary (typically one enum covering every component).
    type Event;

    /// How many components events can be addressed to: ids
    /// `0..COMPONENTS`. A checkpoint holding an event for any other id is
    /// rejected.
    const COMPONENTS: usize;

    /// Handle one event addressed to component `target`; `ctx` carries the
    /// clock and the event queue.
    fn handle(
        &mut self,
        ctx: &mut SimulationContext<'_, Self::Event>,
        target: ComponentId,
        event: Self::Event,
    );

    /// The event's kind label for the dispatch counters and the profiler
    /// (typically a match over the event enum returning literals).
    fn kind(event: &Self::Event) -> &'static str;

    /// The payload identity the event digest folds in beside the kind (say,
    /// the entity the event concerns); 0 unless the model says otherwise.
    fn identity(_event: &Self::Event) -> u64 {
        0
    }
}

/// The clock and queue view handed to the model while it handles an event
/// (or to an [`access`](Simulation::access) closure).
pub struct SimulationContext<'a, E> {
    queue: &'a mut EventQueue<E>,
    now: SimTime,
}

impl<E> SimulationContext<'_, E> {
    /// The current simulation time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` for component `target` at absolute time `time`.
    #[inline]
    pub fn schedule(&mut self, time: SimTime, target: ComponentId, event: E) {
        self.queue.schedule(time, target, event);
    }

    /// Reserve `count` consecutive sequence numbers and return the first
    /// (see [`EventQueue::reserve_seqs`]).
    #[inline]
    pub fn reserve_seqs(&mut self, count: u64) -> u64 {
        self.queue.reserve_seqs(count)
    }

    /// Make `alarm` hold `event` for `target` at `(time, seq)`, replacing
    /// the event it holds (see [`EventQueue::set_alarm`]).
    #[inline]
    pub fn set_alarm(
        &mut self,
        alarm: AlarmId,
        time: SimTime,
        seq: u64,
        target: ComponentId,
        event: E,
    ) {
        self.queue.set_alarm(alarm, time, seq, target, event);
    }

    /// Empty `alarm`; the event it held, if any, never fires.
    #[inline]
    pub fn clear_alarm(&mut self, alarm: AlarmId) {
        self.queue.clear_alarm(alarm);
    }

    /// The event `alarm` holds, with its `(time, seq)` key.
    #[inline]
    pub fn alarm(&self, alarm: AlarmId) -> Option<(SimTime, u64, &E)> {
        self.queue.alarm(alarm)
    }
}

/// A discrete-event simulation: one model, the clock and the event queue.
///
/// Its checkpoint state is the kernel's own: the clock, the dispatch
/// counter and every pending event. The model checkpoints its mutable
/// state, RNG streams included, beside this block and loads it all into a
/// simulation freshly built from the same scenario.
pub struct Simulation<M: Model> {
    model: M,
    queue: EventQueue<M::Event>,
    now: SimTime,
    events_processed: u64,
    /// Per-component/per-kind dispatch counters; `None` (the default) keeps
    /// the dispatch loop at a single never-taken branch.
    metrics: Option<Box<Metrics>>,
    /// Sampled wall-clock profiler; `None` (the default) keeps the run loop
    /// untouched (checked once per `run_until`, not per event).
    profiler: Option<Profiler>,
}

crate::state!(impl[M: Model<Event = E>, E: State + Default] struct Simulation<M> {
    now, events_processed, queue
} then Self::check_pending);

impl<M: Model> Simulation<M> {
    /// Create a simulation at time zero around the model `build` returns.
    /// `build` gets the empty queue, so a component can add the alarms it
    /// holds ([`EventQueue::add_alarm`]) while the model is built.
    pub fn new(build: impl FnOnce(&mut EventQueue<M::Event>) -> M) -> Self {
        let mut queue = EventQueue::new();
        let model = build(&mut queue);
        Simulation {
            model,
            queue,
            now: SimTime::ZERO,
            events_processed: 0,
            metrics: None,
            profiler: None,
        }
    }

    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events dispatched so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Every pending event (general and alarm) with its time and the
    /// component it is addressed to, in no particular order.
    pub fn pending_events(&self) -> impl Iterator<Item = (SimTime, ComponentId, &M::Event)> + '_ {
        self.queue.pending()
    }

    /// Reject a loaded pending event the run loop could not dispatch: one
    /// addressed to no component of the model, or one due before the loaded
    /// clock, which would step time back.
    fn check_pending(&mut self) -> Result<(), SnapshotError> {
        for (time, target, _) in self.queue.pending() {
            if target >= M::COMPONENTS {
                return Err(SnapshotError::custom(format!(
                    "pending event addressed to component {target} of {}",
                    M::COMPONENTS
                )));
            }
            if time < self.now {
                return Err(SnapshotError::custom(format!(
                    "pending event at {} ns is before the checkpoint's clock at {} ns",
                    time.as_nanos(),
                    self.now.as_nanos()
                )));
            }
        }
        Ok(())
    }

    /// Shared access to the model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Mutable access to the model (between runs; the event loop hands it
    /// to [`Model::handle`]).
    pub fn model_mut(&mut self) -> &mut M {
        &mut self.model
    }

    /// Turn on the per-component/per-event-kind dispatch registry.
    ///
    /// Every dispatched event is counted under its [`Model::kind`] label
    /// (interned in first-seen order) and folded, with its
    /// [`Model::identity`], into the event digest. Recording draws no RNG,
    /// schedules nothing, and consumes no sequence numbers, so results stay
    /// byte-identical — see the [metrics module docs](crate::metrics) for
    /// the digest and the full cost contract.
    pub fn enable_metrics(&mut self) {
        self.metrics = Some(Box::default());
    }

    /// Whether the dispatch registry is enabled.
    pub fn metrics_enabled(&self) -> bool {
        self.metrics.is_some()
    }

    /// Assemble the kernel's full telemetry report, or `None` when the
    /// registry was never enabled. The queue and scheduler sections are
    /// derived from state the kernel keeps anyway; only the dispatch rows
    /// and the digest depend on the registry having been on.
    pub fn metrics_report(&self) -> Option<MetricsReport> {
        let metrics = self.metrics.as_deref()?;
        let kinds: Vec<String> = metrics.kinds().iter().map(|k| k.to_string()).collect();
        let dispatch = (0..M::COMPONENTS)
            .map(|id| {
                let mut by_kind = metrics.counts().get(id).cloned().unwrap_or_default();
                by_kind.resize(kinds.len(), 0);
                ComponentDispatch {
                    component: id,
                    total: by_kind.iter().sum(),
                    by_kind,
                }
            })
            .collect();
        Some(MetricsReport {
            events_processed: self.events_processed,
            kinds,
            dispatch,
            event_digest: metrics.digest(),
            queue: self.queue.counters(),
            scheduler: self.queue.scheduler_stats(),
        })
    }

    /// Install the sampled self-profiler: every `sample_every`-th event, the
    /// run loop times the scheduler pop and the model's handler separately
    /// and feeds both to `sink` (see [`ProfileSample`]). Sampling is a
    /// deterministic countdown and timing never reorders dispatch, so a
    /// profiled run still produces byte-identical results.
    pub fn set_profiler(&mut self, sample_every: u32, sink: Box<dyn FnMut(ProfileSample) + Send>) {
        self.profiler = Some(Profiler::new(sample_every, sink));
    }

    /// Remove the profiler, restoring the untimed run loop.
    pub fn clear_profiler(&mut self) {
        self.profiler = None;
    }

    /// Run a closure with the same view the model gets when it handles an
    /// event — the model and a context for scheduling — without consuming
    /// an event. This is how facades implement setup and mid-run control
    /// paths (seeding initial events, activating entities) with the very
    /// same component methods the event loop uses.
    pub fn access<R>(
        &mut self,
        f: impl FnOnce(&mut M, &mut SimulationContext<'_, M::Event>) -> R,
    ) -> R {
        let mut ctx = SimulationContext {
            queue: &mut self.queue,
            now: self.now,
        };
        f(&mut self.model, &mut ctx)
    }

    /// Process every event with timestamp `<= t_end` in `(time, seq)`
    /// order, then advance the clock to `t_end`.
    pub fn run_until(&mut self, t_end: SimTime) {
        if self.profiler.is_some() {
            return self.run_until_profiled(t_end);
        }
        while let Some((time, target, event)) = self.queue.pop_until(t_end) {
            debug_assert!(time >= self.now, "time must be monotone");
            self.now = time;
            self.events_processed += 1;
            self.dispatch(target, event);
        }
        if t_end > self.now {
            self.now = t_end;
        }
    }

    /// The profiled twin of [`run_until`](Self::run_until): identical event
    /// flow, with every `sample_every`-th iteration bracketed by wall-clock
    /// timestamps. Unsampled iterations skip both `Instant` reads.
    fn run_until_profiled(&mut self, t_end: SimTime) {
        loop {
            let profiler = self
                .profiler
                .as_mut()
                .expect("profiled loop without profiler");
            let pop_start = profiler.tick().then(std::time::Instant::now);
            let Some((time, target, event)) = self.queue.pop_until(t_end) else {
                break;
            };
            self.now = time;
            self.events_processed += 1;
            let Some(pop_start) = pop_start else {
                self.dispatch(target, event);
                continue;
            };
            let pop_nanos = pop_start.elapsed().as_nanos() as u64;
            let kind = M::kind(&event);
            let handle_start = std::time::Instant::now();
            self.dispatch(target, event);
            let handle_nanos = handle_start.elapsed().as_nanos() as u64;
            let profiler = self.profiler.as_mut().expect("profiler vanished mid-run");
            (profiler.sink)(ProfileSample {
                component: None,
                kind: "sched.pop",
                nanos: pop_nanos,
            });
            (profiler.sink)(ProfileSample {
                component: Some(target),
                kind,
                nanos: handle_nanos,
            });
        }
        if t_end > self.now {
            self.now = t_end;
        }
    }

    /// Run for an additional duration.
    pub fn run_for(&mut self, d: SimDuration) {
        let t_end = self.now + d;
        self.run_until(t_end);
    }

    #[inline]
    fn dispatch(&mut self, target: ComponentId, event: M::Event) {
        if let Some(metrics) = self.metrics.as_deref_mut() {
            metrics.record(self.now, target, M::kind(&event), M::identity(&event));
        }
        let mut ctx = SimulationContext {
            queue: &mut self.queue,
            now: self.now,
        };
        self.model.handle(&mut ctx, target, event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{StateReader, StateWriter};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    enum Ev {
        #[default]
        Ping,
        Pong,
        Timer {
            index: usize,
            gen: u64,
        },
    }

    crate::state!(enum Ev { Ping, Pong, Timer { index, gen } });

    fn kind(e: &Ev) -> &'static str {
        match e {
            Ev::Ping => "ping",
            Ev::Pong => "pong",
            Ev::Timer { .. } => "timer",
        }
    }

    /// Sends `Pong` to its peer on every `Ping` and logs to the shared log.
    #[derive(Default)]
    struct Pinger {
        sent: u32,
    }

    #[derive(Default)]
    struct Ponger {
        nudged: u32,
        ponged: u32,
    }

    /// Two components, `Pinger` at id 0 and `Ponger` at id 1, beside a log
    /// both write.
    #[derive(Default)]
    struct PingPong {
        log: Vec<(SimTime, &'static str)>,
        pinger: Pinger,
        ponger: Ponger,
    }

    impl Pinger {
        fn handle(
            &mut self,
            log: &mut Vec<(SimTime, &'static str)>,
            ponger: &mut Ponger,
            ctx: &mut SimulationContext<'_, Ev>,
            event: Ev,
        ) {
            assert_eq!(event, Ev::Ping);
            log.push((ctx.now(), "ping"));
            self.sent += 1;
            // Synchronous cross-component call...
            ponger.nudged += 1;
            // ...and an asynchronous event to the same peer.
            ctx.schedule(ctx.now() + SimDuration::from_micros(10), 1, Ev::Pong);
        }
    }

    impl Model for PingPong {
        type Event = Ev;
        const COMPONENTS: usize = 2;

        fn handle(&mut self, ctx: &mut SimulationContext<'_, Ev>, target: ComponentId, event: Ev) {
            let PingPong {
                log,
                pinger,
                ponger,
            } = self;
            match target {
                0 => pinger.handle(log, ponger, ctx, event),
                _ => {
                    assert_eq!(event, Ev::Pong);
                    log.push((ctx.now(), "pong"));
                    ponger.ponged += 1;
                }
            }
        }

        fn kind(event: &Ev) -> &'static str {
            kind(event)
        }
    }

    #[test]
    fn dispatch_routes_by_component_id() {
        let mut sim: Simulation<PingPong> = Simulation::new(|_| PingPong::default());
        sim.access(|_, ctx| {
            ctx.schedule(SimTime::from_micros(5), 0, Ev::Ping);
            ctx.schedule(SimTime::from_micros(25), 0, Ev::Ping);
        });
        sim.run_until(SimTime::from_micros(100));
        let model = sim.model();
        assert_eq!(model.pinger.sent, 2);
        assert_eq!(model.ponger.nudged, 2);
        assert_eq!(model.ponger.ponged, 2);
        assert_eq!(sim.events_processed(), 4);
        assert_eq!(sim.now(), SimTime::from_micros(100));
        assert_eq!(
            model.log,
            vec![
                (SimTime::from_micros(5), "ping"),
                (SimTime::from_micros(15), "pong"),
                (SimTime::from_micros(25), "ping"),
                (SimTime::from_micros(35), "pong"),
            ]
        );
    }

    /// Logs every timer fire along with a draw from its own RNG stream.
    /// Timer `index` lives in alarm `alarms[index]`.
    struct TimerLog {
        alarms: [AlarmId; 2],
        rng: ChaCha8Rng,
        fired: Vec<(usize, u64, u64)>,
    }

    /// Set timer `index` of the `TimerLog` (component 0) to fire at `time`.
    fn arm(
        ctx: &mut SimulationContext<'_, Ev>,
        alarms: &[AlarmId; 2],
        index: usize,
        gen: u64,
        time: SimTime,
    ) {
        let seq = ctx.reserve_seqs(1);
        ctx.set_alarm(alarms[index], time, seq, 0, Ev::Timer { index, gen });
    }

    impl Model for TimerLog {
        type Event = Ev;
        const COMPONENTS: usize = 1;

        fn handle(&mut self, ctx: &mut SimulationContext<'_, Ev>, _target: ComponentId, event: Ev) {
            let Ev::Timer { index, gen } = event else {
                panic!("unexpected event {event:?}");
            };
            let draw = self.rng.gen::<u64>();
            self.fired.push((index, gen, draw));
            if gen < 3 {
                // Re-arm: fires again one slot later with a bumped gen.
                let next = ctx.now() + SimDuration::from_micros(9);
                arm(ctx, &self.alarms, index, gen + 1, next);
            }
        }

        fn kind(event: &Ev) -> &'static str {
            kind(event)
        }
    }

    /// Alarm events reach the component they name, which draws from its
    /// own RNG stream and sets its alarms again.
    #[test]
    fn timer_tiers_route_to_owner_with_rng_stream() {
        let mut sim = rng_timer_sim();
        sim.run_for(SimDuration::from_millis(1));
        let fired = &sim.model().fired;
        let order: Vec<(usize, u64)> = fired.iter().map(|&(i, g, _)| (i, g)).collect();
        assert_eq!(
            order,
            vec![(1, 1), (0, 1), (1, 2), (0, 2), (1, 3), (0, 3)],
            "FIFO ties and re-arms in deterministic order"
        );
        // The RNG stream is the component's own, drawn in dispatch order.
        let mut expect = ChaCha8Rng::seed_from_u64(1);
        for &(_, _, draw) in fired {
            assert_eq!(draw, expect.gen::<u64>());
        }
    }

    /// Build the alarm + RNG simulation used by the routing and
    /// telemetry-purity tests: two interleaved self-re-arming timers drawing
    /// from a private ChaCha8 stream on every fire, armed in FIFO-tied order.
    fn rng_timer_sim() -> Simulation<TimerLog> {
        let mut sim = Simulation::new(|queue| TimerLog {
            alarms: [queue.add_alarm(), queue.add_alarm()],
            rng: ChaCha8Rng::seed_from_u64(1),
            fired: Vec::new(),
        });
        sim.access(|log, ctx| {
            arm(ctx, &log.alarms, 1, 1, SimTime::from_micros(9));
            arm(ctx, &log.alarms, 0, 1, SimTime::from_micros(9)); // ties FIFO
        });
        sim
    }

    #[test]
    fn telemetry_at_max_verbosity_draws_zero_rng_and_is_byte_identical() {
        // Twin runs: telemetry off vs metrics + profiler both on. The
        // instrumented run must visit the identical event sequence and leave
        // every RNG stream at the identical position.
        let mut plain = rng_timer_sim();
        let mut full = rng_timer_sim();
        full.enable_metrics();
        full.set_profiler(1, Box::new(|_| {}));
        plain.run_for(SimDuration::from_millis(1));
        full.run_for(SimDuration::from_millis(1));
        assert_eq!(
            full.model().fired,
            plain.model().fired,
            "instrumented run must fire the identical (index, gen, draw) sequence"
        );
        assert_eq!(full.events_processed(), plain.events_processed());
        assert_eq!(full.now(), plain.now());
        let plain_pos = plain.model().rng.get_word_pos();
        let full_pos = full.model().rng.get_word_pos();
        assert_eq!(
            full_pos, plain_pos,
            "telemetry must not draw from any RNG stream"
        );
        assert_eq!(full_pos, 12, "6 fires x one u64 (two words) each");
        let report = full.metrics_report().expect("metrics enabled");
        assert_eq!(report.events_processed, 6);
        assert_eq!(report.kinds, vec!["timer".to_string()]);
        assert_eq!(report.dispatch[0].total, 6);
        assert_eq!(report.dispatch[0].by_kind, vec![6]);
        let c = report.queue;
        assert_eq!(c.pushes(), c.pops() + c.timer_cancels);
        assert_eq!(c.timer_fires, 6);
    }

    #[test]
    fn profiler_sink_receives_paired_sched_and_handler_samples() {
        use std::sync::{Arc, Mutex};
        type Sampled = Vec<(Option<ComponentId>, &'static str)>;
        let samples: Arc<Mutex<Sampled>> = Arc::new(Mutex::new(Vec::new()));
        let sink_samples = Arc::clone(&samples);
        let mut sim = rng_timer_sim();
        sim.set_profiler(
            2,
            Box::new(move |s| sink_samples.lock().unwrap().push((s.component, s.kind))),
        );
        sim.run_for(SimDuration::from_millis(1));
        let got = samples.lock().unwrap();
        // 6 events, sampled every 2nd: 3 sampled events x 2 samples each.
        assert_eq!(got.len(), 6);
        for pair in got.chunks(2) {
            assert_eq!(pair[0], (None, "sched.pop"));
            assert_eq!(pair[1], (Some(0), "timer"));
        }
        drop(got);
        sim.clear_profiler();
        assert!(sim.metrics_report().is_none(), "metrics never enabled");
    }

    /// A checkpoint whose pending event is addressed to no component of the
    /// model, or is due before the checkpoint's clock, is rejected at load,
    /// naming the component or both times; the run loop would panic on the
    /// first and step the clock back on the second.
    #[test]
    fn load_rejects_pending_events_for_no_component_or_before_the_clock() {
        let checkpoint = |time: SimTime, target: ComponentId| {
            let mut sim: Simulation<PingPong> = Simulation::new(|_| PingPong::default());
            sim.run_until(SimTime::from_micros(10));
            sim.access(|_, ctx| ctx.schedule(time, target, Ev::Pong));
            let mut w = StateWriter::new();
            sim.save(&mut w);
            w.finish()
        };
        let load = |bytes: &[u8]| {
            let mut sim: Simulation<PingPong> = Simulation::new(|_| PingPong::default());
            let mut r = StateReader::new(bytes)?;
            sim.load(&mut r)?;
            r.expect_end()?;
            Ok::<_, SnapshotError>(sim)
        };
        let mut fine = load(&checkpoint(SimTime::from_micros(10), 1)).unwrap();
        fine.run_until(SimTime::from_micros(20));
        assert_eq!(fine.model().ponger.ponged, 1);
        let err = load(&checkpoint(SimTime::from_micros(15), 2))
            .err()
            .expect("an event for component 2 of 2 loaded")
            .to_string();
        assert!(err.contains("component 2 of 2"), "{err}");
        let err = load(&checkpoint(SimTime::from_micros(5), 1))
            .err()
            .expect("an event before the clock loaded")
            .to_string();
        assert!(err.contains("5000 ns") && err.contains("10000 ns"), "{err}");
    }

    #[test]
    fn simulation_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Simulation<PingPong>>();
    }
}
