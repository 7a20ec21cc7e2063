//! The component registry and event loop.
//!
//! A [`Simulation`] owns three things: a user-defined *world* (shared state
//! every component can read and write), a registry of boxed [`Component`]s,
//! and the [`EventQueue`] with its alarms. The event loop pops events in
//! `(time, seq)` order and dispatches each to the component it is addressed
//! to, handing the handler:
//!
//! * `&mut W` — the shared world,
//! * [`Peers`] — mutable access to *other* components by typed [`Handle`]
//!   (split-borrowed around the running component, so cross-component calls
//!   need no interior mutability and the registry stays [`Send`]),
//! * [`SimulationContext`] — the clock and the queue (schedule general
//!   events, set and clear alarms).
//!
//! The kernel draws no randomness: a component that needs some owns its
//! RNG streams and checkpoints them with the rest of its state.
//!
//! Components are plain structs; there is no message-passing runtime. A
//! handler that wants to poke a peer calls a method on it directly through
//! `Peers::get_mut`, which keeps intra-event control flow synchronous and
//! easy to reason about — exactly like the monolithic `match` it replaces,
//! but with each mechanism's state and logic in its own type.

use std::any::Any;
use std::marker::PhantomData;

use crate::metrics::{ComponentDispatch, Metrics, MetricsReport, ProfileSample, Profiler};
use crate::queue::{AlarmId, EventQueue};
use crate::snapshot::{SnapshotError, State};
use crate::time::{SimDuration, SimTime};

/// Index of a component in the registry, in registration order.
pub type ComponentId = usize;

/// Object-safe downcasting support, blanket-implemented for every sized
/// `'static` type. This is what lets [`Peers`] and
/// [`Simulation::component`] recover a concrete component type from a boxed
/// trait object without nightly trait-upcasting.
pub trait AsAny {
    /// The value as `&dyn Any` for downcasting.
    fn as_any(&self) -> &dyn Any;
    /// The value as `&mut dyn Any` for downcasting.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl<T: Any> AsAny for T {
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A simulation component: one mechanism's state plus its event handler.
///
/// `W` is the shared world type, `E` the simulation's event vocabulary
/// (typically one enum covering all components; a component simply ignores
/// — or panics on — variants it never registered for). Components must be
/// [`Send`] so a whole [`Simulation`] can move across threads (parallel
/// replication campaigns).
pub trait Component<W, E>: AsAny + Send {
    /// Handle one event addressed to this component.
    ///
    /// `peers` grants mutable access to every *other* component;
    /// `ctx` carries the clock and the event queue.
    fn handle(
        &mut self,
        world: &mut W,
        peers: &mut Peers<'_, W, E>,
        ctx: &mut SimulationContext<'_, E>,
        event: E,
    );
}

/// A typed reference to a registered component.
///
/// Handles are plain `Copy` indices carrying the component type as a
/// phantom; they are cheap to store in other components for cross-component
/// calls via [`Peers::get_mut`]. The type is checked (by downcast) at every
/// lookup, so a handle forged with the wrong type panics loudly rather than
/// aliasing.
pub struct Handle<C> {
    id: ComponentId,
    _marker: PhantomData<fn() -> C>,
}

impl<C> std::fmt::Debug for Handle<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Handle#{}", self.id)
    }
}

impl<C> Clone for Handle<C> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<C> Copy for Handle<C> {}

impl<C> Handle<C> {
    /// Construct a handle from a raw component id.
    ///
    /// This exists for circular wiring: component A, built before component
    /// B, can hold `Handle::from_raw(B_ID)` as long as registration order is
    /// fixed. The type is still verified at every lookup.
    pub const fn from_raw(id: ComponentId) -> Self {
        Handle {
            id,
            _marker: PhantomData,
        }
    }

    /// The raw component id, e.g. for addressing events via
    /// [`SimulationContext::schedule`].
    pub const fn id(&self) -> ComponentId {
        self.id
    }
}

/// Mutable access to the *other* components during dispatch.
///
/// The registry is split-borrowed around the component currently handling
/// an event, so a handler can call methods on any peer without interior
/// mutability. Looking up the running component's own handle panics —
/// `&mut self` already is that access.
pub struct Peers<'a, W, E> {
    before: &'a mut [Box<dyn Component<W, E>>],
    after: &'a mut [Box<dyn Component<W, E>>],
    /// Registry index of the component being dispatched to, or `usize::MAX`
    /// when no component is running (whole-registry access).
    split: usize,
}

impl<W: 'static, E: 'static> Peers<'_, W, E> {
    /// Shared access to the component behind `handle`.
    ///
    /// Panics if the handle names the running component or a component of a
    /// different concrete type.
    #[inline]
    pub fn get<C: Component<W, E> + 'static>(&self, handle: Handle<C>) -> &C {
        self.slot(handle.id)
            .as_any()
            .downcast_ref::<C>()
            .expect("component handle names a different concrete type")
    }

    /// Mutable access to the component behind `handle`.
    ///
    /// Panics if the handle names the running component or a component of a
    /// different concrete type.
    #[inline]
    pub fn get_mut<C: Component<W, E> + 'static>(&mut self, handle: Handle<C>) -> &mut C {
        self.slot_mut(handle.id)
            .as_any_mut()
            .downcast_mut::<C>()
            .expect("component handle names a different concrete type")
    }

    #[inline]
    fn slot(&self, id: ComponentId) -> &dyn Component<W, E> {
        if id < self.split {
            &*self.before[id]
        } else if id == self.split {
            panic!("component {id} accessed itself through Peers; use &mut self")
        } else {
            &*self.after[id - self.split - 1]
        }
    }

    #[inline]
    fn slot_mut(&mut self, id: ComponentId) -> &mut dyn Component<W, E> {
        if id < self.split {
            &mut *self.before[id]
        } else if id == self.split {
            panic!("component {id} accessed itself through Peers; use &mut self")
        } else {
            &mut *self.after[id - self.split - 1]
        }
    }
}

/// The clock and queue view handed to a component while it handles an
/// event (or to an [`access`](Simulation::access) closure).
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

/// A discrete-event simulation: world + component registry + clock + queue.
///
/// Its checkpoint state is the kernel's own: the clock, the dispatch
/// counter and every pending event. The world and the components belong
/// to the model, which checkpoints their mutable state, RNG streams
/// included, beside this block and loads it all into a simulation freshly
/// built from the same scenario.
pub struct Simulation<W, E> {
    world: W,
    components: Vec<Box<dyn Component<W, E>>>,
    queue: EventQueue<E>,
    now: SimTime,
    events_processed: u64,
    /// Per-component/per-kind dispatch counters; `None` (the default) keeps
    /// the dispatch loop at a single never-taken branch.
    metrics: Option<Box<Metrics<E>>>,
    /// Sampled wall-clock profiler; `None` (the default) keeps the run loop
    /// untouched (checked once per `run_until`, not per event).
    profiler: Option<Profiler<E>>,
}

crate::state!(impl[W: 'static, E: State + Default + 'static] struct Simulation<W, E> {
    now, events_processed, queue
} then Self::check_targets);

impl<W: 'static, E: 'static> Simulation<W, E> {
    /// Create a simulation at time zero around `world`.
    pub fn new(world: W) -> Self {
        Simulation {
            world,
            components: Vec::new(),
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            events_processed: 0,
            metrics: None,
            profiler: None,
        }
    }

    /// Register a component; its [`Handle`] embeds the registration index.
    pub fn add_component<C: Component<W, E> + 'static>(&mut self, component: C) -> Handle<C> {
        let id = self.components.len();
        self.components.push(Box::new(component));
        Handle::from_raw(id)
    }

    /// Register an empty alarm (see [`EventQueue::add_alarm`]).
    pub fn add_alarm(&mut self) -> AlarmId {
        self.queue.add_alarm()
    }

    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events dispatched so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Every pending event (general and alarm) with the component it is
    /// addressed to, in no particular order.
    pub fn pending_events(&self) -> impl Iterator<Item = (ComponentId, &E)> + '_ {
        self.queue.pending()
    }

    /// Reject loaded events addressed to no registered component, which
    /// would panic at dispatch.
    fn check_targets(&mut self) -> Result<(), SnapshotError> {
        match self
            .queue
            .pending()
            .map(|(target, _)| target)
            .find(|&t| t >= self.components.len())
        {
            Some(target) => Err(SnapshotError::custom(format!(
                "pending event addressed to component {target} of {}",
                self.components.len()
            ))),
            None => Ok(()),
        }
    }

    /// Shared access to the world.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Mutable access to the world (between runs; handlers receive it
    /// directly).
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// Shared access to a component by handle.
    pub fn component<C: Component<W, E> + 'static>(&self, handle: Handle<C>) -> &C {
        // Deref the box first: the blanket AsAny impl would otherwise match
        // the Box itself and the downcast would always fail.
        (*self.components[handle.id])
            .as_any()
            .downcast_ref::<C>()
            .expect("component handle names a different concrete type")
    }

    /// Mutable access to a component by handle.
    pub fn component_mut<C: Component<W, E> + 'static>(&mut self, handle: Handle<C>) -> &mut C {
        (*self.components[handle.id])
            .as_any_mut()
            .downcast_mut::<C>()
            .expect("component handle names a different concrete type")
    }

    /// Turn on the per-component/per-event-kind dispatch registry.
    ///
    /// `classify` maps an event to a `&'static str` kind label (typically a
    /// match over the model's event enum); the registry interns labels in
    /// first-seen order. `identify` maps it to the payload identity the
    /// event digest folds in (say, the entity it concerns). Recording draws
    /// no RNG, schedules nothing, and consumes no sequence numbers, so
    /// results stay byte-identical — see the [metrics module
    /// docs](crate::metrics) for the digest and the full cost contract.
    pub fn enable_metrics(&mut self, classify: fn(&E) -> &'static str, identify: fn(&E) -> u64) {
        self.metrics = Some(Box::new(Metrics::new(classify, identify)));
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
        let dispatch = (0..self.components.len())
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
    /// run loop times the scheduler pop and the component handler separately
    /// and feeds both to `sink` (see [`ProfileSample`]). Sampling is a
    /// deterministic countdown and timing never reorders dispatch, so a
    /// profiled run still produces byte-identical results.
    pub fn set_profiler(
        &mut self,
        sample_every: u32,
        classify: fn(&E) -> &'static str,
        sink: Box<dyn FnMut(ProfileSample) + Send>,
    ) {
        self.profiler = Some(Profiler::new(sample_every, classify, sink));
    }

    /// Remove the profiler, restoring the untimed run loop.
    pub fn clear_profiler(&mut self) {
        self.profiler = None;
    }

    /// Run a closure with the same view a dispatched component gets — world,
    /// all components (as [`Peers`] with no self excluded), and a context
    /// for scheduling — without consuming an event. This is how facades
    /// implement setup and mid-run control paths (seeding initial events,
    /// activating entities) on top of the kernel with the very same
    /// component methods the event loop uses.
    pub fn access<R>(
        &mut self,
        f: impl FnOnce(&mut W, &mut Peers<'_, W, E>, &mut SimulationContext<'_, E>) -> R,
    ) -> R {
        let mut peers = Peers {
            before: &mut self.components,
            after: &mut [],
            split: usize::MAX,
        };
        let mut ctx = SimulationContext {
            queue: &mut self.queue,
            now: self.now,
        };
        f(&mut self.world, &mut peers, &mut ctx)
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
            let classify = profiler.classify;
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
            let kind = classify(&event);
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
    fn dispatch(&mut self, target: ComponentId, event: E) {
        if let Some(metrics) = self.metrics.as_deref_mut() {
            metrics.record(self.now, target, &event);
        }
        let (before, rest) = self.components.split_at_mut(target);
        let (component, after) = rest
            .split_first_mut()
            .expect("event addressed to an unregistered component");
        let mut peers = Peers {
            before,
            after,
            split: target,
        };
        let mut ctx = SimulationContext {
            queue: &mut self.queue,
            now: self.now,
        };
        component.handle(&mut self.world, &mut peers, &mut ctx, event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Ev {
        Ping,
        Pong,
        Timer { index: usize, gen: u64 },
    }

    type World = Vec<(SimTime, &'static str)>;

    /// Sends `Pong` to a peer on every `Ping` and logs to the world.
    struct Pinger {
        peer: Handle<Ponger>,
        sent: u32,
    }

    impl Component<World, Ev> for Pinger {
        fn handle(
            &mut self,
            world: &mut World,
            peers: &mut Peers<'_, World, Ev>,
            ctx: &mut SimulationContext<'_, Ev>,
            event: Ev,
        ) {
            assert_eq!(event, Ev::Ping);
            world.push((ctx.now(), "ping"));
            self.sent += 1;
            // Synchronous cross-component call...
            peers.get_mut(self.peer).nudged += 1;
            // ...and an asynchronous event to the same peer.
            ctx.schedule(
                ctx.now() + SimDuration::from_micros(10),
                self.peer.id(),
                Ev::Pong,
            );
        }
    }

    #[derive(Default)]
    struct Ponger {
        nudged: u32,
        ponged: u32,
    }

    impl Component<World, Ev> for Ponger {
        fn handle(
            &mut self,
            world: &mut World,
            _peers: &mut Peers<'_, World, Ev>,
            ctx: &mut SimulationContext<'_, Ev>,
            event: Ev,
        ) {
            assert_eq!(event, Ev::Pong);
            world.push((ctx.now(), "pong"));
            self.ponged += 1;
        }
    }

    #[test]
    fn dispatch_routes_by_component_and_peers_split_borrow_works() {
        let mut sim: Simulation<World, Ev> = Simulation::new(Vec::new());
        // Circular wiring: Pinger is registered first and refers to the
        // Ponger that will be registered second.
        let pinger = sim.add_component(Pinger {
            peer: Handle::from_raw(1),
            sent: 0,
        });
        let ponger = sim.add_component(Ponger::default());
        assert_eq!(ponger.id(), 1);
        sim.access(|_, _, ctx| {
            ctx.schedule(SimTime::from_micros(5), pinger.id(), Ev::Ping);
            ctx.schedule(SimTime::from_micros(25), pinger.id(), Ev::Ping);
        });
        sim.run_until(SimTime::from_micros(100));
        assert_eq!(sim.component(pinger).sent, 2);
        assert_eq!(sim.component(ponger).nudged, 2);
        assert_eq!(sim.component(ponger).ponged, 2);
        assert_eq!(sim.events_processed(), 4);
        assert_eq!(sim.now(), SimTime::from_micros(100));
        assert_eq!(
            *sim.world(),
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

    impl Component<World, Ev> for TimerLog {
        fn handle(
            &mut self,
            _world: &mut World,
            _peers: &mut Peers<'_, World, Ev>,
            ctx: &mut SimulationContext<'_, Ev>,
            event: Ev,
        ) {
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
    }

    /// Alarm events reach the component they name, which draws from its
    /// own RNG stream and sets its alarms again.
    #[test]
    fn timer_tiers_route_to_owner_with_rng_stream() {
        let (mut sim, log) = rng_timer_sim();
        sim.run_for(SimDuration::from_millis(1));
        let fired = &sim.component(log).fired;
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
    fn rng_timer_sim() -> (Simulation<World, Ev>, Handle<TimerLog>) {
        let mut sim: Simulation<World, Ev> = Simulation::new(Vec::new());
        let alarms = [sim.add_alarm(), sim.add_alarm()];
        let log = sim.add_component(TimerLog {
            alarms,
            rng: ChaCha8Rng::seed_from_u64(1),
            fired: Vec::new(),
        });
        sim.access(|_, _, ctx| {
            arm(ctx, &alarms, 1, 1, SimTime::from_micros(9));
            arm(ctx, &alarms, 0, 1, SimTime::from_micros(9)); // ties FIFO
        });
        (sim, log)
    }

    fn classify(e: &Ev) -> &'static str {
        match e {
            Ev::Ping => "ping",
            Ev::Pong => "pong",
            Ev::Timer { .. } => "timer",
        }
    }

    #[test]
    fn telemetry_at_max_verbosity_draws_zero_rng_and_is_byte_identical() {
        // Twin runs: telemetry off vs metrics + profiler both on. The
        // instrumented run must visit the identical event sequence and leave
        // every RNG stream at the identical position.
        let (mut plain, plain_log) = rng_timer_sim();
        let (mut full, full_log) = rng_timer_sim();
        full.enable_metrics(classify, |_| 0);
        full.set_profiler(1, classify, Box::new(|_| {}));
        plain.run_for(SimDuration::from_millis(1));
        full.run_for(SimDuration::from_millis(1));
        assert_eq!(
            full.component(full_log).fired,
            plain.component(plain_log).fired,
            "instrumented run must fire the identical (index, gen, draw) sequence"
        );
        assert_eq!(full.events_processed(), plain.events_processed());
        assert_eq!(full.now(), plain.now());
        let plain_pos = plain.component(plain_log).rng.get_word_pos();
        let full_pos = full.component(full_log).rng.get_word_pos();
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
        let (mut sim, _) = rng_timer_sim();
        sim.set_profiler(
            2,
            classify,
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

    #[test]
    #[should_panic(expected = "accessed itself")]
    fn self_access_through_peers_panics() {
        struct Selfish;
        impl Component<World, Ev> for Selfish {
            fn handle(
                &mut self,
                _world: &mut World,
                peers: &mut Peers<'_, World, Ev>,
                _ctx: &mut SimulationContext<'_, Ev>,
                _event: Ev,
            ) {
                let me: Handle<Selfish> = Handle::from_raw(0);
                let _ = peers.get_mut(me);
            }
        }
        let mut sim: Simulation<World, Ev> = Simulation::new(Vec::new());
        let h = sim.add_component(Selfish);
        sim.access(|_, _, ctx| ctx.schedule(SimTime::ZERO, h.id(), Ev::Ping));
        sim.run_until(SimTime::ZERO);
    }

    #[test]
    fn simulation_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Simulation<World, Ev>>();
    }
}
