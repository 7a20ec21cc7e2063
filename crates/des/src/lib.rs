//! `wlan-des` — a generic, deterministic discrete-event simulation kernel.
//!
//! The kernel knows nothing about wireless LANs (or any other domain). It
//! provides exactly the machinery a high-rate event simulation needs to be
//! fast *and* bit-for-bit reproducible:
//!
//! * [`SimTime`]/[`SimDuration`] — integer-nanosecond time, no float drift
//!   ([`time`]).
//! * An event queue ([`queue`]): a binary heap for general events plus
//!   alarms, each holding at most one event that its owner sets, replaces
//!   or clears in O(1), all merged by one `(time, seq)` total order so pop
//!   order is deterministic and FIFO on ties.
//! * A component registry and event loop ([`simulation`]): models are
//!   decomposed into [`Component`]s that receive their own events and call
//!   peers synchronously through split-borrowed [`Peers`] — no `Rc`/
//!   `RefCell`, so a whole [`Simulation`] is [`Send`].
//! * A generational [`Slab`] ([`slab`]) for entities whose lifecycle spans
//!   events, keeping memory bounded by concurrency instead of run length.
//! * A checkpoint codec ([`snapshot`]): one positional [`State`] trait,
//!   implemented by the [`state!`] macro from a type's list of mutable
//!   fields, saves the kernel (clock, `(time, seq)` counter, pending events)
//!   and model state, RNG streams included, into a checksummed
//!   [`StateWriter`] blob and loads it back in place, so a resumed run is
//!   bit-identical to a straight-through run and a corrupt snapshot is an
//!   error.
//!
//! # A minimal custom component
//!
//! A component is a plain struct implementing [`Component`]. The example
//! below is a self-rescheduling ticker: every `Tick` it logs the current
//! time into the shared world and schedules the next one.
//!
//! ```
//! use wlan_des::{
//!     Component, Peers, SimDuration, SimTime, Simulation, SimulationContext,
//! };
//!
//! // The event vocabulary (shared by all components in a simulation).
//! #[derive(Debug, Clone, Copy, PartialEq, Eq)]
//! enum Event {
//!     Tick,
//! }
//!
//! // The shared world: here, just a log of tick times.
//! type World = Vec<SimTime>;
//!
//! struct Ticker {
//!     period: SimDuration,
//! }
//!
//! impl Component<World, Event> for Ticker {
//!     fn handle(
//!         &mut self,
//!         world: &mut World,
//!         _peers: &mut Peers<'_, World, Event>,
//!         ctx: &mut SimulationContext<'_, Event>,
//!         event: Event,
//!     ) {
//!         assert_eq!(event, Event::Tick);
//!         world.push(ctx.now());
//!         // Self-reschedule: address the next tick to our own id (0 —
//!         // the first component registered).
//!         ctx.schedule(ctx.now() + self.period, 0, Event::Tick);
//!     }
//! }
//!
//! let mut sim: Simulation<World, Event> = Simulation::new(Vec::new());
//! let ticker = sim.add_component(Ticker {
//!     period: SimDuration::from_millis(1),
//! });
//! // Seed the first tick, then run: events at t <= t_end are processed.
//! sim.access(|_, _, ctx| ctx.schedule(SimTime::ZERO, ticker.id(), Event::Tick));
//! sim.run_for(SimDuration::from_millis(10));
//!
//! assert_eq!(sim.world().len(), 11); // t = 0ms, 1ms, ..., 10ms inclusive
//! assert_eq!(sim.events_processed(), 11);
//! assert_eq!(sim.now(), SimTime::from_millis(10));
//! ```
//!
//! Real models hang richer machinery off the same skeleton: typed
//! [`Handle`]s for synchronous peer calls, and alarms
//! ([`Simulation::add_alarm`]) that hold the earliest of the timers a model
//! keeps itself. The kernel draws no randomness: each component owns the
//! RNG streams it draws from, derived by the model from its seed, and
//! checkpoints them with the rest of its state.
//!
//! # Observability
//!
//! The kernel carries a zero-cost-when-off telemetry layer ([`metrics`]):
//! per-component/per-event-kind dispatch counters
//! ([`Simulation::enable_metrics`] → [`Simulation::metrics_report`]),
//! always-available queue tallies ([`EventQueue::counters`],
//! [`EventQueue::scheduler_stats`]), an event-stream digest, and a sampled
//! wall-clock self-profiler ([`Simulation::set_profiler`]). No
//! telemetry path draws RNG or perturbs the `(time, seq)` order, so traces
//! stay byte-identical at any verbosity.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod metrics;
pub mod queue;
pub mod simulation;
pub mod slab;
pub mod snapshot;
pub mod time;

pub use metrics::{ComponentDispatch, MetricsReport, ProfileSample, QueueCounters, SchedulerStats};
pub use queue::{AlarmId, EventQueue};
pub use simulation::{AsAny, Component, ComponentId, Handle, Peers, Simulation, SimulationContext};
pub use slab::{Slab, SlotId};
pub use snapshot::{SnapshotError, State, StateReader, StateWriter};
pub use time::{SimDuration, SimTime};
