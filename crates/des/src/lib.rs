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
//! * A model trait and event loop ([`simulation`]): a [`Simulation`] owns
//!   one [`Model`] and hands it every event with the [`ComponentId`] the
//!   event is addressed to; the model routes it to the component's handler,
//!   passing it the peers it calls as plain `&mut` borrows — no `Rc`/
//!   `RefCell`, so a simulation of a [`Send`] model is [`Send`].
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
//! # A minimal model
//!
//! A model is a plain struct implementing [`Model`]. The example below has
//! one component, a self-rescheduling ticker: every `Tick` it logs the
//! current time and schedules the next one.
//!
//! ```
//! use wlan_des::{ComponentId, Model, SimDuration, SimTime, Simulation, SimulationContext};
//!
//! // The event vocabulary (one enum for every component of the model).
//! #[derive(Debug, Clone, Copy, PartialEq, Eq)]
//! enum Event {
//!     Tick,
//! }
//!
//! struct Ticker {
//!     period: SimDuration,
//!     log: Vec<SimTime>,
//! }
//!
//! impl Model for Ticker {
//!     type Event = Event;
//!     // The ticker is component 0, the only one.
//!     const COMPONENTS: usize = 1;
//!
//!     fn handle(&mut self, ctx: &mut SimulationContext<'_, Event>, _: ComponentId, event: Event) {
//!         assert_eq!(event, Event::Tick);
//!         self.log.push(ctx.now());
//!         ctx.schedule(ctx.now() + self.period, 0, Event::Tick);
//!     }
//!
//!     fn kind(_: &Event) -> &'static str {
//!         "tick"
//!     }
//! }
//!
//! let mut sim = Simulation::new(|_| Ticker {
//!     period: SimDuration::from_millis(1),
//!     log: Vec::new(),
//! });
//! // Seed the first tick, then run: events at t <= t_end are processed.
//! sim.access(|_, ctx| ctx.schedule(SimTime::ZERO, 0, Event::Tick));
//! sim.run_for(SimDuration::from_millis(10));
//!
//! assert_eq!(sim.model().log.len(), 11); // t = 0ms, 1ms, ..., 10ms inclusive
//! assert_eq!(sim.events_processed(), 11);
//! assert_eq!(sim.now(), SimTime::from_millis(10));
//! ```
//!
//! Real models hang richer machinery off the same skeleton: several
//! components behind one `match` on the [`ComponentId`], and alarms
//! ([`EventQueue::add_alarm`], added while [`Simulation::new`] builds the
//! model) that hold the earliest of the timers a component keeps itself.
//! The kernel draws no randomness: each component owns the RNG streams it
//! draws from, derived by the model from its seed, and checkpoints them
//! with the rest of its state.
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
pub use simulation::{ComponentId, Model, Simulation, SimulationContext};
pub use slab::{Slab, SlotId};
pub use snapshot::{SnapshotError, State, StateReader, StateWriter};
pub use time::{SimDuration, SimTime};
