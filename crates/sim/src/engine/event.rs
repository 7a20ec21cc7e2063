//! The WLAN engine's event vocabulary.
//!
//! The queue machinery itself — `(time, seq)` total order, binary-heap
//! general tier, indexed timer tiers with physical cancellation — lives in
//! the generic `wlan-des` kernel ([`wlan_des::queue`]); this module only
//! defines the event payloads the WLAN components exchange and the timer-
//! tier constructors that synthesize them.
//!
//! Transmission-scoped events carry the generational [`TxId`] of their slab
//! entry, so the channel can reclaim entries eagerly without ever risking a
//! stale event aliasing a recycled slot.
//!
//! Two event kinds live in indexed timer tiers rather than the general
//! heap (see the kernel's queue docs for why): backoff timers
//! (`TxStart` — at most one pending per station, cancelled by naming the
//! station on every carrier-sense freeze) and frame arrivals
//! (`FrameArrival` — at most one pending per station, cancelled on
//! deactivation). In saturated runs the arrival tier stays empty and the pop
//! order is untouched.

use crate::topology::NodeId;

/// Generational id of a slab-resident in-flight transmission.
pub(crate) type TxId = wlan_des::SlotId;

/// Kinds of events processed by the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum Event {
    /// A station's backoff counter is due to reach zero and the station transmits.
    /// `gen` lazily invalidates timers that were frozen by carrier sensing.
    TxStart { station: NodeId, gen: u64 },
    /// A data transmission ends.
    TxEnd { tx: TxId },
    /// The AP starts transmitting the ACK for transmission `tx`.
    AckStart { tx: TxId },
    /// The AP finishes transmitting the ACK for transmission `tx`.
    AckEnd { tx: TxId },
    /// A station gives up waiting for an ACK. `gen` invalidates stale timeouts.
    AckTimeout { station: NodeId, gen: u64 },
    /// A station's arrival process generates the next frame (finite-load
    /// traffic only; never scheduled in saturated runs). At most one is
    /// pending per station, so deactivation cancels it physically — no
    /// generation counter is needed.
    FrameArrival { station: NodeId },
    /// Periodic statistics sampling tick.
    #[default]
    StatsTick,
}

// Pending general-queue events are checkpointed; timer-tier entries are
// rebuilt through their tier constructors instead.
wlan_des::state!(enum Event {
    TxStart { station, gen },
    TxEnd { tx },
    AckStart { tx },
    AckEnd { tx },
    AckTimeout { station, gen },
    FrameArrival { station },
    StatsTick,
});

impl Event {
    /// Stable telemetry label of this event's kind, used as the dispatch-
    /// counter key by the kernel metrics registry
    /// ([`wlan_des::Simulation::enable_metrics`]). Labels are part of the
    /// metrics-report format; renaming one changes `MetricsReport` JSON.
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            Event::TxStart { .. } => "tx_start",
            Event::TxEnd { .. } => "tx_end",
            Event::AckStart { .. } => "ack_start",
            Event::AckEnd { .. } => "ack_end",
            Event::AckTimeout { .. } => "ack_timeout",
            Event::FrameArrival { .. } => "frame_arrival",
            Event::StatsTick => "stats_tick",
        }
    }
}

/// Timer-tier constructor for the backoff tier: a fired timer at `station`
/// with arming generation `gen` becomes that station's `TxStart`.
pub(crate) fn make_tx_start(station: usize, gen: u64) -> Event {
    Event::TxStart { station, gen }
}

/// Timer-tier constructor for the arrival tier (the generation is unused —
/// arrivals are cancelled physically, never lazily).
pub(crate) fn make_frame_arrival(station: usize, _gen: u64) -> Event {
    Event::FrameArrival { station }
}
