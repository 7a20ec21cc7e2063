//! The WLAN engine's event vocabulary.
//!
//! The queue machinery itself — `(time, seq)` total order, binary-heap
//! general tier, one-event alarms — lives in the generic `wlan-des` kernel
//! ([`wlan_des::queue`]); this module only defines the event payloads the
//! WLAN components exchange.
//!
//! Transmission-scoped events carry the generational [`TxId`] of their slab
//! entry, so the channel can reclaim entries eagerly without ever risking a
//! stale event aliasing a recycled slot.
//!
//! Two event kinds are timers the engine keeps in its own tables
//! ([`Timers`](super::timers::Timers)) rather than in the general heap (see
//! the kernel's queue docs for why): backoff timers (`TxStart`) and frame
//! arrivals (`FrameArrival` — at most one pending per station, cancelled on
//! deactivation). Each table's earliest timer is the one pending event of
//! its kernel alarm. In saturated runs the arrival alarm stays empty and the
//! pop order is untouched.

use crate::topology::NodeId;

/// Generational id of a slab-resident in-flight transmission.
pub(crate) type TxId = wlan_des::SlotId;

/// Kinds of events processed by the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum Event {
    /// A station's backoff counter is due to reach zero and the station
    /// transmits. Live only while the MAC's timer table holds the timer: a
    /// freeze cancels it there, so no generation is needed.
    TxStart { station: NodeId },
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
    /// pending per station, so deactivation cancels it in the arrival
    /// table — no generation counter is needed.
    FrameArrival { station: NodeId },
    /// Periodic statistics sampling tick.
    #[default]
    StatsTick,
}

// Pending events are checkpointed with the kernel, general and alarm alike.
wlan_des::state!(enum Event {
    TxStart { station },
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

    /// The payload identity the kernel's event digest folds in beside the
    /// kind: the station of a station-addressed event, the transmission of
    /// a transmission-scoped one. It orders same-instant events of one
    /// kind, such as the `TxEnd`s of one collision.
    pub(crate) fn identity(&self) -> u64 {
        match *self {
            Event::TxStart { station }
            | Event::AckTimeout { station, .. }
            | Event::FrameArrival { station } => station as u64,
            Event::TxEnd { tx } | Event::AckStart { tx } | Event::AckEnd { tx } => {
                u64::from(tx.index()) << 32 | u64::from(tx.generation())
            }
            Event::StatsTick => 0,
        }
    }
}
